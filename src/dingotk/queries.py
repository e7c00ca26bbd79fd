"""Funding-graph queries: grants, projects, schemes, roles and temporal checks.

All functions are pure reads over an immutable Graph (+ OntologySchema where
subsumption matters). Messy data never raises here: untyped nodes in funding
positions produce UntypedNodeWarning, and strictness belongs to the shapes
validator.

The vocabulary is a DingoTerms, the DINGO terms minted against one base IRI;
the default is the bundled ontology's base. Every query recognizes both
orientations of each paired relation (funds/funded_by,
has_criterion/criterion_of, ...), as well as both the direct and the reified
style of attaching participants to projects.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .dates import compare_partial_dates, parse_partial_date
from .ontology import DingoTerms, OntologySchema, find_cycle
from .terms import DingoError, Graph, IRI, Literal, Term, term_sort_key


class UntypedNodeWarning(UserWarning):
    """A query endpoint is not typed as the class the query expects."""


class SchemeCycleError(DingoError):
    def __init__(self, members) -> None:
        self.members = tuple(sorted(members, key=term_sort_key))
        names = ", ".join(
            m.value if isinstance(m, IRI) else repr(m) for m in self.members
        )
        super().__init__(f"funding scheme hierarchy cycle among: {names}")


@dataclass(frozen=True)
class FundingLink:
    """Direction-agnostic grant/project pair from the funding relation."""

    grant: Term
    project: Term


@dataclass(frozen=True)
class Participation:
    project: Term
    agent: Term
    role: Optional[Term] = None


@dataclass(frozen=True)
class TemporalViolation:
    node: Term
    property_pair: tuple  # (start-property IRI, end-property IRI)
    start_value: str
    end_value: str
    code: str  # "start-after-end" or "unparseable-date"


DEFAULT_TERMS = DingoTerms()


def _paired_neighbors(data: Graph, node: Term, outgoing: IRI, incoming: IRI) -> set:
    """Union of objects via `outgoing` and subjects via `incoming`."""
    found = {t.object for t in data.match(node, outgoing, None)}
    found |= {t.subject for t in data.match(None, incoming, node)}
    return found


def _warn_if_untyped(data: Graph, schema: Optional[OntologySchema], node: Term, cls: IRI) -> None:
    if schema is None or cls not in schema.classes:
        return
    if node not in schema.instances_of(data, cls):
        warnings.warn(
            UntypedNodeWarning(f"{node!r} is not typed as {cls.value}"),
            stacklevel=3,
        )


def grants_funding_project(
    data: Graph,
    schema: Optional[OntologySchema],
    project: Term,
    vocab: DingoTerms = DEFAULT_TERMS,
) -> set:
    """All grants linked to the project by the funding relation."""
    _warn_if_untyped(data, schema, project, vocab.Project)
    return _paired_neighbors(data, project, vocab.funded_by, vocab.funds)


def projects_funded_by(
    data: Graph,
    schema: Optional[OntologySchema],
    grant: Term,
    vocab: DingoTerms = DEFAULT_TERMS,
) -> set:
    """All projects the grant funds."""
    _warn_if_untyped(data, schema, grant, vocab.Grant)
    return _paired_neighbors(data, grant, vocab.funds, vocab.funded_by)


def funding_links(data: Graph, vocab: DingoTerms = DEFAULT_TERMS) -> set:
    """Every grant/project pair linked by the funding relation, normalized."""
    links = {
        FundingLink(t.subject, t.object) for t in data.match(None, vocab.funds, None)
    }
    links |= {
        FundingLink(t.object, t.subject) for t in data.match(None, vocab.funded_by, None)
    }
    return links


def _parents_of(data: Graph, scheme: Term, vocab: DingoTerms) -> set:
    return _paired_neighbors(data, scheme, vocab.subscheme_of, vocab.has_subscheme)


def scheme_ancestry(
    data: Graph,
    scheme: Term,
    vocab: DingoTerms = DEFAULT_TERMS,
) -> list:
    """Parent schemes from direct parent to root, breadth-first.

    Multi-parent schemes yield a breadth-first layering with canonical term
    order inside each layer; a node appears once at its shallowest depth.
    Cyclic parent data raises SchemeCycleError naming the members.
    """
    cycle = find_cycle(
        [scheme], lambda node: sorted(_parents_of(data, node, vocab), key=term_sort_key)
    )
    if cycle is not None:
        raise SchemeCycleError(cycle)

    ancestry: list = []
    seen = {scheme}
    frontier = [scheme]
    while frontier:
        layer: set = set()
        for node in frontier:
            layer |= _parents_of(data, node, vocab) - seen
        ordered = sorted(layer, key=term_sort_key)
        ancestry.extend(ordered)
        seen |= layer
        frontier = ordered
    return ancestry


def criteria_for_scheme(
    data: Graph,
    scheme: Term,
    inherited: bool = False,
    vocab: DingoTerms = DEFAULT_TERMS,
) -> set:
    """Criteria attached to the scheme; with inherited=True, along its ancestry."""
    targets = [scheme]
    if inherited:
        targets.extend(scheme_ancestry(data, scheme, vocab))
    found: set = set()
    for node in targets:
        found |= _paired_neighbors(data, node, vocab.has_criterion, vocab.criterion_of)
    return found


def participants_with_roles(
    data: Graph,
    schema: Optional[OntologySchema],
    project: Term,
    vocab: DingoTerms = DEFAULT_TERMS,
) -> list:
    """Participations of a project, role attached when the data provides one.

    Both styles are read: direct (project -> agent, role on the agent) and
    reified (project -> participation node -> agent + role).
    """
    entries: set = set()
    direct_agents = _paired_neighbors(
        data, project, vocab.has_participant, vocab.participates_in
    )
    for agent in direct_agents:
        roles = data.objects(agent, vocab.has_role)
        if roles:
            for role in roles:
                entries.add(Participation(project, agent, role))
        else:
            entries.add(Participation(project, agent, None))
    for pnode in data.objects(project, vocab.has_participation):
        agents = data.objects(pnode, vocab.participant)
        roles = data.objects(pnode, vocab.in_role)
        for agent in agents:
            if roles:
                for role in roles:
                    entries.add(Participation(project, agent, role))
            else:
                entries.add(Participation(project, agent, None))
    return sorted(
        entries,
        key=lambda p: (term_sort_key(p.agent), term_sort_key(p.role) if p.role else ()),
    )


def beneficiaries_of(
    data: Graph,
    grant: Term,
    vocab: DingoTerms = DEFAULT_TERMS,
) -> set:
    """Agents the grant is awarded to."""
    return _paired_neighbors(data, grant, vocab.has_beneficiary, vocab.beneficiary_of)


def non_beneficiary_participants(
    data: Graph,
    schema: Optional[OntologySchema],
    project: Term,
    vocab: DingoTerms = DEFAULT_TERMS,
) -> set:
    """Project participants that no grant funding the project is awarded to."""
    agents = {p.agent for p in participants_with_roles(data, schema, project, vocab)}
    benefiting: set = set()
    for grant in _paired_neighbors(data, project, vocab.funded_by, vocab.funds):
        benefiting |= beneficiaries_of(data, grant, vocab)
    return agents - benefiting


def check_temporal(
    data: Graph,
    vocab: DingoTerms = DEFAULT_TERMS,
) -> list:
    """Start/end ordering violations over every node carrying both kinds.

    Values compare at the coarser of the two precisions; equality at that
    precision is fine. Pairs with an unparseable side are reported with the
    distinct code "unparseable-date" instead of crashing.
    """
    violations: set = set()
    start_values: dict = {}
    end_values: dict = {}
    for prop in (vocab.start_time, vocab.inception):
        for t in data.match(None, prop, None):
            if isinstance(t.object, Literal):
                start_values.setdefault(t.subject, []).append((prop, t.object.lexical))
    for prop in (vocab.end_time,):
        for t in data.match(None, prop, None):
            if isinstance(t.object, Literal):
                end_values.setdefault(t.subject, []).append((prop, t.object.lexical))

    for node in start_values.keys() & end_values.keys():
        for start_prop, start_lex in start_values[node]:
            for end_prop, end_lex in end_values[node]:
                start = parse_partial_date(start_lex)
                end = parse_partial_date(end_lex)
                pair = (start_prop, end_prop)
                if start is None or end is None:
                    violations.add(
                        TemporalViolation(node, pair, start_lex, end_lex, "unparseable-date")
                    )
                elif compare_partial_dates(start, end) > 0:
                    violations.add(
                        TemporalViolation(node, pair, start_lex, end_lex, "start-after-end")
                    )
    return sorted(
        violations,
        key=lambda v: (
            term_sort_key(v.node),
            v.property_pair[0].value,
            v.property_pair[1].value,
            v.start_value,
            v.end_value,
            v.code,
        ),
    )
