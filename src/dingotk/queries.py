"""Funding-graph queries: grants, projects, schemes, roles and temporal checks.

All functions are pure reads over an immutable Graph (+ OntologySchema where
subsumption matters). Messy data never raises here: untyped nodes in funding
positions produce UntypedNodeWarning, and strictness belongs to the shapes
validator.

The predicate vocabulary is configurable through Conventions; the defaults
match the bundled ontology snapshot and recognize both orientations of every
paired relation (funds/funded_by, has_criterion/criterion_of, ...), as well
as both the direct and the reified style of attaching participants to
projects.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .dates import compare_partial_dates, parse_partial_date
from .ontology import DINGO_BASE, DingoTerms, OntologySchema, find_cycle
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


@dataclass(frozen=True)
class Conventions:
    """Predicate and class vocabulary the queries navigate with."""

    project_class: IRI
    grant_class: IRI
    scheme_class: IRI
    funds: IRI
    funded_by: IRI
    has_beneficiary: IRI
    beneficiary_of: IRI
    has_participant: IRI
    participates_in: IRI
    has_participation: IRI
    participant: IRI
    in_role: IRI
    has_role: IRI
    has_criterion: IRI
    criterion_of: IRI
    subscheme_of: IRI
    has_subscheme: IRI
    start_properties: tuple = ()
    end_properties: tuple = ()

    @classmethod
    def for_base(cls, base: str = DINGO_BASE) -> "Conventions":
        d = DingoTerms(base)
        return cls(
            project_class=d.Project,
            grant_class=d.Grant,
            scheme_class=d.FundingScheme,
            funds=d.funds,
            funded_by=d.funded_by,
            has_beneficiary=d.has_beneficiary,
            beneficiary_of=d.beneficiary_of,
            has_participant=d.has_participant,
            participates_in=d.participates_in,
            has_participation=d.has_participation,
            participant=d.participant,
            in_role=d.in_role,
            has_role=d.has_role,
            has_criterion=d.has_criterion,
            criterion_of=d.criterion_of,
            subscheme_of=d.subscheme_of,
            has_subscheme=d.has_subscheme,
            start_properties=(d.start_time, d.inception),
            end_properties=(d.end_time,),
        )


DEFAULT_CONVENTIONS = Conventions.for_base()


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
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> set:
    """All grants linked to the project by the funding relation."""
    _warn_if_untyped(data, schema, project, conventions.project_class)
    return _paired_neighbors(data, project, conventions.funded_by, conventions.funds)


def projects_funded_by(
    data: Graph,
    schema: Optional[OntologySchema],
    grant: Term,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> set:
    """All projects the grant funds."""
    _warn_if_untyped(data, schema, grant, conventions.grant_class)
    return _paired_neighbors(data, grant, conventions.funds, conventions.funded_by)


def funding_links(data: Graph, conventions: Conventions = DEFAULT_CONVENTIONS) -> set:
    """Every grant/project pair linked by the funding relation, normalized."""
    links = {
        FundingLink(t.subject, t.object) for t in data.match(None, conventions.funds, None)
    }
    links |= {
        FundingLink(t.object, t.subject) for t in data.match(None, conventions.funded_by, None)
    }
    return links


def _parents_of(data: Graph, scheme: Term, conventions: Conventions) -> set:
    return _paired_neighbors(data, scheme, conventions.subscheme_of, conventions.has_subscheme)


def scheme_ancestry(
    data: Graph,
    scheme: Term,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> list:
    """Parent schemes from direct parent to root, breadth-first.

    Multi-parent schemes yield a breadth-first layering with canonical term
    order inside each layer; a node appears once at its shallowest depth.
    Cyclic parent data raises SchemeCycleError naming the members.
    """
    cycle = find_cycle(
        [scheme], lambda node: sorted(_parents_of(data, node, conventions), key=term_sort_key)
    )
    if cycle is not None:
        raise SchemeCycleError(cycle)

    ancestry: list = []
    seen = {scheme}
    frontier = [scheme]
    while frontier:
        layer: set = set()
        for node in frontier:
            layer |= _parents_of(data, node, conventions) - seen
        ordered = sorted(layer, key=term_sort_key)
        ancestry.extend(ordered)
        seen |= layer
        frontier = ordered
    return ancestry


def criteria_for_scheme(
    data: Graph,
    scheme: Term,
    inherited: bool = False,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> set:
    """Criteria attached to the scheme; with inherited=True, along its ancestry."""
    targets = [scheme]
    if inherited:
        targets.extend(scheme_ancestry(data, scheme, conventions))
    found: set = set()
    for node in targets:
        found |= _paired_neighbors(data, node, conventions.has_criterion, conventions.criterion_of)
    return found


def participants_with_roles(
    data: Graph,
    schema: Optional[OntologySchema],
    project: Term,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> list:
    """Participations of a project, role attached when the data provides one.

    Both styles are read: direct (project -> agent, role on the agent) and
    reified (project -> participation node -> agent + role).
    """
    entries: set = set()
    direct_agents = _paired_neighbors(
        data, project, conventions.has_participant, conventions.participates_in
    )
    for agent in direct_agents:
        roles = data.objects(agent, conventions.has_role)
        if roles:
            for role in roles:
                entries.add(Participation(project, agent, role))
        else:
            entries.add(Participation(project, agent, None))
    for pnode in data.objects(project, conventions.has_participation):
        agents = data.objects(pnode, conventions.participant)
        roles = data.objects(pnode, conventions.in_role)
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
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> set:
    """Agents the grant is awarded to."""
    return _paired_neighbors(data, grant, conventions.has_beneficiary, conventions.beneficiary_of)


def non_beneficiary_participants(
    data: Graph,
    schema: Optional[OntologySchema],
    project: Term,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> set:
    """Project participants that no grant funding the project is awarded to."""
    agents = {p.agent for p in participants_with_roles(data, schema, project, conventions)}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UntypedNodeWarning)
        grants = grants_funding_project(data, schema, project, conventions)
    benefiting: set = set()
    for grant in grants:
        benefiting |= beneficiaries_of(data, grant, conventions)
    return agents - benefiting


def check_temporal(
    data: Graph,
    conventions: Conventions = DEFAULT_CONVENTIONS,
) -> list:
    """Start/end ordering violations over every node carrying both kinds.

    Values compare at the coarser of the two precisions; equality at that
    precision is fine. Pairs with an unparseable side are reported with the
    distinct code "unparseable-date" instead of crashing.
    """
    violations: set = set()
    start_values: dict = {}
    end_values: dict = {}
    for prop in conventions.start_properties:
        for t in data.match(None, prop, None):
            if isinstance(t.object, Literal):
                start_values.setdefault(t.subject, []).append((prop, t.object.lexical))
    for prop in conventions.end_properties:
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
