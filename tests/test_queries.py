import random

import pytest

from dingotk.ontology import DINGO_BASE, DingoTerms, OntologySchema
from dingotk.queries import (
    FundingLink,
    Participation,
    SchemeCycleError,
    UntypedNodeWarning,
    beneficiaries_of,
    check_temporal,
    criteria_for_scheme,
    funding_links,
    grants_funding_project,
    non_beneficiary_participants,
    participants_with_roles,
    projects_funded_by,
    scheme_ancestry,
)
from dingotk.terms import Graph, IRI, Literal, Triple
from dingotk.turtle import parse_turtle

D = DingoTerms()
X = "http://x/"


def fixture(ttl: str) -> Graph:
    return parse_turtle(f"@prefix d: <{DINGO_BASE}> .\n@prefix x: <{X}> .\n" + ttl)


def iri(local: str) -> IRI:
    return IRI(X + local)


# --- funding oracles --------------------------------------------------------


def scan_grants_of(g: Graph, project) -> set:
    found = set()
    for t in g.triples:
        if t.predicate == D.funds and t.object == project:
            found.add(t.subject)
        if t.predicate == D.funded_by and t.subject == project:
            found.add(t.object)
    return found


def scan_projects_of(g: Graph, grant) -> set:
    found = set()
    for t in g.triples:
        if t.predicate == D.funds and t.subject == grant:
            found.add(t.object)
        if t.predicate == D.funded_by and t.object == grant:
            found.add(t.subject)
    return found


# --- fixtures ---------------------------------------------------------------

MULTI_GRANT = fixture(
    "x:p1 a d:Project ; d:funded_by x:g2 .\n"
    "x:g1 a d:Grant ; d:funds x:p1 ; d:has_beneficiary x:org .\n"
    "x:g2 a d:Grant ; d:has_beneficiary x:org .\n"
    "x:org a d:Organisation .\n"
)

SEQUENTIAL_GRANTS = fixture(
    "x:p1 a d:Project .\n"
    'x:g1 a d:Grant ; d:funds x:p1 ; d:start_time "2015-01-01"^^<http://www.w3.org/2001/XMLSchema#date> ; '
    'd:end_time "2017-12-31"^^<http://www.w3.org/2001/XMLSchema#date> .\n'
    'x:g2 a d:Grant ; d:funds x:p1 ; d:start_time "2018-01-01"^^<http://www.w3.org/2001/XMLSchema#date> ; '
    'd:end_time "2020-12-31"^^<http://www.w3.org/2001/XMLSchema#date> .\n'
)

MULTI_PROJECT_GRANT = fixture(
    "x:g1 a d:Grant ; d:funds x:sub1, x:sub2 .\n"
    "x:sub1 a d:Project . x:sub2 a d:Project .\n"
)

MIXED_BENEFICIARIES = fixture(
    "x:g1 a d:Grant ; d:has_beneficiary x:alice .\n"
    "x:uni d:beneficiary_of x:g1 .\n"
    "x:alice a d:Person . x:uni a d:Organisation .\n"
)

DIRECT_PARTICIPATION = fixture(
    "x:p1 a d:Project ; d:has_participant x:alice .\n"
    "x:uni d:participates_in x:p1 .\n"
    "x:alice a d:Person ; d:has_role d:principal_investigator .\n"
    "x:uni a d:Organisation .\n"
)

REIFIED_PARTICIPATION = fixture(
    "x:p1 a d:Project ; d:has_participation x:part1 .\n"
    "x:part1 a d:Participation ; d:participant x:bob ; d:in_role d:co_investigator .\n"
    "x:bob a d:Person .\n"
)

PARTICIPANT_NOT_BENEFICIARY = fixture(
    "x:p1 a d:Project ; d:has_participant x:carol, x:uni .\n"
    "x:g1 a d:Grant ; d:funds x:p1 ; d:has_beneficiary x:uni .\n"
    "x:carol a d:Person . x:uni a d:Organisation .\n"
)

SCHEME_CHAIN = fixture(
    "x:s3 a d:FundingScheme ; d:subscheme_of x:s2 .\n"
    "x:s2 a d:FundingScheme ; d:subscheme_of x:s1 .\n"
    "x:s1 a d:FundingScheme .\n"
)

SCHEME_DIAMOND = fixture(
    "x:s a d:FundingScheme ; d:subscheme_of x:pa, x:pb .\n"
    "x:pa a d:FundingScheme ; d:subscheme_of x:root .\n"
    "x:root d:has_subscheme x:pb .\n"
    "x:pb a d:FundingScheme .\n"
    "x:root a d:FundingScheme .\n"
)

MULTI_CRITERION = fixture(
    "x:s a d:FundingScheme ; d:has_criterion x:c1 .\n"
    "x:c2 d:criterion_of x:s .\n"
    "x:c1 a d:EligibilityCriterion . x:c2 a d:OpenScienceCriterion .\n"
)

INHERITED_CRITERIA = fixture(
    "x:child a d:FundingScheme ; d:subscheme_of x:parent ; d:has_criterion x:own .\n"
    "x:parent a d:FundingScheme ; d:has_criterion x:inheritedc .\n"
    "x:own a d:Criterion . x:inheritedc a d:Criterion .\n"
)

TEMPORAL_MIXED = fixture(
    'x:bad a d:Project ; d:start_time "2019-01-01" ; d:end_time "2018-12-31" .\n'
    'x:coarse a d:Project ; d:start_time "2019" ; d:end_time "2019-03" .\n'
    'x:weird a d:Grant ; d:inception "sometime" ; d:end_time "2020-01-01" .\n'
    'x:fine a d:Grant ; d:start_time "2020-01-01" ; d:end_time "2020-01-01" .\n'
)

SCHEME_CYCLE = fixture(
    "x:s1 a d:FundingScheme ; d:subscheme_of x:s2 .\n"
    "x:s2 a d:FundingScheme ; d:subscheme_of x:s1 .\n"
)

UNTYPED_PROJECT = fixture("x:mystery d:funded_by x:g1 .\nx:g1 a d:Grant .\n")

UNFUNDED = fixture("x:lonely a d:Project .\nx:idle a d:Grant .\n")

ALL_FIXTURES = [
    MULTI_GRANT,
    SEQUENTIAL_GRANTS,
    MULTI_PROJECT_GRANT,
    MIXED_BENEFICIARIES,
    DIRECT_PARTICIPATION,
    REIFIED_PARTICIPATION,
    PARTICIPANT_NOT_BENEFICIARY,
    SCHEME_CHAIN,
    SCHEME_DIAMOND,
    MULTI_CRITERION,
    INHERITED_CRITERIA,
    TEMPORAL_MIXED,
    SCHEME_CYCLE,
    UNTYPED_PROJECT,
    UNFUNDED,
]


def test_corpus_is_large_enough():
    assert len(ALL_FIXTURES) >= 12


# --- funding ----------------------------------------------------------------


def test_multi_grant_project(snapshot_schema):
    grants = grants_funding_project(MULTI_GRANT, snapshot_schema, iri("p1"))
    assert grants == {iri("g1"), iri("g2")}


def test_sequential_grants(snapshot_schema):
    grants = grants_funding_project(SEQUENTIAL_GRANTS, snapshot_schema, iri("p1"))
    assert grants == {iri("g1"), iri("g2")}
    assert check_temporal(SEQUENTIAL_GRANTS) == []


def test_unfunded_project_and_idle_grant(snapshot_schema):
    assert grants_funding_project(UNFUNDED, snapshot_schema, iri("lonely")) == set()
    assert projects_funded_by(UNFUNDED, snapshot_schema, iri("idle")) == set()


def test_multi_project_grant(snapshot_schema):
    projects = projects_funded_by(MULTI_PROJECT_GRANT, snapshot_schema, iri("g1"))
    assert projects == {iri("sub1"), iri("sub2")}


def test_funding_queries_match_scan_oracle(snapshot_schema):
    for g in ALL_FIXTURES:
        if g in (SCHEME_CYCLE,):
            continue
        nodes = sorted(g.nodes(), key=repr)
        for node in nodes:
            import warnings as w

            with w.catch_warnings():
                w.simplefilter("ignore")
                assert grants_funding_project(g, snapshot_schema, node) == scan_grants_of(g, node)
                assert projects_funded_by(g, snapshot_schema, node) == scan_projects_of(g, node)


def test_funding_inverse_consistency_randomized(snapshot_schema):
    rng = random.Random(42)
    for _ in range(15):
        projects = [iri(f"p{i}") for i in range(4)]
        grants = [iri(f"g{i}") for i in range(4)]
        triples = [Triple(p, IRI(DINGO_BASE + "type_ignore"), Literal("x")) for p in projects]
        for g_node in grants:
            for p_node in projects:
                roll = rng.random()
                if roll < 0.2:
                    triples.append(Triple(g_node, D.funds, p_node))
                elif roll < 0.4:
                    triples.append(Triple(p_node, D.funded_by, g_node))
        data = Graph(triples)
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("ignore")
            for p_node in projects:
                for g_node in grants:
                    forward = g_node in grants_funding_project(data, snapshot_schema, p_node)
                    backward = p_node in projects_funded_by(data, snapshot_schema, g_node)
                    assert forward == backward


def test_untyped_node_warning(snapshot_schema):
    with pytest.warns(UntypedNodeWarning):
        found = grants_funding_project(UNTYPED_PROJECT, snapshot_schema, iri("mystery"))
    assert found == {iri("g1")}


def test_typed_node_does_not_warn(snapshot_schema):
    import warnings as w

    with w.catch_warnings():
        w.simplefilter("error", UntypedNodeWarning)
        grants_funding_project(MULTI_GRANT, snapshot_schema, iri("p1"))


# --- beneficiaries and participants ----------------------------------------


def test_person_and_organisation_beneficiaries():
    assert beneficiaries_of(MIXED_BENEFICIARIES, iri("g1")) == {iri("alice"), iri("uni")}


def test_beneficiaries_of_grant_without_award():
    assert beneficiaries_of(UNFUNDED, iri("idle")) == set()


def test_beneficiaries_match_scan_oracle():
    for g in ALL_FIXTURES:
        for node in sorted(g.nodes(), key=repr):
            expected = set()
            for t in g.triples:
                if t.predicate == D.has_beneficiary and t.subject == node:
                    expected.add(t.object)
                if t.predicate == D.beneficiary_of and t.object == node:
                    expected.add(t.subject)
            assert beneficiaries_of(g, node) == expected


def test_funding_links_are_direction_agnostic():
    links = funding_links(MULTI_GRANT)
    assert links == {
        FundingLink(iri("g1"), iri("p1")),
        FundingLink(iri("g2"), iri("p1")),
    }
    # pairwise consistency with the per-node queries
    for g in ALL_FIXTURES:
        pairs = funding_links(g)
        for node in sorted(g.nodes(), key=repr):
            import warnings as w

            with w.catch_warnings():
                w.simplefilter("ignore")
                assert {l.grant for l in pairs if l.project == node} == grants_funding_project(
                    g, None, node
                )
                assert {l.project for l in pairs if l.grant == node} == projects_funded_by(
                    g, None, node
                )


def test_direct_participation_roles(snapshot_schema):
    found = participants_with_roles(DIRECT_PARTICIPATION, snapshot_schema, iri("p1"))
    assert found == [
        Participation(iri("p1"), iri("alice"), D.principal_investigator),
        Participation(iri("p1"), iri("uni"), None),
    ]


def test_reified_participation_roles(snapshot_schema):
    found = participants_with_roles(REIFIED_PARTICIPATION, snapshot_schema, iri("p1"))
    assert found == [Participation(iri("p1"), iri("bob"), D.co_investigator)]


def test_no_participants(snapshot_schema):
    assert participants_with_roles(UNFUNDED, snapshot_schema, iri("lonely")) == []


def test_participant_agents_match_scan_oracle(snapshot_schema):
    for g in ALL_FIXTURES:
        if g is SCHEME_CYCLE:
            continue
        for node in sorted(g.nodes(), key=repr):
            agents = {p.agent for p in participants_with_roles(g, snapshot_schema, node)}
            expected = set()
            for t in g.triples:
                if t.predicate == D.has_participant and t.subject == node:
                    expected.add(t.object)
                if t.predicate == D.participates_in and t.object == node:
                    expected.add(t.subject)
                if t.predicate == D.has_participation and t.subject == node:
                    for tt in g.triples:
                        if tt.predicate == D.participant and tt.subject == t.object:
                            expected.add(tt.object)
            assert agents == expected


def test_non_beneficiary_participants(snapshot_schema):
    found = non_beneficiary_participants(PARTICIPANT_NOT_BENEFICIARY, snapshot_schema, iri("p1"))
    assert found == {iri("carol")}


def test_all_participants_are_beneficiaries_gives_empty(snapshot_schema):
    data = fixture(
        "x:p1 a d:Project ; d:has_participant x:uni .\n"
        "x:g1 a d:Grant ; d:funds x:p1 ; d:has_beneficiary x:uni .\n"
        "x:uni a d:Organisation .\n"
    )
    assert non_beneficiary_participants(data, snapshot_schema, iri("p1")) == set()


def test_non_beneficiary_participants_scans_no_types_and_warns_nothing(snapshot_schema, monkeypatch):
    import warnings as w

    untyped = fixture(
        "x:p1 d:has_participant x:carol, x:uni ; d:funded_by x:g1 .\n"
        "x:g1 d:has_beneficiary x:uni .\n"
    )

    def no_scan(self, data, class_iri):
        raise AssertionError("instances_of scanned the data")

    monkeypatch.setattr(OntologySchema, "instances_of", no_scan)
    with w.catch_warnings():
        w.simplefilter("error")
        for data in (PARTICIPANT_NOT_BENEFICIARY, untyped):
            assert non_beneficiary_participants(data, snapshot_schema, iri("p1")) == {iri("carol")}


def test_non_beneficiary_set_algebra_oracle(snapshot_schema):
    rng = random.Random(7)
    for _ in range(15):
        agents = [iri(f"a{i}") for i in range(5)]
        grants = [iri(f"g{i}") for i in range(3)]
        project = iri("proj")
        triples = []
        participant_set = set()
        for agent in agents:
            if rng.random() < 0.7:
                triples.append(Triple(project, D.has_participant, agent))
                participant_set.add(agent)
        beneficiary_union = set()
        linked_grants = set()
        for grant in grants:
            if rng.random() < 0.8:
                triples.append(Triple(grant, D.funds, project))
                linked_grants.add(grant)
            for agent in agents:
                if rng.random() < 0.3:
                    triples.append(Triple(grant, D.has_beneficiary, agent))
                    if grant in linked_grants:
                        beneficiary_union.add(agent)
        data = Graph(triples)
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("ignore")
            found = non_beneficiary_participants(data, snapshot_schema, project)
        assert found == participant_set - beneficiary_union
        assert found & beneficiary_union == set()


# --- schemes and criteria ---------------------------------------------------


def test_scheme_chain_ancestry():
    assert scheme_ancestry(SCHEME_CHAIN, iri("s3")) == [iri("s2"), iri("s1")]
    assert scheme_ancestry(SCHEME_CHAIN, iri("s1")) == []


def test_deep_scheme_chain_ancestry():
    # deeper than the recursion limit: s5000 -> s4999 -> ... -> s0
    chain = Graph(Triple(iri(f"s{i + 1}"), D.subscheme_of, iri(f"s{i}")) for i in range(5000))
    ancestry = scheme_ancestry(chain, iri("s5000"))
    assert len(ancestry) == 5000
    assert ancestry[0] == iri("s4999") and ancestry[-1] == iri("s0")


def test_scheme_diamond_breadth_first_layering():
    assert scheme_ancestry(SCHEME_DIAMOND, iri("s")) == [iri("pa"), iri("pb"), iri("root")]


def test_ancestry_never_contains_query_scheme():
    for g in (SCHEME_CHAIN, SCHEME_DIAMOND, INHERITED_CRITERIA):
        for node in sorted(g.nodes(), key=repr):
            assert node not in scheme_ancestry(g, node)


def test_scheme_cycle_raises_with_members():
    with pytest.raises(SchemeCycleError) as err:
        scheme_ancestry(SCHEME_CYCLE, iri("s1"))
    assert set(err.value.members) == {iri("s1"), iri("s2")}


def test_cycle_propagates_to_inherited_criteria():
    with pytest.raises(SchemeCycleError):
        criteria_for_scheme(SCHEME_CYCLE, iri("s1"), inherited=True)
    # non-inherited lookup never walks the hierarchy
    assert criteria_for_scheme(SCHEME_CYCLE, iri("s1"), inherited=False) == set()


def test_multi_criterion_scheme():
    assert criteria_for_scheme(MULTI_CRITERION, iri("s")) == {iri("c1"), iri("c2")}


def test_inherited_criteria():
    assert criteria_for_scheme(INHERITED_CRITERIA, iri("child"), inherited=False) == {iri("own")}
    assert criteria_for_scheme(INHERITED_CRITERIA, iri("child"), inherited=True) == {
        iri("own"),
        iri("inheritedc"),
    }


def test_inherited_superset_of_direct():
    for g in ALL_FIXTURES:
        if g is SCHEME_CYCLE:
            continue
        for node in sorted(g.nodes(), key=repr):
            direct = criteria_for_scheme(g, node, inherited=False)
            inherited = criteria_for_scheme(g, node, inherited=True)
            assert inherited >= direct


def test_inherited_criteria_union_oracle_on_random_trees():
    rng = random.Random(13)
    for _ in range(15):
        schemes = [iri(f"s{i}") for i in range(6)]
        criteria = [iri(f"c{i}") for i in range(8)]
        triples = []
        parents: dict = {}
        attached: dict = {}
        for i, scheme in enumerate(schemes[1:], start=1):
            if rng.random() < 0.8:
                parent = schemes[rng.randrange(i)]  # earlier only: acyclic
                triples.append(Triple(scheme, D.subscheme_of, parent))
                parents.setdefault(scheme, set()).add(parent)
        for scheme in schemes:
            for crit in rng.sample(criteria, k=rng.randrange(0, 3)):
                triples.append(Triple(scheme, D.has_criterion, crit))
                attached.setdefault(scheme, set()).add(crit)
        data = Graph(triples)

        def reachable(node):
            seen = set()
            stack = [node]
            while stack:
                for parent in parents.get(stack.pop(), ()):
                    if parent not in seen:
                        seen.add(parent)
                        stack.append(parent)
            return seen

        for scheme in schemes:
            expected = set(attached.get(scheme, set()))
            for ancestor in reachable(scheme):
                expected |= attached.get(ancestor, set())
            assert criteria_for_scheme(data, scheme, inherited=True) == expected


# --- temporal ---------------------------------------------------------------


def test_temporal_fixture_reports_exactly_the_bad_pairs():
    violations = check_temporal(TEMPORAL_MIXED)
    by_node = {(v.node, v.code) for v in violations}
    assert by_node == {
        (iri("bad"), "start-after-end"),
        (iri("weird"), "unparseable-date"),
    }
    (bad,) = [v for v in violations if v.node == iri("bad")]
    assert bad.property_pair == (D.start_time, D.end_time)
    assert bad.start_value == "2019-01-01"
    assert bad.end_value == "2018-12-31"


def test_equal_at_coarser_precision_is_not_a_violation():
    data = fixture('x:n d:start_time "2019" ; d:end_time "2019-03" .')
    assert check_temporal(data) == []


def test_inception_is_a_start_property():
    data = fixture('x:n d:inception "2021-06-01" ; d:end_time "2020-01-01" .')
    (violation,) = check_temporal(data)
    assert violation.property_pair == (D.inception, D.end_time)
    assert violation.code == "start-after-end"


def test_temporal_matches_comparator_oracle():
    from dingotk.dates import compare_partial_dates, parse_partial_date

    rng = random.Random(77)
    lexicals = [
        "2018", "2019", "2019-01", "2019-06", "2019-06-15", "2019-06-16",
        "2020-01-01", "not-a-date", "2019-13", "2019-02-29",
    ]
    for _ in range(25):
        node_count = rng.randrange(1, 5)
        triples = []
        values: dict = {}
        for i in range(node_count):
            node = iri(f"n{i}")
            start = rng.choice(lexicals)
            end = rng.choice(lexicals)
            triples.append(Triple(node, D.start_time, Literal(start)))
            triples.append(Triple(node, D.end_time, Literal(end)))
            values[node] = (start, end)
        data = Graph(triples)
        reported = {(v.node, v.code) for v in check_temporal(data)}
        expected = set()
        for node, (start, end) in values.items():
            ps, pe = parse_partial_date(start), parse_partial_date(end)
            if ps is None or pe is None:
                expected.add((node, "unparseable-date"))
            elif compare_partial_dates(ps, pe) > 0:
                expected.add((node, "start-after-end"))
        assert reported == expected


def test_results_are_subsets_of_graph_nodes(snapshot_schema):
    for g in ALL_FIXTURES:
        if g is SCHEME_CYCLE:
            continue
        nodes = g.nodes()
        for node in sorted(nodes, key=repr):
            import warnings as w

            with w.catch_warnings():
                w.simplefilter("ignore")
                assert grants_funding_project(g, snapshot_schema, node) <= nodes
                assert beneficiaries_of(g, node) <= nodes
                assert set(scheme_ancestry(g, node)) <= nodes
                assert criteria_for_scheme(g, node, inherited=True) <= nodes
