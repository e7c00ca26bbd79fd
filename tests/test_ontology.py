import random
import sys
import threading
import time

import pytest

from dingotk.ontology import (
    DINGO_BASE,
    DingoTerms,
    Mapping,
    MAPPING_PREDICATES,
    OWL_ANNOTATION_PROPERTY,
    OWL_CLASS,
    OWL_DATATYPE_PROPERTY,
    OWL_EQUIVALENT_CLASS,
    OWL_OBJECT_PROPERTY,
    PropertyKindConflictError,
    RDFS_SUBCLASS_OF,
    RDFS_SUBPROPERTY_OF,
    SubclassCycleError,
    UnknownClassError,
    UnknownTermError,
    find_cycle,
    load_ontology,
)
from dingotk.shapes import parse_shapes, validate
from dingotk.terms import BlankNode, Graph, IRI, RDF_TYPE, Triple
from dingotk.turtle import parse_turtle, serialize_turtle

from support import SUBPROPERTY_NS, SUBPROPERTY_ONTOLOGY

EX = "http://example.org/onto#"
OWL = "http://www.w3.org/2002/07/owl#"
D = DingoTerms()


def onto(ttl: str) -> str:
    return (
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix skos: <http://www.w3.org/2004/02/skos/core#> .\n"
        f"@prefix ex: <{EX}> .\n" + ttl
    )


def test_minimal_single_class_ontology():
    schema = load_ontology(parse_turtle(onto("ex:Thing a owl:Class .")))
    assert len([c for c in schema.classes.values() if c.declared]) == 1
    assert schema.properties == {}
    assert schema.stats().class_count == 1
    assert schema.stats().property_count == 0


def test_snapshot_inventory_counts(snapshot_schema):
    stats = snapshot_schema.stats()
    assert stats.class_count == 40
    assert stats.property_count == 68
    assert stats.own_namespace == "https://w3id.org/dingo"


def test_strict_subclass_cycle_is_rejected():
    text = onto(
        "ex:A a owl:Class ; rdfs:subClassOf ex:B .\n"
        "ex:B a owl:Class ; rdfs:subClassOf ex:A .\n"
    )
    with pytest.raises(SubclassCycleError) as err:
        load_ontology(parse_turtle(text))
    assert {m.value for m in err.value.members} == {EX + "A", EX + "B"}


def test_mutually_equivalent_subclass_cycle_is_permitted():
    text = onto(
        "ex:A a owl:Class ; rdfs:subClassOf ex:B ; owl:equivalentClass ex:B .\n"
        "ex:B a owl:Class ; rdfs:subClassOf ex:A .\n"
    )
    schema = load_ontology(parse_turtle(text))
    assert schema.superclass_closure(IRI(EX + "A")) == {IRI(EX + "B")}


def test_self_loop_is_a_cycle():
    with pytest.raises(SubclassCycleError):
        load_ontology(parse_turtle(onto("ex:A a owl:Class ; rdfs:subClassOf ex:A .")))


def test_find_cycle_returns_the_path_of_the_first_back_edge():
    edges = {"a": ["b"], "b": ["c", "d"], "c": [], "d": ["e"], "e": ["b"]}
    assert find_cycle(["a"], edges.__getitem__) == ["b", "d", "e"]
    assert find_cycle(["c", "a"], edges.__getitem__) == ["b", "d", "e"]
    assert find_cycle(["x"], {"x": ["x"]}.__getitem__) == ["x"]


def test_find_cycle_is_none_on_an_acyclic_graph_of_any_depth():
    diamond = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
    assert find_cycle(["a"], diamond.__getitem__) is None
    assert find_cycle(range(3), lambda n: [n + 1] if n < 20_000 else []) is None


def test_conflicting_property_kinds_rejected():
    text = onto("ex:p a owl:ObjectProperty, owl:DatatypeProperty .")
    with pytest.raises(PropertyKindConflictError):
        load_ontology(parse_turtle(text))


def test_blank_property_declarations_are_skipped():
    text = onto("[] a owl:ObjectProperty ; rdfs:domain ex:A .\n[ a owl:DatatypeProperty ] a owl:Class .")
    schema = load_ontology(parse_turtle(text))
    assert schema.properties == {}
    assert schema.classes == {}


def test_edge_targets_register_even_when_undeclared():
    # B is never declared owl:Class but appears as a superclass
    schema = load_ontology(parse_turtle(onto("ex:A a owl:Class ; rdfs:subClassOf ex:B .")))
    assert IRI(EX + "B") in schema.classes
    assert not schema.classes[IRI(EX + "B")].declared
    assert schema.superclass_closure(IRI(EX + "A")) == {IRI(EX + "B")}
    # undeclared terms do not count toward the inventory
    assert schema.stats().class_count == 1


def test_anonymous_superclasses_are_opaque():
    text = onto(
        "ex:A a owl:Class ; rdfs:subClassOf ex:B, "
        "[ a owl:Restriction ; owl:onProperty ex:p ; owl:minCardinality 1 ] .\n"
        "ex:B a owl:Class ."
    )
    g = parse_turtle(text)
    schema = load_ontology(g)
    info = schema.classes[IRI(EX + "A")]
    assert info.direct_superclasses == {IRI(EX + "B")}
    # the restriction stays in the graph, where docgen reads it, and out of the schema
    (blank,) = [o for o in g.objects(info.iri, RDFS_SUBCLASS_OF) if isinstance(o, BlankNode)]
    assert blank not in schema.classes
    assert schema.superclass_closure(IRI(EX + "A")) == {IRI(EX + "B")}


def test_superproperties_split_into_named_and_anonymous():
    g = parse_turtle(SUBPROPERTY_ONTOLOGY)
    schema = load_ontology(g)
    part, related = IRI(SUBPROPERTY_NS + "hasPart"), IRI(SUBPROPERTY_NS + "relatedTo")
    info = schema.properties[IRI(SUBPROPERTY_NS + "hasComponent")]
    (blank,) = [o for o in g.objects(info.iri, RDFS_SUBPROPERTY_OF) if isinstance(o, BlankNode)]
    assert g.objects(blank, IRI(OWL + "inverseOf")) == [IRI(SUBPROPERTY_NS + "partOf")]
    # an undeclared superproperty registers; a blank subproperty does not
    assert set(schema.properties) == {info.iri, part, related}
    assert not schema.properties[related].declared


def test_closure_of_root_is_empty(snapshot_schema):
    assert snapshot_schema.superclass_closure(D.Project) == set()


def test_closure_of_chain():
    text = onto(
        "ex:A a owl:Class ; rdfs:subClassOf ex:B .\n"
        "ex:B a owl:Class ; rdfs:subClassOf ex:C .\n"
        "ex:C a owl:Class .\n"
    )
    schema = load_ontology(parse_turtle(text))
    assert schema.superclass_closure(IRI(EX + "A")) == {IRI(EX + "B"), IRI(EX + "C")}
    assert schema.superclass_closure(IRI(EX + "B")) == {IRI(EX + "C")}


def test_unknown_class_raises():
    schema = load_ontology(parse_turtle(onto("ex:A a owl:Class .")))
    with pytest.raises(UnknownClassError):
        schema.superclass_closure(IRI(EX + "Nope"))
    with pytest.raises(UnknownClassError):
        schema.instances_of(Graph(), IRI(EX + "Nope"))
    with pytest.raises(UnknownClassError):
        schema.subclasses_of(IRI(EX + "Nope"))
    with pytest.raises(UnknownTermError):
        schema.mappings_of(IRI(EX + "Nope"))


def _closure_oracle(edges: dict, start: IRI) -> set:
    # fixed-point iteration over the direct-superclass relation
    closure: set = set()
    while True:
        frontier = set(edges.get(start, ()))
        for member in closure:
            frontier |= set(edges.get(member, ()))
        new = frontier - closure
        if not new:
            break
        closure |= new
    closure.discard(start)
    return closure


def test_closure_matches_fixed_point_oracle_on_snapshot(snapshot_schema):
    edges = {
        iri: set(info.direct_superclasses) for iri, info in snapshot_schema.classes.items()
    }
    for iri in snapshot_schema.classes:
        assert snapshot_schema.superclass_closure(iri) == _closure_oracle(edges, iri)


def test_closure_is_transitive(snapshot_schema):
    for a in snapshot_schema.classes:
        closure_a = snapshot_schema.superclass_closure(a)
        for b in closure_a:
            if b in snapshot_schema.classes:
                assert snapshot_schema.superclass_closure(b) <= closure_a


def test_instances_of_respects_subsumption(snapshot_schema):
    data = parse_turtle(
        f"@prefix d: <{DINGO_BASE}> .\n"
        "<http://x/uni> a d:UniversityOrganisation .\n"
        "<http://x/org> a d:Organisation .\n"
        "<http://x/person> a d:Person .\n"
    )
    found = snapshot_schema.instances_of(data, D.Organisation)
    assert found == {IRI("http://x/uni"), IRI("http://x/org")}
    assert snapshot_schema.instances_of(Graph(), D.Organisation) == set()


def test_instances_of_monotone_in_hierarchy(snapshot_schema):
    data = parse_turtle(
        f"@prefix d: <{DINGO_BASE}> .\n"
        "<http://x/a> a d:UniversityOrganisation . <http://x/b> a d:FundingAgency ."
    )
    sub = snapshot_schema.instances_of(data, D.UniversityOrganisation)
    sup = snapshot_schema.instances_of(data, D.Organisation)
    assert sub <= sup


def test_instances_of_matches_brute_force_on_random_fixtures():
    rng = random.Random(11)
    # the first 20 hierarchies are acyclic; the next 20 add owl:equivalentClass
    # rings, whose members subclass each other in a cycle
    for fixture in range(40):
        class_count = rng.randrange(3, 8)
        class_iris = [IRI(f"{EX}C{i}") for i in range(class_count)]
        triples = [Triple(c, RDF_TYPE, OWL_CLASS) for c in class_iris]
        edges: dict = {}

        def subclass(child: IRI, parent: IRI) -> None:
            triples.append(Triple(child, RDFS_SUBCLASS_OF, parent))
            edges.setdefault(child, set()).add(parent)

        for i in range(1, class_count):
            # parents only among earlier classes keeps the graph acyclic
            for parent_index in rng.sample(range(i), k=min(i, rng.randrange(0, 3))):
                subclass(class_iris[i], class_iris[parent_index])
        if fixture >= 20:
            anchor = rng.choice(class_iris)
            ring = [anchor] + [IRI(f"{EX}E{k}") for k in range(rng.randrange(1, 3))]
            for k, member in enumerate(ring):
                subclass(member, ring[(k + 1) % len(ring)])
                if member != anchor:
                    triples.append(Triple(member, OWL_EQUIVALENT_CLASS, anchor))
                    class_iris.append(member)
        schema = load_ontology(Graph(triples))

        nodes = [IRI(f"http://x/n{i}") for i in range(8)]
        data_triples = []
        typed: dict = {}
        for node in nodes:
            for c in rng.sample(class_iris, k=rng.randrange(0, 3)):
                data_triples.append(Triple(node, RDF_TYPE, c))
                typed.setdefault(node, set()).add(c)
        data = Graph(data_triples)

        for target in class_iris:
            expected = {
                node
                for node, classes in typed.items()
                if any(target == c or target in _closure_oracle(edges, c) for c in classes)
            }
            assert schema.instances_of(data, target) == expected


def test_subclasses_match_fixed_point_oracle_on_snapshot(snapshot_schema):
    edges = {
        iri: set(info.direct_superclasses) for iri, info in snapshot_schema.classes.items()
    }
    for iri in snapshot_schema.classes:
        below = snapshot_schema.subclasses_of(iri)
        assert below == {c for c in edges if iri in _closure_oracle(edges, c)}
        assert isinstance(below, frozenset)
        assert snapshot_schema.subclasses_of(iri) is below
    assert snapshot_schema.subclasses_of(D.Organisation) >= {D.UniversityOrganisation}


def test_threads_that_race_to_fill_subclass_sets_all_read_them_right(snapshot_graph):
    schema = load_ontology(snapshot_graph)
    expected = {c: frozenset(schema.subclasses_of(c)) for c in schema.classes}
    results, errors = [], []

    def read(fresh, start):
        try:
            start.wait(timeout=10)
            results.append({c: fresh.subclasses_of(c) for c in expected})
        except Exception as exc:  # reported below, with the thread's result missing
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            fresh, start = load_ontology(snapshot_graph), threading.Barrier(6)
            threads = [threading.Thread(target=read, args=(fresh, start)) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(results) == 30 and all(found == expected for found in results)


def test_deep_chain_subsumption_is_linear():
    # C0 <- C1 <- ... <- C4999, one node of each class, each node linking to
    # the next; every node is an instance of C0
    depth = 5_000
    classes = [IRI(f"{EX}C{i}") for i in range(depth)]
    nodes = [IRI(f"http://x/n{i}") for i in range(depth)]
    link = IRI(EX + "link")
    ontology = [Triple(c, RDF_TYPE, OWL_CLASS) for c in classes]
    ontology += [Triple(classes[i], RDFS_SUBCLASS_OF, classes[i - 1]) for i in range(1, depth)]
    data = [Triple(n, RDF_TYPE, c) for n, c in zip(nodes, classes)]
    data += [Triple(nodes[i], link, nodes[i + 1]) for i in range(depth - 1)]
    schema = load_ontology(Graph(ontology))
    graph = Graph(data)
    shapes = parse_shapes(f"shape Linked target <{EX}C0> {{ <{EX}link> class <{EX}C0> ? }}")

    start = time.perf_counter()
    assert schema.instances_of(graph, classes[0]) == set(nodes)
    assert schema.instances_of(graph, classes[-1]) == {nodes[-1]}
    assert validate(graph, schema, shapes).conformant
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s on a {depth}-class chain"


def test_mappings_of_unmapped_term_is_empty(snapshot_schema):
    assert snapshot_schema.mappings_of(D.Participation) == []


def test_single_skos_mapping():
    text = onto("ex:A a owl:Class ; skos:exactMatch <http://other.org/B> .")
    schema = load_ontology(parse_turtle(text))
    assert schema.mappings_of(IRI(EX + "A")) == [
        Mapping("skos-exact", IRI("http://other.org/B"))
    ]


def test_equivalence_mapping_kinds_respect_term_kind():
    text = onto(
        "ex:A a owl:Class ; owl:equivalentClass <http://other.org/B> .\n"
        "ex:p a owl:ObjectProperty ; owl:equivalentProperty <http://other.org/q> .\n"
    )
    schema = load_ontology(parse_turtle(text))
    assert schema.mappings_of(IRI(EX + "A")) == [
        Mapping("owl-equivalent-class", IRI("http://other.org/B"))
    ]
    assert schema.mappings_of(IRI(EX + "p")) == [
        Mapping("owl-equivalent-property", IRI("http://other.org/q"))
    ]


def test_blank_mapping_ends_are_skipped():
    text = onto(
        "ex:A a owl:Class ; skos:exactMatch [ a owl:Class ] ; skos:closeMatch <http://other.org/B> .\n"
        "[] skos:exactMatch ex:A ; owl:equivalentClass ex:A .\n"
    )
    schema = load_ontology(parse_turtle(text))
    assert schema.mappings_of(IRI(EX + "A")) == [Mapping("skos-close", IRI("http://other.org/B"))]


def test_snapshot_mappings_correspond_to_triples(snapshot_graph, snapshot_schema):
    # every Mapping in the registry pairs 1:1 with a mapping-predicate triple
    expected = set()
    for t in snapshot_graph.triples:
        if t.predicate in MAPPING_PREDICATES and isinstance(t.object, IRI):
            if t.subject in snapshot_schema.classes or t.subject in snapshot_schema.properties:
                expected.add((t.subject, MAPPING_PREDICATES[t.predicate], t.object))
    actual = set()
    for iri in list(snapshot_schema.classes) + list(snapshot_schema.properties):
        for m in snapshot_schema.mappings_of(iri):
            actual.add((iri, m.kind, m.target))
    assert actual == expected


def test_stats_on_empty_schema():
    schema = load_ontology(Graph())
    stats = schema.stats()
    assert (stats.class_count, stats.property_count, stats.namespace_count) == (0, 0, 0)


def test_stats_matches_triple_scan_oracle(snapshot_graph, snapshot_schema):
    own = "https://w3id.org/dingo"

    def count(type_iris):
        return len(
            {
                t.subject
                for t in snapshot_graph.triples
                if t.predicate == RDF_TYPE
                and t.object in type_iris
                and isinstance(t.subject, IRI)
                and t.subject.value.startswith(own)
            }
        )

    stats = snapshot_schema.stats()
    assert stats.class_count == count({OWL_CLASS})
    assert stats.property_count == count(
        {OWL_OBJECT_PROPERTY, OWL_DATATYPE_PROPERTY, OWL_ANNOTATION_PROPERTY}
    )
    assert stats.namespace_count == len(snapshot_graph.prefixes)


def test_declaration_extraction_is_lossless(snapshot_graph, snapshot_schema):
    # re-serializing and re-loading loses no registered class or property
    reloaded = load_ontology(parse_turtle(serialize_turtle(snapshot_graph)))
    assert set(reloaded.classes) == set(snapshot_schema.classes)
    assert set(reloaded.properties) == set(snapshot_schema.properties)
    for iri, info in snapshot_schema.classes.items():
        assert reloaded.classes[iri].direct_superclasses == info.direct_superclasses
        assert reloaded.classes[iri].declared == info.declared


def test_dingo_terms_configurable_base():
    terms = DingoTerms("http://local.test/vocab#")
    assert terms.Project == IRI("http://local.test/vocab#Project")
    assert terms.product_or_material_produced.value.endswith("#product_or_material_produced")
    default = DingoTerms()
    assert default.Grant == IRI(DINGO_BASE + "Grant")
