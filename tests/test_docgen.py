import random
import re
from pathlib import Path

from dingotk.docgen import _display_name, _pretty_blank, extract_doc_model, local_name, render_html
from dingotk.ontology import load_ontology
from dingotk.terms import (
    BlankNode,
    Graph,
    IRI,
    Literal,
    RDF_FIRST,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    Triple,
    XSD_STRING,
)
from dingotk.turtle import parse_turtle, term_renderer

from support import SUBPROPERTY_NS, SUBPROPERTY_ONTOLOGY

GOLDEN_DIR = Path(__file__).parent / "golden"

SMALL_ONTOLOGY = """
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix dct: <http://purl.org/dc/terms/> .
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix ex: <http://small.example/v#> .

<http://small.example/v> a owl:Ontology ;
    dct:title "Small vocabulary"@en ;
    owl:versionInfo "0.3" ;
    dct:description "Tiny fixture for documentation <tests> & escaping."@en .

ex:Base a owl:Class ; rdfs:label "Base"@en, "Basis"@de ;
    rdfs:comment "Root of the <em>tiny</em> hierarchy."@en .
ex:Derived a owl:Class ; rdfs:subClassOf ex:Base ;
    rdfs:label "Derived"@en ;
    skos:exactMatch <http://other.example/Thing> ;
    rdfs:subClassOf [ a owl:Restriction ; owl:onProperty ex:links ; owl:minCardinality 1 ] .
ex:links a owl:ObjectProperty ; rdfs:label "links"@en ;
    rdfs:domain ex:Derived ;
    rdfs:range [ a owl:Class ; owl:unionOf ( ex:Base ex:Derived ) ] .
ex:one a ex:Derived ; rdfs:label "the one"@en .
"""


def small_model():
    g = parse_turtle(SMALL_ONTOLOGY)
    return extract_doc_model(g, load_ontology(g))


def fragment_targets(html: str) -> set:
    return set(re.findall(r'href="#([^"]+)"', html))


def anchor_ids(html: str) -> list:
    return re.findall(r'id="([^"]+)"', html)


def test_minimal_single_class_model():
    g = parse_turtle(
        "@prefix owl: <http://www.w3.org/2002/07/owl#> ."
        "<http://v.example/#OnlyClass> a owl:Class ."
    )
    model = extract_doc_model(g, load_ontology(g))
    assert len(model.class_entries) == 1
    assert model.property_entries == []
    assert model.individual_entries == []


def test_empty_model_renders_header_and_empty_sections():
    g = parse_turtle("")
    html = render_html(extract_doc_model(g, load_ontology(g)))
    for section in ("classes", "properties", "individuals", "axioms", "namespaces"):
        assert f'id="{section}"' in html
    assert html.startswith("<!DOCTYPE html>")
    assert render_html(extract_doc_model(g, load_ontology(g))) == html


def test_snapshot_entry_counts(snapshot_graph, snapshot_schema):
    model = extract_doc_model(snapshot_graph, snapshot_schema)
    assert len(model.class_entries) == 40
    assert len(model.property_entries) == 68
    assert len(model.individual_entries) == 4  # the role individuals


def test_entry_counts_match_stats_on_fixtures(snapshot_graph, snapshot_schema):
    for graph, schema in [
        (snapshot_graph, snapshot_schema),
        (parse_turtle(SMALL_ONTOLOGY), load_ontology(parse_turtle(SMALL_ONTOLOGY))),
    ]:
        model = extract_doc_model(graph, schema)
        stats = schema.stats()
        declared_classes = [e for e in model.class_entries if schema.classes[e.iri].declared]
        declared_props = [e for e in model.property_entries if schema.properties[e.iri].declared]
        assert len(declared_classes) >= stats.class_count
        assert len(declared_props) >= stats.property_count
        # lossless coverage of the registry, exactly once each
        assert [e.iri for e in model.class_entries] == sorted(
            schema.classes, key=lambda i: i.value
        )
        assert [e.iri for e in model.property_entries] == sorted(
            schema.properties, key=lambda i: i.value
        )


def test_no_dangling_fragment_links(snapshot_graph, snapshot_schema):
    html = render_html(extract_doc_model(snapshot_graph, snapshot_schema))
    ids = anchor_ids(html)
    assert len(ids) == len(set(ids)), "anchor ids must be unique"
    missing = fragment_targets(html) - set(ids)
    assert missing == set()


def test_rendering_is_deterministic(snapshot_graph, snapshot_schema):
    model = extract_doc_model(snapshot_graph, snapshot_schema)
    assert render_html(model) == render_html(model)
    again = extract_doc_model(snapshot_graph, snapshot_schema)
    assert render_html(model) == render_html(again)


def test_header_and_multilingual_labels():
    html = render_html(small_model())
    assert "<title>Small vocabulary</title>" in html
    assert "version 0.3" in html
    assert "Basis" in html and "(de)" in html


def test_html_escaping():
    html = render_html(small_model())
    assert "<em>" not in html  # comment markup must be escaped
    assert "&lt;em&gt;" in html
    assert "&lt;tests&gt;" in html


def test_anonymous_axioms_render_opaquely():
    html = render_html(small_model())
    assert "owl:unionOf ( ex:Base ex:Derived )" in html
    assert "owl:minCardinality" in html


def test_cyclic_anonymous_structure_terminates():
    # a malformed rdf:rest cycle must not hang the pretty-printer
    g = parse_turtle(
        "@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "<http://v.example/#C> a owl:Class ; rdfs:subClassOf _:cell1 .\n"
        '_:cell1 rdf:first "a" ; rdf:rest _:cell2 .\n'
        '_:cell2 rdf:first "b" ; rdf:rest _:cell1 .\n'
    )
    html = render_html(extract_doc_model(g, load_ontology(g)))
    assert html.startswith("<!DOCTYPE html>")


def test_superproperty_rows_link_named_and_print_anonymous():
    g = parse_turtle(SUBPROPERTY_ONTOLOGY)
    model = extract_doc_model(g, load_ontology(g))
    (entry,) = [e for e in model.property_entries if e.iri == IRI(SUBPROPERTY_NS + "hasComponent")]
    assert entry.relations == [
        ("superproperty", IRI(SUBPROPERTY_NS + "hasPart")),
        ("superproperty", IRI(SUBPROPERTY_NS + "relatedTo")),
        ("superproperty", "[ owl:inverseOf ex:partOf ]"),
    ]
    rows = [line for line in render_html(model).splitlines() if line.startswith("<dt>superproperty</dt>")]
    assert rows == [
        '<dt>superproperty</dt><dd><a href="#prop-hasPart">hasPart</a></dd>',
        '<dt>superproperty</dt><dd><a href="#prop-relatedTo">relatedTo</a></dd>',
        "<dt>superproperty</dt><dd><code>[ owl:inverseOf ex:partOf ]</code></dd>",
    ]


def test_individuals_and_external_links():
    model = small_model()
    assert [local_name(e.iri) for e in model.individual_entries] == ["one"]
    html = render_html(model)
    assert 'href="http://other.example/Thing"' in html  # external mapping target


def test_every_dingo_term_has_exactly_one_section(snapshot_graph, snapshot_schema):
    html = render_html(extract_doc_model(snapshot_graph, snapshot_schema))
    for iri in list(snapshot_schema.classes) + list(snapshot_schema.properties):
        assert html.count(f"<code>{iri.value}</code>") == 1


def test_small_fixture_matches_golden():
    html = render_html(small_model())
    golden = (GOLDEN_DIR / "docgen_small.html").read_text("utf-8")
    assert html == golden


def _recursive_pretty_blank(g, node, render, seen=None):
    # the recursive renderer the explicit-stack walk replaced, kept as reference
    seen = set(seen or ())
    if node in seen:
        return f"_:{node.label}"
    seen.add(node)
    firsts = g.objects(node, RDF_FIRST)
    rests = g.objects(node, RDF_REST)
    if firsts and rests:
        items = []
        visited_cells = set()
        current = node
        while isinstance(current, BlankNode) and current not in visited_cells:
            visited_cells.add(current)
            heads = g.objects(current, RDF_FIRST)
            if not heads:
                break
            items.append(_recursive_pretty_term(g, heads[0], render, seen))
            nxt = g.objects(current, RDF_REST)
            current = nxt[0] if nxt else RDF_NIL
            if current == RDF_NIL:
                break
        return "( " + " ".join(items) + " )"
    parts = []
    for t in g.match(node, None, None):
        pred = "a" if t.predicate == RDF_TYPE else render(t.predicate)
        parts.append(f"{pred} {_recursive_pretty_term(g, t.object, render, seen)}")
    return "[ " + " ; ".join(parts) + " ]"


def _recursive_pretty_term(g, term, render, seen=None):
    if isinstance(term, BlankNode):
        return _recursive_pretty_blank(g, term, render, seen)
    return render(term)


def _random_blank_structure(rng):
    # shallow anonymous structure: property nodes and collections over a few
    # blank nodes, with shared nodes, cycles and broken lists
    blanks = [BlankNode(f"n{i}") for i in range(rng.randrange(1, 7))]
    leaves = [IRI("http://v.example/#A"), Literal("x", XSD_STRING), RDF_NIL]
    predicates = [RDF_TYPE, IRI("http://v.example/#p"), IRI("http://other.example/q")]
    triples = set()
    for node in blanks:
        if rng.random() < 0.4:  # a list whose cells may share, loop back or stop early
            cell = node
            for _ in range(rng.randrange(1, 4)):
                if rng.random() < 0.9:
                    triples.add(Triple(cell, RDF_FIRST, rng.choice(blanks + leaves)))
                nxt = rng.choice(blanks + [BlankNode(f"c{rng.randrange(3)}"), RDF_NIL])
                triples.add(Triple(cell, RDF_REST, nxt))
                if nxt == RDF_NIL:
                    break
                cell = nxt
        else:
            for _ in range(rng.randrange(0, 4)):
                triples.add(Triple(node, rng.choice(predicates), rng.choice(blanks + leaves)))
    return Graph(triples, {"v": "http://v.example/#"}), blanks


def test_pretty_blank_matches_recursive_reference_on_random_structure():
    rng = random.Random(7)
    for _ in range(500):
        g, blanks = _random_blank_structure(rng)
        render = term_renderer(g.prefixes)
        for node in blanks:
            assert _pretty_blank(g, node, render) == _recursive_pretty_blank(g, node, render)


MIXED_LABELS = """
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <http://mixed.example/#> .

ex:Grant a owl:Class ; rdfs:label "s", "s"@en ; rdfs:comment "c"@de, "c" .
ex:g1 a ex:Grant ; rdfs:label "s"@en, "s" .
ex:Fund a owl:Class ; rdfs:label "Fund", "Fonds"@de, "Fund"@en .
"""


def test_equal_label_texts_list_untagged_before_tagged():
    g = parse_turtle(MIXED_LABELS)
    model = extract_doc_model(g, load_ontology(g))
    fund, cls = model.class_entries
    (individual,) = model.individual_entries
    for entry in (cls, individual):
        assert entry.labels == [("s", None), ("s", "en")]
        assert _display_name(entry) == "s"
    # the English label names the entry, though the German one sorts first
    assert fund.labels == [("Fonds", "de"), ("Fund", None), ("Fund", "en")]
    assert _display_name(fund) == "Fund"
    assert cls.comments == [("c", None), ("c", "de")]
    html = render_html(model)
    assert '<dt>Labels</dt><dd>s; s <span class="lang">(en)</span></dd>' in html
    assert '<dt>Comments</dt><dd>c; c <span class="lang">(de)</span></dd>' in html


def test_display_name_without_english_is_the_first_label_by_text():
    g = parse_turtle(
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        '<http://v.example/#A> a owl:Class ; rdfs:label "Zwei"@de, "Deux"@fr .\n'
    )
    (entry,) = extract_doc_model(g, load_ontology(g)).class_entries
    assert entry.labels == [("Deux", "fr"), ("Zwei", "de")]
    assert _display_name(entry) == "Deux"


ORDERS = """
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix skos: <http://www.w3.org/2004/02/skos/core#> .
@prefix a: <http://a.example/#> .
@prefix b: <http://b.example/#> .

a:A a owl:Class .
b:A a owl:Class .
a:p a owl:ObjectProperty ;
    rdfs:domain [ owl:unionOf ( a:A b:A ) ], a:A ;
    rdfs:range b:A ;
    rdfs:subPropertyOf [ owl:inverseOf a:q ], a:q ;
    skos:closeMatch b:p .
a:q a owl:ObjectProperty .
a:i a a:A .
b:i a b:A .
"""


def test_anchors_are_unique_in_class_property_individual_order():
    g = parse_turtle(ORDERS)
    model = extract_doc_model(g, load_ontology(g))
    entries = model.class_entries + model.property_entries + model.individual_entries
    assert [(e.iri.value, e.anchor) for e in entries] == [
        ("http://a.example/#A", "class-A"),
        ("http://b.example/#A", "class-A-2"),
        ("http://a.example/#p", "prop-p"),
        ("http://a.example/#q", "prop-q"),
        ("http://a.example/#i", "ind-i"),
        ("http://b.example/#i", "ind-i-2"),
    ]
    html = render_html(model)
    assert '<dt>type</dt><dd><a href="#class-A-2">A</a></dd>' in html


def test_property_relations_list_iris_then_blanks_then_mappings():
    g = parse_turtle(ORDERS)
    model = extract_doc_model(g, load_ontology(g))
    (entry,) = [e for e in model.property_entries if e.anchor == "prop-p"]
    assert entry.relations == [
        ("domain", IRI("http://a.example/#A")),
        ("domain", "[ owl:unionOf ( a:A b:A ) ]"),
        ("range", IRI("http://b.example/#A")),
        ("superproperty", IRI("http://a.example/#q")),
        ("superproperty", "[ owl:inverseOf a:q ]"),
        ("skos-close", IRI("http://b.example/#p")),
    ]
