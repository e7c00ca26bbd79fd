"""Shared test helpers: graph generators, brute-force oracles and fixtures."""

from __future__ import annotations

import importlib.util
import itertools
import random
import sys
from pathlib import Path

from dingotk.terms import (
    BlankNode,
    Graph,
    IRI,
    Literal,
    RDF_LANG_STRING,
    Triple,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)

IRI_POOL = [
    "http://example.org/a",
    "http://example.org/b",
    "http://example.org/path/to#frag",
    "http://example.org/a%20b",
    "https://w3id.org/dingo#Project",
    "https://w3id.org/dingo#funded_by",
    "urn:uuid:6e8bc430-9c3a-11d9-9669-0800200c9a66",
    "mailto:grants@example.org",
    "http://xmlns.com/foaf/0.1/Person",
]

TRICKY_LEXICALS = [
    "",
    "plain",
    'with "double quotes"',
    "with 'single quotes'",
    "line\nbreak",
    "tab\there",
    "back\\slash",
    "unicode éü漢字",
    "01",
    "1.5",
    "true",
    "ends with dot.",
    "a, b ; c",
    "   padded   ",
]

DATATYPE_POOL = [XSD_STRING, XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_BOOLEAN, XSD_DATE,
                 "http://example.org/customDatatype"]

LANGUAGE_POOL = ["en", "en-GB", "it", "de-CH-1996"]

PREFIX_POOL = [
    ("d", "https://w3id.org/dingo#"),
    ("ex", "http://example.org/"),
    ("", "http://example.org/default#"),
    ("foaf", "http://xmlns.com/foaf/0.1/"),
]


SUBPROPERTY_NS = "http://sub.example/v#"
# hasComponent's superproperties: a declared IRI, an undeclared IRI and a
# blank node; the blank subject of the last statement declares nothing
SUBPROPERTY_ONTOLOGY = f"""
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix ex: <{SUBPROPERTY_NS}> .

ex:hasPart a owl:ObjectProperty .
ex:hasComponent a owl:ObjectProperty ;
    rdfs:subPropertyOf ex:hasPart, ex:relatedTo, [ owl:inverseOf ex:partOf ] .
[] rdfs:subPropertyOf ex:hasPart .
"""


CORPUS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"


def load_corpus_module():
    """perfbench/corpus.py, the seeded funding-corpus generator, loaded
    read-only from its file, so the benchmark's package is neither imported
    nor changed."""
    name = "_bench_corpus"
    spec = importlib.util.spec_from_file_location(name, CORPUS_PY)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class bodies run
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def random_literal(rng: random.Random) -> Literal:
    roll = rng.random()
    if roll < 0.25:
        return Literal(rng.choice(TRICKY_LEXICALS), RDF_LANG_STRING, rng.choice(LANGUAGE_POOL))
    if roll < 0.45:
        # well-formed numeric/boolean shorthands
        choice = rng.randrange(4)
        if choice == 0:
            return Literal(str(rng.randrange(-999, 1000)), XSD_INTEGER)
        if choice == 1:
            return Literal(f"{rng.randrange(0, 100)}.{rng.randrange(0, 100):02d}", XSD_DECIMAL)
        if choice == 2:
            return Literal(f"{rng.randrange(1, 9)}.5e{rng.randrange(-3, 4)}", XSD_DOUBLE)
        return Literal(rng.choice(["true", "false"]), XSD_BOOLEAN)
    return Literal(rng.choice(TRICKY_LEXICALS), rng.choice(DATATYPE_POOL))


def random_graph(rng: random.Random, max_triples: int = 50, max_blanks: int = 8) -> Graph:
    blank_count = rng.randrange(max_blanks + 1)
    blanks = [BlankNode(f"n{i}") for i in range(blank_count)]
    iris = [IRI(v) for v in IRI_POOL]
    predicates = iris[:6]

    def subject():
        if blanks and rng.random() < 0.4:
            return rng.choice(blanks)
        return rng.choice(iris)

    def obj():
        roll = rng.random()
        if blanks and roll < 0.3:
            return rng.choice(blanks)
        if roll < 0.6:
            return rng.choice(iris)
        return random_literal(rng)

    triple_count = rng.randrange(max_triples + 1)
    triples = {
        Triple(subject(), rng.choice(predicates), obj()) for _ in range(triple_count)
    }
    # make sure every blank node actually occurs
    anchor = IRI("http://example.org/anchor")
    for blank in blanks:
        if not any(blank in (t.subject, t.object) for t in triples):
            triples.add(Triple(blank, predicates[0], anchor))

    prefixes = {}
    for prefix, namespace in PREFIX_POOL:
        if rng.random() < 0.5:
            prefixes[prefix] = namespace
    return Graph(triples, prefixes)


def relabel_blanks(g: Graph, mapping: dict) -> Graph:
    """Copy of g with blank nodes renamed according to mapping."""

    def sub(term):
        if isinstance(term, BlankNode):
            return mapping.get(term, term)
        return term

    return Graph(
        (Triple(sub(t.subject), t.predicate, sub(t.object)) for t in g.triples),
        g.prefixes,
    )


def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    """All-permutations reference for graph_isomorphic; exponential."""
    blanks1 = sorted(g1.blank_nodes(), key=lambda b: b.label)
    blanks2 = sorted(g2.blank_nodes(), key=lambda b: b.label)
    if len(blanks1) != len(blanks2):
        return False
    if len(g1.triples) != len(g2.triples):
        return False
    target = set(g2.triples)
    for perm in itertools.permutations(blanks2):
        mapping = dict(zip(blanks1, perm))

        def sub(term):
            if isinstance(term, BlankNode):
                return mapping[term]
            return term

        if {Triple(sub(t.subject), t.predicate, sub(t.object)) for t in g1.triples} == target:
            return True
    return False


def scan_matching(g: Graph, s, p, o):
    """Linear-scan reference for Graph.match."""
    return [
        t
        for t in g.triples
        if (s is None or t.subject == s)
        and (p is None or t.predicate == p)
        and (o is None or t.object == o)
    ]
