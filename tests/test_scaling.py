"""Calls per triple stay flat as the input grows ten-fold, layer by layer.

A layer that gets slower per triple as its input grows is a bug. Python call
counts are exact, and the algorithmic defects met so far grew them: a
5 000-class subClassOf chain once validated in 20 s, because every class
check walked the chain again. So each layer runs under cProfile on inputs of
two sizes ten times apart, and the calls per triple at the larger size may be
at most `SLACK` times those at the smaller. The inputs are the seeded funding
corpus of perfbench/corpus.py and shaped ones: a deep subClassOf chain, a
long scheme chain, and deep `[ ]` and `( )` nesting.

Loops that run inside C make no Python calls: sorting, and `in` on a list. A
quadratic `Graph ==` on a hub leaf (one subject and predicate with many
objects) makes the same calls per triple at every size, so that case is
timed instead, as best-of-3 process time per object at the two sizes.
Memory effects are out of reach of both checks.
"""

from __future__ import annotations

import cProfile
import pstats
import time

import pytest

from dingotk.ontology import DingoTerms, load_ontology
from dingotk.queries import check_temporal, scheme_ancestry
from dingotk.shapes import parse_shapes, validate
from dingotk.terms import Graph, IRI, Literal, Triple
from dingotk.turtle import parse_turtle, turtle_chunks

from support import load_corpus_module

SIZES = (2_000, 20_000)  # triples, about
SLACK = 1.10
SEED = 3
EX = "http://scale.example/#"
D = DingoTerms()


def call_count(run) -> int:
    profile = cProfile.Profile()
    profile.runcall(run)
    return pstats.Stats(profile).total_calls


@pytest.fixture(scope="module")
def corpus_texts():
    corpus = load_corpus_module()
    return {n: corpus.generate_corpus(SEED, n).text for n in SIZES}


def subclass_chain(n: int) -> tuple:
    """An ontology of a subClassOf chain of about n/5 classes under `Root`,
    one instance of each class whose `ex:p` must be a `Root`, and the shape
    that says so; every value check reads the whole chain's subclasses."""
    classes = n // 5
    lines = [
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .",
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .",
        f"@prefix ex: <{EX}> .",
        "ex:Root a owl:Class .",
    ]
    for i in range(classes):
        parent = f"ex:C{i + 1}" if i + 1 < classes else "ex:Root"
        lines.append(f"ex:C{i} a owl:Class ; rdfs:subClassOf {parent} .")
        lines.append(f"ex:n{i} a ex:C{i} ; ex:p ex:m{i} . ex:m{i} a ex:C{i} .")
    shapes = parse_shapes(f"shape S target <{EX}Root> {{ <{EX}p> class <{EX}Root> }}")
    return parse_turtle("\n".join(lines)), shapes


def layer_run(name: str, n: int, corpus_texts: dict, schema, shapes) -> tuple:
    """(triples, the layer's run) for the named layer on an input of about n
    triples; every input is built here, outside the counted run. The corpus
    validates against schema and shapes."""
    if name in ("parse", "serialize", "validate", "check_temporal"):
        text = corpus_texts[n]
        graph = parse_turtle(text)
        runs = {
            "parse": lambda: parse_turtle(text),
            "serialize": lambda: "".join(turtle_chunks(graph)),
            "validate": lambda: validate(graph, schema, shapes),
            "check_temporal": lambda: check_temporal(graph),
        }
        return len(graph), runs[name]
    if name == "subclass_chain":
        graph, shapes = subclass_chain(n)
        return len(graph), lambda: validate(graph, load_ontology(graph), shapes)
    if name == "scheme_chain":
        graph = Graph(Triple(IRI(f"{EX}s{i + 1}"), D.subscheme_of, IRI(f"{EX}s{i}")) for i in range(n))
        return n, lambda: scheme_ancestry(graph, IRI(f"{EX}s{n}"))
    # nesting: n/3 levels of `[ ]`, then of `( )`, whose every cell is two triples
    depth = n // 3
    text = (
        "<http://x/s> <http://x/p> " + "[ <http://x/p> " * depth + "1" + " ]" * depth + " .\n"
        "<http://x/s> <http://x/q> " + "( " * depth + "1" + " )" * depth + " ."
    )
    return len(parse_turtle(text)), lambda: parse_turtle(text)


@pytest.mark.parametrize(
    "name",
    ["parse", "serialize", "validate", "check_temporal", "subclass_chain", "scheme_chain", "nesting"],
)
def test_calls_per_triple_do_not_grow_with_the_input(name, corpus_texts, snapshot_schema, dingo_shapes):
    per_triple = []
    for n in SIZES:
        triples, run = layer_run(name, n, corpus_texts, snapshot_schema, dingo_shapes)
        per_triple.append(call_count(run) / triples)
    small, large = per_triple
    assert large <= SLACK * small, f"{name}: {small:.2f} calls per triple, then {large:.2f}"


def test_scheme_ancestry_reads_each_link_once(corpus_texts):
    # the cycle walk keeps each scheme's parents for the breadth-first pass,
    # so a link costs about 30 calls; reading the graph again costs 27 more
    for n in SIZES:
        links, run = layer_run("scheme_chain", n, corpus_texts, None, None)
        per_link = call_count(run) / links
        assert per_link <= 32, f"{n} links: {per_link:.2f} calls per link"


def test_graph_equality_on_a_hub_leaf_takes_linear_time():
    def seconds_per_object(objects: int, repeats: int) -> float:
        hub = [Triple(IRI(EX + "s"), IRI(EX + "p"), Literal(str(i))) for i in range(objects)]
        left, right = Graph(hub), Graph(reversed(hub))
        best = float("inf")
        for _ in range(3):
            start = time.process_time()
            for _ in range(repeats):
                assert left == right
            best = min(best, time.process_time() - start)
        return best / (objects * repeats)

    # the same work at each size, if it is linear; a quadratic `==` costs ten
    # times as much per object at the larger size
    small, large = seconds_per_object(1_000, 50), seconds_per_object(10_000, 5)
    assert large <= 3 * small, f"{small * 1e9:.0f} ns per object, then {large * 1e9:.0f} ns"
