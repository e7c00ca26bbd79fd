import random

import pytest

from dingotk.isomorphism import BlankNodeLimitError, MAX_BLANK_NODES, graph_isomorphic
from dingotk.terms import BlankNode, Graph, IRI, Literal, Triple

from support import brute_force_isomorphic, random_graph, relabel_blanks

EX = "http://example.org/"
P = IRI(EX + "p")
Q = IRI(EX + "q")


def test_identity():
    rng = random.Random(1)
    for _ in range(10):
        g = random_graph(rng, max_triples=20, max_blanks=5)
        assert graph_isomorphic(g, g)


def test_relabeling_invariance():
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(rng, max_triples=25, max_blanks=6)
        blanks = sorted(g.blank_nodes(), key=lambda b: b.label)
        shuffled = blanks[:]
        rng.shuffle(shuffled)
        renamed = relabel_blanks(g, {b: BlankNode(f"renamed{i}") for i, b in enumerate(shuffled)})
        assert graph_isomorphic(g, renamed)
        assert graph_isomorphic(renamed, g)


def test_ground_graphs_compare_by_set_equality():
    g1 = Graph([Triple(IRI(EX + "s"), P, Literal("v"))])
    g2 = Graph([Triple(IRI(EX + "s"), P, Literal("v"))], {"ex": EX})
    g3 = Graph([Triple(IRI(EX + "s"), P, Literal("w"))])
    assert graph_isomorphic(g1, g2)  # prefixes are irrelevant
    assert not graph_isomorphic(g1, g3)


def test_differing_blank_structure_is_not_isomorphic():
    a, b = BlankNode("a"), BlankNode("b")
    chain = Graph([Triple(a, P, b), Triple(b, P, a)])
    selfloops = Graph([Triple(a, P, a), Triple(b, P, b)])
    assert not graph_isomorphic(chain, selfloops)


def test_swapped_roles_need_correct_mapping():
    a, b = BlankNode("a"), BlankNode("b")
    g1 = Graph([Triple(a, P, Literal("1")), Triple(b, Q, Literal("2"))])
    g2 = Graph([Triple(a, Q, Literal("2")), Triple(b, P, Literal("1"))])
    assert graph_isomorphic(g1, g2)


def _cycle(labels):
    nodes = [BlankNode(label) for label in labels]
    return [Triple(a, P, b) for a, b in zip(nodes, nodes[1:] + nodes[:1])]


@pytest.mark.parametrize(
    "other, expected",
    [
        pytest.param(_cycle(["b0", "b1", "b2"]) + _cycle(["b3", "b4", "b5"]), False, id="two-3-cycles"),
        pytest.param(_cycle(["c3", "c0", "c5", "c1", "c4", "c2"]), True, id="relabelled"),
    ],
)
def test_cycles_whose_nodes_share_one_signature_need_backtracking(other, expected):
    # every node has one edge in and one out, so signatures prune nothing
    six = Graph(_cycle([f"a{i}" for i in range(6)]))
    other = Graph(other)
    assert brute_force_isomorphic(six, other) is expected
    assert graph_isomorphic(six, other) is expected
    assert graph_isomorphic(other, six) is expected


def test_limit_error_beyond_cap():
    blanks = [BlankNode(f"x{i}") for i in range(MAX_BLANK_NODES // 2 + 1)]
    triples = [Triple(n, P, Literal("v")) for n in blanks]
    g = Graph(triples)
    with pytest.raises(BlankNodeLimitError):
        graph_isomorphic(g, g)


def test_agrees_with_permutation_oracle():
    rng = random.Random(3)
    checked = 0
    while checked < 120:
        g1 = random_graph(rng, max_triples=12, max_blanks=5)
        if rng.random() < 0.5:
            # positive-leaning case: relabeled copy, sometimes perturbed
            mapping = {
                b: BlankNode(f"m{i}")
                for i, b in enumerate(sorted(g1.blank_nodes(), key=lambda b: b.label))
            }
            g2 = relabel_blanks(g1, mapping)
            if rng.random() < 0.3 and len(g2) > 0:
                dropped = sorted(g2.triples, key=repr)[0]
                g2 = Graph(g2.triples - {dropped}, g2.prefixes)
        else:
            g2 = random_graph(rng, max_triples=12, max_blanks=5)
        if len(g1.blank_nodes()) > 5 or len(g2.blank_nodes()) > 5:
            continue
        assert graph_isomorphic(g1, g2) == brute_force_isomorphic(g1, g2)
        checked += 1


def test_symmetry():
    rng = random.Random(4)
    for _ in range(30):
        g1 = random_graph(rng, max_triples=10, max_blanks=4)
        g2 = random_graph(rng, max_triples=10, max_blanks=4)
        assert graph_isomorphic(g1, g2) == graph_isomorphic(g2, g1)
