import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import dingotk

from dingotk.terms import (
    BlankNode,
    Graph,
    IRI,
    Literal,
    RDF_LANG_STRING,
    RDF_TYPE,
    Triple,
    XSD_STRING,
    gc_paused,
    term_sort_key,
    triple_sort_key,
)

from support import random_graph, scan_matching

EX = "http://example.org/"


def test_iri_requires_scheme():
    IRI("http://example.org/x")
    IRI("urn:isbn:123")
    IRI("mailto:a@b.c")
    with pytest.raises(ValueError):
        IRI("no-scheme-here")
    with pytest.raises(ValueError):
        IRI("/relative/path")


def test_iri_rejects_forbidden_characters():
    for bad in ["http://ex.org/a b", "http://ex.org/<x>", "http://ex.org/x\n", "http://ex.org/\\"]:
        with pytest.raises(ValueError):
            IRI(bad)


def test_blank_label_rules():
    BlankNode("b0")
    BlankNode("0digitstart")
    with pytest.raises(ValueError):
        BlankNode("")
    with pytest.raises(ValueError):
        BlankNode("has space")


def test_literal_language_requires_langstring_datatype():
    Literal("ciao", RDF_LANG_STRING, "it")
    with pytest.raises(ValueError):
        Literal("ciao", XSD_STRING, "it")
    with pytest.raises(ValueError):
        Literal("ciao", RDF_LANG_STRING)  # langString without tag
    with pytest.raises(ValueError):
        Literal("x", XSD_STRING[:-6] + " bad")


def test_triple_structural_invariants():
    s, p, o = IRI(EX + "s"), IRI(EX + "p"), Literal("x")
    Triple(s, p, o)
    Triple(BlankNode("b"), p, o)
    with pytest.raises(ValueError):
        Triple(Literal("nope"), p, o)
    with pytest.raises(ValueError):
        Triple(s, BlankNode("b"), o)  # type: ignore[arg-type]


def test_graph_set_semantics():
    t = Triple(IRI(EX + "s"), IRI(EX + "p"), Literal("v"))
    g = Graph([t, t, t])
    assert len(g) == 1
    assert t in g


def test_graph_prefix_validation():
    Graph([], {"d": "https://w3id.org/dingo#", "": EX})
    with pytest.raises(ValueError):
        Graph([], {"bad prefix": EX})
    with pytest.raises(ValueError):
        Graph([], {"p": "not-an-iri"})


def test_term_order_is_kind_then_value():
    iri = IRI(EX + "a")
    blank = BlankNode("a")
    lit = Literal("a")
    ordered = sorted([lit, blank, iri], key=term_sort_key)
    assert ordered == [iri, blank, lit]


def test_match_full_wildcard_returns_all():
    rng = random.Random(7)
    g = random_graph(rng, max_triples=3, max_blanks=0)
    while len(g) != 3:
        g = random_graph(rng, max_triples=3, max_blanks=0)
    assert set(g.match(None, None, None)) == set(g.triples)
    assert len(g.match(None, None, None)) == 3


def test_match_exact_triple():
    t = Triple(IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o"))
    other = Triple(IRI(EX + "s2"), IRI(EX + "p"), IRI(EX + "o"))
    g = Graph([t, other])
    assert g.match(t.subject, t.predicate, t.object) == [t]


def test_match_agrees_with_linear_scan_on_random_patterns():
    absent = IRI(EX + "absent")
    for seed in range(2024, 2030):
        rng = random.Random(seed)
        g = random_graph(rng, max_triples=50, max_blanks=6)
        terms = list(g.nodes()) + [None, absent]
        predicates = sorted({t.predicate for t in g.triples}, key=term_sort_key) + [None]
        patterns = [(rng.choice(terms), rng.choice(predicates), rng.choice(terms)) for _ in range(100)]
        # every bound/unbound combination of every triple, and of one absent
        for t in [*g.triples, Triple(absent, absent, absent)]:
            for bound in itertools.product((True, False), repeat=3):
                patterns.append(tuple(term if keep else None for term, keep in zip(t, bound)))
        for s, p, o in patterns:
            expected = scan_matching(g, s, p, o)
            assert g.match(s, p, o) == sorted(expected, key=triple_sort_key)
            assert g.objects(s, p) == sorted(
                {t.object for t in scan_matching(g, s, p, None)}, key=term_sort_key
            )
            assert g.subjects(p, o) == sorted(
                {t.subject for t in scan_matching(g, None, p, o)}, key=term_sort_key
            )


def test_match_results_in_canonical_order():
    g = Graph(
        [
            Triple(IRI(EX + "s"), IRI(EX + "p2"), Literal("x")),
            Triple(IRI(EX + "s"), RDF_TYPE, IRI(EX + "C")),
            Triple(IRI(EX + "s"), IRI(EX + "p1"), Literal("y")),
        ]
    )
    predicates = [t.predicate for t in g.match(IRI(EX + "s"), None, None)]
    assert predicates == [RDF_TYPE, IRI(EX + "p1"), IRI(EX + "p2")]


def test_gc_paused_restores_the_prior_collector_state():
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        with gc_paused():
            assert not gc.isenabled()
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()
        with pytest.raises(ValueError):
            with gc_paused():
                Graph([], {"bad prefix": EX})
        assert gc.isenabled()
        # a collector that was off stays off
        gc.disable()
        with gc_paused():
            pass
        Graph([Triple(IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o"))])
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_gc_paused_moves_what_it_built_to_the_oldest_generation():
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        with gc_paused():
            built = [[] for _ in range(2000)]
        assert gc.get_count()[0] < len(built)
        assert any(o is built for o in gc.get_objects(generation=2))
        # objects the process froze itself stay frozen
        gc.freeze()
        frozen = gc.get_freeze_count()
        with gc_paused():
            pass
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


# ---------------------------------------------------------------------------
# hash contract: equal values hash equally, in any process
# ---------------------------------------------------------------------------


def test_equal_terms_and_triples_built_separately_hash_equally():
    for seed in range(20):
        g1, g2 = random_graph(random.Random(seed)), random_graph(random.Random(seed))
        assert g1 == g2 and hash(g1) == hash(g2)
        for t1, t2 in zip(g1, g2):
            assert t1 == t2 and t1 is not t2 and hash(t1) == hash(t2)
            for a, b in zip(t1, t2):
                assert a == b and a is not b and hash(a) == hash(b)


# Rebuilds every term through its validating constructor, so the child looks
# the graph up with objects hashed in its own process, not only the unpickled
# ones.
UNPICKLE_AND_LOOK_UP = textwrap.dedent(
    """
    import pickle, sys
    from dingotk.terms import Triple, triple_sort_key
    from support import scan_matching

    g = pickle.loads(sys.stdin.buffer.read())
    fresh = lambda term: None if term is None else type(term)(*term)
    for t in g.triples:
        assert t in g
        s, p, o = (fresh(term) for term in t)
        assert Triple(s, p, o) in g
        for pattern in ((s, None, None), (None, p, None), (None, None, o), (s, p, None), (None, p, o), (s, None, o)):
            expected = sorted(scan_matching(g, *pattern), key=triple_sort_key)
            assert g.match(*pattern) == expected, pattern
    print(hash("hash seed probe"))
    """
)


def test_graph_unpickled_under_another_hash_seed_still_finds_its_triples():
    g = random_graph(random.Random(77), max_triples=120)
    data = pickle.dumps(g)
    path = os.pathsep.join([str(Path(dingotk.__file__).parents[1]), str(Path(__file__).parent)])
    probes = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        child = subprocess.run(
            [sys.executable, "-c", UNPICKLE_AND_LOOK_UP], input=data, capture_output=True, env=env, timeout=60
        )
        assert child.returncode == 0, child.stderr.decode()
        probes.add(int(child.stdout))
    # at least one child hashed strings differently from this process
    assert probes - {hash("hash seed probe")}


# ---------------------------------------------------------------------------
# term contract: immutable slotted tuples, equal exactly by type and fields
# ---------------------------------------------------------------------------

FIELDS = {
    IRI: ("value",),
    BlankNode: ("label",),
    Literal: ("lexical", "datatype", "language"),
    Triple: ("subject", "predicate", "object"),
}


def _structure(value):
    """The type and fields of a term or triple, nested down to strings."""
    if type(value) in FIELDS:
        return (type(value), tuple(_structure(getattr(value, name)) for name in FIELDS[type(value)]))
    return value


def _contract_pool(seed: int) -> list:
    g = random_graph(random.Random(seed), max_triples=25, max_blanks=4)
    originals = list(g.nodes()) + sorted({t.predicate for t in g}, key=term_sort_key) + list(g)
    # near misses: the same strings in another kind of term, and pairs that
    # differ in one field only
    a, b = EX + "a", EX + "b"
    originals += [IRI(a), BlankNode("a"), Literal("a"), Literal(a), Literal(a, b)]
    originals += [Literal("a", RDF_LANG_STRING, "en"), Literal("a", RDF_LANG_STRING, "fr")]
    originals += [Triple(IRI(a), IRI(b), IRI(a)), Triple(IRI(b), IRI(b), IRI(a))]
    originals += [Triple(IRI(a), IRI(a), IRI(a)), Triple(IRI(a), IRI(b), IRI(b))]
    rebuilt = [type(term)(*term) for term in originals]
    return originals + rebuilt


def test_terms_are_equal_exactly_when_type_and_fields_match():
    for seed in range(4):
        pool = _contract_pool(seed)
        structures = [_structure(term) for term in pool]
        for x, sx in zip(pool, structures):
            for y, sy in zip(pool, structures):
                assert (x == y) is (sx == sy), (x, y)
                if x == y:
                    assert hash(x) == hash(y)


def test_terms_are_immutable_slotted_and_pickle_to_themselves():
    for term in _contract_pool(11):
        assert not hasattr(term, "__dict__")
        for name in FIELDS[type(term)]:
            with pytest.raises(AttributeError):
                setattr(term, name, getattr(term, name))
        with pytest.raises(AttributeError):
            term.extra = None
        copy = pickle.loads(pickle.dumps(term))
        assert type(copy) is type(term) and copy == term
