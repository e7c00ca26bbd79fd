import gc
import itertools
import os
import pickle
import random
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import dingotk

from dingotk.terms import (
    BlankNode,
    Graph,
    IRI,
    LANGUAGE_TAG,
    Literal,
    PREFIX_NAME,
    RDF_LANG_STRING,
    RDF_TYPE,
    Triple,
    XSD_INTEGER,
    XSD_STRING,
    expand_name,
    gc_paused,
    line_and_column,
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


def test_expand_name_splits_at_the_first_colon():
    prefixes = {"ex": EX, "": "urn:x:"}
    assert expand_name("ex:a:b", prefixes) == EX + "a:b"
    assert expand_name(":", prefixes) == "urn:x:"
    with pytest.raises(ValueError, match=r"^undefined prefix 'nope:'$"):
        expand_name("nope:a", prefixes)


def test_blank_label_rules():
    BlankNode("b0")
    BlankNode("0digitstart")
    with pytest.raises(ValueError):
        BlankNode("")
    with pytest.raises(ValueError):
        BlankNode("has space")
    with pytest.raises(ValueError, match="invalid blank node label"):
        BlankNode("b0\n")


def test_literal_language_requires_langstring_datatype():
    Literal("ciao", RDF_LANG_STRING, "it")
    with pytest.raises(ValueError):
        Literal("ciao", XSD_STRING, "it")
    with pytest.raises(ValueError):
        Literal("ciao", RDF_LANG_STRING)  # langString without tag
    with pytest.raises(ValueError):
        Literal("x", XSD_STRING[:-6] + " bad")
    with pytest.raises(ValueError, match="invalid language tag"):
        Literal("x", RDF_LANG_STRING, "en\n")


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
    with pytest.raises(ValueError, match="invalid prefix name"):
        Graph([], {"ex\n": EX})
    with pytest.raises(ValueError):
        Graph([], {"p": "not-an-iri"})


@pytest.mark.parametrize(
    "form, accepted, rejected",
    [
        (PREFIX_NAME, ["", "d", "_x", "a.b", "a-1.b_2"], ["dé", "a.", ".a", "a..b", "-a", "1x", "a:b", "d\n"]),
        (LANGUAGE_TAG, ["en", "en-GB", "de-CH-1996", "x-1"], ["", "en-", "-en", "1en", "é", "en_GB", "en\n"]),
    ],
    ids=["prefix-name", "language-tag"],
)
def test_name_forms_are_ascii_and_capture_no_group(form, accepted, rejected):
    assert form.groups == 0
    assert [text for text in accepted if not form.fullmatch(text)] == []
    assert [text for text in rejected if form.fullmatch(text)] == []


@pytest.mark.parametrize(
    "text, offset, position",
    [("", 0, (1, 1)), ("ab", 2, (1, 3)), ("a\nbc", 2, (2, 1)), ("a\nbc", 4, (2, 3)), ("\n\r\nx", 3, (3, 1))],
)
def test_line_and_column_of_an_offset(text, offset, position):
    assert line_and_column(text, offset) == position


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


# ---------------------------------------------------------------------------
# Graph against the set of its input triples
# ---------------------------------------------------------------------------

SUBJECT_POOL = [IRI(EX + "a"), IRI(EX + "b"), IRI(EX + "c"), BlankNode("x"), BlankNode("y")]
PREDICATE_POOL = [RDF_TYPE, IRI(EX + "p"), IRI(EX + "q")]
OBJECT_POOL = SUBJECT_POOL + [
    Literal("1"), Literal("1", XSD_INTEGER), Literal("1", RDF_LANG_STRING, "en"), Literal("a b")
]
ABSENT = IRI(EX + "absent")
# one subject with HUB_SIZE objects on one predicate: a quadratic
# deduplication of its leaf would not finish inside BUILD_SECONDS
HUB, HUB_PREDICATE, HUB_SIZE = IRI(EX + "hub"), IRI(EX + "has"), 10_000
BUILD_SECONDS = 1.0


def _fresh(triple: Triple) -> Triple:
    """An equal triple that shares no object with `triple`."""
    return Triple(*(type(term)(*term) for term in triple))


def _hub_triples() -> list:
    return [Triple(HUB, HUB_PREDICATE, Literal(str(i), XSD_INTEGER)) for i in range(HUB_SIZE)]


@st.composite
def graph_inputs(draw):
    """A list of triples with duplicates (some equal but not identical) in random order."""
    triple = st.builds(
        Triple, st.sampled_from(SUBJECT_POOL), st.sampled_from(PREDICATE_POOL), st.sampled_from(OBJECT_POOL)
    )
    items = draw(st.lists(triple, max_size=40))
    if items:
        items += [_fresh(t) for t in draw(st.lists(st.sampled_from(items), max_size=20))]
    if draw(st.sampled_from([False] * 19 + [True])):
        hub = _hub_triples()
        items += hub + [_fresh(t) for t in hub[::3]]
    draw(st.randoms(use_true_random=False)).shuffle(items)
    return items


def _needs_pos(pattern) -> bool:
    return pattern[0] is None and pattern[1] is not None


def _pattern_oracle(expected: set) -> dict:
    """Every pattern that matches something, with the set of triples it matches."""
    oracle: dict = {}
    for t in expected:
        for keep in itertools.product((True, False), repeat=3):
            pattern = tuple(term if k else None for term, k in zip(t, keep))
            oracle.setdefault(pattern, set()).add(t)
    return oracle


def _check_patterns(g: Graph, oracle: dict, patterns, build_pos: bool) -> None:
    """`match`, `objects` and `subjects` for each pattern; only the lookups
    that leave the predicate index unbuilt unless `build_pos`."""
    checked = set()
    for s, p, o in patterns:
        for kind, args in (("match", (s, p, o)), ("objects", (s, p, None)), ("subjects", (None, p, o))):
            if (kind, args) in checked or (_needs_pos(args) and not build_pos):
                continue
            checked.add((kind, args))
            found = oracle.get(args, set())
            if kind == "match":
                assert g.match(*args) == sorted(found, key=triple_sort_key), args
            elif kind == "objects":
                assert g.objects(s, p) == sorted({t.object for t in found}, key=term_sort_key), args
            else:
                assert g.subjects(p, o) == sorted({t.subject for t in found}, key=term_sort_key), args


def _check_set(g: Graph, expected: set, members: list, rng: random.Random) -> None:
    assert len(g) == len(expected)
    assert g.triples == expected
    assert list(g) == sorted(expected, key=triple_sort_key)
    assert all(t in g and _fresh(t) in g for t in members)
    assert Triple(ABSENT, ABSENT, ABSENT) not in g and Triple(HUB, HUB_PREDICATE, ABSENT) not in g
    assert None not in g and ABSENT not in g and Literal("1") not in g
    shuffled = list(expected)
    rng.shuffle(shuffled)
    same = Graph(shuffled, g.prefixes)
    assert g == same and same == g and hash(g) == hash(same)
    assert g != Graph(expected, {"ex": EX})
    if expected:
        dropped = shuffled.pop()
        assert g != Graph(shuffled) and Graph(shuffled) != g
        # as many triples, one of them different
        swapped = Graph([*shuffled, Triple(dropped.subject, dropped.predicate, ABSENT)])
        assert len(swapped) == len(g) and g != swapped and swapped != g


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(graph_inputs(), st.randoms(use_true_random=False))
@example(_hub_triples() + [_fresh(t) for t in _hub_triples()[::2]], random.Random(0))
def test_graph_agrees_with_the_set_of_its_input_triples(items, rng):
    expected = set(items)
    start = time.process_time()
    g = Graph(items)
    assert time.process_time() - start < BUILD_SECONDS
    assert g._pos is None
    oracle = _pattern_oracle(expected)
    absent = [(ABSENT, None, None), (None, ABSENT, None), (None, None, ABSENT), (HUB, ABSENT, None)]
    patterns = [*oracle, *absent]
    # the hub's leaf and object-only scans are long, so big inputs are sampled
    if len(patterns) > 60:
        patterns = rng.sample(patterns, 60)
    members = rng.sample(items, min(len(items), 100))
    for built in (False, True):
        _check_set(g, expected, members, rng)
        _check_patterns(g, oracle, patterns, built)
        assert (g._pos is None) is (not built)
        copy = pickle.loads(pickle.dumps(g))
        assert (copy._pos is None) is (not built)
        assert copy == g and hash(copy) == hash(g) and list(copy) == list(g)
        _check_patterns(copy, oracle, patterns[:20], built)
        g.match(None, ABSENT, None)  # builds the predicate index for the second round
    assert g._pos is not None


def test_the_predicate_index_is_built_one_predicate_at_a_time():
    s, o = IRI(EX + "s"), IRI(EX + "o")
    p, q, absent = IRI(EX + "p"), IRI(EX + "q"), IRI(EX + "absent")
    g = Graph([Triple(s, p, o), Triple(o, p, s), Triple(s, q, o), Triple(s, RDF_TYPE, o)])
    assert g.objects(s, p) == [o] and g._pos is None  # a bound subject needs no index
    assert g.subjects(p, o) == [s]
    assert list(g._pos) == [p]
    # an absent predicate matches nothing and is kept, so the next miss does not scan
    assert g.match(None, absent, None) == [] and g.subjects(absent, o) == []
    assert g._pos == {p: {o: [Triple(s, p, o)], s: [Triple(o, p, s)]}, absent: {}}
    # a copy keeps the entries built so far and builds the rest as it goes
    copy = pickle.loads(pickle.dumps(g))
    assert copy._pos == g._pos
    assert copy.match(None, q, None) == [Triple(s, q, o)]
    assert set(copy._pos) == {p, absent, q} and set(g._pos) == {p, absent}
    assert copy == g


def test_membership_of_a_pattern_with_a_wildcard_is_false_and_builds_no_index():
    t = Triple(IRI(EX + "s"), IRI(EX + "p"), IRI(EX + "o"))
    g = Graph([t, Triple(t.object, t.predicate, t.subject)])
    for keep in itertools.product((True, False), repeat=3):
        pattern = tuple(term if k else None for term, k in zip(t, keep))
        assert (pattern in g) is all(keep), pattern
    assert g._pos is None


@settings(max_examples=50, derandomize=True, database=None, deadline=None)
@given(st.randoms(use_true_random=False))
def test_find_returns_the_triples_of_match_for_every_pattern(rng):
    g = random_graph(rng, max_triples=60, max_blanks=6)
    triples = [*g.triples, Triple(ABSENT, ABSENT, ABSENT)]
    for t in rng.sample(triples, min(len(triples), 8)):
        for keep in itertools.product((True, False), repeat=3):
            pattern = tuple(term if k else None for term, k in zip(t, keep))
            found = list(g.find(*pattern))
            assert len(found) == len(set(found)), pattern
            assert set(found) == set(g.match(*pattern)), pattern
            assert set(found) == set(scan_matching(g, *pattern)), pattern


def test_threads_that_race_to_build_the_predicate_index_all_read_it_right():
    g = random_graph(random.Random(5), max_triples=400, max_blanks=8)
    predicates = sorted({t.predicate for t in g}, key=term_sort_key)
    expected = {p: sorted(scan_matching(g, None, p, None), key=triple_sort_key) for p in predicates}
    results, errors = [], []

    def read(graph, start):
        try:
            start.wait(timeout=10)
            results.append({p: graph.match(None, p, None) for p in predicates})
        except Exception as exc:  # reported below, with the thread's result missing
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            graph, start = Graph(g.match(), g.prefixes), threading.Barrier(6)
            threads = [threading.Thread(target=read, args=(graph, start)) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert len(results) == 30 and all(found == expected for found in results)
