"""Blank-node-aware graph isomorphism.

Backtracking search over blank node bijections with degree-signature pruning.
Meant for desk-scale testing (round-trip checks), not bulk canonicalization:
graphs with more than MAX_BLANK_NODES blank nodes combined are rejected.
"""

from __future__ import annotations

from collections import Counter

from .terms import BlankNode, DingoError, Graph, Term, Triple, term_sort_key

MAX_BLANK_NODES = 20


class BlankNodeLimitError(DingoError):
    pass


def _is_ground(triple: Triple) -> bool:
    return not isinstance(triple.subject, BlankNode) and not isinstance(triple.object, BlankNode)


def _ground_key(term: Term):
    kind, primary, extra_a, extra_b = term_sort_key(term)
    return ("g", str(kind), primary, extra_a, extra_b)


def _signatures(triples: frozenset) -> dict:
    """Per-blank-node multiset of incident-edge shapes, blind to other blanks."""
    sigs: dict = {}
    for t in triples:
        s_blank = isinstance(t.subject, BlankNode)
        o_blank = isinstance(t.object, BlankNode)
        if s_blank and o_blank:
            if t.subject == t.object:
                sigs.setdefault(t.subject, []).append(("loop", t.predicate.value))
            else:
                sigs.setdefault(t.subject, []).append(("subj", t.predicate.value, ("*",)))
                sigs.setdefault(t.object, []).append(("obj", t.predicate.value, ("*",)))
        elif s_blank:
            sigs.setdefault(t.subject, []).append(("subj", t.predicate.value, _ground_key(t.object)))
        elif o_blank:
            sigs.setdefault(t.object, []).append(("obj", t.predicate.value, _ground_key(t.subject)))
    return {node: tuple(sorted(entries)) for node, entries in sigs.items()}


def graph_isomorphic(g1: Graph, g2: Graph) -> bool:
    """True iff some blank-node bijection maps g1's triples onto g2's.

    Ground graphs compare by plain set equality. Prefix maps are ignored;
    isomorphism is about the triples only.
    """
    triples1, triples2 = g1.triples, g2.triples  # each a new frozenset
    ground1 = frozenset(t for t in triples1 if _is_ground(t))
    ground2 = frozenset(t for t in triples2 if _is_ground(t))
    if ground1 != ground2:
        return False

    open1 = triples1 - ground1
    open2 = triples2 - ground2
    if len(open1) != len(open2):
        return False

    blanks1 = sorted(g1.blank_nodes(), key=term_sort_key)
    blanks2 = sorted(g2.blank_nodes(), key=term_sort_key)
    if len(blanks1) != len(blanks2):
        return False
    if not blanks1:
        return True
    total = len(blanks1) + len(blanks2)
    if total > MAX_BLANK_NODES:
        raise BlankNodeLimitError(
            f"{total} blank nodes exceed the isomorphism limit of {MAX_BLANK_NODES}"
        )

    sig1 = _signatures(open1)
    sig2 = _signatures(open2)
    if Counter(sig1.values()) != Counter(sig2.values()):
        return False

    candidates = {
        b: tuple(c for c in blanks2 if sig2[c] == sig1[b]) for b in blanks1
    }
    order = sorted(blanks1, key=lambda b: (len(candidates[b]), b.label))
    # triples of open1 whose last unmapped blank is this one, given `order`
    position = {b: i for i, b in enumerate(order)}
    check_at: dict = {b: [] for b in order}
    for t in open1:
        involved = [x for x in (t.subject, t.object) if isinstance(x, BlankNode)]
        latest = max(involved, key=lambda b: position[b])
        check_at[latest].append(t)

    mapping: dict = {}
    used: set = set()

    def substitute(term: Term) -> Term:
        if isinstance(term, BlankNode):
            return mapping[term]
        return term

    def extend(depth: int) -> bool:
        if depth == len(order):
            return True
        node = order[depth]
        for target in candidates[node]:
            if target in used:
                continue
            mapping[node] = target
            used.add(target)
            ok = all(
                Triple(substitute(t.subject), t.predicate, substitute(t.object)) in open2
                for t in check_at[node]
            )
            if ok and extend(depth + 1):
                return True
            del mapping[node]
            used.discard(target)
        return False

    return extend(0)
