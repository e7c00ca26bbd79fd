"""RDF data model: terms, triples and an immutable, pattern-indexed graph.

Terms come in three variants (IRI, blank node, literal). Terms and triples are
immutable named tuples, hashed and compared by value in C; each constructor
validates in `__new__`, so build them by calling the class, never with
`_make` or `_replace`. Graphs are sets of triples with an ordered prefix map,
held in one subject-first index built with the graph and one predicate-first
index built on first use. Their triples never change after construction, and
building the second index is idempotent, so graphs are safe to share between
threads.
"""

from __future__ import annotations

import gc
import re
from collections import namedtuple
from contextlib import contextmanager
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Union

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
SKOS_NS = "http://www.w3.org/2004/02/skos/core#"
DCT_NS = "http://purl.org/dc/terms/"

XSD_STRING = XSD_NS + "string"
XSD_INTEGER = XSD_NS + "integer"
XSD_DECIMAL = XSD_NS + "decimal"
XSD_DOUBLE = XSD_NS + "double"
XSD_BOOLEAN = XSD_NS + "boolean"
XSD_DATE = XSD_NS + "date"
XSD_GYEAR = XSD_NS + "gYear"
XSD_GYEARMONTH = XSD_NS + "gYearMonth"
XSD_ANYURI = XSD_NS + "anyURI"
RDF_LANG_STRING = RDF_NS + "langString"


class DingoError(Exception):
    """Base class for all toolkit errors."""


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection for the block, then restore it.

    Building a graph allocates millions of containers that all stay alive,
    so collections during the build find nothing to free. The collector
    runs again afterwards only if it was on before; nesting is safe. Like
    `gc.disable()`, the pause holds for the whole process.

    When the collector comes back on, every tracked object moves to the
    oldest generation, so the next young collections do not walk what the
    block built. This is skipped while the process holds frozen objects of
    its own (`gc.freeze()`), which stay frozen.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            if not gc.get_freeze_count():
                gc.freeze()
                gc.unfreeze()
            gc.enable()


# scheme ":" — RFC 3986 scheme production
_SCHEME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:")
# characters that cannot appear inside an IRIREF and would break round-tripping
_IRI_FORBIDDEN = re.compile(r'[\x00-\x20<>"{}|^`\\]')
_BLANK_LABEL_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_-]*$")
_LANG_TAG_RE = re.compile(r"^[A-Za-z]+(-[A-Za-z0-9]+)*$")
# empty string is the default prefix; dots allowed inside but not at the edges
_PREFIX_RE = re.compile(r"^$|^[A-Za-z_][A-Za-z0-9_-]*(\.[A-Za-z0-9_-]+)*$")


def is_absolute_iri(value: str) -> bool:
    return bool(_SCHEME_RE.match(value))


_CHAR_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
    "\b": "\\b",
    "\f": "\\f",
}


# the characters escape_string changes: quote, backslash, C0 controls and DEL
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f\x7f]')


def _escape_char(match: re.Match) -> str:
    c = match.group()
    return _CHAR_ESCAPES.get(c) or f"\\u{ord(c):04X}"


def escape_string(text: str) -> str:
    """The text as the body of a quoted Turtle or N-Triples string.

    Quote, backslash, C0 controls and DEL are escaped; nothing else changes.
    """
    return _NEEDS_ESCAPE.sub(_escape_char, text)


class IRI(namedtuple("IRI", "value")):
    __slots__ = ()

    def __new__(cls, value: str) -> "IRI":
        if not is_absolute_iri(value):
            raise ValueError(f"IRI is not absolute (missing scheme): {value!r}")
        bad = _IRI_FORBIDDEN.search(value)
        if bad:
            raise ValueError(f"IRI contains forbidden character {bad.group()!r}: {value!r}")
        return tuple.__new__(cls, (value,))

    def __repr__(self) -> str:
        return f"<{self.value}>"


class BlankNode(namedtuple("BlankNode", "label")):
    __slots__ = ()

    def __new__(cls, label: str) -> "BlankNode":
        if not _BLANK_LABEL_RE.match(label):
            raise ValueError(f"invalid blank node label: {label!r}")
        return tuple.__new__(cls, (label,))

    def __repr__(self) -> str:
        return f"_:{self.label}"


class Literal(namedtuple("Literal", "lexical datatype language")):
    __slots__ = ()

    def __new__(cls, lexical: str, datatype: str = XSD_STRING, language: Optional[str] = None) -> "Literal":
        if language is not None:
            if not _LANG_TAG_RE.match(language):
                raise ValueError(f"invalid language tag: {language!r}")
            if datatype != RDF_LANG_STRING:
                raise ValueError("language-tagged literal must have the rdf:langString datatype")
        elif datatype == RDF_LANG_STRING:
            raise ValueError("rdf:langString literal requires a language tag")
        if not is_absolute_iri(datatype) or _IRI_FORBIDDEN.search(datatype):
            raise ValueError(f"literal datatype must be a valid absolute IRI: {datatype!r}")
        return tuple.__new__(cls, (lexical, datatype, language))

    def __repr__(self) -> str:
        body = escape_string(self.lexical)
        if self.language:
            return f'"{body}"@{self.language}'
        if self.datatype == XSD_STRING:
            return f'"{body}"'
        return f'"{body}"^^<{self.datatype}>'


Term = Union[IRI, BlankNode, Literal]

RDF_TYPE = IRI(RDF_NS + "type")
RDF_FIRST = IRI(RDF_NS + "first")
RDF_REST = IRI(RDF_NS + "rest")
RDF_NIL = IRI(RDF_NS + "nil")


def term_sort_key(term: Term) -> tuple:
    """Total order over terms: IRIs, then blank nodes, then literals."""
    if isinstance(term, IRI):
        return (0, term.value, "", "")
    if isinstance(term, BlankNode):
        return (1, term.label, "", "")
    return (2, term.lexical, term.datatype, term.language or "")


def predicate_sort_key(predicate: IRI) -> tuple:
    # rdf:type leads every predicate group; it serializes as "a"
    if predicate == RDF_TYPE:
        return (0, "")
    return (1, predicate.value)


class Triple(namedtuple("Triple", "subject predicate object")):
    __slots__ = ()

    def __new__(cls, subject: Term, predicate: IRI, object: Term) -> "Triple":
        if isinstance(subject, Literal):
            raise ValueError("triple subject cannot be a literal")
        if not isinstance(predicate, IRI):
            raise ValueError("triple predicate must be an IRI")
        return tuple.__new__(cls, (subject, predicate, object))


def triple_sort_key(triple: Triple) -> tuple:
    return (
        term_sort_key(triple.subject),
        predicate_sort_key(triple.predicate),
        term_sort_key(triple.object),
    )


def _checked_prefixes(prefixes: Optional[Mapping[str, str]]) -> dict:
    checked = dict(prefixes) if prefixes else {}
    for prefix, namespace in checked.items():
        if not _PREFIX_RE.match(prefix):
            raise ValueError(f"invalid prefix name: {prefix!r}")
        if not is_absolute_iri(namespace) or _IRI_FORBIDDEN.search(namespace):
            raise ValueError(f"prefix {prefix!r} maps to an invalid namespace: {namespace!r}")
    return checked


def _object_sort_key(triple: Triple) -> tuple:
    return term_sort_key(triple[2])


class Graph:
    """Immutable set of triples plus an ordered prefix map.

    Duplicate triples collapse (RDF set semantics). The triples live only in
    nested indexes, as in Hexastore (Weiss, Karras and Bernstein, VLDB 2008)
    cut down to the orderings the toolkit reads. Subject -> predicate ->
    triples is built with the graph. Predicate -> object -> triples is built
    from it the first time a lookup binds a predicate but no subject, and
    kept; building it twice gives equal indexes, so a graph is still safe to
    share between threads. Iteration and `match` results follow the
    canonical serialization order, so everything downstream is deterministic.

    `len`, `in` and pattern lookups read the indexes. `triples` and `hash`
    build a new frozenset, O(n) on every call.
    """

    __slots__ = ("_prefixes", "_spo", "_pos", "_len")

    def __init__(
        self,
        triples: Iterable[Triple] = (),
        prefixes: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._prefixes = _checked_prefixes(prefixes)
        # plain dicts and lists, never changed after deduplication; a leaf
        # starts as [t], sized exactly, because most leaves never grow
        spo: dict = {}
        grown = []
        count = 0
        with gc_paused():
            for t in triples:
                s, p, o = t
                count += 1
                by_p = spo.get(s)
                if by_p is None:
                    spo[s] = {p: [t]}
                elif p in by_p:
                    leaf = by_p[p]
                    if len(leaf) == 1:
                        grown.append(leaf)
                    leaf.append(t)
                else:
                    by_p[p] = [t]
            # one dict per grown leaf, keyed by object: linear in its length
            for leaf in grown:
                unique = {t[2]: t for t in leaf}
                if len(unique) < len(leaf):
                    count -= len(leaf) - len(unique)
                    leaf[:] = unique.values()
        self._spo = spo
        self._pos = None
        self._len = count

    def _leaves(self) -> Iterator[list]:
        for by_p in self._spo.values():
            yield from by_p.values()

    def _all(self) -> Iterator[Triple]:
        for leaf in self._leaves():
            yield from leaf

    def _pos_index(self) -> dict:
        pos = self._pos
        if pos is None:
            pos = {}
            with gc_paused():
                for by_p in self._spo.values():
                    for p, leaf in by_p.items():
                        by_o = pos.get(p)
                        if by_o is None:
                            by_o = pos[p] = {}
                        for t in leaf:
                            o = t[2]
                            if o in by_o:
                                by_o[o].append(t)
                            else:
                                by_o[o] = [t]
            self._pos = pos
        return pos

    @property
    def triples(self) -> frozenset:
        return frozenset(self._all())

    @property
    def prefixes(self) -> Mapping[str, str]:
        return MappingProxyType(self._prefixes)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, tuple) or len(triple) != 3:
            return False
        by_p = self._spo.get(triple[0])
        return by_p is not None and triple in by_p.get(triple[1], ())

    def __iter__(self) -> Iterator[Triple]:
        spo = self._spo
        for subject in sorted(spo, key=term_sort_key):
            by_p = spo[subject]
            for predicate in sorted(by_p, key=predicate_sort_key):
                yield from sorted(by_p[predicate], key=_object_sort_key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        if self._len != other._len or self._prefixes != other._prefixes:
            return False
        # leaves hold no duplicates, so with equal counts, equal leaves for
        # every (subject, predicate) of this graph leave none over in the other
        theirs = other._spo
        for s, by_p in self._spo.items():
            their_by_p = theirs.get(s)
            if their_by_p is None:
                return False
            for p, leaf in by_p.items():
                their_leaf = their_by_p.get(p, ())
                if leaf != their_leaf and (
                    len(leaf) != len(their_leaf) or {t[2] for t in leaf} != {t[2] for t in their_leaf}
                ):
                    return False
        return True

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        return f"Graph({self._len} triples, {len(self._prefixes)} prefixes)"

    def _lookup(
        self, subject: Optional[Term], predicate: Optional[Term], object: Optional[Term]
    ) -> Iterable[Triple]:
        # the matching triples in no particular order; a bound subject or
        # predicate is one or two dict lookups, an object alone is a scan
        if subject is not None:
            by_p = self._spo.get(subject)
            if by_p is None:
                return ()
            if predicate is not None:
                found = by_p.get(predicate, ())
            else:
                found = [t for leaf in by_p.values() for t in leaf]
        elif predicate is not None:
            by_o = self._pos_index().get(predicate)
            if by_o is None:
                return ()
            if object is not None:
                return by_o.get(object, ())
            return [t for leaf in by_o.values() for t in leaf]
        else:
            found = self._all()
        if object is not None:
            return [t for t in found if t[2] == object]
        return found

    def match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> list[Triple]:
        """All triples matching the pattern; None positions are wildcards."""
        return sorted(self._lookup(subject, predicate, object), key=triple_sort_key)

    def subjects(self, predicate: Optional[Term] = None, object: Optional[Term] = None) -> list[Term]:
        """Distinct subjects of matching triples, canonically ordered."""
        return sorted({t[0] for t in self._lookup(None, predicate, object)}, key=term_sort_key)

    def objects(self, subject: Optional[Term] = None, predicate: Optional[Term] = None) -> list[Term]:
        """Distinct objects of matching triples, canonically ordered."""
        return sorted({t[2] for t in self._lookup(subject, predicate, None)}, key=term_sort_key)

    def value(self, subject: Term, predicate: IRI) -> Optional[Term]:
        """First object (canonical order) for (subject, predicate), if any."""
        found = self.objects(subject, predicate)
        return found[0] if found else None

    def subject_groups(self) -> Iterator[tuple[Term, list[tuple[IRI, list[Term]]]]]:
        """Each subject with its (predicate, objects) pairs, in canonical order.

        Subjects and objects follow `term_sort_key` and predicates
        `predicate_sort_key` (rdf:type first): the order of canonical Turtle.
        The lists are fresh copies, so callers cannot change the graph.
        """
        spo = self._spo
        for subject in sorted(spo, key=term_sort_key):
            by_p = spo[subject]
            yield subject, [
                (predicate, sorted([t[2] for t in by_p[predicate]], key=term_sort_key))
                for predicate in sorted(by_p, key=predicate_sort_key)
            ]

    def nodes(self) -> set:
        """Every term appearing in subject or object position."""
        out = set(self._spo)
        for leaf in self._leaves():
            out.update([t[2] for t in leaf])
        return out

    def blank_nodes(self) -> set:
        return {n for n in self.nodes() if isinstance(n, BlankNode)}

    def with_prefixes(self, prefixes: Mapping[str, str]) -> "Graph":
        """Copy of this graph with extra prefix declarations merged in."""
        merged = dict(self._prefixes)
        merged.update(prefixes)
        # the indexes never change, so the copy shares them
        copy = Graph.__new__(Graph)
        copy._prefixes = _checked_prefixes(merged)
        copy._spo, copy._pos, copy._len = self._spo, self._pos, self._len
        return copy
