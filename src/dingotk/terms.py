"""RDF data model: terms, triples and an immutable, pattern-indexed graph.

Terms come in three variants (IRI, blank node, literal). Terms and triples are
immutable named tuples, hashed and compared by value in C; each constructor
validates in `__new__`, so build them by calling the class, never with
`_make` or `_replace`. Graphs are sets of triples with an ordered prefix map,
held in one subject-first index built with the graph and one predicate-first
index whose entry for a predicate is built on first use. Their triples never
change after construction, and building an entry is idempotent, so graphs are
safe to share between threads.
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

# The one pattern of each XSD lexical form (XSD 1.1 Part 2) that the toolkit
# reads or writes, in the digits 0-9 only. Match each with `fullmatch`: "$"
# also matches before a final newline. The number forms are Turtle 1.1's
# INTEGER, DECIMAL and DOUBLE (productions [19]-[21]); with the boolean form
# they are the literals Turtle writes bare. The XSD_DATE entry is the
# YYYY[-MM[-DD]] date of funding data, an xsd:gYear, xsd:gYearMonth or
# xsd:date by its precision, with the year, month and day as its groups.
LEXICAL_FORMS = {
    XSD_INTEGER: re.compile(r"[+-]?[0-9]+"),
    XSD_DECIMAL: re.compile(r"[+-]?[0-9]*\.[0-9]+"),
    XSD_DOUBLE: re.compile(r"[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)[eE][+-]?[0-9]+"),
    XSD_BOOLEAN: re.compile(r"true|false"),
    XSD_DATE: re.compile(r"([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2}))?)?"),
}


class DingoError(Exception):
    """Base class for all toolkit errors."""


class PositionedError(DingoError):
    """An error in an input text at a 1-based line and column, which its message
    leads with, and at the text of a token, if one is given, which it ends with:
    ``line N, column M: reason (at 'token')``."""

    def __init__(self, reason: str, line: int, column: int, token: str = "") -> None:
        self.reason = reason
        self.line = line
        self.column = column
        self.token = token
        at = f" (at {token!r})" if token else ""
        super().__init__(f"line {line}, column {column}: {reason}{at}")

    @classmethod
    def at(cls, text: str, offset: int, reason: str, token: str = "") -> "PositionedError":
        """The error at an offset into text."""
        return cls(reason, *line_and_column(text, offset), token)


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
# these four are matched with fullmatch, so no label, tag or name ends in a newline
_BLANK_LABEL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_-]*")
# The language tag (Turtle's LANGTAG after its "@"), the name of a shape or an entity, and the
# prefix name (the text before a colon; "" is the default prefix) that every reader checks.
# None captures a group, so other patterns may embed their `.pattern`.
LANGUAGE_TAG = re.compile(r"[A-Za-z]+(?:-[A-Za-z0-9]+)*")
DECLARED_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*")
PREFIX_NAME = re.compile(rf"(?:{DECLARED_NAME.pattern}(?:\.[A-Za-z0-9_-]+)*)?")


def line_and_column(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of an offset into text."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def is_absolute_iri(value: str) -> bool:
    return bool(_SCHEME_RE.match(value))


def expand_name(name: str, prefixes: Mapping[str, str]) -> str:
    """The IRI text of a prefixed name ``prefix:local``; ValueError if unbound."""
    prefix, _, local = name.partition(":")
    try:
        return prefixes[prefix] + local
    except KeyError:
        raise ValueError(f"undefined prefix {prefix + ':'!r}") from None


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
        if not _BLANK_LABEL_RE.fullmatch(label):
            raise ValueError(f"invalid blank node label: {label!r}")
        return tuple.__new__(cls, (label,))

    def __repr__(self) -> str:
        return f"_:{self.label}"


class Literal(namedtuple("Literal", "lexical datatype language")):
    __slots__ = ()

    def __new__(cls, lexical: str, datatype: str = XSD_STRING, language: Optional[str] = None) -> "Literal":
        if language is not None:
            if not LANGUAGE_TAG.fullmatch(language):
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
        if not PREFIX_NAME.fullmatch(prefix):
            raise ValueError(f"invalid prefix name: {prefix!r}")
        if not is_absolute_iri(namespace) or _IRI_FORBIDDEN.search(namespace):
            raise ValueError(f"prefix {prefix!r} maps to an invalid namespace: {namespace!r}")
    return checked


class Graph:
    """Immutable set of triples plus an ordered prefix map.

    Duplicate triples collapse (RDF set semantics). The triples live only in
    nested indexes, as in Hexastore (Weiss, Karras and Bernstein, VLDB 2008)
    cut down to the orderings the toolkit reads. Subject -> predicate ->
    triples is built with the graph. Predicate -> object -> triples is built
    from it one predicate at a time, the first time a lookup binds that
    predicate but no subject, and kept; building an entry twice gives equal
    entries, so a graph is still safe to share between threads. Iteration is
    `match()` order, the canonical serialization order, so everything
    downstream is deterministic.

    Only `_lookup`, `subject_groups` and the index builders read the index
    layout; every other member goes through `_lookup`. `len`, `in` and
    pattern lookups read the indexes; `find` is `match` without the sort.
    `==` compares counts and prefix maps, then tests each triple of one graph
    against the other's triple set. `triples` and `hash` build a new
    frozenset, O(n) on every call.
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

    def _pos_index(self, predicate: Term) -> dict:
        """The object -> triples index of one predicate, built on first use.

        A predicate the graph lacks is kept as an empty index too, so a
        lookup that misses does not scan again.
        """
        pos = self._pos
        if pos is None:
            pos = self._pos = {}
        by_o = pos.get(predicate)
        if by_o is None:
            by_o = {}
            with gc_paused():
                for by_p in self._spo.values():
                    leaf = by_p.get(predicate)
                    if leaf is not None:
                        for t in leaf:
                            o = t[2]
                            if o in by_o:
                                by_o[o].append(t)
                            else:
                                by_o[o] = [t]
            pos[predicate] = by_o
        return by_o

    @property
    def triples(self) -> frozenset:
        return frozenset(self._lookup(None, None, None))

    @property
    def prefixes(self) -> Mapping[str, str]:
        return MappingProxyType(self._prefixes)

    def __len__(self) -> int:
        return self._len

    def __contains__(self, triple: object) -> bool:
        # a triple holds no None, so a pattern with a wildcard is not one and
        # reads no index (which could build one)
        if not isinstance(triple, tuple) or len(triple) != 3 or None in triple:
            return False
        return triple in self._lookup(triple[0], triple[1], None)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.match())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # the index holds no duplicates, so with equal counts, holding every
        # triple of this graph leaves none over in the other; a set, not `in`,
        # because `in` scans a (subject, predicate) leaf and hubs make it quadratic
        return (
            self._len == other._len
            and self._prefixes == other._prefixes
            and other.triples.issuperset(self._lookup(None, None, None))
        )

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
            by_o = self._pos_index(predicate)
            if object is not None:
                return by_o.get(object, ())
            return [t for leaf in by_o.values() for t in leaf]
        else:
            found = (t for by_p in self._spo.values() for leaf in by_p.values() for t in leaf)
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

    def find(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """The triples of `match` in no particular order, without its sort.

        For callers that put the result in a set or order it themselves.
        """
        return iter(self._lookup(subject, predicate, object))

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
            # one predicate or one object needs no sort, and most leaves hold one
            predicates = sorted(by_p, key=predicate_sort_key) if len(by_p) > 1 else by_p
            groups = []
            for predicate in predicates:
                leaf = by_p[predicate]
                if len(leaf) == 1:
                    groups.append((predicate, [leaf[0][2]]))
                else:
                    groups.append((predicate, sorted([t[2] for t in leaf], key=term_sort_key)))
            yield subject, groups

    def nodes(self) -> set:
        """Every term appearing in subject or object position."""
        return {term for s, _, o in self._lookup(None, None, None) for term in (s, o)}

    def blank_nodes(self) -> set:
        return {n for n in self.nodes() if isinstance(n, BlankNode)}
