"""Turtle parser and canonical serializer.

The supported subset: @prefix/@base and SPARQL-style PREFIX/BASE, "a",
predicate lists (;), object lists (,), anonymous blank nodes [], blank node
property lists, collections ( ), numeric/boolean/string shorthands,
triple-quoted strings, language tags and datatyped literals. IRIs pass
through without Unicode normalization.

Parsing renames every blank node to b0, b1, ... in first-appearance order;
serialization is a pure function of the triple set and prefix map, so equal
graphs always produce byte-identical Turtle.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Mapping, Optional
from urllib.parse import urljoin

from .terms import (
    BlankNode,
    DingoError,
    Graph,
    IRI,
    Literal,
    RDF_FIRST,
    RDF_LANG_STRING,
    RDF_NIL,
    RDF_REST,
    RDF_TYPE,
    Term,
    Triple,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    escape_string,
    gc_paused,
    is_absolute_iri,
)


class TurtleParseError(DingoError):
    """Syntax error with a 1-based position and the offending token text."""

    def __init__(self, message: str, line: int, column: int, token: str = "") -> None:
        self.line = line
        self.column = column
        self.token = token
        suffix = f" (at {token!r})" if token else ""
        super().__init__(f"line {line}, column {column}: {message}{suffix}")


class UndefinedPrefixError(TurtleParseError):
    pass


class RelativeIriError(TurtleParseError):
    pass


# A token is a (kind, value, offset) tuple. The kinds are the punctuation
# characters . ; , [ ] ( ), "^^", "iriref", "string", "langtag",
# "at_prefix", "at_base", "integer", "decimal", "double", "boolean", "a",
# "sparql_prefix", "sparql_base", "blank", "pname" and "eof". The value is
# the token's decoded text (a prefixed name keeps its colon), or None where
# the kind says it all. The offset indexes the document; line and column
# are computed from it only when an error is raised.

_ESCAPES = {"t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f", '"': '"', "'": "'", "\\": "\\"}

# numeric escapes of Unicode scalar values only: at most U+10FFFF and no
# surrogates, which XML Char (and with it xsd:string) excludes
_NOT_SURROGATE = r"(?![dD][89a-fA-F])"
_UCHAR = (
    rf"\\u{_NOT_SURROGATE}[0-9a-fA-F]{{4}}"
    rf"|\\U(?:0000{_NOT_SURROGATE}|000[1-9a-fA-F]|0010)[0-9a-fA-F]{{4}}"
)
_STRING_ESCAPE = rf"""\\[tbnrf"'\\]|{_UCHAR}"""
# PN_LOCAL_ESC: characters that may appear backslash-escaped in names
_NAME_ESCAPE = r"\\[_~.!$&'()*+,;=/?\#@%-]"
# \w is exactly str.isalnum() plus "_". A name does not end in an unescaped
# dot: that dot is the statement terminator.
_NAME = rf"(?:[\w%:-]|{_NAME_ESCAPE})[\w%:.-]*(?:(?:{_NAME_ESCAPE})[\w%:.-]*)*(?<![^\\]\.)"
_SKIP = r"(?:[ \t\r\n]+|\#[^\n]*)*"


def _short_string(q: str) -> str:
    # three quotes open a long string, even when that does not complete
    return rf"(?!{q}{q}{q}){q}[^{q}\\\n\r]*(?:(?:{_STRING_ESCAPE})[^{q}\\\n\r]*)*{q}"


def _long_string(q: str) -> str:
    # a quote is content unless exactly two more follow it: quotes beyond the
    # closing three of a run belong to the content
    return rf"{q}{q}{q}[^{q}\\]*(?:(?:{_STRING_ESCAPE}|{q}(?!{q}{q}(?!{q})))[^{q}\\]*)*{q}{q}{q}"


# One alternative per terminal, each followed by the whitespace and comments
# before the next token. Numbers come before punctuation and names, so ".5"
# and "-1" are numbers.
_TOKEN_RE = re.compile(
    rf"""
    (?:
        (?P<iriref><[^>\n\\]*(?:(?:{_UCHAR})[^>\n\\]*)*>)
      | (?P<long_string>{_long_string('"')}|{_long_string("'")})
      | (?P<string>{_short_string('"')}|{_short_string("'")})
      | (?P<at>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
      | (?P<datatype>\^\^)
      | (?P<double>[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+)
      | (?P<decimal>[+-]?\d*\.\d+)
      | (?P<integer>[+-]?\d+)
      | (?P<punct>[.;,\[\]()])
      | (?P<blank>_:[\w%.-]*[\w%-])
      | (?P<name>(?!_:){_NAME})
    )
    {_SKIP}
    """,
    re.VERBOSE,
)
_SKIP_RE = re.compile(_SKIP)
_ESCAPE_RE = re.compile(r"\\(?:u([0-9a-fA-F]{4})|U([0-9a-fA-F]{8})|(.))", re.DOTALL)


def _decode_escape(match: re.Match) -> str:
    short, long, char = match.groups()
    if char is None:
        return chr(int(short or long, 16))
    return _ESCAPES.get(char, char)


def _unescape(raw: str) -> str:
    return _ESCAPE_RE.sub(_decode_escape, raw) if "\\" in raw else raw


def _starts_number(text: str, pos: int) -> bool:
    # str.isdigit() is wider than \d, so "²", ".²" and "-." start numbers
    # that never complete
    c, nxt = text[pos], text[pos + 1 : pos + 2]
    if c in "+-":
        return nxt.isdigit() or nxt == "."
    return c.isdigit() or (c == "." and nxt.isdigit())


def _tokenize(text: str) -> Iterator[tuple]:
    """The tokens of text, ending with "eof", lexed as they are read.

    A lexical error is raised when the reader reaches its token, so errors
    in earlier tokens are found first.
    """
    match = _TOKEN_RE.match
    pos = _SKIP_RE.match(text).end()
    while pos < len(text):
        m = match(text, pos)
        if m is None:
            raise _diagnose(text, pos)
        group = m.lastgroup
        raw = m[group]
        if group == "name":
            # of the characters that start names, only "-" and non-ASCII
            # ones can also start numbers
            if (raw[0] == "-" or raw[0] > "\x7f") and _starts_number(text, pos):
                raise _diagnose(text, pos)
            value = _unescape(raw)
            if ":" in value:
                kind = "pname"
            elif value == "a":
                kind = "a"
            elif value in ("true", "false"):
                kind = "boolean"
            elif value.lower() == "prefix":
                kind = "sparql_prefix"
            elif value.lower() == "base":
                kind = "sparql_base"
            else:
                raise _diagnose(text, pos)
        elif group == "punct":
            if raw == "." and _starts_number(text, pos):
                raise _diagnose(text, pos)
            kind, value = raw, None
        elif group == "iriref":
            kind, value = "iriref", _unescape(raw[1:-1])
        elif group == "string":
            kind, value = "string", _unescape(raw[1:-1])
        elif group == "long_string":
            kind, value = "string", _unescape(raw[3:-3])
        elif group == "at":
            kind, value = "langtag", raw[1:]
            if value in ("prefix", "base"):
                kind, value = "at_" + value, None
        elif group == "blank":
            kind, value = "blank", raw[2:]
        elif group == "datatype":
            kind, value = "^^", None
        else:
            kind, value = group, raw
        yield kind, value, pos
        pos = m.end()
    yield "eof", None, pos


def _error_at(
    text: str, offset: int, message: str, token: str = "", cls: type = TurtleParseError
) -> TurtleParseError:
    line = text.count("\n", 0, offset) + 1
    column = offset - text.rfind("\n", 0, offset)
    return cls(message, line, column, token)


_BODY_RUN = {
    "<": re.compile(r"[^>\n\\]*"),
    '"': re.compile(r'[^"\\\n\r]*'),
    "'": re.compile(r"[^'\\\n\r]*"),
    '"""': re.compile(r'[^"\\]*'),
    "'''": re.compile(r"[^'\\]*"),
}
_HEX_RUN = re.compile(r"[0-9a-fA-F]*")
_NAME_RE = re.compile(_NAME)
_DOTS_THEN_BACKSLASH = re.compile(r"\.*\\")


def _diagnose(text: str, pos: int) -> TurtleParseError:
    """The error for the token at pos, which starts but does not complete.

    Reads the token from the left up to its first fault and places the
    error there: an escape at its letter (at its backslash in names and
    for out-of-range values), a token cut short where its input ends.
    """
    c, nxt = text[pos], text[pos + 1 : pos + 2]
    if c == "<":
        return _body_error(text, pos, "<")
    if c in "\"'":
        return _body_error(text, pos, c * 3 if text.startswith(c * 3, pos) else c)
    if c == "@":
        return _error_at(text, pos + 1, "expected language tag or directive after '@'")
    if c == "^":
        return _error_at(text, pos, "unexpected '^'", "^")
    if _starts_number(text, pos):
        return _error_at(text, pos, "malformed number")
    if c == "_" and nxt == ":":
        return _error_at(text, pos + 2, "empty blank node label")
    if c.isalnum() or c in "_-%:\\":
        name = _NAME_RE.match(text, pos)
        escape = _DOTS_THEN_BACKSLASH.match(text, name.end() if name else pos)
        if escape:
            backslash = escape.end() - 1
            letter = text[backslash + 1 : backslash + 2]
            return _error_at(text, backslash, f"invalid name escape '\\{letter}'")
        return _error_at(text, pos, "unexpected bare word", _unescape(name[0]))
    return _error_at(text, pos, f"unexpected character {c!r}", c)


def _body_error(text: str, pos: int, opener: str) -> TurtleParseError:
    # the first fault inside the IRI or string whose opener starts at pos
    run = _BODY_RUN[opener]
    p = pos + len(opener)
    while True:
        p = run.match(text, p).end()
        if text.startswith("\\", p):
            error = _escape_error(text, p, opener == "<")
            if error:
                return error
            p += {"u": 6, "U": 10}.get(text[p + 1], 2)
        elif len(opener) == 3 and text.startswith(opener[0], p):
            p += 1  # fewer than three quotes in a row are content
        elif opener == "<":
            message = "newline inside IRI" if text.startswith("\n", p) else "unterminated IRI"
            return _error_at(text, p, message)
        elif len(opener) == 1:
            return _error_at(text, p, "unterminated string")
        else:
            return _error_at(text, p, "unterminated triple-quoted string")


def _escape_error(text: str, backslash: int, in_iri: bool) -> Optional[TurtleParseError]:
    letter = text[backslash + 1 : backslash + 2]
    if letter in ("u", "U"):
        end = backslash + (6 if letter == "u" else 10)
        digits = _HEX_RUN.match(text, backslash + 2, end).end()
        if digits < end:
            return _error_at(text, digits, "truncated numeric escape")
        code = int(text[backslash + 2 : end], 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            escape = text[backslash:end]
            return _error_at(text, backslash, f"numeric escape '{escape}' is not a Unicode character")
        return None
    if in_iri:
        return _error_at(text, backslash + 1, f"invalid escape '\\{letter}' in IRI")
    if letter not in _ESCAPES:
        return _error_at(text, backslash + 1, f"invalid string escape '\\{letter}'")
    return None


_NUMBER_DATATYPES = {"integer": XSD_INTEGER, "decimal": XSD_DECIMAL, "double": XSD_DOUBLE}


class _Parser:
    """Reads the tokens one at a time; `tok` is the one not yet consumed.

    Every check on a token runs before the parser moves past it, so the
    first error in document order is the one raised, grammatical or lexical.
    """

    def __init__(self, text: str, base: Optional[str]) -> None:
        self.text = text
        self._next_token = _tokenize(text).__next__
        self.tok: tuple = self._next_token()
        self.base = base
        self.prefixes: dict[str, str] = {}
        self.triples: list[Triple] = []
        self._blank_by_label: dict[str, BlankNode] = {}
        self._blank_count = 0
        # one term object per distinct IRI (keyed by the resolved string) and
        # per distinct literal, so each is built and validated once and
        # equal terms are identical, which set and dict lookups test first
        self._iris: dict[str, IRI] = {t.value: t for t in (RDF_TYPE, RDF_FIRST, RDF_REST, RDF_NIL)}
        self._literals: dict[tuple, Literal] = {}

    # -- token plumbing ----------------------------------------------------

    def _advance(self) -> None:
        # never called on "eof": each caller has checked the kind first
        self.tok = self._next_token()

    def _expect(self, kind: str, what: str) -> tuple:
        tok = self.tok
        if tok[0] != kind:
            raise self._error(f"expected {what}", tok)
        self._advance()
        return tok

    def _error(self, message: str, tok: tuple, cls: type = TurtleParseError) -> TurtleParseError:
        kind, value, offset = tok
        return _error_at(self.text, offset, message, kind if value is None else value, cls)

    # -- blank node bookkeeping --------------------------------------------

    def _fresh_blank(self) -> BlankNode:
        node = BlankNode(f"b{self._blank_count}")
        self._blank_count += 1
        return node

    def _labeled_blank(self, label: str) -> BlankNode:
        if label not in self._blank_by_label:
            self._blank_by_label[label] = self._fresh_blank()
        return self._blank_by_label[label]

    # -- terms -------------------------------------------------------------

    def _iri(self, value: str, tok: tuple) -> IRI:
        iri = self._iris.get(value)
        if iri is None:
            try:
                iri = IRI(value)
            except ValueError as exc:
                raise self._error(str(exc), tok) from None
            self._iris[value] = iri
        return iri

    def _literal(self, lexical: str, datatype: str, language: Optional[str], tok: tuple) -> Literal:
        key = (lexical, datatype, language)
        literal = self._literals.get(key)
        if literal is None:
            try:
                literal = Literal(lexical, datatype, language)
            except ValueError as exc:
                raise self._error(str(exc), tok) from None
            self._literals[key] = literal
        return literal

    def _resolve_iri(self, raw: str, tok: tuple) -> IRI:
        # every key of _iris is absolute, so a hit needs no resolving
        iri = self._iris.get(raw)
        if iri is not None:
            return iri
        if not is_absolute_iri(raw):
            if self.base is None:
                raise self._error(f"relative IRI {raw!r} without a base", tok, RelativeIriError)
            raw = urljoin(self.base, raw)
        return self._iri(raw, tok)

    def _expand_pname(self, tok: tuple) -> IRI:
        prefix, _, local = tok[1].partition(":")
        if prefix not in self.prefixes:
            raise self._error(f"undefined prefix {prefix + ':'!r}", tok, UndefinedPrefixError)
        return self._iri(self.prefixes[prefix] + local, tok)

    # -- grammar -----------------------------------------------------------

    def parse_document(self) -> None:
        while True:
            kind = self.tok[0]
            if kind == "eof":
                return
            if kind == "at_prefix":
                self._advance()
                self._parse_prefix_decl(dotted=True)
            elif kind == "at_base":
                self._advance()
                self._parse_base_decl(dotted=True)
            elif kind == "sparql_prefix":
                self._advance()
                self._parse_prefix_decl(dotted=False)
            elif kind == "sparql_base":
                self._advance()
                self._parse_base_decl(dotted=False)
            else:
                self._parse_triples()
                self._expect(".", "'.' after triples")

    def _parse_prefix_decl(self, dotted: bool) -> None:
        name = self.tok
        if name[0] != "pname":
            raise self._error("expected prefix name", name)
        prefix, _, local = name[1].partition(":")
        if local:
            raise self._error("prefix declaration must end with ':'", name)
        self._advance()
        self.prefixes[prefix] = self._take_iriref("namespace IRI").value
        if dotted:
            self._expect(".", "'.' after @prefix")

    def _parse_base_decl(self, dotted: bool) -> None:
        self.base = self._take_iriref("base IRI").value
        if dotted:
            self._expect(".", "'.' after @base")

    def _take_iriref(self, what: str) -> IRI:
        tok = self.tok
        if tok[0] != "iriref":
            raise self._error(f"expected {what}", tok)
        iri = self._resolve_iri(tok[1], tok)
        self._advance()
        return iri

    def _parse_triples(self) -> None:
        """One statement, up to but not including its '.'.

        Every open '[ ... ]' and '( ... )' is a frame on an explicit stack,
        so nesting depth is bounded by memory only. A predicate-object list
        frame is [subject, predicate, bracketed]; a collection frame is
        [head, cell]. A closed frame's node becomes the object of the frame
        below, or, with no frame below, the statement's subject.
        """
        triples = self.triples
        stack: list = []
        frame = None  # the top frame; once the stack empties, the frame closed last
        while True:
            # read one subject or object, or open a frame for it
            kind = self.tok[0]
            if kind == "[":
                self._advance()
                if self.tok[0] != "]":
                    stack.append([self._fresh_blank(), self._parse_verb(), True])
                    continue
                self._advance()
                obj: Term = self._fresh_blank()
            elif kind == "(":
                self._advance()
                if self.tok[0] != ")":
                    head = self._fresh_blank()
                    stack.append([head, head])
                    continue
                self._advance()
                obj = RDF_NIL
            elif stack or kind in ("iriref", "pname", "blank"):
                obj = self._parse_term()
            else:
                raise self._error("expected subject", self.tok)
            # hand it to the top frame, closing every frame that ends here
            while stack:
                frame = stack[-1]
                if len(frame) == 2:
                    cell = frame[1]
                    triples.append(Triple(cell, RDF_FIRST, obj))
                    if self.tok[0] != ")":
                        frame[1] = self._fresh_blank()
                        triples.append(Triple(cell, RDF_REST, frame[1]))
                        break
                    self._advance()
                    triples.append(Triple(cell, RDF_REST, RDF_NIL))
                else:
                    triples.append(Triple(frame[0], frame[1], obj))
                    kind = self.tok[0]
                    if kind == ",":
                        self._advance()
                        break
                    if kind == ";":
                        while self.tok[0] == ";":
                            self._advance()
                        if self.tok[0] not in (".", "]"):  # else a trailing ';'
                            frame[1] = self._parse_verb()
                            break
                    if not frame[2]:
                        return
                    self._expect("]", "']' closing blank node property list")
                stack.pop()
                obj = frame[0]
            else:
                # obj is the subject; after '[ ... ]' its own list is optional
                if frame is not None and len(frame) == 3 and self.tok[0] == ".":
                    return
                stack.append([obj, self._parse_verb(), False])

    def _parse_verb(self) -> IRI:
        tok = self.tok
        kind = tok[0]
        if kind == "a":
            verb = RDF_TYPE
        elif kind == "iriref":
            verb = self._resolve_iri(tok[1], tok)
        elif kind == "pname":
            verb = self._expand_pname(tok)
        else:
            raise self._error("expected predicate", tok)
        self._advance()
        return verb

    def _parse_term(self) -> Term:
        """A term that opens no nesting: IRI, prefixed name, labelled blank or literal."""
        tok = self.tok
        kind = tok[0]
        if kind == "iriref":
            term: Term = self._resolve_iri(tok[1], tok)
        elif kind == "pname":
            term = self._expand_pname(tok)
        elif kind == "blank":
            term = self._labeled_blank(tok[1])
        elif kind == "string":
            return self._parse_literal_tail(tok)
        elif kind in _NUMBER_DATATYPES:
            term = self._literal(tok[1], _NUMBER_DATATYPES[kind], None, tok)
        elif kind == "boolean":
            term = self._literal(tok[1], XSD_BOOLEAN, None, tok)
        else:
            raise self._error("expected object", tok)
        self._advance()
        return term

    def _parse_literal_tail(self, string_tok: tuple) -> Literal:
        lexical = string_tok[1]
        self._advance()
        tok = self.tok
        if tok[0] == "langtag":
            literal = self._literal(lexical, RDF_LANG_STRING, tok[1], tok)
        elif tok[0] == "^^":
            self._advance()
            tok = self.tok
            if tok[0] == "iriref":
                datatype = self._resolve_iri(tok[1], tok)
            elif tok[0] == "pname":
                datatype = self._expand_pname(tok)
            else:
                raise self._error("expected datatype IRI after '^^'", tok)
            literal = self._literal(lexical, datatype.value, None, tok)
        else:
            return self._literal(lexical, XSD_STRING, None, string_tok)
        self._advance()
        return literal


def parse_turtle(document: str, base: Optional[str] = None) -> Graph:
    """Parse a Turtle document into a Graph.

    Raises TurtleParseError (or a subclass) with 1-based line/column on any
    malformed input; never returns a partial graph.
    """
    text = document.lstrip("﻿")
    with gc_paused():
        parser = _Parser(text, base)
        parser.parse_document()
        return Graph(parser.triples, parser.prefixes)


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

_INTEGER_LEX = re.compile(r"^[+-]?[0-9]+$")
_DECIMAL_LEX = re.compile(r"^[+-]?[0-9]*\.[0-9]+$")
_DOUBLE_LEX = re.compile(r"^[+-]?(?:\d+\.\d*|\.\d+|\d+)[eE][+-]?\d+$")
_PN_LOCAL_OK = re.compile(r"^$|^[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?$")

def term_renderer(prefixes: Mapping[str, str]) -> Callable[[Term], str]:
    """A function that writes a term as Turtle, abbreviating IRIs with prefixes.

    The longest matching namespace wins; ties go to the lexicographically
    smallest prefix. An IRI whose remainder is not a safe local name is
    written in full. The function remembers the text of each term it has
    written, so a term that recurs is rendered once.
    """
    table = sorted(prefixes.items(), key=lambda item: (-len(item[1]), item[0]))
    rendered: dict = {}

    def render_iri(value: str) -> str:
        for prefix, namespace in table:
            if value.startswith(namespace) and _PN_LOCAL_OK.match(value[len(namespace) :]):
                return f"{prefix}:{value[len(namespace) :]}"
        return f"<{value}>"

    def render(term: Term) -> str:
        text = rendered.get(term)
        if text is None:
            if isinstance(term, IRI):
                text = render_iri(term.value)
            elif isinstance(term, BlankNode):
                text = f"_:{term.label}"
            else:
                text = _render_literal(term, render_iri)
            rendered[term] = text
        return text

    return render


def _render_literal(literal: Literal, render_iri: Callable[[str], str]) -> str:
    if literal.language:
        return f'"{escape_string(literal.lexical)}"@{literal.language}'
    dt = literal.datatype
    if dt == XSD_STRING:
        return f'"{escape_string(literal.lexical)}"'
    if dt == XSD_INTEGER and _INTEGER_LEX.match(literal.lexical):
        return literal.lexical
    if dt == XSD_DECIMAL and _DECIMAL_LEX.match(literal.lexical):
        return literal.lexical
    if dt == XSD_DOUBLE and _DOUBLE_LEX.match(literal.lexical):
        return literal.lexical
    if dt == XSD_BOOLEAN and literal.lexical in ("true", "false"):
        return literal.lexical
    return f'"{escape_string(literal.lexical)}"^^{render_iri(dt)}'


def serialize_turtle(graph: Graph) -> str:
    """Canonical Turtle: sorted prefixes, subjects, predicates and objects.

    Identical graphs serialize to identical bytes; parse_turtle of the output
    yields a graph isomorphic to the input.
    """
    with gc_paused():
        render = term_renderer(graph.prefixes)
        lines = [f"@prefix {p}: <{ns}> ." for p, ns in sorted(graph.prefixes.items())]
        if lines and graph:
            lines.append("")
        for subject, groups in graph.subject_groups():
            parts = []
            for predicate, objects in groups:
                rendered_pred = "a" if predicate == RDF_TYPE else render(predicate)
                rendered_objs = ", ".join(render(o) for o in objects)
                parts.append(f"{rendered_pred} {rendered_objs}")
            lines.append(f"{render(subject)} " + " ;\n    ".join(parts) + " .")
        if not lines:
            return ""
        # the final "" gives the closing newline, so the output is built once
        lines.append("")
        return "\n".join(lines)
