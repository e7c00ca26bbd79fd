"""Turtle parser and canonical serializer.

The supported subset: @prefix/@base and SPARQL-style PREFIX/BASE, "a",
predicate lists (;), object lists (,), anonymous blank nodes [], blank node
property lists, collections ( ), numeric/boolean/string shorthands,
triple-quoted strings, language tags and datatyped literals. IRIs pass
through without Unicode normalization.

Parsing renames every blank node to b0, b1, ... in first-appearance order;
serialization is a pure function of the triple set and prefix map, so equal
graphs always produce byte-identical Turtle.

`TokenReader` reads Turtle, shape files and mapping files with one prefix
directive, IRI resolver and error form, ``line N, column M: reason (at 'token')``.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Mapping, Optional
from urllib.parse import urljoin

from .terms import (
    BlankNode,
    DECLARED_NAME,
    Graph,
    IRI,
    LANGUAGE_TAG,
    LEXICAL_FORMS,
    Literal,
    PREFIX_NAME,
    PositionedError,
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
    expand_name,
    gc_paused,
    is_absolute_iri,
)


class TurtleParseError(PositionedError):
    """Turtle syntax error."""


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


# The body of each IRI and string token, between its opening and closing
# delimiters, keyed by its opener. A body takes every valid escape, so its
# match stops at the first fault of a token that does not complete.
_BODIES = {
    "<": rf"[^>\n\\]*(?:(?:{_UCHAR})[^>\n\\]*)*",
    **{q: rf"[^{q}\\\n\r]*(?:(?:{_STRING_ESCAPE})[^{q}\\\n\r]*)*" for q in "\"'"},
    # a quote is content unless exactly two more follow it: quotes beyond the
    # closing three of a run belong to the content
    **{q * 3: rf"[^{q}\\]*(?:(?:{_STRING_ESCAPE}|{q}(?!{q}{q}(?!{q})))[^{q}\\]*)*" for q in "\"'"},
}


def _short_string(q: str) -> str:
    # three quotes open a long string, even when that does not complete
    return rf"(?!{q}{q}{q}){q}{_BODIES[q]}{q}"


def _long_string(q: str) -> str:
    return q * 3 + _BODIES[q * 3] + q * 3


# One alternative per terminal, each followed by the whitespace and comments
# before the next token. The commonest tokens come first. No other
# alternative can match where a name starts with a letter, "_" (but not "_:"),
# ":" or "%", nor where punctuation is not a "." before a digit, so these two
# are tried before the rest. Numbers come before the names that start any
# other way ("-", "\", a digit), so ".5" and "-1" are numbers. The last
# alternative takes one character where no token starts, which the tokenizer
# reports, so no search ever runs past a lexical error.
_TOKEN_RE = re.compile(
    rf"""
    (?:
        (?P<name>(?=[^\W\d]|[:%])(?!_:){_NAME})
      | (?P<punct>[;,\[\]()]|\.(?![0-9]))
      | (?P<iriref><{_BODIES['<']}>)
      | (?P<long_string>{_long_string('"')}|{_long_string("'")})
      | (?P<string>{_short_string('"')}|{_short_string("'")})
      | (?P<at>@{LANGUAGE_TAG.pattern})
      | (?P<datatype>\^\^)
      | (?P<double>{LEXICAL_FORMS[XSD_DOUBLE].pattern})
      | (?P<decimal>{LEXICAL_FORMS[XSD_DECIMAL].pattern})
      | (?P<integer>{LEXICAL_FORMS[XSD_INTEGER].pattern})
      | (?P<blank>_:[\w%.-]*[\w%-])
      | (?P<other_name>(?!_:){_NAME})
      | (?P<error>(?s:.))
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
    # str.isdigit() is wider than [0-9], so "١", "²", ".²" and "-." start
    # numbers that never complete
    c, nxt = text[pos], text[pos + 1 : pos + 2]
    if c in "+-":
        return nxt.isdigit() or nxt == "."
    return c.isdigit() or (c == "." and nxt.isdigit())


def tokenize(
    text: str, start: int = 0, end: Optional[int] = None, punctuation: str = ""
) -> Iterator[tuple]:
    """The tokens of text[start:end], ending with "eof", lexed as they are read.

    A lexical error is raised when the reader reaches its token, so errors in
    earlier tokens are found first. Shape and mapping files pass `punctuation`
    of their own, and read every bare word as a "name" token.
    """
    if end is None:
        end = len(text)
    for m in _TOKEN_RE.finditer(text, _SKIP_RE.match(text, start, end).end(), end):
        group = m.lastgroup
        raw = m[group]
        pos = m.start()
        if group == "name" or group == "other_name":
            # of the characters that start names, only "-" and non-ASCII
            # ones can also start numbers
            if (raw[0] == "-" or raw[0] > "\x7f") and _starts_number(text, pos):
                raise _diagnose(text, pos)
            value = _unescape(raw)
            if ":" in value:
                kind = "pname"
            elif punctuation:
                kind = "name"
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
        elif group == "error":
            if raw not in punctuation:
                raise _diagnose(text, pos)
            kind, value = raw, None
        else:
            kind, value = group, raw
        yield kind, value, pos
    # the last token took the whitespace and comments after it
    yield "eof", None, end


_lex_error = TurtleParseError.at  # the lexer's error: (text, offset, message[, token])


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
        return _lex_error(text, pos + 1, "expected language tag or directive after '@'")
    if c == "^":
        return _lex_error(text, pos, "unexpected '^'", "^")
    if _starts_number(text, pos):
        return _lex_error(text, pos, "malformed number")
    if c == "_" and nxt == ":":
        return _lex_error(text, pos + 2, "empty blank node label")
    if c.isalnum() or c in "_-%:\\":
        name = _NAME_RE.match(text, pos)
        escape = _DOTS_THEN_BACKSLASH.match(text, name.end() if name else pos)
        if escape:
            backslash = escape.end() - 1
            letter = text[backslash + 1 : backslash + 2]
            return _lex_error(text, backslash, f"invalid name escape '\\{letter}'")
        return _lex_error(text, pos, "unexpected bare word", _unescape(name[0]))
    return _lex_error(text, pos, f"unexpected character {c!r}", c)


def _body_error(text: str, pos: int, opener: str) -> TurtleParseError:
    # the first fault inside the IRI or string whose opener starts at pos:
    # where its body stops, an escape that it rejects or a missing closer
    p = re.compile(_BODIES[opener]).match(text, pos + len(opener)).end()
    letter = text[p + 1 : p + 2]
    if not text.startswith("\\", p):
        if opener == "<":
            message = "newline inside IRI" if text.startswith("\n", p) else "unterminated IRI"
        else:
            message = "unterminated string" if len(opener) == 1 else "unterminated triple-quoted string"
        return _lex_error(text, p, message)
    if letter in ("u", "U"):
        end = p + (6 if letter == "u" else 10)
        digits = _HEX_RUN.match(text, p + 2, end).end()
        if digits < end:
            return _lex_error(text, digits, "truncated numeric escape")
        return _lex_error(text, p, f"numeric escape '{text[p:end]}' is not a Unicode character")
    if opener == "<":
        return _lex_error(text, p + 1, f"invalid escape '\\{letter}' in IRI")
    return _lex_error(text, p + 1, f"invalid string escape '\\{letter}'")


class TokenReader:
    """Reads Turtle, shape files or mapping files in Turtle's tokens. `tok` is
    the token not yet consumed of the text from the offset last given to
    `_read_from` up to `end`. A subclass names its punctuation and its errors:
    `error`, and for an undefined prefix and a relative IRI with no `base`
    `prefix_error` and `relative_error`, each `error` where it is None."""

    error: type = PositionedError
    prefix_error: Optional[type] = None
    relative_error: Optional[type] = None
    punctuation = ""

    def __init__(self, text: str) -> None:
        self.text = text
        self.end: Optional[int] = None  # None: the end of the text
        self.base: Optional[str] = None  # what relative IRIs resolve against; None: they are errors
        self.prefixes: dict[str, str] = {}
        self.refs: list = []  # (owner, referenced name, offset), checked once all names are declared
        # one term object per distinct IRI, keyed by the resolved string, so
        # each is built and validated once and equal terms are identical,
        # which set and dict lookups test first
        self._iris: dict[str, IRI] = {t.value: t for t in (RDF_TYPE, RDF_FIRST, RDF_REST, RDF_NIL)}

    def _read_from(self, pos: int) -> None:
        self._next_token = tokenize(self.text, pos, self.end, self.punctuation).__next__
        self._next()

    def _next(self) -> None:
        try:
            self.tok = self._next_token()
        except TurtleParseError as exc:  # a lexical error is the format's error too
            raise self.error(exc.reason, exc.line, exc.column, exc.token) from None

    def _take(self) -> tuple:
        tok = self.tok
        if tok[0] != "eof":
            self._next()
        return tok

    def _error(self, message: str, tok: tuple, cls: Optional[type] = None) -> PositionedError:
        return (cls or self.error).at(self.text, tok[2], message, tok[0] if tok[1] is None else tok[1])

    def _error_at(self, message: str, offset: int, cls: Optional[type] = None) -> PositionedError:
        return (cls or self.error).at(self.text, offset, message)

    def _at_word(self, *words: str) -> bool:
        return self.tok[0] == "name" and self.tok[1] in words

    def _word(self, offset: int) -> str:
        # the text up to the next space, which an error quotes as it was written
        return (self.text[offset : self.end].split(None, 1) or [""])[0]

    def _expect(self, kind: str, what: str) -> tuple:
        if self.tok[0] != kind:
            raise self._error(f"expected {what}", self.tok)
        return self._take()

    def _declared_name(self, what: str, declared=()) -> str:
        kind, name, offset = self.tok
        if kind != "name" or not DECLARED_NAME.fullmatch(name):
            raise self._error_at(f"invalid {what} name {self._word(offset)!r}", offset)
        if name in declared:
            raise self._error_at(f"duplicate {what} name {name!r}", offset)
        self._take()
        return name

    def _resolve(self, tok: tuple) -> IRI:
        """The IRI of an "iriref" or "pname" token, a prefixed name expanded
        and a relative IRI resolved against `base`."""
        value = tok[1]
        if tok[0] == "pname":
            try:
                value = expand_name(value, self.prefixes)
            except ValueError as exc:
                raise self._error(str(exc), tok, self.prefix_error) from None
        # every key of _iris is absolute, so a hit needs no resolving
        iri = self._iris.get(value)
        if iri is None:
            if not is_absolute_iri(value):
                if self.base is None:
                    raise self._error(f"relative IRI {value!r} without a base", tok, self.relative_error)
                value = urljoin(self.base, value)
            iri = self._iris.get(value)
            if iri is None:
                try:
                    iri = self._iris[value] = IRI(value)
                except ValueError as exc:
                    raise self._error(str(exc), tok) from None
        return iri

    def _iri(self, what: str = "an IRI", kinds: tuple = ("iriref", "pname")) -> IRI:
        tok = self.tok
        if tok[0] not in kinds:
            raise self._error(f"expected {what}", tok)
        iri = self._resolve(tok)
        self._next()
        return iri

    def _check_references(self, declared, message: str, cls: Optional[type] = None) -> None:
        for owner, name, offset in self.refs:
            if name not in declared:
                raise self._error_at(message.format(owner, name), offset, cls)

    def _prefix_directive(self) -> None:
        # `NAME: <IRI>` after the keyword of a prefix directive
        tok = self.tok
        if tok[0] != "pname":
            raise self._error("expected prefix name", tok)
        prefix, _, local = tok[1].partition(":")
        if local:
            raise self._error("prefix declaration must end with ':'", tok)
        if not PREFIX_NAME.fullmatch(prefix):
            raise self._error(f"invalid prefix name: {prefix!r}", tok)
        self._next()
        self.prefixes[prefix] = self._iri("namespace IRI", ("iriref",)).value


# the literals Turtle writes bare: the datatype of each token kind, and the
# lexical form of each datatype
_SHORTHAND_DATATYPES = {
    "integer": XSD_INTEGER,
    "decimal": XSD_DECIMAL,
    "double": XSD_DOUBLE,
    "boolean": XSD_BOOLEAN,
}
_SHORTHAND_FORMS = {dt: LEXICAL_FORMS[dt] for dt in _SHORTHAND_DATATYPES.values()}


class _Parser(TokenReader):
    """Turtle's grammar, reading the tokens one at a time.

    Every check on a token runs before the parser moves past it, so the
    first error in document order is the one raised, grammatical or lexical.
    Moving past a token is `self.tok = self._next_token()`, written out where
    it happens; it never runs on "eof", whose kind each caller checks first.
    """

    error = TurtleParseError
    prefix_error = UndefinedPrefixError
    relative_error = RelativeIriError

    def __init__(self, text: str, base: Optional[str]) -> None:
        super().__init__(text)
        self.base = base
        self.triples: list[Triple] = []
        self._blank_by_label: dict[str, BlankNode] = {}
        self._blank_count = 0
        # one term object per distinct literal, as `_iris` holds for IRIs
        self._literals: dict[Literal, Literal] = {}
        self._read_from(0)

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

    def _literal(self, lexical: str, datatype: str, language: Optional[str], tok: tuple) -> Literal:
        key = (lexical, datatype, language)
        literal = self._literals.get(key)
        if literal is None:
            try:
                literal = Literal(lexical, datatype, language)
            except ValueError as exc:
                raise self._error(str(exc), tok) from None
            # a literal equals and hashes as its key tuple, so it is its own key
            self._literals[literal] = literal
        return literal

    # -- grammar -----------------------------------------------------------

    def parse_document(self) -> None:
        while True:
            kind = self.tok[0]
            if kind == "eof":
                return
            if kind in ("at_prefix", "sparql_prefix"):
                self.tok = self._next_token()
                self._prefix_directive()
                if kind == "at_prefix":
                    self._expect(".", "'.' after @prefix")
            elif kind in ("at_base", "sparql_base"):
                self.tok = self._next_token()
                self.base = self._iri("base IRI", ("iriref",)).value
                if kind == "at_base":
                    self._expect(".", "'.' after @base")
            else:
                self._parse_triples()
                self._expect(".", "'.' after triples")

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
                self.tok = self._next_token()
                if self.tok[0] != "]":
                    stack.append([self._fresh_blank(), self._parse_verb(), True])
                    continue
                self.tok = self._next_token()
                obj: Term = self._fresh_blank()
            elif kind == "(":
                self.tok = self._next_token()
                if self.tok[0] != ")":
                    head = self._fresh_blank()
                    stack.append([head, head])
                    continue
                self.tok = self._next_token()
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
                    self.tok = self._next_token()
                    triples.append(Triple(cell, RDF_REST, RDF_NIL))
                else:
                    triples.append(Triple(frame[0], frame[1], obj))
                    kind = self.tok[0]
                    if kind == ",":
                        self.tok = self._next_token()
                        break
                    if kind == ";":
                        while self.tok[0] == ";":
                            self.tok = self._next_token()
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
        elif kind in ("iriref", "pname"):
            verb = self._resolve(tok)
        else:
            raise self._error("expected predicate", tok)
        self.tok = self._next_token()
        return verb

    def _parse_term(self) -> Term:
        """A term that opens no nesting: IRI, prefixed name, labelled blank or literal."""
        tok = self.tok
        kind = tok[0]
        if kind in ("iriref", "pname"):
            term: Term = self._resolve(tok)
        elif kind == "blank":
            term = self._labeled_blank(tok[1])
        elif kind == "string":
            return self._parse_literal_tail(tok)
        elif kind in _SHORTHAND_DATATYPES:
            term = self._literal(tok[1], _SHORTHAND_DATATYPES[kind], None, tok)
        else:
            raise self._error("expected object", tok)
        self.tok = self._next_token()
        return term

    def _parse_literal_tail(self, string_tok: tuple) -> Literal:
        lexical = string_tok[1]
        self.tok = self._next_token()
        tok = self.tok
        if tok[0] == "langtag":
            literal = self._literal(lexical, RDF_LANG_STRING, tok[1], tok)
        elif tok[0] == "^^":
            self.tok = self._next_token()
            tok = self.tok
            if tok[0] not in ("iriref", "pname"):
                raise self._error("expected datatype IRI after '^^'", tok)
            literal = self._literal(lexical, self._resolve(tok).value, None, tok)
        else:
            return self._literal(lexical, XSD_STRING, None, string_tok)
        self.tok = self._next_token()
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

_PN_LOCAL_OK = re.compile(r"(?:[A-Za-z0-9_](?:[A-Za-z0-9_.-]*[A-Za-z0-9_-])?)?")

def term_renderer(prefixes: Mapping[str, str]) -> Callable[[Term], str]:
    """A function that writes a term as Turtle, abbreviating IRIs with prefixes.

    The longest matching namespace wins; ties go to the lexicographically
    smallest prefix. An IRI whose remainder is not a safe local name is
    written in full. The function remembers the text of each IRI it has
    written, datatypes included, so an IRI that recurs is rendered once.
    Literals and blank nodes, which mostly occur once and are quick to
    write, are rendered on every call, so the memo stays small.
    """
    table = sorted(prefixes.items(), key=lambda item: (-len(item[1]), item[0]))
    rendered: dict[str, str] = {}

    def render_iri(value: str) -> str:
        text = rendered.get(value)
        if text is None:
            text = f"<{value}>"
            for prefix, namespace in table:
                if value.startswith(namespace) and _PN_LOCAL_OK.fullmatch(value[len(namespace) :]):
                    text = f"{prefix}:{value[len(namespace) :]}"
                    break
            rendered[value] = text
        return text

    def render(term: Term) -> str:
        if isinstance(term, IRI):
            return render_iri(term.value)
        if isinstance(term, BlankNode):
            return f"_:{term.label}"
        return _render_literal(term, render_iri)

    return render


def _render_literal(literal: Literal, render_iri: Callable[[str], str]) -> str:
    if literal.language:
        return f'"{escape_string(literal.lexical)}"@{literal.language}'
    dt = literal.datatype
    if dt == XSD_STRING:
        return f'"{escape_string(literal.lexical)}"'
    form = _SHORTHAND_FORMS.get(dt)
    if form is not None and form.fullmatch(literal.lexical):
        return literal.lexical
    return f'"{escape_string(literal.lexical)}"^^{render_iri(dt)}'


def turtle_chunks(graph: Graph) -> Iterator[str]:
    """Canonical Turtle in pieces, each ending in a newline.

    One piece per @prefix line, then the blank line after them, then one
    statement per subject; `"".join` of the pieces is `serialize_turtle`.
    Writing them as they come never holds the whole text in memory.
    """
    render = term_renderer(graph.prefixes)
    prefixes = sorted(graph.prefixes.items())
    for p, ns in prefixes:
        yield f"@prefix {p}: <{ns}> .\n"
    if prefixes and graph:
        yield "\n"
    # each predicate's text and the space after it, rendered once
    verbs: dict[IRI, str] = {RDF_TYPE: "a "}
    for subject, groups in graph.subject_groups():
        parts = []
        for predicate, objects in groups:
            verb = verbs.get(predicate)
            if verb is None:
                verb = verbs[predicate] = render(predicate) + " "
            parts.append(verb + ", ".join(map(render, objects)))
        yield f"{render(subject)} " + " ;\n    ".join(parts) + " .\n"


def serialize_turtle(graph: Graph) -> str:
    """Canonical Turtle: sorted prefixes, subjects, predicates and objects.

    Identical graphs serialize to identical bytes; parse_turtle of the output
    yields a graph isomorphic to the input.
    """
    with gc_paused():
        return "".join(turtle_chunks(graph))
