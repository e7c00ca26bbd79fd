"""Reference Turtle tokenizer: the alternatives of `turtle._TOKEN_RE` in their
earlier order, numbers before punctuation and names, each token read with
`Pattern.match` at the position where the last one ended.

`turtle.tokenize` must yield exactly these tokens and raise exactly these
errors. The sub-patterns inside each alternative, the error diagnosis and
the unescaping are imported, not copied: they are the same code on both
sides, so only the order of the alternatives and the loop are compared.
"""

from __future__ import annotations

import re
from typing import Iterator

from dingotk.turtle import _NAME, _SKIP, _UCHAR, _diagnose, _long_string, _short_string, _unescape

REFERENCE_TOKEN_RE = re.compile(
    rf"""
    (?:
        (?P<iriref><[^>\n\\]*(?:(?:{_UCHAR})[^>\n\\]*)*>)
      | (?P<long_string>{_long_string('"')}|{_long_string("'")})
      | (?P<string>{_short_string('"')}|{_short_string("'")})
      | (?P<at>@[A-Za-z]+(?:-[A-Za-z0-9]+)*)
      | (?P<datatype>\^\^)
      | (?P<double>[+-]?(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)[eE][+-]?[0-9]+)
      | (?P<decimal>[+-]?[0-9]*\.[0-9]+)
      | (?P<integer>[+-]?[0-9]+)
      | (?P<punct>[.;,\[\]()])
      | (?P<blank>_:[\w%.-]*[\w%-])
      | (?P<name>(?!_:){_NAME})
    )
    {_SKIP}
    """,
    re.VERBOSE,
)
_SKIP_RE = re.compile(_SKIP)


def _starts_number(text: str, pos: int) -> bool:
    c, nxt = text[pos], text[pos + 1 : pos + 2]
    if c in "+-":
        return nxt.isdigit() or nxt == "."
    return c.isdigit() or (c == "." and nxt.isdigit())


def reference_tokenize(text: str) -> Iterator[tuple]:
    match = REFERENCE_TOKEN_RE.match
    pos = _SKIP_RE.match(text).end()
    while pos < len(text):
        m = match(text, pos)
        if m is None:
            raise _diagnose(text, pos)
        group = m.lastgroup
        raw = m[group]
        if group == "name":
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
