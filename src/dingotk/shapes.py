"""Shape language and validation engine for data-graph conformance.

A shape is a set of per-predicate triple constraints (cardinality + value
check) targeted at a class; every instance of the class (by subsumption) is
checked. Shape references use shallow semantics: the referenced node only
has to carry the referenced shape's target class, so validation is a single
pass even over mutually referential shapes.

Shape files are UTF-8 text, one shape per block::

    prefix d: <https://w3id.org/dingo#>

    shape GrantShape target d:Grant {
        d:has_beneficiary any + ;
        d:funds @ProjectShape * ;
        d:start_time literal xsd:date ?
    }

Value checks: ``any``, ``iri``, ``literal <datatype>``, ``class <class>``,
``@ShapeName``. Cardinalities: ``?``, ``*``, ``+``, ``{m}``, ``{m,n}``,
``{m,}``; omitted means exactly one. A ``closed`` flag before the block
forbids predicates outside the constraint list (rdf:type excepted).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Optional

from .ontology import OntologySchema, UnknownClassError
from .terms import (
    DingoError,
    Graph,
    IRI,
    Literal,
    PREFIX_NAME,
    RDF_TYPE,
    Term,
    read_iri_token,
    term_sort_key,
)

UNBOUNDED = None


class ShapeParseError(DingoError):
    def __init__(self, message: str, line: int) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}")


class ShapeRefError(DingoError):
    pass


@dataclass(frozen=True)
class ValueCheck:
    kind: str  # any | iri | datatype | class | shape
    argument: Optional[str] = None  # datatype IRI, class IRI or shape name

    @cached_property
    def class_iri(self) -> IRI:
        """The argument of a class check as an IRI, built on first use and kept."""
        return IRI(self.argument)


ANY = ValueCheck("any")


@dataclass(frozen=True)
class TripleConstraint:
    predicate: IRI
    min_count: int = 1
    max_count: Optional[int] = 1  # None = unbounded
    check: ValueCheck = ANY

    def __post_init__(self) -> None:
        if self.min_count < 0:
            raise ValueError("min_count must be non-negative")
        if self.max_count is not None and self.min_count > self.max_count:
            raise ValueError("min_count exceeds max_count")


@dataclass(frozen=True)
class Shape:
    name: str
    constraints: tuple = ()
    closed: bool = False

    def __post_init__(self) -> None:
        predicates = [c.predicate for c in self.constraints]
        if len(predicates) != len(set(predicates)):
            raise ValueError(f"shape {self.name}: duplicate constraint predicates")


@dataclass
class ShapeSchema:
    shapes: dict = field(default_factory=dict)  # name -> Shape
    target_map: list = field(default_factory=list)  # (class IRI, shape name)


@dataclass(frozen=True)
class Violation:
    focus: Term
    shape: str
    predicate: Optional[IRI]
    code: str
    message: str

    def line(self) -> str:
        pred = f"<{self.predicate.value}>" if self.predicate else "-"
        return f"[{self.code}] {self.focus!r} / {self.shape} / {pred}: {self.message}"


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def conformant(self) -> bool:
        return not self.violations

    def lines(self) -> list:
        out = ["conformant" if self.conformant else "nonconformant"]
        out.extend(v.line() for v in self.violations)
        return out


# ---------------------------------------------------------------------------
# shape file parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<iri><[^<>\s]*>)
  | (?P<card>\{\s*[0-9]+\s*(?:,\s*(?:[0-9]+)?\s*)?\})
  | (?P<punct>[{};])
  | (?P<ref>@[A-Za-z_][A-Za-z0-9_-]*)
  | (?P<short>[?*+])
  | (?P<word>[^\s{};<>@]+)
    """,
    re.VERBOSE,
)


def _tokenize_shapes(text: str):
    tokens = []
    pos = 0
    line = 1
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ShapeParseError(f"unexpected character {text[pos]!r}", line)
        kind = match.lastgroup
        value = match.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line))
        line += value.count("\n")
        pos = match.end()
    tokens.append(("eof", "", line))
    return tokens


def _parse_cardinality(kind: str, value: str, line: int) -> tuple:
    if kind == "short":
        return {"?": (0, 1), "*": (0, UNBOUNDED), "+": (1, UNBOUNDED)}[value]
    # the card token is "{m}", "{m,}" or "{m,n}", with optional blanks inside
    low, comma, high = value[1:-1].partition(",")
    try:
        low = int(low)
        high = int(high) if high.strip() else UNBOUNDED
    except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
        raise ShapeParseError("cardinality bound has too many digits", line) from None
    if not comma:
        return (low, low)
    if high is not UNBOUNDED and low > high:
        raise ShapeParseError(f"cardinality {value!r} has min > max", line)
    return (low, high)


class _ShapeFileParser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize_shapes(text)
        self.i = 0
        self.prefixes: dict = {}
        self.shapes: dict = {}
        self.target_map: list = []

    def _peek(self):
        return self.tokens[self.i]

    def _take(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def _parse_iri(self) -> IRI:
        kind, value, line = self._take()
        if kind != "iri" and (kind != "word" or ":" not in value):
            raise ShapeParseError(f"expected an IRI, got {value!r}", line)
        try:
            return read_iri_token(value, self.prefixes)
        except ValueError as exc:
            raise ShapeParseError(str(exc), line) from None

    def parse(self) -> ShapeSchema:
        while True:
            kind, value, line = self._peek()
            if kind == "eof":
                break
            if kind == "word" and value == "prefix":
                self._take()
                self._parse_prefix()
            elif kind == "word" and value == "shape":
                self._take()
                self._parse_shape(line)
            else:
                raise ShapeParseError(f"expected 'shape' or 'prefix', got {value!r}", line)
        schema = ShapeSchema(self.shapes, self.target_map)
        _check_references(schema)
        return schema

    def _parse_prefix(self) -> None:
        kind, value, line = self._take()
        if kind != "word" or not value.endswith(":"):
            raise ShapeParseError(f"expected a prefix name ending in ':', got {value!r}", line)
        name = value[:-1]
        if not PREFIX_NAME.fullmatch(name):
            raise ShapeParseError(f"invalid prefix name: {name!r}", line)
        self.prefixes[name] = self._parse_iri().value

    def _parse_shape(self, line: int) -> None:
        kind, name, nline = self._take()
        if kind != "word" or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_-]*", name):
            raise ShapeParseError(f"invalid shape name {name!r}", nline)
        if name in self.shapes:
            raise ShapeParseError(f"duplicate shape name {name!r}", nline)
        target: Optional[IRI] = None
        closed = False
        while self._peek()[:2] in (("word", "target"), ("word", "closed")):
            if self._take()[1] == "target":
                target = self._parse_iri()
            else:
                closed = True
        _, value, bline = self._take()
        if value != "{":
            raise ShapeParseError(f"expected '{{' to open shape body, got {value!r}", bline)
        constraints = []
        while True:
            value = self._peek()[1]
            if value == "}":
                self._take()
                break
            if value == ";":
                self._take()
                continue
            constraints.append(self._parse_constraint())
        try:
            shape = Shape(name, tuple(constraints), closed)
        except ValueError as exc:
            raise ShapeParseError(str(exc), line) from None
        self.shapes[name] = shape
        if target is not None:
            self.target_map.append((target, name))

    def _parse_constraint(self) -> TripleConstraint:
        predicate = self._parse_iri()
        kind, value, line = self._take()
        if kind == "ref":
            check = ValueCheck("shape", value[1:])
        elif kind == "word" and value == "any":
            check = ANY
        elif kind == "word" and value == "iri":
            check = ValueCheck("iri")
        elif kind == "word" and value == "literal":
            check = ValueCheck("datatype", self._parse_iri().value)
        elif kind == "word" and value == "class":
            check = ValueCheck("class", self._parse_iri().value)
        else:
            raise ShapeParseError(f"expected a value check, got {value!r}", line)
        kind, value, line = self._peek()
        if kind in ("short", "card"):
            self._take()
            low, high = _parse_cardinality(kind, value, line)
        elif value == "{":  # a "{" here opens a bound that is not "{m}", "{m,}" or "{m,n}"
            raise ShapeParseError("malformed cardinality", line)
        else:
            low, high = 1, 1
        return TripleConstraint(predicate, low, high, check)


def _check_references(schema: ShapeSchema) -> None:
    for shape in schema.shapes.values():
        for constraint in shape.constraints:
            if constraint.check.kind == "shape" and constraint.check.argument not in schema.shapes:
                raise ShapeRefError(
                    f"shape {shape.name} references undefined shape @{constraint.check.argument}"
                )


def parse_shapes(text: str) -> ShapeSchema:
    """Parse a shape file; every shape reference must resolve."""
    return _ShapeFileParser(text.lstrip("﻿")).parse()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _instances(data: Graph, schema: Optional[OntologySchema], class_iri: IRI) -> set:
    if schema is not None:
        try:
            return schema.instances_of(data, class_iri)
        except UnknownClassError:
            pass
    return {t.subject for t in data.find(None, RDF_TYPE, class_iri)}


def _has_class(data: Graph, schema: Optional[OntologySchema], node: Term, class_iri: IRI) -> bool:
    if schema is not None and class_iri in schema.classes:
        below = schema.subclasses_of(class_iri)
    else:
        below = frozenset()
    return any(c == class_iri or c in below for _, _, c in data.find(node, RDF_TYPE))


def _check_value(
    data: Graph,
    schema: Optional[OntologySchema],
    shapes: ShapeSchema,
    value: Term,
    check: ValueCheck,
) -> Optional[tuple]:
    """(code, message) when the value fails the check, else None."""
    if check.kind == "any":
        return None
    if check.kind == "iri":
        if not isinstance(value, IRI):
            return ("wrong-value-kind", f"value {value!r} is not an IRI")
        return None
    if check.kind == "datatype":
        if not isinstance(value, Literal):
            return ("wrong-value-kind", f"value {value!r} is not a literal")
        if value.datatype != check.argument:
            return ("wrong-datatype", f"value {value!r} does not have datatype <{check.argument}>")
        return None
    if check.kind == "class":
        if not _has_class(data, schema, value, check.class_iri):
            return ("wrong-class", f"value {value!r} is not an instance of <{check.argument}>")
        return None
    # shape reference: shallow semantics, value must carry a target class of
    # the referenced shape; a target-less referenced shape accepts anything
    referenced = check.argument
    if referenced not in shapes.shapes:
        return ("dangling-shape-ref", f"shape reference @{referenced} is not defined")
    targets = [cls for cls, name in shapes.target_map if name == referenced]
    if not targets:
        return None
    if any(_has_class(data, schema, value, cls) for cls in targets):
        return None
    rendered = ", ".join(f"<{c.value}>" for c in sorted(targets, key=term_sort_key))
    return ("wrong-class", f"value {value!r} has no target class of @{referenced} ({rendered})")


def validate(
    data: Graph,
    schema: Optional[OntologySchema],
    shapes: ShapeSchema,
) -> ValidationReport:
    """Check every targeted instance against its shape.

    Never raises on data problems; everything surfaces as report entries in
    canonical order (focus node, then predicate). An empty schema is
    trivially conformant.
    """
    # (focus, shape name, predicate, code, message) of each failure
    failures: set = set()
    for class_iri, shape_name in shapes.target_map:
        shape = shapes.shapes.get(shape_name)
        if shape is None:
            continue
        allowed = {c.predicate for c in shape.constraints} | {RDF_TYPE}
        for focus in _instances(data, schema, class_iri):
            # the focus node's triples, read once: predicate -> its distinct objects
            values_of: dict = {}
            for _, predicate, value in data.find(focus):
                if predicate in values_of:
                    values_of[predicate].append(value)
                else:
                    values_of[predicate] = [value]
            for constraint in shape.constraints:
                predicate = constraint.predicate
                values = values_of.get(predicate, ())
                count = len(values)
                if count < constraint.min_count:
                    message = f"requires at least {constraint.min_count} value(s), found {count}"
                    failures.add((focus, shape_name, predicate, "missing-required", message))
                if constraint.max_count is not UNBOUNDED and count > constraint.max_count:
                    message = f"allows at most {constraint.max_count} value(s), found {count}"
                    failures.add((focus, shape_name, predicate, "cardinality-exceeded", message))
                for value in values:
                    failure = _check_value(data, schema, shapes, value, constraint.check)
                    if failure is not None:
                        failures.add((focus, shape_name, predicate, *failure))
            if shape.closed:
                for extra in values_of.keys() - allowed:
                    message = f"predicate <{extra.value}> is not allowed by closed shape"
                    failures.add((focus, shape_name, extra, "closed-shape-extra-predicate", message))
    violations = [Violation(*failure) for failure in failures]
    violations.sort(
        key=lambda v: (
            term_sort_key(v.focus),
            v.predicate.value if v.predicate else "",
            v.shape,
            v.code,
            v.message,
        ),
    )
    return ValidationReport(violations)


def default_dingo_shapes(schema: OntologySchema) -> ShapeSchema:
    """Built-in shapes for the principal DINGO classes.

    Encodes the baseline semantics: a project needs no grant, a grant needs
    at least one beneficiary, schemes may stack parents and criteria, and
    temporal predicates must be date-typed literals. Every target class is
    required to be registered in the given schema.
    """
    text = resources.files("dingotk").joinpath("data/dingo.shapes").read_text("utf-8")
    parsed = parse_shapes(text)
    for class_iri, shape_name in parsed.target_map:
        if class_iri not in schema.classes:
            raise UnknownClassError(
                f"default shape {shape_name} targets unregistered class {class_iri.value}"
            )
    return parsed
