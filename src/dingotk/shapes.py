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
forbids predicates outside the constraint list (rdf:type excepted). IRIs,
prefixed names and ``prefix`` lines read as in Turtle (`turtle.TokenReader`),
escapes included; there is no base, so a relative IRI is ``relative IRI
'...' without a base``. Every error has Turtle's form, ``line N, column M:
reason (at 'token')``, its `token` empty where no one token is at fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Optional

from .ontology import OntologySchema, UnknownClassError
from .terms import (
    DECLARED_NAME,
    Graph,
    IRI,
    Literal,
    PositionedError,
    RDF_TYPE,
    Term,
    term_sort_key,
)
from .turtle import TokenReader

UNBOUNDED = None


class ShapeParseError(PositionedError):
    pass


class ShapeRefError(PositionedError):
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

class _ShapeFileParser(TokenReader):
    error = ShapeParseError
    punctuation = "{}?*+@"

    def _next(self) -> None:
        super()._next()
        if self.tok[0] == "@" and not DECLARED_NAME.match(self.text, self.tok[2] + 1):
            raise self._error("unexpected character '@'", self.tok)  # no shape name follows

    def parse(self) -> ShapeSchema:
        self.schema = ShapeSchema()
        self._read_from(0)
        while self.tok[0] != "eof":
            if self._at_word("prefix"):
                self._take()
                self._prefix_directive()
            elif self._at_word("shape"):
                self._take()
                self._parse_shape()
            else:
                raise self._error("expected 'shape' or 'prefix'", self.tok)
        self._check_references(self.schema.shapes, "shape {} references undefined shape @{}", ShapeRefError)
        return self.schema

    def _parse_shape(self) -> None:
        at = self.tok[2]
        name = self._declared_name("shape", self.schema.shapes)
        target: Optional[IRI] = None
        closed = False
        while self._at_word("target", "closed"):
            if self._take()[1] == "target":
                target = self._iri()
            else:
                closed = True
        self._expect("{", "'{' to open shape body")
        constraints = []
        while self.tok[0] != "}":
            if self.tok[0] == ";":
                self._take()
            else:
                constraints.append(self._parse_constraint(name))
        self._take()
        try:
            self.schema.shapes[name] = Shape(name, tuple(constraints), closed)
        except ValueError as exc:
            raise self._error_at(str(exc), at) from None
        if target is not None:
            self.schema.target_map.append((target, name))

    def _parse_constraint(self, shape: str) -> TripleConstraint:
        predicate = self._iri()
        kind, value, offset = self.tok
        if self.text.startswith("@", offset):
            # the name is the token after the "@", not the language tag Turtle reads
            self._read_from(offset + 1)
            check = ValueCheck("shape", self._declared_name("shape"))
            self.refs.append((shape, check.argument, offset))
        elif self._at_word("any", "iri"):
            self._take()
            check = ANY if value == "any" else ValueCheck("iri")
        elif self._at_word("literal", "class"):
            self._take()
            check = ValueCheck("datatype" if value == "literal" else "class", self._iri().value)
        else:
            raise self._error("expected a value check", self.tok)
        low, high = self._parse_cardinality()
        return TripleConstraint(predicate, low, high, check)

    def _parse_cardinality(self) -> tuple:
        kind, _, start = self.tok
        shorthand = {"?": (0, 1), "*": (0, UNBOUNDED), "+": (1, UNBOUNDED)}.get(kind)
        if shorthand:
            self._take()
            return shorthand
        if kind != "{":
            return (1, 1)
        # "{m}", "{m,}" or "{m,n}", read from the text: ASCII digits and spaces
        end = self.text.find("}", start) + 1
        low, comma, high = (b.strip() for b in self.text[start + 1 : end - 1].partition(","))
        if not end or not all(b.isascii() and b.isdigit() for b in (low, high or "0")):
            raise self._error_at("malformed cardinality", start)
        self._read_from(end)
        try:
            low, high = int(low), int(high) if high else UNBOUNDED if comma else int(low)
        except ValueError:  # more digits than int() converts (sys.get_int_max_str_digits)
            raise self._error_at("cardinality bound has too many digits", start) from None
        if high is not UNBOUNDED and low > high:
            raise self._error_at(f"cardinality {self.text[start:end]!r} has min > max", start)
        return (low, high)


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
