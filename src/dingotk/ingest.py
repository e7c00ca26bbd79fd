"""Tabular ingestion: map CSV/JSON records onto conformant triples.

A mapping file declares the expected columns, one block per emitted entity::

    prefix d: <https://w3id.org/dingo#>
    base <http://example.org/grants/>
    columns grant_id, title, start, amount, project_id

    entity Grant d:Grant {
        key grant_id
        map title -> d:title : string
        map start -> d:start_time : date
        map amount -> d:funded_amount : decimal
        map project_id -> d:funds : ref Project
    }

Value kinds: ``string``, ``string@<lang>``, ``date`` (ISO year / year-month /
full date, or ``format <strptime-pattern>`` for anything else), ``decimal``
and ``ref <Entity>`` (mints the referenced entity's IRI from the cell value).
Empty cells emit nothing; conversion failures skip the cell and land in the
report instead of aborting the row.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from typing import Iterable, Optional
from urllib.parse import quote

from .dates import read_partial_date
from .terms import (
    DingoError,
    Graph,
    IRI,
    LANGUAGE_TAG,
    LEXICAL_FORMS,
    Literal,
    PREFIX_NAME,
    RDF_LANG_STRING,
    RDF_TYPE,
    Triple,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_GYEAR,
    XSD_GYEARMONTH,
    XSD_INTEGER,
    XSD_STRING,
    is_absolute_iri,
    line_and_column,
    read_iri_token,
)

# separator for composite keys; never survives percent-encoding, so minting
# stays injective across column tuples
_KEY_SEPARATOR = "\x1f"

# the datatype of an ISO date cell of each precision: year, year-month, full date
_DATE_DATATYPES = (XSD_GYEAR, XSD_GYEARMONTH, XSD_DATE)
# a decimal cell is written as an integer or a decimal
_DECIMAL_FORMS = (LEXICAL_FORMS[XSD_INTEGER], LEXICAL_FORMS[XSD_DECIMAL])


class MappingParseError(DingoError):
    def __init__(self, message: str, line: int) -> None:
        self.line = line
        super().__init__(f"line {line}: {message}")


class EmptyKeyError(DingoError):
    pass


@dataclass(frozen=True)
class PropertyRule:
    column: str
    predicate: IRI
    value_kind: str  # string | lang-string | date | decimal | ref
    language: Optional[str] = None
    ref_entity: Optional[str] = None
    date_format: Optional[str] = None


@dataclass(frozen=True)
class EntityRule:
    name: str
    entity_class: IRI
    key_columns: tuple
    property_rules: tuple


@dataclass(frozen=True)
class MappingSpec:
    base_iri: str
    entities: tuple
    columns: tuple
    prefixes: dict = field(default_factory=dict, hash=False, compare=False)

    @cached_property
    def _entity_by_name(self) -> dict:
        # reversed, so the first rule with a name is the one kept
        return {rule.name: rule for rule in reversed(self.entities)}

    def entity(self, name: str) -> EntityRule:
        return self._entity_by_name[name]


@dataclass(frozen=True)
class CellFailure:
    row: int  # 1-based data row number
    column: str
    value: str
    reason: str


@dataclass
class IngestReport:
    rows: int = 0
    triples: int = 0
    skipped_cells: int = 0
    failures: list = field(default_factory=list)

    def lines(self) -> list:
        out = [
            f"rows: {self.rows}",
            f"triples: {self.triples}",
            f"skipped cells: {self.skipped_cells}",
            f"conversion failures: {len(self.failures)}",
        ]
        out.extend(
            f"  row {f.row}, column {f.column}: {f.reason} ({f.value!r})" for f in self.failures
        )
        return out


def mint_iri(base: str, entity_class: IRI, key: str) -> IRI:
    """Deterministic instance IRI: base + lowercased class local name + / + key.

    The key is percent-encoded, so distinct keys always yield distinct IRIs.
    """
    if not key:
        raise EmptyKeyError("cannot mint an IRI from an empty key")
    if not base.endswith(("/", "#")):
        base += "/"
    local = re.split(r"[#/]", entity_class.value)[-1].lower()
    return IRI(f"{base}{local}/{quote(key, safe='')}")


# ---------------------------------------------------------------------------
# mapping file parsing
# ---------------------------------------------------------------------------

_IRI_OR_PNAME = rf"(?:<[^<>\s]+>|{PREFIX_NAME.pattern}:[\w.%-]*)"
# each matched with fullmatch against one stripped line
_PREFIX_LINE = re.compile(rf"prefix\s+({PREFIX_NAME.pattern}):\s+<([^<>\s]+)>")
_BASE_LINE = re.compile(r"base\s+<([^<>\s]+)>")
_COLUMNS_LINE = re.compile(r"columns\s+(.+)")
_ENTITY_LINE = re.compile(r"entity\s+([A-Za-z_][\w-]*)\s+(" + _IRI_OR_PNAME + r")\s*\{")
_KEY_LINE = re.compile(r"key\s+(.+)")
_MAP_LINE = re.compile(
    r"map\s+([\w.-]+)\s*->\s*(" + _IRI_OR_PNAME + r")\s*:\s*"
    r"(ref\s+[A-Za-z_][\w-]*|\S+)(?:\s+format\s+(.+))?"
)


class _MappingParser:
    def __init__(self, text: str) -> None:
        self.lines = text.splitlines()
        self.prefixes: dict = {}
        self.base: Optional[str] = None
        self.columns: list = []
        self.entities: list = []
        self.entity_lines: list = []  # header line of each entity
        self.ref_lines: list = []  # (entity name, referenced name, map line)

    def _resolve(self, token: str, line_no: int) -> IRI:
        try:
            return read_iri_token(token, self.prefixes)
        except ValueError as exc:
            raise MappingParseError(str(exc), line_no) from None

    def _check_column(self, column: str, line_no: int) -> str:
        if column not in self.columns:
            raise MappingParseError(f"undeclared column {column!r}", line_no)
        return column

    def parse(self) -> MappingSpec:
        i = 0
        while i < len(self.lines):
            line_no = i + 1
            line = self.lines[i].strip()
            i += 1
            if not line or line.startswith("#"):
                continue
            if match := _PREFIX_LINE.fullmatch(line):
                self.prefixes[match.group(1)] = match.group(2)
            elif match := _BASE_LINE.fullmatch(line):
                self.base = match.group(1)
                if not is_absolute_iri(self.base):
                    raise MappingParseError(f"base must be an absolute IRI: {self.base!r}", line_no)
                self._resolve(f"<{self.base}>", line_no)  # no forbidden character
            elif match := _COLUMNS_LINE.fullmatch(line):
                self.columns.extend(c.strip() for c in match.group(1).split(",") if c.strip())
            elif match := _ENTITY_LINE.fullmatch(line):
                i = self._parse_entity(match, i)
            else:
                raise MappingParseError(f"cannot parse: {line!r}", line_no)
        if self.base is None:
            raise MappingParseError("missing 'base <iri>' declaration", len(self.lines) or 1)
        if not self.entities:
            raise MappingParseError("mapping declares no entities", len(self.lines) or 1)
        names: set = set()
        for entity, line_no in zip(self.entities, self.entity_lines):
            if entity.name in names:
                raise MappingParseError("duplicate entity names", line_no)
            names.add(entity.name)
        for name, ref, line_no in self.ref_lines:
            if ref not in names:
                raise MappingParseError(f"entity {name}: ref to undeclared entity {ref!r}", line_no)
        return MappingSpec(
            base_iri=self.base,
            entities=tuple(self.entities),
            columns=tuple(self.columns),
            prefixes=dict(self.prefixes),
        )

    def _parse_entity(self, header, i: int) -> int:
        name = header.group(1)
        self.entity_lines.append(i)
        entity_class = self._resolve(header.group(2), i)
        key_columns: list = []
        rules: list = []
        while True:
            if i >= len(self.lines):
                raise MappingParseError(f"entity {name}: unterminated block", len(self.lines))
            line_no = i + 1
            line = self.lines[i].strip()
            i += 1
            if not line or line.startswith("#"):
                continue
            if line == "}":
                break
            if match := _KEY_LINE.fullmatch(line):
                key_columns.extend(
                    self._check_column(c.strip(), line_no)
                    for c in match.group(1).split(",")
                    if c.strip()
                )
            elif match := _MAP_LINE.fullmatch(line):
                rule = self._parse_map(match, line_no)
                rules.append(rule)
                if rule.value_kind == "ref":
                    self.ref_lines.append((name, rule.ref_entity, line_no))
            else:
                raise MappingParseError(f"cannot parse: {line!r}", line_no)
        if not key_columns:
            raise MappingParseError(f"entity {name}: missing 'key' declaration", line_no)
        self.entities.append(EntityRule(name, entity_class, tuple(key_columns), tuple(rules)))
        return i

    def _parse_map(self, match, line_no: int) -> PropertyRule:
        column = self._check_column(match.group(1), line_no)
        predicate = self._resolve(match.group(2), line_no)
        kind_token = match.group(3)
        fmt = match.group(4).strip() if match.group(4) else None
        if kind_token == "string":
            return PropertyRule(column, predicate, "string")
        if kind_token.startswith("string@"):
            if not LANGUAGE_TAG.fullmatch(kind_token[7:]):
                raise MappingParseError(f"invalid language tag: {kind_token[7:]!r}", line_no)
            return PropertyRule(column, predicate, "lang-string", language=kind_token[7:])
        if kind_token == "date":
            return PropertyRule(column, predicate, "date", date_format=fmt)
        if kind_token == "decimal":
            return PropertyRule(column, predicate, "decimal")
        if kind_token.startswith("ref"):
            parts = kind_token.split()
            if len(parts) != 2:
                raise MappingParseError("ref needs an entity name: 'ref <Entity>'", line_no)
            return PropertyRule(column, predicate, "ref", ref_entity=parts[1])
        raise MappingParseError(f"unknown value kind {kind_token!r}", line_no)


def parse_mapping(text: str) -> MappingSpec:
    """Parse and validate a mapping file."""
    return _MappingParser(text.lstrip("﻿")).parse()


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def _convert_date(raw: str, fmt: Optional[str]) -> Literal:
    if fmt:
        parsed = datetime.strptime(raw, fmt)  # ValueError propagates to caller
        return Literal(parsed.date().isoformat(), XSD_DATE)
    return Literal(raw, _DATE_DATATYPES[read_partial_date(raw).precision - 1])


def ingest_table(rows: Iterable[dict], mapping: MappingSpec) -> tuple:
    """(Graph, IngestReport) for the given records under the mapping.

    Deterministic and idempotent: re-ingesting the same rows adds nothing,
    and the output graph carries the mapping's prefixes so its canonical
    Turtle is stable.
    """
    triples: list = []  # the graph drops the duplicates
    report = IngestReport()
    # each distinct term is built once per call, as the parser does: minted
    # IRIs by (entity class, key) and converted cells by (rule, raw). Only
    # successes are kept, so every failing cell is reported on its own row.
    minted: dict = {}

    def mint(entity_class: IRI, key: str) -> IRI:
        iri = minted.get((entity_class, key))
        if iri is None:
            iri = minted[entity_class, key] = mint_iri(mapping.base_iri, entity_class, key)
        return iri

    plans = [(entity, [(rule, {}) for rule in entity.property_rules]) for entity in mapping.entities]
    for row_number, row in enumerate(rows, start=1):
        report.rows += 1
        for entity, rules in plans:
            key_values = [str(row.get(column) or "") for column in entity.key_columns]
            if any(not v for v in key_values):
                report.failures.append(
                    CellFailure(
                        row_number,
                        ",".join(entity.key_columns),
                        _KEY_SEPARATOR.join(key_values),
                        f"empty key column for entity {entity.name}",
                    )
                )
                continue
            subject = mint(entity.entity_class, _KEY_SEPARATOR.join(key_values))
            triples.append(Triple(subject, RDF_TYPE, entity.entity_class))
            for rule, converted in rules:
                raw = row.get(rule.column)
                raw = "" if raw is None else str(raw)
                if raw == "":
                    report.skipped_cells += 1
                    continue
                obj = converted.get(raw)
                if obj is None:
                    try:
                        obj = converted[raw] = _convert_cell(raw, rule, mapping, mint)
                    except ValueError as exc:
                        report.failures.append(CellFailure(row_number, rule.column, raw, str(exc)))
                        continue
                triples.append(Triple(subject, rule.predicate, obj))
    graph = Graph(triples, mapping.prefixes)
    report.triples = len(graph)
    return graph, report


def _convert_cell(raw: str, rule: PropertyRule, mapping: MappingSpec, mint):
    if rule.value_kind == "string":
        return Literal(raw, XSD_STRING)
    if rule.value_kind == "lang-string":
        return Literal(raw, RDF_LANG_STRING, rule.language)
    if rule.value_kind == "date":
        return _convert_date(raw, rule.date_format)
    if rule.value_kind == "decimal":
        if not any(form.fullmatch(raw) for form in _DECIMAL_FORMS):
            raise ValueError(f"not a decimal: {raw!r}")
        return Literal(raw, XSD_DECIMAL)
    # ref: the cell is the referenced entity's key
    return mint(mapping.entity(rule.ref_entity).entity_class, raw)


# ---------------------------------------------------------------------------
# record readers
# ---------------------------------------------------------------------------


def read_csv_records(text: str, delimiter: str = ",") -> list:
    """RFC-4180 CSV with a header row, as a list of dicts.

    A line the `csv` module cannot read, such as one with a field longer than
    its process-wide `csv.field_size_limit()`, is a `DingoError` naming it.
    """
    reader = csv.DictReader(io.StringIO(text.lstrip("﻿")), delimiter=delimiter)
    try:
        if reader.fieldnames is None:
            return []
        return [dict(row) for row in reader]
    except csv.Error as exc:
        raise DingoError(f"line {reader.reader.line_num}: {exc}") from None


# a JSON string, skipped whole, or a bracket that opens or closes nesting
_JSON_NESTING_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"|[\[\]{}]', re.DOTALL)


def _deepest_nesting(text: str) -> tuple:
    """The deepest nesting level of a JSON text and the offset of the
    bracket that first reaches it."""
    depth = deepest = offset = 0
    for match in _JSON_NESTING_RE.finditer(text):
        c = match.group()
        if c in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, offset = depth, match.start()
        elif c in ("]", "}"):
            depth -= 1
    return deepest, offset


def read_json_records(text: str) -> list:
    """JSON array of flat records; scalars are coerced to strings."""
    text = text.lstrip("﻿")
    try:
        data = json.loads(text)
    except RecursionError:
        # the decoder recurses once per nesting level
        depth, offset = _deepest_nesting(text)
        line, column = line_and_column(text, offset)
        raise DingoError(
            f"line {line}, column {column}: JSON nests {depth} levels deep, too deep to read"
        ) from None
    if not isinstance(data, list):
        raise DingoError("JSON input must be an array of records")
    records = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise DingoError(f"record {i} is not an object")
        record = {}
        for key, value in item.items():
            if value is None:
                record[key] = ""
            elif isinstance(value, bool):
                record[key] = "true" if value else "false"
            elif isinstance(value, (str, int, float)):
                record[key] = str(value)
            else:
                raise DingoError(f"record {i}, field {key!r}: nested values are not supported")
        records.append(record)
    return records
