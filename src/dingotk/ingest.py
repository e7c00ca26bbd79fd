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
report instead of aborting the row. IRIs, prefixed names and ``prefix``
lines read as in Turtle (`turtle.TokenReader`), escapes included; ``base``
is only where minted IRIs start, so a relative IRI is ``relative IRI '...'
without a base``. ``columns``, ``key``, a map's column and a date
``format`` are free text to the line's end. Errors have Turtle's form,
``line N, column M: reason (at 'token')``, as do those of a CSV or JSON
table that does not read or a JSON record that is not flat.
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
    PositionedError,
    RDF_LANG_STRING,
    RDF_TYPE,
    Triple,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_GYEAR,
    XSD_GYEARMONTH,
    XSD_INTEGER,
    XSD_STRING,
)
from .turtle import TokenReader

# separator for composite keys; never survives percent-encoding, so minting
# stays injective across column tuples
_KEY_SEPARATOR = "\x1f"

# the datatype of an ISO date cell of each precision: year, year-month, full date
_DATE_DATATYPES = (XSD_GYEAR, XSD_GYEARMONTH, XSD_DATE)
# a decimal cell is written as an integer or a decimal
_DECIMAL_FORMS = (LEXICAL_FORMS[XSD_INTEGER], LEXICAL_FORMS[XSD_DECIMAL])


class MappingParseError(PositionedError):
    pass


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


class _MappingParser(TokenReader):
    """Reads a mapping one line at a time; `end` is where the current line ends.
    The `columns` and `key` lists, the column of a `map` and a date `format`
    are free text, read to the end of the line and never lexed."""

    error = MappingParseError
    punctuation = "{}"

    def _next_line(self) -> bool:
        # move to the next line that holds a token; False past the last line
        while self.end < len(self.text):
            start = self.end + 1
            end = self.text.find("\n", start)
            self.end = len(self.text) if end < 0 else end
            self._read_from(start)
            if self.tok[0] != "eof":
                return True
        return False

    def _free_text(self) -> tuple:
        """The offset and the stripped text after the current keyword and a space."""
        start = self.tok[2] + len(self.tok[1])
        rest = self.text[start : self.end]
        if not rest[:1].isspace() or not rest.strip():
            raise self._error_at(f"expected text after {self.tok[1]!r}", start)
        return start + len(rest) - len(rest.lstrip()), rest.strip()

    def _column(self, column: str, offset: int) -> str:
        if column not in self.declared:
            raise self._error_at(f"undeclared column {column!r}", offset)
        return column

    def parse(self) -> MappingSpec:
        self.end = -1  # before the first line
        self.last = len(self.text) - self.text.endswith("\n")  # the end of the last line
        self.mint_base: Optional[str] = None  # the base of minted IRIs; no IRI resolves against it
        self.columns: list = []  # in order, with repeats
        self.declared: set = set()  # the same columns, for lookups
        self.entities: dict = {}  # name -> EntityRule, in the order declared
        while self._next_line():
            if self._at_word("columns"):
                columns = [c.strip() for c in self._free_text()[1].split(",") if c.strip()]
                self.columns.extend(columns)
                self.declared.update(columns)
                continue
            if not self._at_word("prefix", "base", "entity"):
                raise self._error("expected a declaration", self.tok)
            keyword = self._take()[1]
            if keyword == "prefix":
                self._prefix_directive()
            elif keyword == "base":
                self.mint_base = self._iri("base IRI", ("iriref",)).value
            else:
                self._parse_entity()
            self._expect("eof", "the end of the line")
        if self.mint_base is None:
            raise self._error_at("missing 'base <iri>' declaration", self.last)
        if not self.entities:
            raise self._error_at("mapping declares no entities", self.last)
        self._check_references(self.entities, "entity {}: ref to undeclared entity {!r}")
        return MappingSpec(
            base_iri=self.mint_base,
            entities=tuple(self.entities.values()),
            columns=tuple(self.columns),
            prefixes=dict(self.prefixes),
        )

    def _parse_entity(self) -> None:
        name = self._declared_name("entity", self.entities)
        entity_class = self._iri()
        self._expect("{", "'{' after the entity class")
        self._expect("eof", "the end of the line")
        key_columns: list = []
        rules: list = []
        while self._next_line() and self.tok[0] != "}":
            if self._at_word("key"):
                start, text = self._free_text()
                key_columns.extend(self._column(c.strip(), start) for c in text.split(",") if c.strip())
            elif self._at_word("map"):
                rules.append(self._parse_map(name))
            else:
                raise self._error("expected 'key', 'map' or '}'", self.tok)
        if self.tok[0] != "}":
            raise self._error_at(f"entity {name}: unterminated block", self.last)
        if not key_columns:
            raise self._error_at(f"entity {name}: missing 'key' declaration", self.tok[2])
        self._take()
        self.entities[name] = EntityRule(name, entity_class, tuple(key_columns), tuple(rules))

    def _parse_map(self, entity: str) -> PropertyRule:
        start, text = self._free_text()
        column, arrow, _ = text.partition("->")
        if not arrow:
            raise self._error_at("expected '->' after the column", start + len(text))
        self._read_from(start + len(column) + 2)
        column = self._column(column.strip(), start)
        predicate = self._iri()
        if self.tok[:2] != ("pname", ":"):
            raise self._error("expected ':' after the predicate", self.tok)
        self._take()
        kind, value_kind, offset = self.tok
        if not self._at_word("string", "date", "decimal", "ref"):
            raise self._error("expected a value kind", self.tok)
        language = ref = date_format = None
        if value_kind == "string" and self.text.startswith("@", offset + 6):
            # the tag runs to the next space, so that a bad one is quoted whole
            language = self._word(offset + 7)
            if not LANGUAGE_TAG.fullmatch(language):
                raise self._error_at(f"invalid language tag: {language!r}", offset + 7)
            value_kind = "lang-string"
            self._read_from(offset + 7 + len(language))
        else:
            self._take()
        if value_kind == "ref":
            if self.tok[0] == "eof":
                raise self._error_at("ref needs an entity name: 'ref <Entity>'", offset)
            self.refs.append((entity, self.tok[1], self.tok[2]))
            ref = self._declared_name("entity")
        if value_kind == "date" and self._at_word("format"):
            date_format = self._free_text()[1]
        else:
            self._expect("eof", "the end of the line")
        return PropertyRule(column, predicate, value_kind, language, ref, date_format)


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
    its process-wide `csv.field_size_limit()`, is a `PositionedError` at
    column 1 of the line the module names.
    """
    reader = csv.DictReader(io.StringIO(text.lstrip("﻿")), delimiter=delimiter)
    try:
        if reader.fieldnames is None:
            return []
        return [dict(row) for row in reader]
    except csv.Error as exc:
        raise PositionedError(str(exc), reader.reader.line_num, 1) from None


def _deepest_nesting(text: str) -> tuple:
    """The deepest nesting level of a JSON text and the offset of the
    bracket that first reaches it."""
    depth = deepest = offset = 0
    # a JSON string, skipped whole, or a bracket that opens or closes nesting
    for match in re.finditer(r'"[^"\\]*(?:\\.[^"\\]*)*"|[\[\]{}]', text, re.DOTALL):
        c = match.group()
        if c in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest, offset = depth, match.start()
        elif c in ("]", "}"):
            depth -= 1
    return deepest, offset


def _record_offset(text: str, index: int) -> int:
    """Where element index of the JSON array in text, already decoded, starts:
    earlier elements decode again, and the decoder's own pattern skips space."""
    space = json.decoder.WHITESPACE.match
    offset = space(text).end() + 1  # past the '['
    for _ in range(index):
        end = json.JSONDecoder().raw_decode(text, space(text, offset).end())[1]
        offset = space(text, end).end() + 1  # past the ','
    return space(text, offset).end()


def read_json_records(text: str) -> list:
    """JSON array of flat records; scalars are coerced to strings. A fault is a
    `PositionedError`: where the decoder found it, at the first value of a
    text that is not an array, or at the first character of a bad record."""
    text = text.lstrip("﻿")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PositionedError(exc.msg, exc.lineno, exc.colno) from None
    except RecursionError:
        # the decoder recurses once per nesting level
        depth, offset = _deepest_nesting(text)
        reason = f"JSON nests {depth} levels deep, too deep to read"
        raise PositionedError.at(text, offset, reason) from None
    if not isinstance(data, list):
        reason = "JSON input must be an array of records"
        raise PositionedError.at(text, json.decoder.WHITESPACE.match(text).end(), reason)
    records = []
    for i, item in enumerate(data):
        if not isinstance(item, dict):
            raise PositionedError.at(text, _record_offset(text, i), f"record {i} is not an object")
        record = {}
        for key, value in item.items():
            if value is None:
                record[key] = ""
            elif isinstance(value, bool):
                record[key] = "true" if value else "false"
            elif isinstance(value, (str, int, float)):
                record[key] = str(value)
            else:
                reason = f"record {i}, field {key!r}: nested values are not supported"
                raise PositionedError.at(text, _record_offset(text, i), reason)
        records.append(record)
    return records
