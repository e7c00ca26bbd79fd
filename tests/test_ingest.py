import csv
import random
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from dingotk.dates import parse_partial_date
from dingotk.ingest import (
    EmptyKeyError,
    EntityRule,
    MappingParseError,
    MappingSpec,
    ingest_table,
    mint_iri,
    parse_mapping,
    read_csv_records,
    read_json_records,
)
from dingotk.ontology import DINGO_BASE, DingoTerms
from dingotk.shapes import validate
from dingotk.terms import (
    DingoError,
    IRI,
    Literal,
    PositionedError,
    RDF_LANG_STRING,
    RDF_TYPE,
    Triple,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_GYEAR,
    XSD_GYEARMONTH,
    XSD_STRING,
)
from dingotk.turtle import serialize_turtle

from conftest import embedded

D = DingoTerms()

MINIMAL = f"""
prefix d: <{DINGO_BASE}>
base <http://ex.org/data/>
columns id, name

entity Thing d:Project {{
    key id
    map name -> d:title : string
}}
"""


def test_parse_minimal_mapping():
    spec = parse_mapping(MINIMAL)
    assert spec.base_iri == "http://ex.org/data/"
    (rule,) = spec.entities
    assert rule.name == "Thing"
    assert rule.entity_class == D.Project
    assert rule.key_columns == ("id",)
    assert len(rule.property_rules) == 1



def test_entity_lookup_first_rule_wins_and_spec_stays_frozen():
    first = EntityRule("Thing", D.Project, ("id",), ())
    second = EntityRule("Thing", D.Grant, ("id",), ())
    other = EntityRule("Other", D.Grant, ("id",), ())
    spec = MappingSpec("http://ex.org/", (first, second, other), ("id",))
    assert spec.entity("Thing") is first
    assert spec.entity("Other") is other
    with pytest.raises(KeyError):
        spec.entity("Ghost")
    twin = MappingSpec("http://ex.org/", (first, second, other), ("id",))
    assert spec == twin and hash(spec) == hash(twin)
    with pytest.raises(AttributeError):
        spec.base_iri = "http://elsewhere.org/"


def test_comments_and_blank_lines_inside_an_entity_block_are_skipped():
    commented = MINIMAL.replace("    key id\n", "    # the key column\n\n    key id\n")
    assert commented != MINIMAL
    assert parse_mapping(commented) == parse_mapping(MINIMAL)


def test_dangling_ref_is_an_error():
    text = MINIMAL.replace(": string", ": ref Ghost")
    with pytest.raises(MappingParseError) as err:
        parse_mapping(text)
    assert "Ghost" in str(err.value)
    # reported at the map line that names the entity
    assert err.value.line == text.splitlines().index("    map name -> d:title : ref Ghost") + 1


def test_duplicate_entity_is_reported_at_the_second_header():
    text = MINIMAL + "entity Thing d:Grant {\n    key id\n}\n# trailing comment\n"
    with pytest.raises(MappingParseError) as err:
        parse_mapping(text)
    assert "duplicate entity" in str(err.value)
    assert err.value.line == text.splitlines().index("entity Thing d:Grant {") + 1


def test_a_key_over_many_declared_columns_parses_in_linear_time():
    # each key column is looked up among the declared ones, which a list
    # scan made quadratic: 2*10^4 columns took 2.2 s
    columns = ", ".join(f"c{i}" for i in range(40_000))
    text = f"base <http://ex.org/data/>\ncolumns {columns}\nentity Thing <http://x/C> {{\n    key {columns}\n}}\n"
    start = time.process_time()
    spec = parse_mapping(text)
    assert time.process_time() - start < 1.0
    assert len(spec.entities[0].key_columns) == len(spec.columns) == 40_000


def test_undeclared_column_is_an_error():
    text = MINIMAL.replace("map name", "map nickname")
    with pytest.raises(MappingParseError) as err:
        parse_mapping(text)
    assert "nickname" in str(err.value)


def test_missing_base_is_an_error():
    text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("base"))
    with pytest.raises(MappingParseError):
        parse_mapping(text)


@pytest.mark.parametrize(
    "old, new, line, column, message",
    [
        ("map name -> d:title", "map name -> nope:title", 8, 17, "undefined prefix 'nope:' (at 'nope:title')"),
        ("entity Thing d:Project", "entity Thing nope:Project", 6, 14, "undefined prefix 'nope:' (at 'nope:Project')"),
        ("map name -> d:title", "map name -> <title>", 8, 17, "relative IRI 'title' without a base (at 'title')"),
        # a namespace is checked on its own prefix line, as in shape files and
        # Turtle, whether or not a name uses it
        (f"prefix d: <{DINGO_BASE}>", "prefix d: <dingo#>", 2, 11, "relative IRI 'dingo#' without a base (at 'dingo#')"),
        ("columns", "prefix x: <rel/>\ncolumns", 4, 11, "relative IRI 'rel/' without a base (at 'rel/')"),
        # the base that minted IRIs start with is no base to resolve against
        ("base <http://ex.org/data/>", "base <data/>", 3, 6, "relative IRI 'data/' without a base (at 'data/')"),
        (
            "base <http://ex.org/data/>",
            "base <http://ex.org/gr{ants/>",
            3,
            6,
            "IRI contains forbidden character '{': 'http://ex.org/gr{ants/' (at 'http://ex.org/gr{ants/')",
        ),
    ],
)
def test_unresolvable_iri_is_an_error_at_its_line(old, new, line, column, message):
    assert old in MINIMAL
    with pytest.raises(MappingParseError) as err:
        parse_mapping(MINIMAL.replace(old, new))
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "old, new, line, column, message",
    [
        ("entity Thing d:Project {\n    key id\n    map name -> d:title : string\n}\n", "", 5, 1,
         "mapping declares no entities"),
        ("}\n", "", 8, 33, "entity Thing: unterminated block"),
        ("    key id\n", "", 8, 1, "entity Thing: missing 'key' declaration"),
        (": string", ": ref", 8, 27, "ref needs an entity name: 'ref <Entity>'"),
        # names outside the prefix-name and language-tag forms that Turtle reads
        (f"prefix d: <{DINGO_BASE}>", f"prefix d.: <{DINGO_BASE}>", 2, 8, "invalid prefix name: 'd.' (at 'd.:')"),
        (f"prefix d: <{DINGO_BASE}>", f"prefix dé: <{DINGO_BASE}>", 2, 8, "invalid prefix name: 'dé' (at 'dé:')"),
        (": string", ": string@en-", 8, 34, "invalid language tag: 'en-'"),
        (": string", ": string@", 8, 34, "invalid language tag: ''"),
        (": string", ": string@é", 8, 34, "invalid language tag: 'é'"),
        ("name -> d:title", "name d:title", 8, 30, "expected '->' after the column"),
        (": string", "string", 8, 25, "expected ':' after the predicate (at 'string')"),
        ("map name -> d:title : string", "map", 8, 8, "expected text after 'map'"),
    ],
)
def test_mapping_structure_errors_name_their_line(old, new, line, column, message):
    assert old in MINIMAL
    with pytest.raises(MappingParseError) as err:
        parse_mapping(MINIMAL.replace(old, new))
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


def test_mapping_reads_the_prefix_names_and_language_tags_that_turtle_reads():
    text = MINIMAL.replace("d:", ":")
    spec = parse_mapping(text.replace("columns", f"prefix a.b: <{DINGO_BASE}>\ncolumns"))
    assert spec.prefixes == {"": DINGO_BASE, "a.b": DINGO_BASE}
    assert spec == parse_mapping(MINIMAL)
    rows = [{"id": "p1", "name": "Alpha"}]
    graph, report = ingest_table(rows, parse_mapping(MINIMAL.replace(": string", ": string@en-GB")))
    assert report.failures == []
    assert Literal("Alpha", RDF_LANG_STRING, "en-GB") in graph.objects(None, D.title)


def test_unknown_value_kind_is_an_error():
    with pytest.raises(MappingParseError):
        parse_mapping(MINIMAL.replace(": string", ": complex"))


def test_bundled_mapping_rule_counts():
    # counted by hand against data/example_grants.mapping
    spec = parse_mapping(embedded("example_grants.mapping"))
    by_name = {e.name: e for e in spec.entities}
    assert set(by_name) == {"Grant", "Project", "Organisation", "FundingScheme"}
    assert len(by_name["Grant"].property_rules) == 7
    assert len(by_name["Project"].property_rules) == 1
    assert len(by_name["Organisation"].property_rules) == 2
    assert len(by_name["FundingScheme"].property_rules) == 1
    assert by_name["Grant"].key_columns == ("grant_id",)


# ---------------------------------------------------------------------------
# IRI minting
# ---------------------------------------------------------------------------


def test_mint_iri_rule():
    assert mint_iri("http://ex/", D.Grant, "ERC-2018-001") == IRI("http://ex/grant/ERC-2018-001")
    # a base that ends in neither "/" nor "#" gets a "/"
    assert mint_iri("http://ex", D.Grant, "g1") == IRI("http://ex/grant/g1")
    assert mint_iri("http://ex#", D.Grant, "g1") == IRI("http://ex#grant/g1")


def test_mint_iri_percent_encodes():
    assert mint_iri("http://ex/", D.Grant, "a b") == IRI("http://ex/grant/a%20b")
    assert mint_iri("http://ex/", D.Grant, "x/y") == IRI("http://ex/grant/x%2Fy")


def test_mint_iri_empty_key_rejected():
    with pytest.raises(EmptyKeyError):
        mint_iri("http://ex/", D.Grant, "")


def test_mint_iri_is_injective_over_generated_corpus():
    rng = random.Random(0xD1)
    alphabet = "abc /%-_.é#?&=0123456789"
    keys = {"".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 12))) for _ in range(12000)}
    minted = {mint_iri("http://ex/", D.Grant, k) for k in keys}
    assert len(minted) == len(keys)


def test_mint_iri_deterministic():
    assert mint_iri("http://ex/", D.Project, "p1") == mint_iri("http://ex/", D.Project, "p1")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

TYPED = f"""
prefix d: <{DINGO_BASE}>
base <http://ex.org/data/>
columns id, title, title_fr, start, when, amount, proj

entity Grant d:Grant {{
    key id
    map title -> d:title : string
    map title_fr -> d:title : string@fr
    map start -> d:start_time : date
    map when -> d:decision_date : date format %d.%m.%Y
    map amount -> d:funded_amount : decimal
    map proj -> d:funds : ref Project
}}

entity Project d:Project {{
    key proj
}}
"""


def test_single_row_triple_count():
    spec = parse_mapping(MINIMAL)
    graph, report = ingest_table([{"id": "t1", "name": "Thing one"}], spec)
    assert len(graph) == 2  # type + title
    subject = IRI("http://ex.org/data/project/t1")
    assert Triple(subject, RDF_TYPE, D.Project) in graph
    assert Triple(subject, D.title, Literal("Thing one", XSD_STRING)) in graph
    assert report.rows == 1 and report.triples == 2 and not report.failures


def test_grant_with_two_property_rules_gives_three_triples():
    spec = parse_mapping(
        f"prefix d: <{DINGO_BASE}>\nbase <http://ex.org/>\ncolumns gid, title, num\n"
        "entity Grant d:Grant {\n"
        "  key gid\n"
        "  map title -> d:title : string\n"
        "  map num -> d:grant_number : string\n"
        "}\n"
    )
    graph, _ = ingest_table([{"gid": "g1", "title": "T", "num": "123"}], spec)
    assert len(graph) == 3  # rdf:type + two mapped values


def test_empty_input():
    graph, report = ingest_table([], parse_mapping(MINIMAL))
    assert len(graph) == 0
    assert report.rows == 0 and report.triples == 0


def test_value_conversions():
    spec = parse_mapping(TYPED)
    row = {
        "id": "g1",
        "title": "Alpha",
        "title_fr": "Alpha en français",
        "start": "2019-04",
        "when": "17.10.2018",
        "amount": "1499999.50",
        "proj": "p1",
    }
    graph, report = ingest_table([row], spec)
    subject = IRI("http://ex.org/data/grant/g1")
    objects = {(t.predicate, t.object) for t in graph.match(subject, None, None)}
    assert (D.title, Literal("Alpha", XSD_STRING)) in objects
    assert (D.title, Literal("Alpha en français", RDF_LANG_STRING, "fr")) in objects
    assert (D.start_time, Literal("2019-04", XSD_GYEARMONTH)) in objects
    assert (D.decision_date, Literal("2018-10-17", XSD_DATE)) in objects
    assert (D.funded_amount, Literal("1499999.50", XSD_DECIMAL)) in objects
    assert (D.funds, IRI("http://ex.org/data/project/p1")) in objects
    # the referenced Project entity is minted from the same row
    assert Triple(IRI("http://ex.org/data/project/p1"), RDF_TYPE, D.Project) in graph
    assert not report.failures


def test_partial_date_precisions():
    spec = parse_mapping(TYPED)
    graph, _ = ingest_table(
        [{"id": "g1", "start": "2019", "proj": "p"}], spec
    )
    values = graph.objects(IRI("http://ex.org/data/grant/g1"), D.start_time)
    assert values == [Literal("2019", XSD_GYEAR)]


def test_ambiguous_date_without_format_is_a_failure():
    spec = parse_mapping(TYPED)
    graph, report = ingest_table([{"id": "g1", "start": "03/04/2019", "proj": "p"}], spec)
    assert graph.objects(IRI("http://ex.org/data/grant/g1"), D.start_time) == []
    (failure,) = report.failures
    assert failure.column == "start"
    assert failure.value == "03/04/2019"


def test_month_out_of_range_is_a_failure_at_its_row():
    spec = parse_mapping(TYPED)
    starts = ["2019-04", "2019-13", "2019-00"]
    rows = [{"id": f"g{i}", "start": start, "proj": "p"} for i, start in enumerate(starts)]
    graph, report = ingest_table(rows, spec)
    assert [(f.row, f.column, f.value, f.reason) for f in report.failures] == [
        (2, "start", "2019-13", "month out of range: '2019-13'"),
        (3, "start", "2019-00", "month out of range: '2019-00'"),
    ]
    assert graph.objects(None, D.start_time) == [Literal("2019-04", XSD_GYEARMONTH)]


@pytest.mark.parametrize(
    "start, reason",
    [
        ("2019-13-01", "month out of range: '2019-13-01'"),
        ("2019-02-30", "day out of range: '2019-02-30'"),
    ],
)
def test_bad_full_dates_name_their_fault(start, reason):
    spec = parse_mapping(TYPED)
    graph, report = ingest_table([{"id": "g1", "start": start, "proj": "p"}], spec)
    assert [(f.column, f.value, f.reason) for f in report.failures] == [("start", start, reason)]
    assert graph.objects(None, D.start_time) == []


def test_year_zero_is_a_year_at_every_precision():
    # XSD 1.1 counts 0000 as 1 BCE, a leap year
    spec = parse_mapping(TYPED)
    starts = ["0000", "0000-05", "0000-01-01", "0000-02-29"]
    rows = [{"id": f"g{i}", "start": start, "proj": "p"} for i, start in enumerate(starts)]
    graph, report = ingest_table(rows, spec)
    assert report.failures == []
    assert graph.objects(None, D.start_time) == [
        Literal("0000", XSD_GYEAR),
        Literal("0000-01-01", XSD_DATE),
        Literal("0000-02-29", XSD_DATE),
        Literal("0000-05", XSD_GYEARMONTH),
    ]


# pieces of ISO dates and of what comes near them: a time part, space, line
# breaks, an Arabic-Indic digit and a slash
DATE_PIECES = [
    "0", "1", "2", "9", "00", "02", "12", "13", "29", "30", "31", "2019", "0000",
    "-", "T", " ", "\n", "\r", "\u0661", "/",
]


@settings(max_examples=400, derandomize=True, database=None)
@given(st.lists(st.sampled_from(DATE_PIECES), min_size=1, max_size=6).map("".join))
@example("2019-03-31T12:00:00Z")
@example("2020-02-29")
def test_an_iso_cell_is_ingested_exactly_when_dates_reads_it_without_a_time(cell):
    spec = parse_mapping(TYPED)
    graph, report = ingest_table([{"id": "g1", "start": cell, "proj": "p"}], spec)
    parsed = None if "T" in cell else parse_partial_date(cell)
    if parsed is None:
        assert [f.column for f in report.failures] == ["start"]
        assert graph.objects(None, D.start_time) == []
    else:
        assert report.failures == []
        datatype = {1: XSD_GYEAR, 2: XSD_GYEARMONTH, 3: XSD_DATE}[parsed.precision]
        assert graph.objects(None, D.start_time) == [Literal(cell, datatype)]


def test_bad_decimal_is_a_failure_not_a_crash():
    spec = parse_mapping(TYPED)
    graph, report = ingest_table([{"id": "g1", "amount": "1,5 million", "proj": "p"}], spec)
    assert [f.column for f in report.failures] == ["amount"]
    assert graph.objects(IRI("http://ex.org/data/grant/g1"), D.funded_amount) == []


def test_cells_in_digits_outside_ascii_are_failures():
    # Arabic-Indic digits: Unicode decimals, but not XSD ones
    spec = parse_mapping(TYPED)
    row = {"id": "g1", "start": "\u0662\u0660\u0661\u0669", "amount": "\u0663.\u0665", "proj": "p"}
    graph, report = ingest_table([row], spec)
    assert [(f.column, f.reason) for f in report.failures] == [
        ("start", "not an ISO date: '\u0662\u0660\u0661\u0669'"),
        ("amount", "not a decimal: '\u0663.\u0665'"),
    ]
    subject = IRI("http://ex.org/data/grant/g1")
    assert graph.objects(subject, D.start_time) == graph.objects(subject, D.funded_amount) == []


def test_cells_ending_in_a_newline_are_failures():
    # a "$" anchor also matches before a final newline; these cells must not
    # become a gYear or a decimal
    spec = parse_mapping(TYPED)
    row = {"id": "g1", "start": "2019\n", "amount": "1.5\n", "proj": "p"}
    graph, report = ingest_table([row], spec)
    assert [(f.column, f.reason) for f in report.failures] == [
        ("start", "not an ISO date: '2019\\n'"),
        ("amount", "not a decimal: '1.5\\n'"),
    ]
    subject = IRI("http://ex.org/data/grant/g1")
    assert graph.objects(subject, D.start_time) == graph.objects(subject, D.funded_amount) == []


def test_empty_cells_emit_no_triples():
    spec = parse_mapping(MINIMAL)
    graph, report = ingest_table([{"id": "t1", "name": ""}], spec)
    assert len(graph) == 1  # type only
    assert report.skipped_cells == 1


def test_missing_key_is_reported_and_row_entity_skipped():
    spec = parse_mapping(MINIMAL)
    graph, report = ingest_table([{"id": "", "name": "x"}, {"id": "ok", "name": "y"}], spec)
    assert len([t for t in graph.triples if t.predicate == RDF_TYPE]) == 1
    assert len(report.failures) == 1


def test_exactly_one_type_triple_per_emitted_subject():
    spec = parse_mapping(embedded("example_grants.mapping"))
    rows = read_csv_records(embedded("example_grants.csv"))
    graph, _ = ingest_table(rows, spec)
    for subject in {t.subject for t in graph.triples}:
        assert len(graph.match(subject, RDF_TYPE, None)) == 1


def test_reingesting_is_idempotent():
    spec = parse_mapping(embedded("example_grants.mapping"))
    rows = read_csv_records(embedded("example_grants.csv"))
    once, _ = ingest_table(rows, spec)
    twice, report = ingest_table(rows + rows, spec)
    assert once == twice
    assert serialize_turtle(once) == serialize_turtle(twice)
    assert report.rows == 2 * len(rows)


def test_deterministic_canonical_bytes():
    spec = parse_mapping(embedded("example_grants.mapping"))
    rows = read_csv_records(embedded("example_grants.csv"))
    first = serialize_turtle(ingest_table(rows, spec)[0])
    second = serialize_turtle(ingest_table(list(reversed(rows)), spec)[0])
    assert first == second


def test_bundled_example_output_validates_conformant(snapshot_schema, dingo_shapes):
    spec = parse_mapping(embedded("example_grants.mapping"))
    rows = read_csv_records(embedded("example_grants.csv"))
    graph, report = ingest_table(rows, spec)
    assert report.rows >= 50
    assert not report.failures
    assert validate(graph, snapshot_schema, dingo_shapes).conformant


# ---------------------------------------------------------------------------
# record readers
# ---------------------------------------------------------------------------


def test_read_csv_records_rfc4180():
    text = 'a,b\n"x, y",2\n"line\nbreak","quo""te"\n'
    rows = read_csv_records(text)
    assert rows == [
        {"a": "x, y", "b": "2"},
        {"a": "line\nbreak", "b": 'quo"te'},
    ]


def test_read_csv_empty_text_has_no_records():
    assert read_csv_records("") == []


def test_read_csv_custom_delimiter():
    rows = read_csv_records("a;b\n1;2\n", delimiter=";")
    assert rows == [{"a": "1", "b": "2"}]


@pytest.mark.parametrize(
    "text, line",
    [
        ("a,b\n1,2\n3," + "x" * 131_073 + "\n", 3),
        ("a," + "x" * 131_073 + "\n1,2\n", 1),
        ('a,b\n1,"2\n\n' + "y" * 131_073 + '"\n', 4),  # the line inside a quoted cell
    ],
    ids=["in-a-row", "in-the-header", "in-a-quoted-cell"],
)
def test_read_csv_oversized_cell_is_a_positioned_error(text, line):
    limit = csv.field_size_limit()
    with pytest.raises(PositionedError) as err:
        read_csv_records(text)
    assert str(err.value) == f"line {line}, column 1: field larger than field limit ({limit})"
    assert (err.value.line, err.value.column) == (line, 1)
    assert csv.field_size_limit() == limit  # the process-wide limit is left alone


def test_read_csv_nul_byte_reads_or_is_a_positioned_error():
    text = "a,b\n1,\x002\n"
    if sys.version_info >= (3, 11):  # the csv module accepts NUL from 3.11 on
        assert read_csv_records(text) == [{"a": "1", "b": "\x002"}]
    else:
        with pytest.raises(PositionedError, match="^line 2, column 1: line contains NUL"):
            read_csv_records(text)


def test_read_json_records_scalar_coercion():
    rows = read_json_records('[{"a": 1, "b": true, "c": null, "d": "x"}]')
    assert rows == [{"a": "1", "b": "true", "c": "", "d": "x"}]


@pytest.mark.parametrize(
    "text, line, column, reason",
    [
        ('[{"id": "a",}]', 1, 13, "Expecting property name enclosed in double quotes"),
        ('[\n  {"id": "a"}\n  {"id": "b"}]', 3, 3, "Expecting ',' delimiter"),
        ("", 1, 1, "Expecting value"),
        ('[{"id": "a"}] x', 1, 15, "Extra data"),
    ],
)
def test_read_json_syntax_error_is_a_positioned_error_at_the_decoders_fault(text, line, column, reason):
    with pytest.raises(PositionedError) as err:
        read_json_records(text)
    assert str(err.value) == f"line {line}, column {column}: {reason}"
    assert (err.value.line, err.value.column, err.value.reason) == (line, column, reason)


@pytest.mark.parametrize(
    "text, line, column, reason",
    [
        ("[1]", 1, 2, "record 0 is not an object"),
        ('[{"id": {"x": 1}}]', 1, 2, "record 0, field 'id': nested values are not supported"),
        ('[ {"a": 1} ,\n  {"b": [1, {"c": 2}]}, 3]', 2, 3, "record 1, field 'b': nested values are not supported"),
        ('[{"a": "]"}, {"b": "x,y"},\n\t "z"]', 2, 3, "record 2 is not an object"),
        ('[{}, [[{}], []]]', 1, 6, "record 1 is not an object"),
        ('  {"a": 1}', 1, 3, "JSON input must be an array of records"),
        ("\n\n 5", 3, 2, "JSON input must be an array of records"),
    ],
)
def test_a_json_record_that_is_not_flat_is_an_error_at_its_first_character(text, line, column, reason):
    with pytest.raises(PositionedError) as err:
        read_json_records(text)
    assert (err.value.line, err.value.column, err.value.reason) == (line, column, reason)
    assert str(err.value) == f"line {line}, column {column}: {reason}"


def test_read_json_rejects_nested_and_non_arrays():
    with pytest.raises(DingoError):
        read_json_records('{"a": 1}')
    with pytest.raises(DingoError):
        read_json_records('[{"a": {"nested": 1}}]')
