import gc
import json
import os
import subprocess
import sys
import tracemalloc
from html import escape
from pathlib import Path

import pytest

from dingotk import cli, queries
from dingotk.cli import run
from dingotk.ontology import DINGO_BASE, DingoTerms
from dingotk.queries import grants_funding_project, scheme_ancestry
from dingotk.turtle import parse_turtle, serialize_turtle

from conftest import embedded

D = DingoTerms()

DATA = (
    f"@prefix d: <{DINGO_BASE}> .\n"
    "@prefix x: <http://x/> .\n"
    "x:p1 a d:Project ; d:funded_by x:g2 .\n"
    "x:g1 a d:Grant ; d:funds x:p1 ; d:has_beneficiary x:org .\n"
    "x:g2 a d:Grant ; d:has_beneficiary x:org .\n"
    "x:org a d:Organisation .\n"
    "x:s3 a d:FundingScheme ; d:subscheme_of x:s2 .\n"
    "x:s2 a d:FundingScheme ; d:subscheme_of x:s1 .\n"
    "x:s1 a d:FundingScheme .\n"
)


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.ttl"
    path.write_text(DATA, encoding="utf-8")
    return str(path)


def test_convert_roundtrip(tmp_path, capsys, data_file):
    out = tmp_path / "canon.ttl"
    assert run(["convert", data_file, "--out", str(out)]) == 0
    text = out.read_text("utf-8")
    assert text == serialize_turtle(parse_turtle(DATA))
    # stdout path gives identical bytes
    assert run(["convert", data_file]) == 0
    assert capsys.readouterr().out == text


def test_convert_syntax_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text("<http://x/s> <http://x/p> .", encoding="utf-8")
    assert run(["convert", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_missing_file_exits_2(capsys):
    assert run(["convert", "/nonexistent/nope.ttl"]) == 2


def test_stats_prints_paper_counts(capsys):
    assert run(["stats"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "classes: 40, properties: 68"


def test_stats_with_explicit_ontology_file(tmp_path, capsys):
    path = tmp_path / "dingo.ttl"
    path.write_text(embedded("dingo.ttl"), encoding="utf-8")
    assert run(["stats", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "classes: 40, properties: 68"


def test_stats_json(capsys):
    assert run(["stats", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classes"] == 40
    assert payload["properties"] == 68
    assert "counting_rule" in payload


def test_validate_conformant_exits_0(data_file, capsys):
    assert run(["validate", data_file]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "conformant"


def test_validate_nonconformant_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text(f"@prefix d: <{DINGO_BASE}> . <http://x/g> a d:Grant .", encoding="utf-8")
    assert run(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "nonconformant" in out
    assert "missing-required" in out


def test_validate_json_report(tmp_path, capsys):
    bad = tmp_path / "bad.ttl"
    bad.write_text(
        f'@prefix d: <{DINGO_BASE}> . <http://x/g> a d:Grant ; d:start_time "x" .',
        encoding="utf-8",
    )
    assert run(["validate", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["conformant"] is False
    codes = sorted(v["code"] for v in payload["violations"])
    assert codes == ["missing-required", "wrong-datatype"]


def test_validate_with_custom_shape_file(tmp_path, data_file, capsys):
    shapes = tmp_path / "custom.shapes"
    shapes.write_text(
        f"prefix d: <{DINGO_BASE}>\nshape S target d:Project {{ d:title any + }}\n",
        encoding="utf-8",
    )
    assert run(["validate", data_file, "--shapes", str(shapes)]) == 1
    assert "missing-required" in capsys.readouterr().out


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_the_collector_for_the_whole_command(tmp_path, capsys, monkeypatch, data_file, enabled):
    bad = tmp_path / "bad.ttl"
    bad.write_text(f"@prefix d: <{DINGO_BASE}> . <http://x/g> a d:Grant .", encoding="utf-8")
    broken = tmp_path / "broken.ttl"
    broken.write_text("<http://x/s> <http://x/p> .", encoding="utf-8")
    during = []
    parse = cli.parse_turtle

    def spy(*args, **kwargs):
        during.append(gc.isenabled())
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_turtle", spy)
    codes, after = [], []
    if not enabled:
        gc.disable()
    try:
        for argv in (
            ["validate", data_file],
            ["validate", str(bad)],
            ["convert", str(broken)],
            ["query", "grants-of", data_file],  # a usage error raised inside the command
        ):
            codes.append(run(argv))
            after.append(gc.isenabled())
    finally:
        gc.enable()
    assert codes == [0, 1, 2, 3]
    assert after == [enabled] * 4
    assert during and not any(during)


def test_usage_errors_exit_3(capsys):
    assert run(["frobnicate"]) == 3
    assert run([]) == 3
    assert run(["query", "grants-of", "somefile.ttl"]) == 3  # missing --node
    assert run(["ingest", "x.csv"]) == 3  # missing --mapping


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0


def test_query_grants_matches_in_process_results(data_file, capsys, snapshot_schema):
    from dingotk import IRI

    assert run(["query", "grants-of", data_file, "--node", "http://x/p1"]) == 0
    out = capsys.readouterr().out
    expected = sorted(
        grants_funding_project(parse_turtle(DATA), snapshot_schema, IRI("http://x/p1")),
        key=repr,
    )
    assert out == "".join(f"{repr(t)}\n" for t in expected)
    assert out == "<http://x/g1>\n<http://x/g2>\n"


def test_query_ancestry_order(data_file, capsys):
    from dingotk import IRI

    assert run(["query", "ancestry", data_file, "--node", "http://x/s3"]) == 0
    out = capsys.readouterr().out
    expected = scheme_ancestry(parse_turtle(DATA), IRI("http://x/s3"))
    assert out == "".join(f"{repr(t)}\n" for t in expected)
    assert out == "<http://x/s2>\n<http://x/s1>\n"


def test_query_participants_format(tmp_path, capsys):
    path = tmp_path / "p.ttl"
    path.write_text(
        f"@prefix d: <{DINGO_BASE}> .\n"
        "<http://x/p> a d:Project ; d:has_participant <http://x/alice> .\n"
        "<http://x/alice> a d:Person ; d:has_role d:principal_investigator .\n",
        encoding="utf-8",
    )
    assert run(["query", "participants", str(path), "--node", "http://x/p"]) == 0
    out = capsys.readouterr().out
    assert out == f"<http://x/alice>\t<{DINGO_BASE}principal_investigator>\n"


def test_query_untyped_node_warns_on_stderr(tmp_path, capsys):
    path = tmp_path / "w.ttl"
    path.write_text(
        f"@prefix d: <{DINGO_BASE}> . <http://x/m> d:funded_by <http://x/g> .",
        encoding="utf-8",
    )
    assert run(["query", "grants-of", str(path), "--node", "http://x/m"]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert captured.out == "<http://x/g>\n"


def test_query_temporal_check_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.ttl"
    good.write_text(DATA, encoding="utf-8")
    assert run(["query", "temporal-check", str(good)]) == 0
    bad = tmp_path / "bad.ttl"
    bad.write_text(
        f'@prefix d: <{DINGO_BASE}> .\n'
        '<http://x/n> d:start_time "2020-02-01" ; d:end_time "2020-01-01" .',
        encoding="utf-8",
    )
    assert run(["query", "temporal-check", str(bad)]) == 1
    assert "start-after-end" in capsys.readouterr().out


def test_query_scheme_cycle_is_input_error(tmp_path, capsys):
    path = tmp_path / "cycle.ttl"
    path.write_text(
        f"@prefix d: <{DINGO_BASE}> .\n"
        "<http://x/s1> d:subscheme_of <http://x/s2> .\n"
        "<http://x/s2> d:subscheme_of <http://x/s1> .\n",
        encoding="utf-8",
    )
    assert run(["query", "ancestry", str(path), "--node", "http://x/s1"]) == 2
    assert "cycle" in capsys.readouterr().err


def test_query_json_format(data_file, capsys):
    assert run(["query", "grants-of", data_file, "--node", "http://x/p1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"results": ["<http://x/g1>", "<http://x/g2>"]}


def test_query_temporal_check_json_bytes(tmp_path, capsys):
    path = tmp_path / "bad.ttl"
    path.write_text(
        f'@prefix d: <{DINGO_BASE}> .\n'
        '<http://x/n> d:start_time "2020-02-01" ; d:end_time "2020-01-01" .',
        encoding="utf-8",
    )
    assert run(["query", "temporal-check", str(path), "--format", "json"]) == 1
    assert capsys.readouterr().out == (
        "{\n"
        '  "violations": [\n'
        "    {\n"
        '      "node": "<http://x/n>",\n'
        f'      "start_property": "{DINGO_BASE}start_time",\n'
        f'      "end_property": "{DINGO_BASE}end_time",\n'
        '      "start_value": "2020-02-01",\n'
        '      "end_value": "2020-01-01",\n'
        '      "code": "start-after-end"\n'
        "    }\n"
        "  ]\n"
        "}\n"
    )


STATS_RULE = (
    "named IRIs declared owl:Class (classes) or owl:ObjectProperty/owl:DatatypeProperty/"
    "owl:AnnotationProperty (properties) whose IRI starts with the ontology IRI; "
    "blank nodes and external terms excluded"
)

# argv ({} stands for the test's directory), the stream the report goes to,
# the exit code, and the report's exact bytes: each JSON report prints its
# keys in a fixed order
JSON_BYTES_CASES = [
    (
        ["stats"], "out", 0,
        "{\n"
        '  "classes": 40,\n'
        f'  "counting_rule": "{STATS_RULE}",\n'
        '  "namespaces": 12,\n'
        '  "ontology": "https://w3id.org/dingo",\n'
        '  "properties": 68\n'
        "}\n",
    ),
    (
        ["validate", "{}/bad.ttl"], "out", 1,
        "{\n"
        '  "conformant": false,\n'
        '  "violations": [\n'
        "    {\n"
        '      "code": "missing-required",\n'
        '      "focus": "<http://x/g>",\n'
        '      "message": "requires at least 1 value(s), found 0",\n'
        f'      "predicate": "{DINGO_BASE}has_beneficiary",\n'
        '      "shape": "GrantShape"\n'
        "    },\n"
        "    {\n"
        '      "code": "wrong-datatype",\n'
        '      "focus": "<http://x/g>",\n'
        '      "message": "value \\"x\\" does not have datatype <http://www.w3.org/2001/XMLSchema#date>",\n'
        f'      "predicate": "{DINGO_BASE}start_time",\n'
        '      "shape": "GrantShape"\n'
        "    }\n"
        "  ]\n"
        "}\n",
    ),
    (
        ["ingest", "{}/rows.csv", "--mapping", "{}/m.mapping"], "err", 0,
        "{\n"
        '  "failures": [\n'
        "    {\n"
        '      "column": "start",\n'
        '      "reason": "month out of range: \'2020-13-01\'",\n'
        '      "row": 1,\n'
        '      "value": "2020-13-01"\n'
        "    }\n"
        "  ],\n"
        '  "rows": 2,\n'
        '  "skipped_cells": 0,\n'
        '  "triples": 3\n'
        "}\n",
    ),
    (
        ["query", "grants-of", "{}/data.ttl", "--node", "http://x/p1"], "out", 0,
        "{\n"
        '  "results": [\n'
        '    "<http://x/g1>",\n'
        '    "<http://x/g2>"\n'
        "  ]\n"
        "}\n",
    ),
]


@pytest.mark.parametrize(
    "argv, stream, code, expected", JSON_BYTES_CASES, ids=[c[0][0] for c in JSON_BYTES_CASES]
)
def test_json_report_bytes(tmp_path, capsys, argv, stream, code, expected):
    (tmp_path / "data.ttl").write_text(DATA, encoding="utf-8")
    (tmp_path / "bad.ttl").write_text(
        f'@prefix d: <{DINGO_BASE}> . <http://x/g> a d:Grant ; d:start_time "x" .', encoding="utf-8"
    )
    (tmp_path / "rows.csv").write_text("id,start\nt1,2020-13-01\nt2,2020-12-01\n", encoding="utf-8")
    (tmp_path / "m.mapping").write_text(
        f"prefix d: <{DINGO_BASE}>\nbase <http://ex.org/>\ncolumns id, start\n"
        "entity Thing d:Project {\n  key id\n  map start -> d:start_time : date\n}\n",
        encoding="utf-8",
    )
    argv = [arg.replace("{}", str(tmp_path)) for arg in argv]
    assert run(argv + ["--format", "json"]) == code
    captured = capsys.readouterr()
    assert getattr(captured, stream) == expected
    if stream == "err":  # the Turtle goes to stdout, untouched by the report
        assert captured.out.startswith("@prefix d: ")


def test_query_participants_json_bytes_with_a_bracketed_node(tmp_path, capsys):
    path = tmp_path / "p.ttl"
    path.write_text(
        f"@prefix d: <{DINGO_BASE}> .\n"
        "<http://x/p> a d:Project ; d:has_participant <http://x/alice>, <http://x/bob> .\n"
        "<http://x/alice> a d:Person ; d:has_role d:principal_investigator .\n"
        "<http://x/bob> a d:Person .\n",
        encoding="utf-8",
    )
    argv = ["query", "participants", str(path), "--node", "<http://x/p>"]
    assert run(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == (
        "{\n"
        '  "results": [\n'
        "    {\n"
        '      "agent": "<http://x/alice>",\n'
        f'      "role": "<{DINGO_BASE}principal_investigator>"\n'
        "    },\n"
        "    {\n"
        '      "agent": "<http://x/bob>",\n'
        '      "role": null\n'
        "    }\n"
        "  ]\n"
        "}\n"
    )
    assert run(argv) == 0
    assert capsys.readouterr().out == (
        f"<http://x/alice>\t<{DINGO_BASE}principal_investigator>\n<http://x/bob>\t-\n"
    )


def test_query_literal_results_print_escaped(tmp_path, capsys):
    path = tmp_path / "literals.ttl"
    path.write_text(
        f"@prefix d: <{DINGO_BASE}> .\n"
        '<http://x/g> d:has_beneficiary """two\nlines""", "say \\"hi\\"" .\n',
        encoding="utf-8",
    )
    escaped = ['"say \\"hi\\""', '"two\\nlines"']
    argv = ["query", "beneficiaries", str(path), "--node", "http://x/g"]
    assert run(argv) == 0
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in escaped)
    assert run(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"results": escaped}


EX = "http://example.org/data/"


def _terms(found):
    return [repr(t) for t in found]


def _participations(found):
    return [f"{repr(p.agent)}\t{repr(p.role) if p.role else '-'}" for p in found]


def _temporal(found):
    return [
        f"[{v.code}] {repr(v.node)} <{v.property_pair[0].value}> {v.start_value!r} "
        f"> <{v.property_pair[1].value}> {v.end_value!r}"
        for v in found
    ]


# subquery, focus node in the bundled example, expected stdout lines from the
# in-process query
QUERY_CASES = [
    ("grants-of", "project-qsense",
     lambda d, s, n: _terms(sorted(queries.grants_funding_project(d, s, n), key=repr))),
    ("projects-of", "grant-801001",
     lambda d, s, n: _terms(sorted(queries.projects_funded_by(d, s, n), key=repr))),
    ("ancestry", "erc-stg-2019", lambda d, s, n: _terms(queries.scheme_ancestry(d, n))),
    ("criteria", "erc-stg-2019",
     lambda d, s, n: _terms(sorted(queries.criteria_for_scheme(d, n), key=repr))),
    ("participants", "project-qsense",
     lambda d, s, n: _participations(queries.participants_with_roles(d, s, n))),
    ("beneficiaries", "grant-801001",
     lambda d, s, n: _terms(sorted(queries.beneficiaries_of(d, n), key=repr))),
    ("non-beneficiary-participants", "project-qsense",
     lambda d, s, n: _terms(sorted(queries.non_beneficiary_participants(d, s, n), key=repr))),
    ("temporal-check", None, lambda d, s, n: _temporal(queries.check_temporal(d))),
]


@pytest.mark.parametrize("subquery, node, expected", QUERY_CASES, ids=[c[0] for c in QUERY_CASES])
def test_every_query_subcommand_matches_in_process_results(
    tmp_path, capsys, snapshot_schema, subquery, node, expected
):
    from dingotk import IRI

    path = tmp_path / "example.ttl"
    path.write_text(embedded("example_instances.ttl"), encoding="utf-8")
    argv = ["query", subquery, str(path)] + (["--node", EX + node] if node else [])
    data = parse_turtle(embedded("example_instances.ttl"))
    lines = expected(data, snapshot_schema, IRI(EX + node) if node else None)
    assert run(argv) == (1 if subquery == "temporal-check" and lines else 0)
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)
    assert lines or subquery == "temporal-check"


def test_ingest_end_to_end(tmp_path, capsys):
    csv_path = tmp_path / "grants.csv"
    csv_path.write_text(embedded("example_grants.csv"), encoding="utf-8")
    mapping_path = tmp_path / "grants.mapping"
    mapping_path.write_text(embedded("example_grants.mapping"), encoding="utf-8")
    out1 = tmp_path / "out1.ttl"
    out2 = tmp_path / "out2.ttl"
    assert run(["ingest", str(csv_path), "--mapping", str(mapping_path), "--out", str(out1)]) == 0
    err = capsys.readouterr().err
    assert "rows: 56" in err
    assert run(["ingest", str(csv_path), "--mapping", str(mapping_path), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # the emitted Turtle validates conformant with the bundled defaults
    assert run(["validate", str(out1)]) == 0


def test_convert_base_flag_resolves_relative_iris(tmp_path, capsys):
    path = tmp_path / "rel.ttl"
    path.write_text("<leaf> <http://x/p> 1 .", encoding="utf-8")
    assert run(["convert", str(path)]) == 2  # no base: input error
    capsys.readouterr()
    assert run(["convert", str(path), "--base", "http://x/dir/"]) == 0
    assert "<http://x/dir/leaf>" in capsys.readouterr().out


def test_ingest_delimiter_and_base_override(tmp_path, capsys):
    table = tmp_path / "rows.csv"
    table.write_text("id;name\nt1;Semi\n", encoding="utf-8")
    mapping = tmp_path / "m.mapping"
    mapping.write_text(
        f"prefix d: <{DINGO_BASE}>\nbase <http://orig.example/>\ncolumns id, name\n"
        "entity Thing d:Project {\n  key id\n  map name -> d:title : string\n}\n",
        encoding="utf-8",
    )
    assert run(
        ["ingest", str(table), "--mapping", str(mapping), "--delimiter", ";",
         "--base", "http://override.example/"]
    ) == 0
    out = capsys.readouterr().out
    assert "<http://override.example/project/t1>" in out
    assert "orig.example" not in out


@pytest.mark.parametrize(
    "base, message",
    [
        ("rel/", "IRI is not absolute (missing scheme): 'rel/'"),
        ("", "IRI is not absolute (missing scheme): ''"),
        ("http://ex.org/gr{ants/", "IRI contains forbidden character '{': 'http://ex.org/gr{ants/'"),
    ],
)
def test_ingest_rejects_a_bad_base_override(tmp_path, capsys, base, message):
    table = tmp_path / "rows.csv"
    table.write_text("id,name\nt1,X\n", encoding="utf-8")
    mapping = tmp_path / "m.mapping"
    mapping.write_text(
        f"prefix d: <{DINGO_BASE}>\nbase <http://ex.org/>\ncolumns id, name\n"
        "entity Thing d:Project {\n  key id\n  map name -> d:title : string\n}\n",
        encoding="utf-8",
    )
    assert run(["ingest", str(table), "--mapping", str(mapping), "--base", base]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --base: {message}\n"


def test_ingest_input_format_override(tmp_path, capsys):
    # JSON content in a file without a .json suffix
    table = tmp_path / "rows.data"
    table.write_text('[{"id": "t1", "name": "X"}]', encoding="utf-8")
    mapping = tmp_path / "m.mapping"
    mapping.write_text(
        f"prefix d: <{DINGO_BASE}>\nbase <http://ex.org/>\ncolumns id, name\n"
        "entity Thing d:Project {\n  key id\n  map name -> d:title : string\n}\n",
        encoding="utf-8",
    )
    assert run(["ingest", str(table), "--mapping", str(mapping), "--input-format", "json"]) == 0
    assert "<http://ex.org/project/t1>" in capsys.readouterr().out


def test_query_base_flag_switches_vocabulary(tmp_path, capsys):
    base = "http://vocab.example/f#"
    path = tmp_path / "alt.ttl"
    path.write_text(
        f"@prefix v: <{base}> .\n"
        "<http://x/p> a v:Project .\n"
        "<http://x/g> v:funds <http://x/p> .\n",
        encoding="utf-8",
    )
    # default vocabulary sees nothing
    assert run(["query", "grants-of", str(path), "--node", "http://x/p"]) == 0
    assert capsys.readouterr().out == ""
    assert run(["query", "grants-of", str(path), "--node", "http://x/p", "--base", base]) == 0
    captured = capsys.readouterr()
    assert captured.out == "<http://x/g>\n"


def test_ingest_json_input(tmp_path, capsys):
    records = tmp_path / "rows.json"
    records.write_text(
        json.dumps([{"id": "t1", "name": "Thing"}]), encoding="utf-8"
    )
    mapping = tmp_path / "m.mapping"
    mapping.write_text(
        f"prefix d: <{DINGO_BASE}>\nbase <http://ex.org/>\ncolumns id, name\n"
        "entity Thing d:Project {\n  key id\n  map name -> d:title : string\n}\n",
        encoding="utf-8",
    )
    assert run(["ingest", str(records), "--mapping", str(mapping)]) == 0
    out = capsys.readouterr().out
    assert "<http://ex.org/project/t1>" in out
    assert 'd:title "Thing"' in out


THING_MAPPING = (
    f"prefix d: <{DINGO_BASE}>\nbase <http://ex.org/>\ncolumns id, name\n"
    "entity Thing d:Project {\n  key id\n  map name -> d:title : string\n}\n"
)


@pytest.mark.parametrize("delimiter", ["", "::"])
def test_ingest_delimiter_must_be_one_character(tmp_path, capsys, delimiter):
    table = tmp_path / "rows.csv"
    table.write_text("id,name\nt1,X\n", encoding="utf-8")
    mapping = tmp_path / "m.mapping"
    mapping.write_text(THING_MAPPING, encoding="utf-8")
    assert run(["ingest", str(table), "--mapping", str(mapping), "--delimiter", delimiter]) == 3
    err = capsys.readouterr().err
    assert "usage error: argument --delimiter: must be one character" in err
    assert "Traceback" not in err


def test_ingest_deeply_nested_json_is_a_positioned_input_error(tmp_path, capsys):
    records = tmp_path / "rows.json"
    records.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    mapping = tmp_path / "m.mapping"
    mapping.write_text(THING_MAPPING, encoding="utf-8")
    assert run(["ingest", str(records), "--mapping", str(mapping)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1, column 100000: JSON nests 100000 levels deep")
    assert "Traceback" not in err


def test_ingest_oversized_csv_cell_is_a_positioned_input_error(tmp_path, capsys):
    table = tmp_path / "rows.csv"
    table.write_text("id,name\nt1,X\nt2," + "x" * 200_000 + "\n", encoding="utf-8")
    mapping = tmp_path / "m.mapping"
    mapping.write_text(THING_MAPPING, encoding="utf-8")
    assert run(["ingest", str(table), "--mapping", str(mapping)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 3, column 1: field larger than field limit (131072)\n"


def test_ingest_malformed_json_is_a_positioned_input_error(tmp_path, capsys):
    records = tmp_path / "bad.json"
    records.write_text('[{"id": "a",}]', encoding="utf-8")
    mapping = tmp_path / "m.mapping"
    mapping.write_text(THING_MAPPING, encoding="utf-8")
    assert run(["ingest", str(records), "--mapping", str(mapping)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 1, column 13: Expecting property name enclosed in double quotes\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1]", "line 1, column 2: record 0 is not an object"),
        ('[{"id": "t1"},\n {"id": {"x": 1}}]', "line 2, column 2: record 1, field 'id': nested values are not supported"),
        ('{"id": "t1"}', "line 1, column 1: JSON input must be an array of records"),
    ],
)
def test_ingest_json_that_is_not_flat_records_is_a_positioned_input_error(tmp_path, capsys, text, message):
    records = tmp_path / "rows.json"
    records.write_text(text, encoding="utf-8")
    mapping = tmp_path / "m.mapping"
    mapping.write_text(THING_MAPPING, encoding="utf-8")
    assert run(["ingest", str(records), "--mapping", str(mapping)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_docgen_writes_linked_html(tmp_path, capsys):
    out = tmp_path / "doc.html"
    assert run(["docgen", "--out", str(out)]) == 0
    html = out.read_text("utf-8")
    assert html.startswith("<!DOCTYPE html>")
    assert 'id="class-Project"' in html
    assert html.count('class="entry"') == 40 + 68 + 4


@pytest.mark.parametrize(
    "opener, closer", [("[ <http://x/p> ", " ]"), ("( ", " )")], ids=["brackets", "collections"]
)
def test_deep_nests_convert_validate_and_document(tmp_path, capsys, opener, closer):
    # a class whose anonymous superclass is nested 10 000 deep
    depth = 10_000
    path = tmp_path / "deep.ttl"
    path.write_text(
        "@prefix owl: <http://www.w3.org/2002/07/owl#> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "<http://x/C> a owl:Class ; rdfs:subClassOf "
        + opener * depth + "1" + closer * depth + " .\n",
        encoding="utf-8",
    )
    for command in ("convert", "validate", "docgen"):
        assert run([command, str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
    # docgen renders the whole nest inline
    assert escape(opener * depth + "1" + closer * depth) in captured.out


WORDS = "ancient battery coral dark epidemic folding genomics glacier matter medieval".split()


def _funding_document(units: int) -> str:
    """A conformant funding graph, 9 triples per unit, a third of its objects literals."""
    lines = [f"@prefix d: <{DINGO_BASE}> .", "@prefix x: <http://x/> .",
             "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> ."]
    for i in range(units):
        title = " ".join(WORDS[int(digit)] for digit in f"{i:05d}")
        lines.append(f'x:p{i} a d:Project ; d:funded_by x:g{i} ; d:title "{title.capitalize()}" ;\n'
                     f'    d:abstract "A study of {title}, unit {i}." .')
        lines.append(f'x:g{i} a d:Grant ; d:funds x:p{i} ; d:has_beneficiary x:org{i % 50} ;\n'
                     f'    d:funded_amount "{i}.50"^^xsd:decimal ; d:start_time "20{i % 25:02d}-01-15"^^xsd:date .')
    lines += [f"x:org{k} a d:Organisation ." for k in range(50)]
    return "\n".join(lines) + "\n"


def _traced_peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_convert_and_validate_peak_at_their_parse(tmp_path, capsys):
    # convert streams its output, and validate indexes only the predicates it
    # binds, so neither holds much beyond the graph its parse built
    path, out = tmp_path / "funding.ttl", tmp_path / "out.ttl"
    path.write_text(_funding_document(2200), encoding="utf-8")
    codes = []
    parse = _traced_peak(lambda: parse_turtle(path.read_text("utf-8")))
    convert = _traced_peak(lambda: codes.append(run(["convert", str(path), "--out", str(out)])))
    validate = _traced_peak(lambda: codes.append(run(["validate", str(path)])))
    assert codes == [0, 0] and capsys.readouterr().out == "conformant\n"
    assert len(parse_turtle(out.read_text("utf-8"))) == 2200 * 9 + 50
    assert convert <= 1.10 * parse, (parse, convert)
    assert validate <= 1.10 * parse, (parse, validate)


def _child_env(unbuffered: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_closes_early_gets_exit_2_and_one_error_line(tmp_path, unbuffered):
    # about 1 MB, far more than a pipe holds, so convert is still writing
    # when the reader goes
    path = tmp_path / "big.ttl"
    path.write_text(
        "".join(f'<http://x/s{i}> <http://x/p> "value {i:06d}" .\n' for i in range(20_000)), "utf-8"
    )
    child = subprocess.Popen(
        [sys.executable, "-m", "dingotk.cli", "convert", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(unbuffered),
    )
    assert child.stdout.readline() == b'<http://x/s0> <http://x/p> "value 000000" .\n'
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 2
    assert err == "error: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_stdout_that_fails_after_the_command_gets_exit_2_and_one_error_line():
    # stats' few lines wait in stdout's buffer until the process ends
    with open("/dev/full", "w") as full:
        child = subprocess.run(
            [sys.executable, "-m", "dingotk.cli", "stats"],
            stdout=full, stderr=subprocess.PIPE, env=_child_env(False), timeout=60,
        )
    assert child.returncode == 2
    assert child.stderr == b"error: [Errno 28] No space left on device\n"
