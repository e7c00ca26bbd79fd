import gc
import json
from html import escape

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
    assert captured.err == "error: line 3: field larger than field limit (131072)\n"


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
