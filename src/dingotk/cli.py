"""Command-line entry point.

Subcommands: convert, stats, validate, ingest, query, docgen. Machine
output goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 data nonconformant, 2 input/syntax error, 3 usage error. A report prints
as lines, or with --format json as one object whose keys come in a fixed
order; ingest's report goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings
from importlib import resources
from typing import Iterable, Optional

from .ontology import DINGO_BASE, DingoTerms, OntologySchema, load_ontology
from .terms import BlankNode, DingoError, Graph, IRI, Term, gc_paused
from .turtle import parse_turtle, turtle_chunks

EXIT_OK = 0
EXIT_NONCONFORMANT = 1
EXIT_INPUT_ERROR = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract reserves 2 for input
    # errors and uses 3 for usage
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _term(term: Term) -> tuple:
    return repr(term), repr(term)


def _participation(p) -> tuple:
    role = repr(p.role) if p.role else None
    return {"agent": repr(p.agent), "role": role}, f"{p.agent!r}\t{role or '-'}"


def _violation(v) -> tuple:
    start, end = (prop.value for prop in v.property_pair)
    item = {
        "node": repr(v.node),
        "start_property": start,
        "end_property": end,
        "start_value": v.start_value,
        "end_value": v.end_value,
        "code": v.code,
    }
    return item, f"[{v.code}] {v.node!r} <{start}> {v.start_value!r} > <{end}> {v.end_value!r}"


# subquery -> (query over (queries module, data, schema, node, inherited,
# vocabulary), JSON key, renderer of a result to its (JSON item, text line)
# pair). A set result prints sorted. temporal-check, the one check, needs no
# --node and exits 1 on findings. Each command imports only what it runs.
_QUERIES = {
    "grants-of": (lambda q, d, s, n, i, c: q.grants_funding_project(d, s, n, c), "results", _term),
    "projects-of": (lambda q, d, s, n, i, c: q.projects_funded_by(d, s, n, c), "results", _term),
    "ancestry": (lambda q, d, s, n, i, c: q.scheme_ancestry(d, n, c), "results", _term),
    "criteria": (lambda q, d, s, n, i, c: q.criteria_for_scheme(d, n, i, c), "results", _term),
    "participants": (
        lambda q, d, s, n, i, c: q.participants_with_roles(d, s, n, c), "results", _participation
    ),
    "beneficiaries": (lambda q, d, s, n, i, c: q.beneficiaries_of(d, n, c), "results", _term),
    "non-beneficiary-participants": (
        lambda q, d, s, n, i, c: q.non_beneficiary_participants(d, s, n, c), "results", _term
    ),
    "temporal-check": (lambda q, d, s, n, i, c: q.check_temporal(d, c), "violations", _violation),
}


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _embedded(name: str) -> str:
    return resources.files("dingotk").joinpath(f"data/{name}").read_text("utf-8")


def _load_graph(path: Optional[str]) -> Graph:
    text = _embedded("dingo.ttl") if path is None else _read_file(path)
    return parse_turtle(text)


def _load_schema(path: Optional[str]) -> OntologySchema:
    return load_ontology(_load_graph(path))


def _parse_node(text: str) -> Term:
    if text.startswith("_:"):
        return BlankNode(text[2:])
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    return IRI(text)


def _emit(chunks: Iterable[str], out_path: Optional[str]) -> None:
    # written as they come, so a streamed output is never held whole
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _write(args, payload: dict, lines: Iterable[str], file=None) -> None:
    """Print `payload` as JSON, in its own key order, or else `lines`, one a line."""
    if args.format == "json":
        print(json.dumps(payload, indent=2), file=file)
    else:
        for line in lines:
            print(line, file=file)


def _delimiter(text: str) -> str:
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be one character, not {text!r}")
    return text


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="dingotk", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    convert = sub.add_parser("convert", help="parse Turtle and emit its canonical form")
    convert.add_argument("input", help="Turtle file")
    convert.add_argument("--out", help="output file (default stdout)")
    convert.add_argument("--base", help="base IRI for resolving relative IRIs")

    stats = sub.add_parser("stats", help="class/property/namespace counts of an ontology")
    stats.add_argument("ontology", nargs="?", help="ontology Turtle file (default: bundled DINGO)")
    stats.add_argument("--format", choices=("text", "json"), default="text")

    val = sub.add_parser("validate", help="validate a data graph against shapes")
    val.add_argument("data", help="data Turtle file")
    val.add_argument("--shapes", help="shape file (default: bundled DINGO shapes)")
    val.add_argument("--ontology", help="ontology Turtle file (default: bundled DINGO)")
    val.add_argument("--format", choices=("text", "json"), default="text")

    ing = sub.add_parser("ingest", help="map tabular records onto Turtle")
    ing.add_argument("table", help="CSV or JSON file")
    ing.add_argument("--mapping", required=True, help="mapping file")
    ing.add_argument("--out", help="output Turtle file (default stdout)")
    ing.add_argument("--base", help="override the mapping's base IRI")
    ing.add_argument("--delimiter", default=",", type=_delimiter, help="CSV delimiter (default ',')")
    ing.add_argument(
        "--input-format", choices=("csv", "json"), help="default: by file extension"
    )
    ing.add_argument("--format", choices=("text", "json"), default="text",
                     help="report format on stderr")

    query = sub.add_parser("query", help="funding-graph queries")
    query.add_argument("subquery", choices=tuple(_QUERIES))
    query.add_argument("data", help="data Turtle file")
    query.add_argument("--node", help="focus node IRI (not needed for temporal-check)")
    query.add_argument("--ontology", help="ontology Turtle file (default: bundled DINGO)")
    query.add_argument("--inherited", action="store_true", help="criteria: include ancestry")
    query.add_argument("--base", default=DINGO_BASE, help="vocabulary base IRI")
    query.add_argument("--format", choices=("text", "json"), default="text")

    doc = sub.add_parser("docgen", help="render HTML documentation for an ontology")
    doc.add_argument("ontology", nargs="?", help="ontology Turtle file (default: bundled DINGO)")
    doc.add_argument("--out", help="output HTML file (default stdout)")

    return parser


def _cmd_convert(args) -> int:
    graph = parse_turtle(_read_file(args.input), base=args.base)
    _emit(turtle_chunks(graph), args.out)
    return EXIT_OK


def _cmd_stats(args) -> int:
    schema = _load_schema(args.ontology)
    st = schema.stats()
    payload = {
        "classes": st.class_count,
        "counting_rule": st.counting_rule,
        "namespaces": st.namespace_count,
        "ontology": st.own_namespace,
        "properties": st.property_count,
    }
    lines = [
        f"classes: {st.class_count}, properties: {st.property_count}",
        f"namespaces: {st.namespace_count}",
        *([f"ontology: {st.own_namespace}"] if st.own_namespace else []),
        f"counting rule: {st.counting_rule}",
    ]
    _write(args, payload, lines)
    return EXIT_OK


def _cmd_validate(args) -> int:
    from . import shapes

    data = parse_turtle(_read_file(args.data))
    schema = _load_schema(args.ontology)
    if args.shapes:
        shape_schema = shapes.parse_shapes(_read_file(args.shapes))
    else:
        shape_schema = shapes.default_dingo_shapes(schema)
    report = shapes.validate(data, schema, shape_schema)
    payload = {
        "conformant": report.conformant,
        "violations": [
            {
                "code": v.code,
                "focus": repr(v.focus),
                "message": v.message,
                "predicate": v.predicate.value if v.predicate else None,
                "shape": v.shape,
            }
            for v in report.violations
        ],
    }
    _write(args, payload, report.lines())
    return EXIT_OK if report.conformant else EXIT_NONCONFORMANT


def _cmd_ingest(args) -> int:
    from . import ingest

    fmt = args.input_format
    if fmt is None:
        fmt = "json" if args.table.lower().endswith(".json") else "csv"
    mapping = ingest.parse_mapping(_read_file(args.mapping))
    if args.base is not None:
        try:
            IRI(args.base)
        except ValueError as exc:
            raise DingoError(f"--base: {exc}") from None
        mapping = dataclasses.replace(mapping, base_iri=args.base)
    text = _read_file(args.table)
    if fmt == "json":
        rows = ingest.read_json_records(text)
    else:
        rows = ingest.read_csv_records(text, delimiter=args.delimiter)
    graph, report = ingest.ingest_table(rows, mapping)
    _emit(turtle_chunks(graph), args.out)
    payload = {
        "failures": [
            {"column": f.column, "reason": f.reason, "row": f.row, "value": f.value}
            for f in report.failures
        ],
        "rows": report.rows,
        "skipped_cells": report.skipped_cells,
        "triples": report.triples,
    }
    _write(args, payload, report.lines(), sys.stderr)
    return EXIT_OK


def _cmd_query(args) -> int:
    query, key, row = _QUERIES[args.subquery]
    check = key == "violations"
    if not check and not args.node:
        raise _UsageError(f"query {args.subquery} requires --node")
    from . import queries

    data = parse_turtle(_read_file(args.data))
    schema = _load_schema(args.ontology)
    node = None if check else _parse_node(args.node)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", queries.UntypedNodeWarning)
        found = query(queries, data, schema, node, args.inherited, DingoTerms(args.base))
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if isinstance(found, set):
        found = sorted(found, key=repr)
    rows = [row(entry) for entry in found]
    _write(args, {key: [item for item, _ in rows]}, [line for _, line in rows])
    return EXIT_NONCONFORMANT if check and found else EXIT_OK


def _cmd_docgen(args) -> int:
    from . import docgen

    graph = _load_graph(args.ontology)
    schema = load_ontology(graph)
    model = docgen.extract_doc_model(graph, schema)
    _emit((docgen.render_html(model),), args.out)
    return EXIT_OK


_DISPATCH = {
    "convert": _cmd_convert,
    "stats": _cmd_stats,
    "validate": _cmd_validate,
    "ingest": _cmd_ingest,
    "query": _cmd_query,
    "docgen": _cmd_docgen,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        # the command's objects mostly live until it ends, so collections
        # during it would free little; see terms.gc_paused
        with gc_paused():
            return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DingoError, OSError, UnicodeDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except OSError as exc:
        # a closed pipe or a full disk; what stdout still buffers goes to
        # os.devnull, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if code != EXIT_INPUT_ERROR:  # else run has reported it
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_INPUT_ERROR
    sys.exit(code)


if __name__ == "__main__":
    main()
