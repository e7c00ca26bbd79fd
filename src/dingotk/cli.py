"""Command-line entry point.

Subcommands: convert, stats, validate, ingest, query, docgen. Machine
output goes to stdout, diagnostics to stderr. Exit codes: 0 success,
1 data nonconformant, 2 input/syntax error, 3 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from importlib import resources
from typing import Optional

from .ontology import DINGO_BASE, DingoTerms, OntologySchema, load_ontology
from .terms import BlankNode, DingoError, Graph, IRI, Term, gc_paused
from .turtle import parse_turtle, serialize_turtle

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


# subquery -> (query over (queries module, data, schema, node, inherited,
# vocabulary), whether to sort its result); "ancestry" keeps its
# nearest-first order. Each command imports the modules it runs, so that the
# others stay unloaded in a one-shot process.
_NODE_QUERIES = {
    "grants-of": (lambda q, d, s, n, i, c: q.grants_funding_project(d, s, n, c), True),
    "projects-of": (lambda q, d, s, n, i, c: q.projects_funded_by(d, s, n, c), True),
    "ancestry": (lambda q, d, s, n, i, c: q.scheme_ancestry(d, n, c), False),
    "criteria": (lambda q, d, s, n, i, c: q.criteria_for_scheme(d, n, i, c), True),
    "participants": (lambda q, d, s, n, i, c: q.participants_with_roles(d, s, n, c), False),
    "beneficiaries": (lambda q, d, s, n, i, c: q.beneficiaries_of(d, n, c), True),
    "non-beneficiary-participants": (
        lambda q, d, s, n, i, c: q.non_beneficiary_participants(d, s, n, c),
        True,
    ),
}


def _read_file(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _embedded(name: str) -> str:
    return resources.files("dingotk").joinpath(f"data/{name}").read_text("utf-8")


def _load_graph(path: Optional[str], base: Optional[str] = None) -> Graph:
    text = _embedded("dingo.ttl") if path is None else _read_file(path)
    return parse_turtle(text, base=base)


def _load_schema(path: Optional[str]) -> OntologySchema:
    return load_ontology(_load_graph(path))


def _parse_node(text: str) -> Term:
    if text.startswith("_:"):
        return BlankNode(text[2:])
    if text.startswith("<") and text.endswith(">"):
        text = text[1:-1]
    return IRI(text)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


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
    query.add_argument(
        "subquery",
        choices=(*_NODE_QUERIES, "temporal-check"),
    )
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
    _emit(serialize_turtle(graph), args.out)
    return EXIT_OK


def _cmd_stats(args) -> int:
    schema = _load_schema(args.ontology)
    st = schema.stats()
    if args.format == "json":
        payload = {
            "classes": st.class_count,
            "properties": st.property_count,
            "namespaces": st.namespace_count,
            "ontology": st.own_namespace,
            "counting_rule": st.counting_rule,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"classes: {st.class_count}, properties: {st.property_count}")
        print(f"namespaces: {st.namespace_count}")
        if st.own_namespace:
            print(f"ontology: {st.own_namespace}")
        print(f"counting rule: {st.counting_rule}")
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
    if args.format == "json":
        payload = {
            "conformant": report.conformant,
            "violations": [
                {
                    "focus": repr(v.focus),
                    "shape": v.shape,
                    "predicate": v.predicate.value if v.predicate else None,
                    "code": v.code,
                    "message": v.message,
                }
                for v in report.violations
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    return EXIT_OK if report.conformant else EXIT_NONCONFORMANT


def _cmd_ingest(args) -> int:
    from . import ingest

    fmt = args.input_format
    if fmt is None:
        fmt = "json" if args.table.lower().endswith(".json") else "csv"
    mapping = ingest.parse_mapping(_read_file(args.mapping))
    if args.base:
        mapping = ingest.MappingSpec(
            base_iri=args.base,
            entities=mapping.entities,
            columns=mapping.columns,
            prefixes=mapping.prefixes,
        )
    text = _read_file(args.table)
    if fmt == "json":
        rows = ingest.read_json_records(text)
    else:
        rows = ingest.read_csv_records(text, delimiter=args.delimiter)
    graph, report = ingest.ingest_table(rows, mapping)
    _emit(serialize_turtle(graph), args.out)
    if args.format == "json":
        payload = {
            "rows": report.rows,
            "triples": report.triples,
            "skipped_cells": report.skipped_cells,
            "failures": [
                {"row": f.row, "column": f.column, "value": f.value, "reason": f.reason}
                for f in report.failures
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=sys.stderr)
    else:
        for line in report.lines():
            print(line, file=sys.stderr)
    return EXIT_OK


def _render_terms(found, fmt: str) -> int:
    rendered = [repr(t) for t in found]
    if fmt == "json":
        print(json.dumps({"results": rendered}, indent=2))
    else:
        for line in rendered:
            print(line)
    return EXIT_OK


def _cmd_query(args) -> int:
    if args.subquery != "temporal-check" and not args.node:
        raise _UsageError(f"query {args.subquery} requires --node")
    from . import queries

    data = parse_turtle(_read_file(args.data))
    schema = _load_schema(args.ontology)
    vocab = DingoTerms(args.base)

    if args.subquery == "temporal-check":
        violations = queries.check_temporal(data, vocab)
        if args.format == "json":
            payload = [
                {
                    "node": repr(v.node),
                    "start_property": v.property_pair[0].value,
                    "end_property": v.property_pair[1].value,
                    "start_value": v.start_value,
                    "end_value": v.end_value,
                    "code": v.code,
                }
                for v in violations
            ]
            print(json.dumps({"violations": payload}, indent=2))
        else:
            for v in violations:
                print(
                    f"[{v.code}] {v.node!r} "
                    f"<{v.property_pair[0].value}> {v.start_value!r} "
                    f"> <{v.property_pair[1].value}> {v.end_value!r}"
                )
        return EXIT_OK if not violations else EXIT_NONCONFORMANT

    node = _parse_node(args.node)
    query, ordered = _NODE_QUERIES[args.subquery]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", queries.UntypedNodeWarning)
        found = query(queries, data, schema, node, args.inherited, vocab)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.subquery != "participants":
        return _render_terms(sorted(found, key=repr) if ordered else found, args.format)
    if args.format == "json":
        payload = [
            {"agent": repr(p.agent), "role": repr(p.role) if p.role else None}
            for p in found
        ]
        print(json.dumps({"results": payload}, indent=2))
    else:
        for p in found:
            role = repr(p.role) if p.role else "-"
            print(f"{p.agent!r}\t{role}")
    return EXIT_OK


def _cmd_docgen(args) -> int:
    from . import docgen

    graph = _load_graph(args.ontology)
    schema = load_ontology(graph)
    model = docgen.extract_doc_model(graph, schema)
    _emit(docgen.render_html(model), args.out)
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
