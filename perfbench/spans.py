"""Span recorder for the traced benchmark run.

The recorder wraps dingotk's public functions from outside: every name a
caller looks the function up by is replaced (``dingotk.cli.parse_turtle`` as
well as ``dingotk.turtle.parse_turtle``), and methods are replaced on their
classes. Each call becomes a span (name, start, end, parent) held in flat
arrays; counts are added at the same boundaries. Nothing under ``src/``
changes, and everything is restored by ``uninstall``.
"""

from __future__ import annotations

import gc
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

_VIOLATION_CODES = (
    "missing-required",
    "cardinality-exceeded",
    "wrong-value-kind",
    "wrong-datatype",
    "wrong-class",
    "dangling-shape-ref",
    "closed-shape-extra-predicate",
)

QUERY_FUNCTIONS = (
    "grants_funding_project",
    "projects_funded_by",
    "scheme_ancestry",
    "criteria_for_scheme",
    "participants_with_roles",
    "beneficiaries_of",
    "non_beneficiary_participants",
    "check_temporal",
)


def _ingest_failure_kind(reason: str) -> str:
    if reason.startswith("empty key"):
        return "empty_key"
    if reason.startswith("not a decimal"):
        return "decimal"
    return "date"


class Tracer:
    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.outer = array("b")  # 1 when no ancestor span has the same name
        self.counts: Counter = Counter()
        self._stack: list = []
        self._active: Counter = Counter()
        self._restore: list = []
        self._gc_start = 0.0

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self
        calls = name + ".calls"

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.outer.append(0 if tracer._active[name] else 1)
            tracer._active[name] += 1
            tracer._stack.append(idx)
            tracer.end.append(0.0)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
            tracer.counts[calls] += 1
            if count is not None:
                count(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, name: str, fn, count=None) -> None:
        """Replace every module-level binding of `fn` inside the dingotk package."""
        wrapper = self._wrap(name, fn, count)
        replaced = len(self._restore)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "dingotk" or module_name.startswith("dingotk.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))
        if len(self._restore) == replaced:
            raise LookupError(f"no dingotk module binds {fn.__qualname__}")

    def patch_method(self, cls, attr: str, name: str, count=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, count))
        self._restore.append((cls, attr, original))

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = perf_counter()
        else:
            self.counts["runtime.gc.collections"] += 1
            self.counts["runtime.gc.busy_s"] += perf_counter() - self._gc_start

    def install(self) -> None:
        import dingotk.cli  # noqa: F401  (its bindings are patched too)
        from dingotk import docgen, ingest, ontology, queries, shapes, turtle
        from dingotk.dates import parse_partial_date
        from dingotk.ontology import OntologySchema
        from dingotk.terms import Graph

        def parse_count(c, args, result):
            c["turtle.parse.triples"] += len(result)
            c["turtle.parse.chars"] += len(args[0])

        def serialize_count(c, args, result):
            c["turtle.serialize.triples"] += len(args[0])

        def graph_count(c, args, result):
            c["terms.graph_init.triples"] += len(args[0])

        def match_count(c, args, result):
            c["terms.match.results"] += len(result)

        def instances_count(c, args, result):
            c["ontology.instances_of.instances_returned"] += len(result)

        def validate_count(c, args, result):
            for v in result.violations:
                c["shapes.violations." + v.code] += 1

        def ingest_count(c, args, result):
            report = result[1]
            c["ingest.rows"] += report.rows
            c["ingest.triples"] += report.triples
            for failure in report.failures:
                c["ingest.failures." + _ingest_failure_kind(failure.reason)] += 1

        def html_count(c, args, result):
            c["docgen.html_bytes"] += len(result.encode("utf-8"))

        self.patch_function("turtle.parse", turtle.parse_turtle, parse_count)
        self.patch_function("turtle.serialize", turtle.serialize_turtle, serialize_count)
        self.patch_method(Graph, "__init__", "terms.graph_init", graph_count)
        self.patch_method(Graph, "match", "terms.match", match_count)
        self.patch_function("ontology.load", ontology.load_ontology)
        self.patch_method(OntologySchema, "instances_of", "ontology.instances_of", instances_count)
        self.patch_method(OntologySchema, "superclass_closure", "ontology.superclass_closure")
        self.patch_function("shapes.validate", shapes.validate, validate_count)
        self.patch_function("shapes.default_shapes", shapes.default_dingo_shapes)
        for fn_name in QUERY_FUNCTIONS:
            self.patch_function("queries." + fn_name, getattr(queries, fn_name))
        self.patch_function("dates.parse_partial_date", parse_partial_date)
        self.patch_function("ingest.read_records", ingest.read_csv_records)
        self.patch_function("ingest.read_records", ingest.read_json_records)
        self.patch_function("ingest.ingest_table", ingest.ingest_table, ingest_count)
        self.patch_function("docgen.extract", docgen.extract_doc_model)
        self.patch_function("docgen.render", docgen.render_html, html_count)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading -----------------------------------------------------------

    def busy_and_self(self) -> tuple:
        """Per span name: busy seconds (outermost spans) and self seconds."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        busy: Counter = Counter()
        own: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            duration = self.end[i] - self.start[i]
            if self.outer[i]:
                busy[name] += duration
            own[name] += duration - child[i]
        return busy, own

    def write_spans(self, path) -> None:
        """One line per span: id, parent id, name, start and end in microseconds."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_us\tend_us\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{(self.start[i] - origin) * 1e6:.1f}\t{(self.end[i] - origin) * 1e6:.1f}\n"
                )


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (without units) from one traced pass."""
    busy, own = tracer.busy_and_self()
    c = tracer.counts
    m: dict = {}

    def rate(amount, seconds):
        return amount / seconds if seconds else 0.0

    m["turtle.parse.calls"] = c["turtle.parse.calls"]
    m["turtle.parse.busy_s"] = busy["turtle.parse"]
    m["turtle.parse.self_s"] = own["turtle.parse"]
    m["turtle.parse.triples_per_s"] = rate(c["turtle.parse.triples"], busy["turtle.parse"])
    m["turtle.parse.chars_per_s"] = rate(c["turtle.parse.chars"], busy["turtle.parse"])
    m["turtle.serialize.calls"] = c["turtle.serialize.calls"]
    m["turtle.serialize.busy_s"] = busy["turtle.serialize"]
    m["turtle.serialize.triples_per_s"] = rate(c["turtle.serialize.triples"], busy["turtle.serialize"])
    m["terms.graph_init.calls"] = c["terms.graph_init.calls"]
    m["terms.graph_init.busy_s"] = busy["terms.graph_init"]
    m["terms.graph_init.triples"] = c["terms.graph_init.triples"]
    m["terms.match.calls"] = c["terms.match.calls"]
    m["terms.match.busy_s"] = busy["terms.match"]
    m["terms.match.results_per_call"] = rate(c["terms.match.results"], c["terms.match.calls"])
    m["ontology.load.calls"] = c["ontology.load.calls"]
    m["ontology.load.busy_s"] = busy["ontology.load"]
    m["ontology.instances_of.calls"] = c["ontology.instances_of.calls"]
    m["ontology.instances_of.busy_s"] = busy["ontology.instances_of"]
    m["ontology.instances_of.self_s"] = own["ontology.instances_of"]
    m["ontology.instances_of.instances_returned"] = c["ontology.instances_of.instances_returned"]
    m["ontology.superclass_closure.calls"] = c["ontology.superclass_closure.calls"]
    m["ontology.superclass_closure.busy_s"] = busy["ontology.superclass_closure"]
    m["shapes.validate.calls"] = c["shapes.validate.calls"]
    m["shapes.validate.busy_s"] = busy["shapes.validate"]
    m["shapes.validate.self_s"] = own["shapes.validate"]
    for code in _VIOLATION_CODES:
        m["shapes.violations." + code] = c["shapes.violations." + code]
    m["shapes.default_shapes.calls"] = c["shapes.default_shapes.calls"]
    m["shapes.default_shapes.busy_s"] = busy["shapes.default_shapes"]
    for fn_name in QUERY_FUNCTIONS:
        m[f"queries.{fn_name}.calls"] = c[f"queries.{fn_name}.calls"]
        m[f"queries.{fn_name}.busy_s"] = busy["queries." + fn_name]
    m["queries.untyped_warnings"] = c["queries.untyped_warnings"]
    m["dates.parse_partial_date.calls"] = c["dates.parse_partial_date.calls"]
    m["dates.parse_partial_date.busy_s"] = busy["dates.parse_partial_date"]
    m["ingest.read_records.busy_s"] = busy["ingest.read_records"]
    m["ingest.ingest_table.busy_s"] = busy["ingest.ingest_table"]
    m["ingest.rows"] = c["ingest.rows"]
    m["ingest.triples"] = c["ingest.triples"]
    for kind in ("date", "decimal", "empty_key"):
        m["ingest.failures." + kind] = c["ingest.failures." + kind]
    m["docgen.extract.calls"] = c["docgen.extract.calls"]
    m["docgen.extract.busy_s"] = busy["docgen.extract"]
    m["docgen.render.busy_s"] = busy["docgen.render"]
    m["docgen.html_bytes"] = c["docgen.html_bytes"]
    m["runtime.gc.collections"] = c["runtime.gc.collections"]
    m["runtime.gc.busy_s"] = c["runtime.gc.busy_s"]
    return m
