"""The three workloads, each as a timed run and as a traced run.

One client drives every workload in a closed loop: the next operation starts
only when the previous one has finished, and nothing runs in parallel.
Inputs are generated and outputs checked by ``oracle.py`` in child
processes, outside the timed intervals.

Everything timed is single-threaded work that never waits on anything, so
it is timed in CPU time, user plus system: the wall time less the time a
hypervisor gives to other guests. Work inside a Python process (``import
dingotk``, parsing and loading in set-up, the ``bulk`` jobs, the
``query-mix`` queries) is timed with that process's clock; a fresh process
(the ``cli-oneshot`` invocations and their set-up) with the CPU time the
kernel reports for it when it has exited, spawn to exit. Wall times are
printed beside them.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

from corpus import QUERY_BLOCK
from oracle import Tally
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "dingotk" / "data"

SETUP_REPEATS = 9
LOAD_REPEATS = 3
TRACED_QUERIES = QUERY_BLOCK  # the plan's kind shares are exact in every whole block
MIN_INVOCATIONS = 102  # whole cycles of six, at least ten samples beyond the 90th percentile

CLI_ENTRY = "import sys; from dingotk.cli import main; sys.exit(main())"  # the console script
IMPORT_PROBE = "import time; t = time.process_time(); import dingotk; print(time.process_time() - t)"
ONTOLOGY_PROBE = (
    "import dingotk, dingotk.cli; from importlib import resources; "
    "dingotk.load_ontology(dingotk.parse_turtle("
    "resources.files('dingotk').joinpath('data/dingo.ttl').read_text('utf-8')))"
)


class Outcome(Tally):
    """What one run measured and whether its outputs were right."""

    def __init__(self) -> None:
        super().__init__()
        self.metrics: dict = {}  # end-to-end or per-layer values
        self.detail: dict = {}  # the workload's own figures: (value, unit)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, env: dict) -> subprocess.CompletedProcess:
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


def oracle(action: str, workload: str, seed: int, tmp: Path) -> dict:
    argv = [sys.executable, str(HERE / "oracle.py"), action, workload, str(seed), str(tmp)]
    return json.loads(run_child(argv, child_env()).stdout.splitlines()[-1])


def children_cpu_seconds() -> float:
    """CPU time, user plus system, of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn_seconds(code: str, repeats: int) -> list:
    """CPU times of fresh interpreters running `code`, spawn to exit."""
    env = child_env()
    times = []
    for _ in range(repeats):
        start = children_cpu_seconds()
        run_child([sys.executable, "-c", code], env)
        times.append(children_cpu_seconds() - start)
    return times


def import_seconds() -> float:
    """Median CPU time of `import dingotk` inside fresh interpreters."""
    env = child_env()
    return statistics.median(
        float(run_child([sys.executable, "-c", IMPORT_PROBE], env).stdout) for _ in range(SETUP_REPEATS)
    )


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_in_process(cli, argv: list) -> tuple:
    """(exit code, wall seconds, CPU seconds, stdout, stderr) of `dingotk.cli.run(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start, cpu = perf_counter(), process_time()
        try:
            code = cli.run(argv)
        except Exception as exc:  # a crash is a failed operation, reported with the run
            code = f"raised {type(exc).__name__}: {exc}"
        cpu, elapsed = process_time() - cpu, perf_counter() - start
    return code, elapsed, cpu, out.getvalue(), err.getvalue()


def finish_trace(outcome: Outcome, tracer: Tracer, untraced_s: float, traced_s: float, name: str) -> None:
    outcome.metrics.update(layer_metrics(tracer))
    outcome.metrics["trace.untraced_s"] = untraced_s
    outcome.metrics["trace.traced_s"] = traced_s
    outcome.metrics["trace.overhead_s"] = traced_s - untraced_s
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{name}.tsv.gz")


# ---------------------------------------------------------------------------
# bulk: convert, validate and ingest jobs through dingotk.cli.run
# ---------------------------------------------------------------------------

BULK_JOBS = ("convert", "validate", "ingest")
INGEST_REPEATS = 5  # ingest takes a seventh as long as the other jobs; a median over repeats steadies it


def _bulk_argv(job: str, tmp: Path, tag: str) -> tuple:
    corpus_path = str(tmp / "corpus.ttl")
    if job == "convert":
        out = tmp / f"convert-{tag}.ttl"
        return ["convert", corpus_path, "--out", str(out)], out
    if job == "validate":
        return ["validate", corpus_path, "--format", "json"], None
    out = tmp / f"ingest-{tag}.ttl"
    mapping = str(DATA / "example_grants.mapping")
    return ["ingest", str(tmp / "grants.csv"), "--mapping", mapping, "--out", str(out), "--format", "json"], out


def _bulk_cycle(cli, tmp: Path, tag: str, jobs: list, times: dict, walls: dict, ingest_repeats: int = 1) -> tuple:
    """Run each job once, `ingest` `ingest_repeats` times; return their summed wall and CPU times."""
    total = total_cpu = 0.0
    for job in BULK_JOBS:
        for repeat in range(ingest_repeats if job == "ingest" else 1):
            run_tag = f"{tag}-{repeat}"
            argv, out = _bulk_argv(job, tmp, run_tag)
            code, elapsed, cpu, stdout, stderr = run_in_process(cli, argv)
            times[job].append(cpu)
            walls[job].append(elapsed)
            total += elapsed
            total_cpu += cpu
            jobs.append({
                "job": job,
                "cycle": run_tag,
                "exit_code": code,
                "stdout": stdout if job == "validate" else "",
                "stderr": stderr if job == "ingest" else "",
                "out": str(out) if out else None,
            })
    return total, total_cpu


def bulk(seed: int, seconds: float, tmp: Path, trace: bool, name: str) -> Outcome:
    sizes = oracle("generate", "bulk", seed, tmp)
    outcome = Outcome()
    setup = import_seconds()
    import dingotk.cli as cli

    jobs: list = []
    times: dict = {job: [] for job in BULK_JOBS}  # CPU seconds
    walls: dict = {job: [] for job in BULK_JOBS}
    if trace:
        discard = {job: [] for job in BULK_JOBS}
        _bulk_cycle(cli, tmp, "warm-up", jobs, discard, discard)  # the first cycle also grows the heap
        _, untraced = _bulk_cycle(cli, tmp, "untraced", jobs, times, walls)
        tracer = Tracer()
        tracer.install()
        try:
            _, traced = _bulk_cycle(cli, tmp, "traced", jobs, discard, discard)
        finally:
            tracer.uninstall()
        finish_trace(outcome, tracer, untraced, traced, name)
    else:
        # whole cycles that fit in `seconds`, at least one
        spent = 0.0
        cycle = 0
        while cycle == 0 or spent + spent / cycle <= seconds:
            spent += _bulk_cycle(cli, tmp, str(cycle), jobs, times, walls, INGEST_REPEATS)[0]
            cycle += 1
    rss = peak_rss_mb()
    (tmp / "jobs.json").write_text(json.dumps(jobs), "utf-8")
    outcome.merge(oracle("check", "bulk", seed, tmp))

    job_s = {job: statistics.median(t) for job, t in times.items()}
    rates = {
        "convert": sizes["triples"] / job_s["convert"],
        "validate": sizes["triples"] / job_s["validate"],
        "ingest": sizes["rows"] / job_s["ingest"],
    }
    outcome.detail = {
        "setup_s": (setup, "s"),
        "convert_triples_per_s": (rates["convert"], "triples/s"),
        "validate_triples_per_s": (rates["validate"], "triples/s"),
        "ingest_rows_per_s": (rates["ingest"], "rows/s"),
        "peak_rss_mb": (rss, "MiB"),
        "corpus_triples": (sizes["triples"], "count"),
        "csv_rows": (sizes["rows"], "count"),
        "cycles": (len(times["convert"]), "count"),
        "job_cpu_s": ({job: round(statistics.median(t), 4) for job, t in times.items()}, "s"),
        "job_wall_s": ({job: round(statistics.median(t), 4) for job, t in walls.items()}, "s"),
        "injected_defects": (sizes["defects"], "count"),
    }
    if not trace:
        outcome.metrics = {
            "setup_s": setup,
            "p50_ms": statistics.median(job_s.values()) * 1000,
            "tail_ms": max(job_s.values()) * 1000,
            "work_per_s": math.exp(statistics.fmean(math.log(r) for r in rates.values())),
            "peak_rss_mb": rss,
        }
    return outcome


# ---------------------------------------------------------------------------
# query-mix: one loaded graph, many seeded funding queries
# ---------------------------------------------------------------------------


def _query_calls(queries, data, schema) -> dict:
    # the schema goes wherever `dingotk query` passes it
    return {
        "beneficiaries_of": lambda n: queries.beneficiaries_of(data, n),
        "criteria_for_scheme": lambda n: queries.criteria_for_scheme(data, n, True),
        "scheme_ancestry": lambda n: queries.scheme_ancestry(data, n),
        "participants_with_roles": lambda n: queries.participants_with_roles(data, schema, n),
        "grants_funding_project": lambda n: queries.grants_funding_project(data, schema, n),
        "projects_funded_by": lambda n: queries.projects_funded_by(data, schema, n),
        "non_beneficiary_participants": lambda n: queries.non_beneficiary_participants(data, schema, n),
        "check_temporal": lambda n: queries.check_temporal(data),
    }


def _normal(kind: str, result) -> list:
    if kind == "scheme_ancestry":
        return [t.value for t in result]
    if kind == "participants_with_roles":
        return sorted([p.agent.value, p.role.value if p.role else "-"] for p in result)
    if kind == "check_temporal":
        return sorted(
            [v.node.value, v.property_pair[0].value, v.property_pair[1].value, v.start_value, v.end_value, v.code]
            for v in result
        )
    return sorted(t.value for t in result)


def _run_queries(plan, nodes, calls, warning_type, sink, count=None, seconds=None, first=0) -> tuple:
    """Run the plan in order from query `first`: `count` queries, or whole blocks for `seconds`.

    One block is enough for ten samples beyond the 99th percentile. Each
    answer goes to `sink` as a JSON line as soon as it is timed, so memory
    does not grow with the number of queries. Returns the latencies and the
    number of warnings raised.
    """
    latencies: list = []
    warned = 0
    start = perf_counter()
    i = 0
    while (i < count) if seconds is None else (i == 0 or i % QUERY_BLOCK or perf_counter() - start < seconds):
        kind, focus = plan[(first + i) % len(plan)]
        call = calls[kind]
        node = nodes[focus]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", warning_type)
            began = process_time()
            try:
                result = call(node)
            except Exception as exc:  # a crash is a failed operation, reported with the run
                result = exc
            latencies.append(process_time() - began)
        answer = repr(result) if isinstance(result, Exception) else _normal(kind, result)
        sink.write(json.dumps([kind, focus, answer, len(caught)]) + "\n")
        warned += len(caught)
        i += 1
    return latencies, warned


def _percentile_kind(executed, latencies, q: float) -> dict:
    """Kinds of the samples ranked within one percent of quantile `q`."""
    order = sorted(range(len(latencies)), key=latencies.__getitem__)
    n = len(order)
    lo, hi = max(0, int(n * (q - 0.01))), min(n, int(n * (q + 0.01)) + 1)
    return dict(Counter(executed[order[r]][0] for r in range(lo, hi)).most_common())


def query_mix(seed: int, seconds: float, tmp: Path, trace: bool, name: str) -> Outcome:
    sizes = oracle("generate", "query-mix", seed, tmp)
    outcome = Outcome()
    text = (tmp / "corpus.ttl").read_text("utf-8")
    imported = import_seconds()
    import dingotk
    from dingotk import queries
    from dingotk.queries import UntypedNodeWarning
    from dingotk.terms import IRI

    tracer = Tracer()
    if trace:
        tracer.install()
    loads = []
    for _ in range(1 if trace else LOAD_REPEATS):
        # every repeat starts from the heap the first one saw, so the
        # collector does the same work in each
        data = schema = None
        gc.collect()
        start = process_time()
        data = dingotk.parse_turtle(text)
        schema = dingotk.load_ontology(dingotk.parse_turtle((DATA / "dingo.ttl").read_text("utf-8")))
        loads.append(process_time() - start)
    if trace:
        tracer.uninstall()
    setup = imported + statistics.median(loads)
    plan = json.loads((tmp / "plan.json").read_text("utf-8"))

    nodes = {focus: IRI(focus) if focus else None for _, focus in plan}
    calls = _query_calls(queries, data, schema)
    run = functools.partial(_run_queries, plan, nodes, calls, UntypedNodeWarning)
    gc.collect()
    first = 0
    with open(tmp / "results.jsonl", "w", encoding="utf-8") as sink:
        if trace:
            start = process_time()
            latencies, _ = run(sink, count=TRACED_QUERIES)
            untraced = process_time() - start
            tracer.install()
            try:
                start = process_time()
                _, warned = run(sink, count=TRACED_QUERIES)
                traced = process_time() - start
            finally:
                tracer.uninstall()
            tracer.counts["queries.untyped_warnings"] = warned
            finish_trace(outcome, tracer, untraced, traced, name)
        else:
            # the first block warms the interpreter and any cache before timing starts
            run(sink, count=QUERY_BLOCK)
            first = QUERY_BLOCK
            latencies, _ = run(sink, seconds=seconds, first=first)
    rss = peak_rss_mb()
    outcome.merge(oracle("check", "query-mix", seed, tmp))

    n = len(latencies)
    executed = [tuple(plan[(first + i) % len(plan)]) for i in range(n)]
    keyed = [key for key in executed if key[1] is not None]
    repeated = len(keyed) - len(set(keyed))
    p50 = statistics.median(latencies) * 1000
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1000
    qps = n / sum(latencies)
    by_kind: dict = {}
    for (kind, _), latency in zip(executed, latencies):
        by_kind.setdefault(kind, []).append(latency)
    outcome.detail = {
        "setup_s": (setup, "s"),
        "query_p50_ms": (p50, "ms"),
        "query_p99_ms": (p99, "ms"),
        "queries_per_s": (qps, "1/s"),
        "query_samples": (n, "count"),
        "samples_beyond_p99": (sum(1 for x in latencies if x * 1000 > p99), "count"),
        "repeated_focus_share": (repeated / len(keyed), "ratio"),
        "peak_rss_mb": (rss, "MiB"),
        "corpus_triples": (sizes["triples"], "count"),
        "kind_p50_ms": ({k: round(statistics.median(v) * 1000, 4) for k, v in by_kind.items()}, "ms"),
        "kinds_at_p50": (_percentile_kind(executed, latencies, 0.50), "count"),
        "kinds_at_p99": (_percentile_kind(executed, latencies, 0.99), "count"),
    }
    if not trace:
        outcome.metrics = {
            "setup_s": setup,
            "p50_ms": p50,
            "tail_ms": p99,
            "work_per_s": qps,
            "peak_rss_mb": rss,
        }
    return outcome


# ---------------------------------------------------------------------------
# cli-oneshot: fresh `dingotk` processes on the bundled data
# ---------------------------------------------------------------------------

_EXAMPLE = str(DATA / "example_instances.ttl")
_QSENSE_GRANTS = ["<http://example.org/data/grant-801001>", "<http://example.org/data/grant-801002>"]
ONESHOT_COMMANDS = (
    ("stats", ["stats"]),
    ("validate", ["validate", _EXAMPLE]),
    ("query", ["query", "grants-of", _EXAMPLE, "--node", "http://example.org/data/project-qsense"]),
    ("ingest", ["ingest", str(DATA / "example_grants.csv"), "--mapping", str(DATA / "example_grants.mapping")]),
    ("convert", ["convert", _EXAMPLE]),
    ("docgen", ["docgen"]),
)


def oneshot_output_ok(command: str, code, stdout: str, stderr: str) -> bool:
    """Facts the README and the bundled example state about each command."""
    if code != 0:
        return False
    if command == "stats":
        return stdout.startswith("classes: 40, properties: 68\n")
    if command == "validate":
        return stdout == "conformant\n"
    if command == "query":
        return stdout.splitlines() == _QSENSE_GRANTS
    if command == "ingest":
        return "conversion failures: 0" in stderr.splitlines()
    if command == "convert":
        return "ex:project-qsense a dingo:ResearchProject ;" in stdout.splitlines()
    ids = re.findall(r'id="([^"]+)"', stdout)
    entries = [i for i in ids if i.startswith(("class-", "prop-"))]
    dangling = set(re.findall(r'href="#([^"]+)"', stdout)) - set(ids)
    return len(entries) == 108 and len(ids) == len(set(ids)) and not dangling


def _importtime_ms() -> dict:
    """Median self time per dingotk module under `-X importtime`, plus the rest."""
    samples: dict = {}
    env = child_env()
    for _ in range(3):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import dingotk.cli"], env)
        own: Counter = Counter()
        total = 0.0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
            if not m or not m.group(4).startswith("dingotk"):
                continue
            own[m.group(4)] += int(m.group(1)) / 1000
            if len(m.group(3)) == 1:  # a top-level import of the probe
                total += int(m.group(2)) / 1000
        sample = {"package" if name == "dingotk" else name[len("dingotk."):]: v for name, v in own.items()}
        sample["other"] = total - sum(own.values())
        for key, value in sample.items():
            samples.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in samples.items()}


def cli_oneshot(seed: int, seconds: float, tmp: Path, trace: bool, name: str) -> Outcome:
    outcome = Outcome()
    if trace:
        return _cli_traced(outcome, name)
    setup = statistics.median(spawn_seconds(ONTOLOGY_PROBE, SETUP_REPEATS))
    env = child_env()
    times: list = []  # CPU seconds
    walls: list = []
    by_command: dict = {}
    start = perf_counter()
    n = 0
    while n < MIN_INVOCATIONS or n % len(ONESHOT_COMMANDS) or perf_counter() - start < seconds:
        command, args = ONESHOT_COMMANDS[n % len(ONESHOT_COMMANDS)]
        argv = [sys.executable, "-c", CLI_ENTRY, *args]
        began, cpu = perf_counter(), children_cpu_seconds()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=60)
        cpu, wall = children_cpu_seconds() - cpu, perf_counter() - began
        times.append(cpu)
        walls.append(wall)
        by_command.setdefault(command, []).append(cpu)
        outcome.record(oneshot_output_ok(command, proc.returncode, proc.stdout, proc.stderr),
                      f"{command}: exit {proc.returncode} or output differs from the documented facts")
        n += 1
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    p50 = statistics.median(times) * 1000
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] * 1000
    outcome.detail = {
        "cli_p50_ms": (p50, "ms"),
        "cli_p90_ms": (p90, "ms"),
        "cli_wall_p50_ms": (statistics.median(walls) * 1000, "ms"),
        "cli_wall_p90_ms": (statistics.quantiles(walls, n=10, method="inclusive")[8] * 1000, "ms"),
        "invocations": (n, "count"),
        "command_p50_ms": ({k: round(statistics.median(v) * 1000, 3) for k, v in by_command.items()}, "ms"),
        "peak_rss_mb": (rss, "MiB"),
    }
    outcome.metrics = {
        "setup_s": setup,
        "p50_ms": p50,
        "tail_ms": p90,
        "work_per_s": n / sum(times),
        "peak_rss_mb": rss,
    }
    return outcome


def _oneshot_cycle(cli, outcome: Outcome, run_ms: dict) -> float:
    total = 0.0
    for command, args in ONESHOT_COMMANDS:
        code, _, cpu, stdout, stderr = run_in_process(cli, list(args))
        run_ms[command] = cpu * 1000
        total += cpu
        outcome.record(oneshot_output_ok(command, code, stdout, stderr),
                      f"in-process {command}: exit {code} or output differs from the documented facts")
    return total


def _cli_traced(outcome: Outcome, name: str) -> Outcome:
    interpreter = statistics.median(spawn_seconds("pass", SETUP_REPEATS)) * 1000
    imported = statistics.median(spawn_seconds("import dingotk", SETUP_REPEATS)) * 1000
    outcome.metrics["cli.interpreter_ms"] = interpreter
    outcome.metrics["cli.import_ms"] = imported - interpreter
    for module, ms in _importtime_ms().items():
        outcome.metrics[f"cli.import_ms.{module}"] = ms
    import dingotk.cli as cli

    _oneshot_cycle(cli, Outcome(), {})  # first calls in the process: lazy set-up, caches
    run_ms: dict = {}
    untraced = _oneshot_cycle(cli, outcome, run_ms)
    for command, ms in run_ms.items():
        outcome.metrics[f"cli.run_ms.{command}"] = ms
    tracer = Tracer()
    tracer.install()
    try:
        traced = _oneshot_cycle(cli, outcome, {})
    finally:
        tracer.uninstall()
    finish_trace(outcome, tracer, untraced, traced, name)
    outcome.detail = {"in_process_cycle_s": (untraced, "s")}
    return outcome


WORKLOADS = {"bulk": bulk, "query-mix": query_mix, "cli-oneshot": cli_oneshot}
