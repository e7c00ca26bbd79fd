"""dingotk benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a checkout (no build step; the package is pure Python
and is imported from ``src/``)::

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 20 --trace 0

Workloads are ``bulk``, ``query-mix`` and ``cli-oneshot``; BENCHMARK.json at
the root says why each exists and names every metric with its unit. With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a separate traced pass and writes every span
to ``.perfbench-out/``. Inputs and outputs live in a temporary directory
inside the checkout that is removed at the end.

Each metric is printed on its own line, followed by the workload's own
figures (``convert_triples_per_s``, ``query_p99_ms``, ``cli_p90_ms``, ...),
and finally one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("bulk", "query-mix", "cli-oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "dingotk" / "__init__.py").is_file() or not spec_path.is_file():
        return _fail(f"{ROOT} is not a dingotk checkout (needs src/dingotk and BENCHMARK.json)")
    spec = json.loads(spec_path.read_text("utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    sys.path.insert(0, str(SRC))
    import dingotk

    if not Path(dingotk.__file__).resolve().is_relative_to(SRC):
        return _fail(f"imported dingotk from {dingotk.__file__}, not from {SRC}")
    import workloads

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT))
    try:
        run = workloads.WORKLOADS[args.workload]
        name = f"{args.workload}-seed{args.seed}"
        outcome = run(args.seed, args.seconds, tmp, bool(args.trace), name)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    unknown = set(outcome.metrics) - set(units)
    missing = set(units) - set(outcome.metrics)
    if unknown or (missing and not args.trace):
        return _fail(f"metrics not in BENCHMARK.json: {sorted(unknown)}; missing: {sorted(missing)}")
    # a layer the workload never enters reports zero
    values = {metric: outcome.metrics.get(metric, 0) for metric in units}

    for metric, value in values.items():
        print(f"{args.workload} {metric} = {value} {units[metric]}")
    for metric, (value, unit) in outcome.detail.items():
        print(f"{args.workload} detail {metric} = {json.dumps(value)} {unit}")
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{args.workload} detail failed_share = {share} ratio")
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
