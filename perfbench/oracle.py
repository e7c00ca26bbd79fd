"""Input generation and output checking, run in a child process.

Usage::

    python3 perfbench/oracle.py generate WORKLOAD SEED DIR
    python3 perfbench/oracle.py check WORKLOAD SEED DIR

`generate` writes the seeded inputs into DIR. `check` rebuilds the same
ground-truth model from the seed, compares every output the measured process
left in DIR against it, and prints one JSON line with the number of
operations checked, the number that failed and the first few problems.

Both run outside the measured process, so the model's memory never counts
towards that process's peak RSS and checking never counts towards its time.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import corpus

BULK_TRIPLES = 100_000
BULK_ROWS = 5_000
MIX_TRIPLES = 20_000
PLAN_BLOCKS = 60  # of 1000 queries


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write the inputs and return their sizes."""
    if workload == "bulk":
        model = corpus.generate_corpus(seed, BULK_TRIPLES)
        table = corpus.generate_table(seed, BULK_ROWS)
        (out / "corpus.ttl").write_text(model.text, "utf-8")
        (out / "grants.csv").write_text(table.text, "utf-8")
        return {
            "triples": len(model.triples),
            "rows": table.rows,
            "defects": dict(model.defects) | {"csv-" + k: n for k, n in table.failures_by_reason.items()},
        }
    model = corpus.generate_corpus(seed, MIX_TRIPLES)
    (out / "corpus.ttl").write_text(model.text, "utf-8")
    (out / "plan.json").write_text(json.dumps(corpus.query_plan(seed, model, PLAN_BLOCKS)), "utf-8")
    return {"triples": len(model.triples)}


class Tally:
    """Operations checked, operations failed and the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.problems += other["problems"][: max(0, 10 - len(self.problems))]


def _check_bulk(seed: int, out: Path, problems: Tally) -> None:
    model = corpus.generate_corpus(seed, BULK_TRIPLES)
    table = corpus.generate_table(seed, BULK_ROWS)
    want_triples = corpus.blank_canonical(model.triples)
    want_ingest = corpus.blank_canonical(table.triples)
    want_code = 1 if model.violations else 0
    for job in json.loads((out / "jobs.json").read_text("utf-8")):
        name, code = job["job"], job["exit_code"]
        label = f"{name} cycle {job['cycle']}"
        try:
            if name == "convert":
                got = corpus.blank_canonical(corpus.read_canonical(Path(job["out"]).read_text("utf-8")))
                problems.record(code == 0 and got == want_triples, f"{label}: exit {code}, triples differ")
            elif name == "validate":
                report = json.loads(job["stdout"])
                got = Counter(
                    (v["focus"][1:-1], v["shape"], v["predicate"], v["code"]) for v in report["violations"]
                )
                ok = code == want_code and report["conformant"] == (not model.violations)
                problems.record(ok and got == model.violations, f"{label}: exit {code}, violations differ")
            else:
                report = json.loads(job["stderr"])
                got = corpus.blank_canonical(corpus.read_canonical(Path(job["out"]).read_text("utf-8")))
                failures = {(f["row"], f["column"]) for f in report["failures"]}
                ok = (
                    code == 0
                    and report["rows"] == table.rows
                    and report["triples"] == len(table.triples)
                    and report["skipped_cells"] == table.skipped_cells
                    and failures == table.failures
                    and got == want_ingest
                )
                problems.record(ok, f"{label}: exit {code}, report or triples differ")
        except (ValueError, KeyError, OSError) as exc:
            problems.record(False, f"{label}: unreadable output ({exc})")


def _normal(kind: str, answer):
    if kind == "scheme_ancestry":
        return list(answer)
    if kind == "participants_with_roles":
        return sorted([agent, role or "-"] for agent, role in answer)
    if kind == "check_temporal":
        return sorted(list(v) for v in answer)
    return sorted(answer)


def _check_query_mix(seed: int, out: Path, problems: Tally) -> None:
    model = corpus.generate_corpus(seed, MIX_TRIPLES)
    with open(out / "results.jsonl", encoding="utf-8") as lines:
        for line in lines:
            kind, focus, answer, warnings = json.loads(line)
            want = _normal(kind, corpus.expected_answer(model, kind, focus))
            want_warnings = 1 if corpus.expects_untyped_warning(model, kind, focus) else 0
            problems.record(
                answer == want and warnings == want_warnings,
                f"{kind}({focus}): answer or warning count differs",
            )


def check(workload: str, seed: int, out: Path) -> dict:
    tally = Tally()
    (_check_bulk if workload == "bulk" else _check_query_mix)(seed, out, tally)
    return {"attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems}


def main(argv: list) -> int:
    action, workload, seed, directory = argv
    run = generate if action == "generate" else check
    print(json.dumps(run(workload, int(seed), Path(directory))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
