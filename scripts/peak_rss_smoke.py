"""Peak-memory smoke: `convert` and `validate` peak no higher than the parse.

Writes the seeded synthetic corpus of perfbench/corpus.py (10^5 triples by
default) to a temporary directory, then runs three child processes on it:
one that imports the CLI and only parses it, `dingotk convert --out` and
`dingotk validate`. Each child's peak resident size is its own ru_maxrss,
read with wait4. The check fails when either command peaks more than
ALLOW_MIB above the parse. Run it from the root of a checkout:

    python3 scripts/peak_rss_smoke.py [--seed 1] [--triples 100000]

This process stays small and starts every child the same way, so whatever
a child inherits in its peak from this one is the same for all three.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW_MIB = 2.0  # how far either command may peak above the parse

WRITE_CORPUS = (
    "import sys; sys.path.insert(0, sys.argv[1]); import corpus; "
    "open(sys.argv[4], 'w', encoding='utf-8')"
    ".write(corpus.generate_corpus(int(sys.argv[2]), int(sys.argv[3])).text)"
)
# imports the CLI, as the commands do before they parse, so start-up costs
# the same on both sides of the comparison
PARSE_ONLY = (
    "import sys, dingotk.cli; from dingotk.turtle import parse_turtle; "
    "parse_turtle(open(sys.argv[1], encoding='utf-8').read())"
)


def peak_mib(argv: list, env: dict) -> float:
    """Run argv to its end; its own peak resident size in MiB."""
    child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode not in (0, 1):  # validate exits 1 on a nonconformant corpus
        sys.exit(f"exit {child.returncode}: {argv}")
    return usage.ru_maxrss / 1024.0  # Linux reports KiB


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--triples", type=int, default=100_000)
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        corpus = str(Path(tmp) / "corpus.ttl")
        subprocess.run(
            [sys.executable, "-c", WRITE_CORPUS, str(ROOT / "perfbench"), str(args.seed), str(args.triples), corpus],
            check=True,
        )
        cli = [sys.executable, "-m", "dingotk.cli"]
        parse = peak_mib([sys.executable, "-c", PARSE_ONLY, corpus], env)
        print(f"parse only: {parse:.1f} MiB")
        failed = False
        for argv in (["convert", corpus, "--out", str(Path(tmp) / "out.ttl")], ["validate", corpus]):
            peak = peak_mib([*cli, *argv], env)
            over = peak - parse
            failed |= over > ALLOW_MIB
            print(f"{argv[0]}: {peak:.1f} MiB ({over:+.1f} MiB over the parse)")
    if failed:
        print(f"a command peaked more than {ALLOW_MIB} MiB above the parse", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
