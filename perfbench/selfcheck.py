"""Determinism self-check of the benchmark.

Two untraced runs with the same seed must report identical work counts
on every workload: DB reads, rows scanned, writes, WAL and journal
appends and fsyncs, broker sends and ``check_workflow`` calls.  On
``lifecycle`` a second seed must give identical counts as well, which
shows that the seed never changes the amount of work (``browse_insert``
shuffles its technician mix by seed, which may move a read before or
after an insert).

Usage (from the repository root)::

    python3 perfbench/selfcheck.py [--seconds 2] [--seed 11] [--other-seed 12]

Exits 0 when every comparison holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
SEED_INDEPENDENT = ("lifecycle",)
WORKLOADS = ("lifecycle", "browse_insert")


def counts(workload: str, seed: int, seconds: int) -> dict[str, int]:
    """Work counts of one untraced run (raises if the run fails)."""
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    for line in completed.stdout.splitlines():
        if line.startswith("perfbench counts "):
            return json.loads(line[len("perfbench counts "):])
    raise RuntimeError(f"{workload} seed {seed} printed no counts")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--other-seed", type=int, default=12)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        first = counts(workload, args.seed, args.seconds)
        pairs = [(f"seed {args.seed} again", counts(workload, args.seed, args.seconds))]
        if workload in SEED_INDEPENDENT:
            pairs.append(
                (f"seed {args.other_seed}", counts(workload, args.other_seed, args.seconds))
            )
        for label, other in pairs:
            differing = {
                key: (first.get(key), other.get(key))
                for key in sorted(set(first) | set(other))
                if first.get(key) != other.get(key)
            }
            verdict = "identical" if not differing else f"DIFFER {differing}"
            print(f"{workload:14s} seed {args.seed} vs {label}: {verdict}")
            ok = ok and not differing
        print(f"{workload:14s} counts {json.dumps(first, sort_keys=True)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
