"""Run-to-run spread of the end-to-end metrics.

Runs each workload once per seed, untraced, and reports for every
end-to-end metric the median and the spread (Q3 - Q1) / median of its
values, with quartiles from ``statistics.quantiles(values, n=4)``.
With ``--sets 2`` it repeats the whole set, reports each set's spread
and how far the second set's median moved in the metric's worse
direction, as a share of the first set's median.  Bounds are read from
BENCHMARK.json; a spread above a third of its bound is flagged
``wide``, a spread (except setup_s's) or a drift above the bound
``FAIL``/``DRIFT``.

Usage (from the repository root)::

    python3 perfbench/stability.py --workloads lifecycle,browse_insert \\
        --seeds 1-10 [--seconds 30] [--sets 2] [--out stability.json]

Workloads are interleaved within each seed so that host drift spreads
over every workload alike.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent


def one_run(workload: str, seed: int, seconds: int) -> dict[str, float]:
    """End-to-end metric values of one untraced run, plus the host's
    speed probe before and after it (``host.speed_probe_*_ms``)."""
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            f"{completed.stderr[-2000:]}"
        )
    lines = completed.stdout.strip().splitlines()
    values = {
        name: entry["value"]
        for name, entry in json.loads(lines[-1])["metrics"].items()
    }
    for line in lines:
        if line.startswith("perfbench host "):
            fingerprint = json.loads(line[len("perfbench host "):])
            for key in ("speed_probe_before_ms", "speed_probe_after_ms"):
                values[f"host.{key}"] = fingerprint[key]
    return values


def spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median)."""
    median = statistics.median(values)
    q1, __, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="lifecycle,browse_insert")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {entry["name"]: entry for entry in spec["end_to_end"]}
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    values: dict[tuple[int, str], dict[str, list[float]]] = {}
    for number in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                measured = one_run(workload, seed, seconds)
                bucket = values.setdefault((number, workload), {})
                for name, value in measured.items():
                    bucket.setdefault(name, []).append(value)
                print(f"set {number + 1} seed {seed} {workload} done", flush=True)

    report = {
        workload: {
            key: {
                f"set{number + 1}": values[(number, workload)][key]
                for number in range(args.sets)
            }
            for key in ("host.speed_probe_before_ms", "host.speed_probe_after_ms")
        }
        for workload in workloads
    }
    ok = True
    for workload in workloads:
        print(f"\n{workload}  ({len(seeds)} seeds, --seconds {seconds})")
        print(f"  {'metric':22s} {'median':>12s} {'spread per set':>16s} {'bound':>6s}"
              + ("  2nd-set drift" if args.sets > 1 else ""))
        for name, entry in metrics.items():
            median, __ = spread(values[(0, workload)][name])
            widths = [
                spread(values[(number, workload)][name])[1]
                for number in range(args.sets)
            ]
            line = (
                f"  {name:22s} {median:12.4f} "
                f"{' '.join(f'{w:.4f}' for w in widths):>16s} {entry['bound']:6.2f}"
            )
            flag = ""
            if name != "setup_s" and max(widths) > entry["bound"]:
                flag, ok = " FAIL", False
            elif max(widths) > entry["bound"] / 3:
                flag = " wide"
            drift = None
            if args.sets > 1:
                second = statistics.median(values[(1, workload)][name])
                sign = 1 if entry["better"] == "lower" else -1
                drift = sign * (second - median) / median if median else 0.0
                line += f"  {drift:+.4f}"
                if drift > entry["bound"]:
                    flag, ok = flag + " DRIFT", False
            print(line + flag)
            report.setdefault(workload, {})[name] = {
                "median": median, "spreads": widths, "drift": drift,
                "values": {
                    f"set{number + 1}": values[(number, workload)][name]
                    for number in range(args.sets)
                },
            }
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
