"""Run one workload of the repository benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lifecycle --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed.  A run repeats the same unit of work several times (see
harness.py); each timing metric is computed per repeat and the run
reports the best repeat's value, so that a stretch in which the host
runs slow does not move the result unless it covers the whole run.
``--trace 1`` is a separate run of the same work that wraps each
layer's entry points (see spans.py) and reports the per-layer metrics;
its spans are written to ``perfbench/.work/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import host
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

#: (name, unit) of the end-to-end metrics, reported with --trace 0.
END_TO_END = [
    ("workflows_per_s", "1/s"),
    ("turnaround_p50_ms", "ms"),
    ("turnaround_p90_ms", "ms"),
    ("start_p50_ms", "ms"),
    ("start_p90_ms", "ms"),
    ("browse_p50_ms", "ms"),
    ("browse_p90_ms", "ms"),
    ("insert_p50_ms", "ms"),
    ("db_reads_per_start", "count"),
    ("fsyncs_per_workflow", "count"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Per-layer metrics whose value is the mean ms per call of one span
#: name (``self`` = minus the time covered by child spans).
SPAN_METRICS = [
    ("weblims.request_self_ms", "weblims.request", "self_ms"),
    ("filter.readiness_ms", "filter.readiness", "ms"),
    ("filter.preprocess_ms", "filter.preprocess", "ms"),
    ("engine.start_self_ms", "engine.start", "self_ms"),
    ("engine.check_workflow_ms", "engine.check_workflow", "ms"),
    ("engine.complete_instance_ms", "engine.complete_instance", "ms"),
    ("engine.on_data_change_ms", "engine.on_data_change", "ms"),
    ("agents.dispatch_ms", "agents.dispatch", "ms"),
    ("agents.pump_ms", "agents.pump", "ms"),
    ("agents.step_ms", "agents.step", "ms"),
    ("xmlbridge.translate_ms", "xmlbridge.translate", "ms"),
    ("messaging.send_ms", "messaging.send", "ms"),
    ("messaging.receive_ms", "messaging.receive", "ms"),
    ("messaging.ack_ms", "messaging.ack", "ms"),
    ("minidb.read_ms", "minidb.read", "ms"),
    ("minidb.write_ms", "minidb.write", "ms"),
    ("seglog.fsync_ms", "seglog.fsync", "ms"),
]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(run) -> dict[str, tuple[float, int]]:
    """(value, sample count) of every end-to-end metric.

    A timing is the best value over the run's untraced repeats (the
    lowest latency, the highest throughput); its sample count is that
    of all repeats together.  Counts are pooled over the whole run.
    """
    repeats = run.untraced()
    completed = run.phase(False)[0] + run.phase(True)[0]
    totals = run.totals

    def best(field: str, statistic) -> tuple[float, int]:
        values = [statistic(getattr(samples, field)) for samples in repeats]
        count = sum(len(getattr(samples, field)) for samples in repeats)
        return min(values), count

    return {
        "workflows_per_s": (
            max(_ratio(samples.completed, samples.phase_s) for samples in repeats),
            sum(samples.completed for samples in repeats),
        ),
        "turnaround_p50_ms": best("turnaround_ms", _p50),
        "turnaround_p90_ms": best("turnaround_ms", _p90),
        "start_p50_ms": best("start_ms", _p50),
        "start_p90_ms": best("start_ms", _p90),
        "browse_p50_ms": best("browse_ms", _p50),
        "browse_p90_ms": best("browse_ms", _p90),
        "insert_p50_ms": best("insert_ms", _p50),
        "db_reads_per_start": (_ratio(run.at_start["reads"], run.starts), run.starts),
        "fsyncs_per_workflow": (
            _ratio(totals["wal_fsyncs"] + totals["journal_fsyncs"], completed),
            completed,
        ),
        "setup_s": (_p50(run.setup_s), len(run.setup_s)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
    }


def per_layer(run, summary, coverage: float) -> dict[str, tuple[float, str]]:
    """(value, unit) of every per-layer metric of a traced run.

    Times come from the traced segments' spans; counts are exact and
    come from every segment of the run.
    """
    traced_completed, traced_s = run.phase(True)
    untraced_completed, untraced_s = run.phase(False)
    completed = traced_completed + untraced_completed
    totals, at_start = run.totals, run.at_start
    out: dict[str, tuple[float, str]] = {}
    for metric, span, field in SPAN_METRICS:
        entry = summary.get(span, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        out[metric] = (_ratio(entry[field], entry["calls"]), "ms")
    appends = totals["wal_appends"] + totals["journal_appends"]
    fsyncs = totals["wal_fsyncs"] + totals["journal_fsyncs"]
    counts = {
        "engine.checks_per_workflow": _ratio(totals["checks"], completed),
        "engine.checks_per_insert": _ratio(run.at_insert["checks"], run.inserts),
        "messaging.sends_per_workflow": _ratio(totals["sends"], completed),
        "messaging.redelivery_ratio": _ratio(
            totals["redeliveries"], totals["deliveries"]
        ),
        "minidb.rows_scanned_per_start": _ratio(at_start["rows_scanned"], run.starts),
        "minidb.full_scans_per_start": _ratio(at_start["full_scans"], run.starts),
        "minidb.reads_per_workflow": _ratio(totals["reads"], completed),
        "minidb.writes_per_workflow": _ratio(totals["writes"], completed),
        "minidb.live_versions_peak": float(run.live_versions_peak),
        "seglog.fsyncs_per_start": _ratio(
            at_start["wal_fsyncs"] + at_start["journal_fsyncs"], run.starts
        ),
        "seglog.appends_per_workflow": _ratio(appends, completed),
        "seglog.appends_per_fsync": _ratio(appends, fsyncs),
        "obs.audit_rows_per_workflow": _ratio(totals["audit_rows"], completed),
    }
    for metric, value in counts.items():
        unit = "ratio" if metric.endswith("ratio") else "count"
        out[metric] = (value, unit)
    hits = totals["plan_cache_hits"]
    out["minidb.plan_cache_hit_ratio"] = (
        _ratio(hits, hits + totals["plan_cache_misses"]), "ratio"
    )
    out["trace.coverage"] = (coverage, "ratio")
    out["trace.overhead_ratio"] = (
        _ratio(
            _ratio(traced_completed, traced_s),
            _ratio(untraced_completed, untraced_s),
        ),
        "ratio",
    )
    for layer in LAYERS:
        self_ms = sum(
            entry["self_ms"]
            for name, entry in summary.items()
            if name.split(".")[0] == layer
        )
        out[f"{layer}.self_ms_per_workflow"] = (
            _ratio(self_ms, traced_completed), "ms"
        )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=["lifecycle", "browse_insert"],
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {source}", file=sys.stderr)
        return 2

    import harness

    workload = harness.WORKLOADS[args.workload]
    trace = bool(args.trace)
    segments = harness.plan(args.workload, args.seconds, args.seed, trace)
    run_dir = WORK / f"run-{args.workload}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    run = harness.Run()
    tracer = Tracer()
    try:
        fingerprint = host.fingerprint(run_dir)
        with host.null_fsync():
            for index, segment in enumerate(segments):
                harness.run_segment(
                    segment, run_dir / f"segment-{index:02d}", run, tracer
                )
        fingerprint["speed_probe_after_ms"] = host.speed_probe_ms()
    except Exception:  # the program failed: report it, print no result
        traceback.print_exc()
        print("perfbench: run aborted", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    e2e = end_to_end(run)
    repeats = len(run.untraced())
    header = (
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} segments={len(segments)} repeats={repeats} "
        f"fsync=null band={workload.band}"
    )
    print(header)
    print("perfbench host " + json.dumps(fingerprint, sort_keys=True))
    print("perfbench counts " + json.dumps(dict(sorted(run.totals.items()))))
    units = dict(END_TO_END)
    for name, (value, samples) in e2e.items():
        print(f"  {name:22s} {value:12.4f} {units[name]:5s} (n={samples})")
    print(f"  setup_total_s          {sum(run.setup_s):12.4f} s")
    if trace:
        metrics = per_layer(run, *tracer.summary())
        for name, (value, unit) in metrics.items():
            print(f"  {name:34s} {value:12.5f} {unit}")
        tracer.write(WORK / f"spans-{args.workload}.csv")
    else:
        metrics = {name: (e2e[name][0], unit) for name, unit in END_TO_END}
    for failure in run.failures[:20]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = WORK / "results"
    record.mkdir(parents=True, exist_ok=True)
    (record / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "header": header,
                "host": fingerprint,
                "counts": dict(run.totals),
                "samples": {name: samples for name, (__, samples) in e2e.items()},
                "failures": run.failures,
                "result": result,
            },
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
