"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload leaderboard --seed 2015 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` measures untraced passes first, then the same
number of seconds of passes with the layer wrappers installed, and prints the
per-layer table plus the tracing overhead (traced minus untraced pass time).
Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from layer_trace import TRACE_POINTS, LayerTracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

DEFAULT_SEED = 2015
"""The seed claims are made on (the scenario registry's default seed)."""

HELD_OUT_SEED = 7
"""The held-out seed a claim must also hold on; never tune against it."""

GENERATOR_THREADS = 1
"""Threads driving fleet traffic (never more than the CPUs available)."""

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "stpp_accuracy": "fraction",
    "final_latency_ms_p50": "ms",
    "final_latency_ms_p90": "ms",
    "ok_fraction": "fraction",
}
"""The end-to-end metrics (BENCHMARK.json adds their bounds)."""


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def host_stamp(workers: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "workers": workers,
        "generator_threads": GENERATOR_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def measure(workload, seconds: float, min_passes: int) -> list:
    """Timed passes until ``seconds`` have passed and ``min_passes`` ran."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        if time.perf_counter() - started >= seconds and len(passes) >= min_passes:
            return passes


def final_latencies(passes: list) -> list[float]:
    """Each sweep's or portal's final latency: its median over the passes.

    Every pass replays the same sweeps or portals, so a pass measures each
    of them once more.  The median drops the passes the host slowed down,
    and the percentiles are then taken over sweeps or portals, not over
    noisy single measurements.
    """
    samples: dict = {}
    for p in passes:
        for key, latency in p.final_latency_s.items():
            samples.setdefault(key, []).append(latency)
    return [_median(values) for values in samples.values()]


def end_to_end_metrics(setup_times: list[float], passes: list) -> dict[str, float]:
    finals = final_latencies(passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "setup_s": _median(setup_times),
        "pass_s": _median([p.cpu_s for p in passes]),
        "stpp_accuracy": _median([p.accuracy for p in passes]),
        "final_latency_ms_p50": _percentile(finals, 50) * 1e3,
        "final_latency_ms_p90": _percentile(finals, 90) * 1e3,
        "ok_fraction": 1.0 - failed / attempted,
    }


def print_end_to_end(metrics: dict[str, float], passes: list) -> None:
    finals = final_latencies(passes)
    provisional = [latency for p in passes for latency in p.provisional_latency_s]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"end-to-end ({len(passes)} passes, {len(finals)} sweeps or portals timed):")
    for name, value in metrics.items():
        print(f"  {name:24s} {value:14.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_fraction':24s} {failed / attempted:14.6g} ({failed}/{attempted})")
    wall = _median([p.wall_s for p in passes])
    print(f"  {'pass_wall_s':24s} {wall:14.6g} s")
    reads = sum(p.reads for p in passes)
    if reads:
        cpu = sum(p.cpu_s for p in passes)
        print(f"  {'reads_per_s':24s} {reads / cpu:14.6g} 1/s")
    if provisional:
        for q in (50, 90):
            value = _percentile(provisional, q) * 1e3
            print(f"  {f'provisional_ms_p{q}':24s} {value:14.6g} ms")
        print(f"  ({len(provisional)} provisional samples)")


COUNTERS = (
    "service.restarts",
    "service.retries",
    "service.ProfileCacheRegistry.hits",
    "service.ProfileCacheRegistry.builds",
    "faults.injected",
    "faults.transient_injected",
)
"""Program counters the workloads read after each pass."""

OVERHEAD = (
    "perfbench.pass.untraced_s",
    "perfbench.pass.traced_s",
    "perfbench.pass.trace_overhead_s",
)


def span_rows() -> list[tuple[str, str, str, str]]:
    """(metric, unit, span, SpanStats field) for every traced span's stats."""
    rows = []
    for point in TRACE_POINTS:
        # FleetService.finalize's only traced child is the session's own
        # finalize, so its self time is the wait for the portal to drain.
        own = "wait_s" if point.span == "service.FleetService.finalize" else "self_s"
        rows += [
            (f"{point.span}.calls", "count", point.span, "calls"),
            (f"{point.span}.total_s", "s", point.span, "total_s"),
            (f"{point.span}.{own}", "s", point.span, "self_s"),
        ]
        if point.size_metric is not None:
            rows.append((point.size_metric, point.size_unit, point.span, "size"))
    return rows


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {metric: unit for metric, unit, _span, _field in span_rows()}
    units.update({key: "count" for key in COUNTERS})
    units["service.ProfileCacheRegistry.hit_ratio"] = "fraction"
    units.update({key: "s" for key in OVERHEAD})
    return units


def per_layer_metrics(traced: list, untraced: list, spans: dict) -> dict[str, float]:
    """Per-layer values, each a mean over the traced passes."""
    count = len(traced)
    metrics: dict[str, float] = {}
    for metric, _unit, span, field in span_rows():
        stats = spans.get(span)
        metrics[metric] = (getattr(stats, field) if stats else 0) / count
    for key in COUNTERS:
        metrics[key] = sum(p.counters.get(key, 0) for p in traced) / count
    hits = metrics["service.ProfileCacheRegistry.hits"]
    lookups = hits + metrics["service.ProfileCacheRegistry.builds"]
    metrics["service.ProfileCacheRegistry.hit_ratio"] = hits / lookups if lookups else 0.0
    untraced_s = _median([p.cpu_s for p in untraced])
    traced_s = _median([p.cpu_s for p in traced])
    metrics.update(zip(OVERHEAD, (untraced_s, traced_s, traced_s - untraced_s)))
    return metrics


def print_per_layer(metrics: dict[str, float], traced_wall_s: float) -> None:
    traced_s = metrics["perfbench.pass.traced_s"]
    print("per layer (mean per traced pass; spans are wall time;")
    print(f"share = self time / traced pass wall of {traced_wall_s:.4f} s):")
    print(f"  {'span':48s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} {'share':>7s}")
    for point in TRACE_POINTS:
        span = point.span
        own = metrics.get(f"{span}.self_s", metrics.get(f"{span}.wait_s"))
        print(
            f"  {span:48s} {metrics[f'{span}.calls']:10.1f} "
            f"{metrics[f'{span}.total_s']:10.4f} {own:10.4f} {own / traced_wall_s:7.1%}"
        )
    print("counters (mean per traced pass):")
    sizes = [p.size_metric for p in TRACE_POINTS if p.size_metric is not None]
    for key in (*COUNTERS, "service.ProfileCacheRegistry.hit_ratio", *sizes):
        print(f"  {key:48s} {metrics[key]:12.6g}")
    print(
        f"tracing overhead (pass CPU time): traced {traced_s:.4f} s - untraced "
        f"{metrics['perfbench.pass.untraced_s']:.4f} s = "
        f"{metrics['perfbench.pass.trace_overhead_s']:+.4f} s per pass"
    )


def run(workload_name: str, seed: int, seconds: float, trace: bool, scale=None) -> dict:
    """Set up, measure and check one workload; returns the result object."""
    import workloads  # imports repro: src/ must be on the path first

    scale = scale if scale is not None else workloads.FULL
    workload = workloads.WORKLOADS[workload_name](seed, scale)
    print(f"workload {workload_name} seed {seed} seconds {seconds} trace {int(trace)}")
    print("host " + json.dumps(host_stamp(workloads.worker_count())))

    setup_times = []
    for _ in range(scale.setup_repeats):
        started = time.process_time()
        workload.setup()
        setup_times.append(time.process_time() - started)

    passes = measure(workload, seconds, scale.min_passes)
    traced = []
    if trace:
        tracer = LayerTracer()
        tracer.install()
        try:
            traced = measure(workload, seconds, scale.min_passes)
        finally:
            tracer.uninstall()

    checked = passes + traced
    attempted = sum(p.attempted for p in checked)
    failed = sum(p.failed for p in checked)
    problems = [problem for p in checked for problem in p.problems]
    for problem in problems[:20]:
        print(f"FAILED: {problem}")

    e2e = end_to_end_metrics(setup_times, passes)
    print_end_to_end(e2e, passes)
    if trace:
        values = per_layer_metrics(traced, passes, tracer.snapshot())
        print_per_layer(values, _median([p.wall_s for p in traced]))
        units = per_layer_units()
    else:
        values = e2e
        units = END_TO_END_UNITS
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("leaderboard", "fleet", "fleet-chaos")
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"traffic seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the repro package is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
