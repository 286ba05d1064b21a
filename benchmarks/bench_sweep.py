"""Sweep-simulation timing harness: the fused engine vs its scalar reference.

Simulates the same scenes through both :class:`~repro.rfid.reader.RFIDReader`
sweep engines:

* ``scalar`` — the read-at-a-time reference loop (one ``observe`` per
  decoded reply, whole-population coupling scan per read);
* ``fused``  — the two-phase engine: a scheduling pass owns every rng draw
  and emits a whole-sweep event table, then one fused NumPy pass evaluates
  all rounds' physics together (spatial-hash coupling lookups, array-native
  motion sampling, columnar read log).

Both engines consume the shared random generator in the identical order, so
the read logs are **bit-identical** (asserted here and pinned by
``tests/test_fused_sweep.py``); only the wall clock differs.  Two scenes are
timed: the headline **static** 200-tag library-style shelf and a **moving**
warehouse-style conveyor batch that exercises the dense coupling filter.
Each engine runs :data:`REPEATS` times per scene, the engines alternating;
the record keeps the median timing, which the speedup uses, and the
min–max spread.

Baseline caveat: the scalar reference loop shares the batched kernels (one
``observe_batch`` call per read), which makes it ~2x slower than the pure
scalar arithmetic the pre-batching engine used — so the scalar-relative
speedup overstates the win over that engine by about that factor.  Both
timings come from the same run on the same host, so the ratio itself does
not depend on the machine it was recorded on.

Results are written to ``BENCH_sweep.json`` so the speedups are tracked PR
over PR; CI asserts floors on the recorded speedup fields.

Run with:
  PYTHONPATH=src python benchmarks/bench_sweep.py [--tags 200] [--out BENCH_sweep.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from datetime import datetime, timezone
from pathlib import Path

from repro.bench.store import record_run
from repro.rf.geometry import Point3D
from repro.rfid.tag import make_tags
from repro.simulation.collector import collect_sweep
from repro.simulation.presets import standard_antenna_moving_scene
from repro.workloads.warehouse import ConveyorConfig, conveyor_batch, conveyor_scene

SEED = 2015

ENGINES = ("scalar", "fused")

REPEATS = 3
"""Timed runs per engine and scene: a median and a spread, not one sample."""


def static_scene(tag_count: int):
    """A library-style shelf: ``tag_count`` static tags in two rows."""
    positions = [
        Point3D(0.05 * (i // 2), 0.30 * (i % 2), 0.0) for i in range(tag_count)
    ]
    tags = make_tags(positions, seed=SEED)
    return standard_antenna_moving_scene(tags, seed=SEED)


def moving_scene(tag_count: int):
    """A warehouse conveyor batch with roughly ``tag_count`` cartons."""
    lanes = 3
    config = ConveyorConfig(lanes=lanes, cartons_per_lane=max(1, tag_count // lanes))
    return conveyor_scene(conveyor_batch(config, seed=SEED), seed=SEED)


def time_sweep(scene_factory, engine: str):
    """Build a fresh scene (the protocol is stateful) and time one sweep."""
    scene = scene_factory()
    started = time.perf_counter()
    result = collect_sweep(scene, engine=engine)
    return time.perf_counter() - started, result.read_log


def bench_case(name: str, scene_factory) -> dict:
    """Time both engines :data:`REPEATS` times on one scene; assert bit-identical logs."""
    timings = {engine: [] for engine in ENGINES}
    logs = {engine: [] for engine in ENGINES}
    for _ in range(REPEATS):
        for engine in ENGINES:
            elapsed, log = time_sweep(scene_factory, engine)
            timings[engine].append(elapsed)
            logs[engine].append(log.reads)
    reference = logs["scalar"][0]
    if any(reads != reference for engine in ENGINES for reads in logs[engine]):
        raise AssertionError(
            f"{name}: fused and scalar read logs diverged — engine bug"
        )
    median = {engine: statistics.median(timings[engine]) for engine in ENGINES}
    fused_vs_scalar = median["scalar"] / max(median["fused"], 1e-9)
    print(
        f"{name:>8}: scalar {median['scalar']:7.3f} s "
        f"[{min(timings['scalar']):.3f}, {max(timings['scalar']):.3f}] | "
        f"fused {median['fused']:7.3f} s "
        f"[{min(timings['fused']):.3f}, {max(timings['fused']):.3f}] | "
        f"fused/scalar {fused_vs_scalar:5.1f}x | "
        f"{len(reference)} reads, bit-identical"
    )
    record = {}
    for engine in ENGINES:
        record[f"{engine}_s"] = median[engine]
        record[f"{engine}_s_spread"] = {
            "min": min(timings[engine]),
            "max": max(timings[engine]),
        }
    return {
        **record,
        "speedup_fused_vs_scalar": fused_vs_scalar,
        "reads": len(reference),
        "results_bit_identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--tags", type=int, default=200,
        help="population of the static headline scene (default 200)",
    )
    parser.add_argument(
        "--moving-tags", type=int, default=24,
        help="cartons in the moving conveyor scene (default 24)",
    )
    parser.add_argument("--out", type=Path, default=Path("BENCH_sweep.json"))
    parser.add_argument(
        "--history", type=Path, default=Path("BENCH_HISTORY.jsonl"),
        help="append-only ledger for this run's rows (smoke runs pass a scratch path)",
    )
    parser.add_argument("--no-history", action="store_true")
    args = parser.parse_args()

    # Warm all code paths (imports, numpy kernels) outside the timed region.
    for engine in ENGINES:
        time_sweep(lambda: static_scene(8), engine)

    print(
        f"static scene: {args.tags} tags | moving scene: ~{args.moving_tags} cartons | "
        f"{REPEATS} runs per engine, median [min, max]"
    )
    static = bench_case("static", lambda: static_scene(args.tags))
    moving = bench_case("moving", lambda: moving_scene(args.moving_tags))

    payload = {
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "platform": platform.platform(),
        "seed": SEED,
        "cpu_count": os.cpu_count() or 1,
        "repeats": REPEATS,
        "scenes": {
            "static": {"tag_count": args.tags, **static},
            "moving": {"carton_count": args.moving_tags, **moving},
        },
        "baseline_note": (
            "scalar = the in-tree reference loop (one observe_batch call per "
            "read); it is ~2x slower than the pre-batching pure-scalar "
            "engine, so the fused-vs-scalar speedup overstates the win over "
            "that engine by roughly that factor."
        ),
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")

    if not args.no_history:
        rows = record_run(
            source="bench_sweep",
            metrics={
                "scenes": payload["scenes"],
                "cpu_count": payload["cpu_count"],
            },
            scale={
                "static_tags": args.tags,
                "moving_cartons": args.moving_tags,
                "repeats": REPEATS,
            },
            history=args.history,
            timestamp=payload["generated_at"],
            platform=payload["platform"],
        )
        print(f"appended {len(rows)} history rows to {args.history}")


if __name__ == "__main__":
    main()
