"""Tiny-scale smoke test of the benchmark's three workloads.

Runs each workload end to end at ``workloads.TINY`` scale (a few seconds,
not a measurement), untraced and traced, and checks that its oracles pass and
that every metric it prints is declared in ``BENCHMARK.json``.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest
import workloads

HERE = Path(__file__).resolve().parent
DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _load_runner():
    # Under a private name: "run" is too generic for a top-level module.
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


runner = _load_runner()


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload_passes_its_oracles(workload, trace):
    result = runner.run(workload, runner.DEFAULT_SEED, 0, bool(trace), workloads.TINY)
    # What main() prints as the last line must be plain JSON.
    result = json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == declared
    metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
    if not trace:
        assert all(value > 0 for value in metrics.values())
    elif workload == "fleet-chaos":
        # Recovery really ran: checkpoints, restores, one restart per fault.
        assert metrics["faults.transient_injected"] > 0
        assert metrics["service.restarts"] == metrics["faults.transient_injected"]
        assert metrics["service.LocalizationSession.restore.calls"] > 0
        assert metrics["service.LocalizationSession.checkpoint.calls"] > 0
    elif workload == "leaderboard":
        assert metrics["service.FleetService.ingest.calls"] == 0
        assert metrics["baselines.BackPosScheme.order.calls"] > 0


def test_tracer_restores_every_patched_function():
    from layer_trace import LayerTracer

    from repro.core import ordering_x
    from repro.service import LocalizationSession, session

    originals = (
        ordering_x.order_tags_x,
        session.order_tags_x,
        LocalizationSession.__dict__["restore"],
    )
    tracer = LayerTracer()
    tracer.install()
    try:
        assert session.order_tags_x is not originals[1]
    finally:
        tracer.uninstall()
    assert (
        ordering_x.order_tags_x,
        session.order_tags_x,
        LocalizationSession.__dict__["restore"],
    ) == originals


@pytest.mark.xfail(
    raises=ValueError,
    strict=True,
    reason="known defect: at library seed 3 the sparse Landmarc grid holds 3 "
    "reference tags, below Landmarc's k=4, so compute_leaderboard raises; "
    "this is why the leaderboard workload stays at its pinned seed",
)
def test_leaderboard_runs_at_other_seeds():
    from repro.bench.leaderboard import compute_leaderboard
    from repro.evaluation.sweep import SweepService

    compute_leaderboard(repetitions=1, seed=3, service=SweepService(max_workers=1))
