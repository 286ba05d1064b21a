"""The CI speedup gate, exercised through its argparse entrypoint.

Each test runs ``benchmarks/check_speedups.py`` as a subprocess against
fixture ``BENCH_*.json`` files in a temp directory — the exact interface CI
uses — and asserts on the exit code, so a refactor that breaks the gate's
wiring (not just its floor arithmetic) fails here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "check_speedups.py"


def run_checker(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
    )


def experiments_payload(**overrides) -> dict:
    payload = {
        "generated_at": "2026-08-08T00:00:00+00:00",
        "platform": "test-host",
        "cpu_count": 4,
        "workload": {"spacings_m": [0.04], "repetitions_per_spacing": 8},
        "timings_s": {"serial": 10.0, "sharded": 2.5},
        "results_bit_identical": True,
        "sharded_comparison_conclusive": True,
        "sharded_skipped": False,
        "speedup_sharded_vs_serial": 4.0,
    }
    payload.update(overrides)
    return payload


def write_experiments(tmp_path: Path, **overrides) -> None:
    (tmp_path / "BENCH_experiments.json").write_text(
        json.dumps(experiments_payload(**overrides))
    )


def test_missing_files_skip_gracefully(tmp_path):
    proc = run_checker(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "skip" in proc.stdout
    assert "not found" in proc.stdout


def test_healthy_record_passes(tmp_path):
    write_experiments(tmp_path)
    proc = run_checker(tmp_path, "--only", "experiments")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "FAIL" not in proc.stdout


def test_regressed_speedup_fails(tmp_path):
    write_experiments(tmp_path, speedup_sharded_vs_serial=0.62)
    proc = run_checker(tmp_path, "--only", "experiments")
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout
    assert "0.62" in proc.stdout


def test_divergent_results_fail_even_with_good_speedups(tmp_path):
    write_experiments(tmp_path, results_bit_identical=False)
    proc = run_checker(tmp_path, "--only", "experiments")
    assert proc.returncode == 1
    assert "bit-identical" in proc.stdout


def test_sharded_skipped_single_core_record_is_not_a_failure(tmp_path):
    write_experiments(
        tmp_path,
        cpu_count=1,
        timings_s={"serial": 10.0, "sharded": None},
        sharded_comparison_conclusive=False,
        sharded_skipped=True,
        speedup_sharded_vs_serial=None,
    )
    proc = run_checker(tmp_path, "--only", "experiments")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "skip" in proc.stdout


def test_schema_corruption_fails_before_any_floor(tmp_path):
    payload = experiments_payload()
    del payload["timings_s"]
    (tmp_path / "BENCH_experiments.json").write_text(json.dumps(payload))
    proc = run_checker(tmp_path, "--only", "experiments")
    assert proc.returncode == 1
    assert "schema" in proc.stdout
    assert "timings_s" in proc.stdout


def test_floor_override_is_respected(tmp_path):
    write_experiments(tmp_path, speedup_sharded_vs_serial=0.62)
    proc = run_checker(
        tmp_path, "--only", "experiments", "--experiments-floor", "0.5"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def write_sweep(tmp_path: Path, moving_speedup: float | None = 8.8) -> None:
    scene = {"scalar_s": 1.0, "fused_s": 0.1, "results_bit_identical": True}
    scenes = {"static": {**scene, "speedup_fused_vs_scalar": 40.0}}
    if moving_speedup is not None:
        scenes["moving"] = {**scene, "speedup_fused_vs_scalar": moving_speedup}
    payload = {
        "generated_at": "2026-08-08T00:00:00+00:00",
        "platform": "test-host",
        "seed": 2015,
        "cpu_count": 2,
        "scenes": scenes,
    }
    (tmp_path / "BENCH_sweep.json").write_text(json.dumps(payload))


def test_moving_scene_regression_fails_the_sweep_gate(tmp_path):
    write_sweep(tmp_path)
    proc = run_checker(tmp_path, "--only", "sweep")
    assert proc.returncode == 0, proc.stdout + proc.stderr

    # The static shelf still clears its floor; the belt alone regressed.
    write_sweep(tmp_path, moving_speedup=6.5)
    proc = run_checker(tmp_path, "--only", "sweep")
    assert proc.returncode == 1
    assert "moving-scene fused-vs-scalar speedup 6.50x" in proc.stdout

    proc = run_checker(tmp_path, "--only", "sweep", "--sweep-moving-floor", "4.5")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_sweep_record_without_a_moving_scene_fails(tmp_path):
    write_sweep(tmp_path, moving_speedup=None)
    proc = run_checker(tmp_path, "--only", "sweep")
    assert proc.returncode == 1
    assert "moving scene recorded" in proc.stdout


def test_committed_records_pass_the_default_floors():
    proc = run_checker(REPO)
    assert proc.returncode == 0, proc.stdout + proc.stderr
