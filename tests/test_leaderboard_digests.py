"""Golden digests of every event table the leaderboard run simulates.

``compute_leaderboard(repetitions=2)`` drives the whole scenario matrix plus
the Figure-17 deployment through the fused sweep engine.  This test records
the sha256 of each of the eleven event-table columns of every one of those
sweeps, in call order, and compares them to the committed digests in
``tests/data/leaderboard_sweep_digests.json``.  The digests pin the read logs
bit for bit as *data*, so the sweep code can be restructured without a second
implementation standing by as the oracle.  One of the sweeps deep-fades on so
many rounds that it takes the exact fallback schedule; the test also pins
that, so the fallback path stays covered.

Regenerate the digests (only when a change is *meant* to alter read logs)::

    PYTHONPATH=src python tests/test_leaderboard_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.bench.leaderboard import compute_leaderboard
from repro.evaluation.sweep import SweepService
from repro.rfid.reader import RFIDReader

DIGESTS_PATH = Path(__file__).parent / "data" / "leaderboard_sweep_digests.json"

COLUMNS = (
    "times_s",
    "tag_indices",
    "round_ids",
    "dropped",
    "phase_noise_rad",
    "rssi_noise_db",
    "assumed_deep",
    "deep_fade",
    "phase_rad",
    "rssi_dbm",
    "readable",
)

REPETITIONS = 2


def _digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    hasher = hashlib.sha256(f"{array.dtype.str}{array.shape}".encode())
    hasher.update(array.tobytes())
    return hasher.hexdigest()


def record_leaderboard_sweeps() -> list[dict]:
    """One record per sweep of the serial leaderboard run, in call order."""
    records: list[dict] = []
    original = RFIDReader.sweep_events

    def recording(self, *args, **kwargs):
        table = original(self, *args, **kwargs)
        records.append(
            {
                "round_count": table.round_count,
                "per_round_fallback": bool(self.last_sweep_stats["per_round_fallback"]),
                "columns": {name: _digest(getattr(table, name)) for name in COLUMNS},
            }
        )
        return table

    RFIDReader.sweep_events = recording
    try:
        compute_leaderboard(
            repetitions=REPETITIONS, service=SweepService(max_workers=1)
        )
    finally:
        RFIDReader.sweep_events = original
    return records


@pytest.fixture(scope="module")
def recorded():
    return record_leaderboard_sweeps()


@pytest.fixture(scope="module")
def golden():
    return json.loads(DIGESTS_PATH.read_text())


def test_same_sweeps_in_same_order(recorded, golden):
    assert len(recorded) == len(golden["sweeps"]) == 21
    assert [r["round_count"] for r in recorded] == [
        g["round_count"] for g in golden["sweeps"]
    ]


def test_fallback_sweep_is_covered(recorded, golden):
    flags = [r["per_round_fallback"] for r in recorded]
    assert flags == [g["per_round_fallback"] for g in golden["sweeps"]]
    assert sum(flags) == 1


@pytest.mark.parametrize("column", COLUMNS)
def test_column_digests_unchanged(recorded, golden, column):
    moved = [
        index
        for index, (r, g) in enumerate(zip(recorded, golden["sweeps"]))
        if r["columns"][column] != g["columns"][column]
    ]
    assert not moved, f"{column} changed in sweeps {moved}"


if __name__ == "__main__":
    if "--write" not in sys.argv[1:]:
        sys.exit("usage: test_leaderboard_digests.py --write")
    DIGESTS_PATH.parent.mkdir(exist_ok=True)
    payload = {"repetitions": REPETITIONS, "sweeps": record_leaderboard_sweeps()}
    DIGESTS_PATH.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {len(payload['sweeps'])} sweep digests to {DIGESTS_PATH}")
