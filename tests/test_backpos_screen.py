"""Oracle tests for BackPos's screened grid search.

``BackPosScheme.order`` screens each tag's candidate grid with a cheap float64
score and re-scores only the cells near the screened maximum exactly.  Its
estimates must equal the full-grid exact search — the loop below, kept here
as the oracle — on every input: random geometries, coincident antennas, exact
ties (where the first grid index must win), tags with too few snapshots, and
every BackPos call of a leaderboard run.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import BackPosScheme
from repro.baselines.backpos import _screen_is_exact
from repro.bench.leaderboard import compute_leaderboard
from repro.evaluation.sweep import SweepService
from repro.rf.constants import TWO_PI, channel_wavelength_m
from repro.rf.geometry import Point3D
from repro.rfid.reading import ReadLog

STEP = 1.0 / 64.0
"""A power-of-two grid step: grid coordinates are exact multiples of it."""


def full_grid_estimates(
    scheme: BackPosScheme, read_log: ReadLog, tag_ids: list[str]
) -> tuple[dict[str, float], dict[str, float]]:
    """The exact full-grid search, one tag and one snapshot at a time."""
    (channel,) = read_log.channel_indices()
    wavelength = channel_wavelength_m(channel)
    xs = np.arange(scheme.region_min.x, scheme.region_max.x, scheme.grid_resolution_m)
    ys = np.arange(
        scheme.region_min.y, scheme.region_max.y + 1e-9, scheme.grid_resolution_m
    )
    grid_x, grid_y = np.meshgrid(xs, ys, indexing="ij")
    estimated_x: dict[str, float] = {}
    estimated_y: dict[str, float] = {}
    for tag_id in tag_ids:
        measurements = scheme._snapshots(read_log, tag_id)
        if len(measurements) < 3:
            continue
        score = np.zeros_like(grid_x, dtype=complex)
        for antenna_pos, phase in measurements:
            dx = grid_x - antenna_pos.x
            dy = grid_y - antenna_pos.y
            dz = -antenna_pos.z
            distance = np.sqrt(dx * dx + dy * dy + dz * dz)
            predicted = np.mod(TWO_PI * 2.0 * distance / wavelength, TWO_PI)
            score += np.exp(1j * (predicted - phase))
        best = np.unravel_index(int(np.argmax(np.abs(score))), score.shape)
        estimated_x[tag_id] = float(grid_x[best])
        estimated_y[tag_id] = float(grid_y[best])
    return estimated_x, estimated_y


def assert_matches_full_grid(
    scheme: BackPosScheme, read_log: ReadLog, tag_ids: list[str]
) -> None:
    result = scheme.order(read_log, tag_ids)
    estimated_x, estimated_y = full_grid_estimates(scheme, read_log, tag_ids)
    assert result.x_ordering.scores == estimated_x
    assert result.y_ordering.scores == estimated_y
    assert list(result.x_ordering.ordered_ids) == sorted(
        estimated_x, key=lambda tid: estimated_x[tid]
    )
    assert list(result.y_ordering.ordered_ids) == sorted(
        estimated_y, key=lambda tid: estimated_y[tid]
    )


class LinearAntenna:
    """Antenna at ``start + velocity·t``."""

    def __init__(self, start: tuple[float, float, float], velocity: tuple[float, float, float]):
        self.start = start
        self.velocity = velocity

    def __call__(self, time_s: float) -> Point3D:
        return Point3D(
            *(s + v * time_s for s, v in zip(self.start, self.velocity))
        )


def synthetic_log(
    tags: dict[str, tuple[float, float, float]],
    antenna,
    times: np.ndarray,
    channel: int = 6,
    noise_std: float = 0.0,
    seed: int = 0,
) -> ReadLog:
    """Every tag read at every time with Eq. (1)'s phase (plus optional noise)."""
    wavelength = channel_wavelength_m(channel)
    rng = np.random.default_rng(seed)
    stamps, ids, phases = [], [], []
    for tag_id, (x, y, z) in tags.items():
        for time_s in times:
            a = antenna(float(time_s))
            distance = math.sqrt((x - a.x) ** 2 + (y - a.y) ** 2 + (z - a.z) ** 2)
            phase = TWO_PI * 2.0 * distance / wavelength + 0.7
            phase += noise_std * rng.standard_normal()
            stamps.append(float(time_s))
            ids.append(tag_id)
            phases.append(phase % TWO_PI)
    count = len(stamps)
    return ReadLog.from_columns(
        stamps, ids, phases, [-50.0] * count, [channel] * count, [1] * count
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    start=st.tuples(
        st.floats(-0.6, 0.2), st.floats(-1.2, -0.3), st.floats(0.05, 0.8)
    ),
    velocity=st.tuples(st.floats(0.1, 0.8), st.floats(-0.1, 0.1), st.floats(-0.05, 0.05)),
    tag_xy=st.lists(
        st.tuples(st.floats(0.0, 1.0), st.floats(-0.3, 0.3)), min_size=1, max_size=4
    ),
    resolution=st.sampled_from([0.01, 0.02, 0.03, STEP]),
    noise_std=st.sampled_from([0.0, 0.1, 0.4]),
    seed=st.integers(0, 2**16),
)
def test_random_geometries_match_the_full_grid(
    start, velocity, tag_xy, resolution, noise_std, seed
):
    tags = {f"t{index}": (x, y, 0.0) for index, (x, y) in enumerate(tag_xy)}
    antenna = LinearAntenna(start, velocity)
    log = synthetic_log(
        tags, antenna, np.linspace(0.0, 2.0, 41), noise_std=noise_std, seed=seed
    )
    scheme = BackPosScheme(
        antenna_position_at=antenna,
        region_min=Point3D(-0.2, -0.5, 0.0),
        region_max=Point3D(1.2, 0.5, 0.0),
        grid_resolution_m=resolution,
    )
    assert_matches_full_grid(scheme, log, list(tags))


def test_coincident_antennas_keep_the_full_grid():
    tags = {"a": (0.2, 0.1, 0.0), "b": (0.6, -0.1, 0.0), "c": (0.9, 0.2, 0.0)}
    antenna = LinearAntenna((0.4, -0.8, 0.4), (0.0, 0.0, 0.0))
    log = synthetic_log(tags, antenna, np.linspace(0.0, 2.0, 41), noise_std=0.3)
    scheme = BackPosScheme(
        antenna_position_at=antenna,
        region_min=Point3D(0.0, -0.3, 0.0),
        region_max=Point3D(1.0, 0.3, 0.0),
    )
    assert_matches_full_grid(scheme, log, list(tags))
    assert scheme.order(log, list(tags)).metadata["coincident_antenna_tags"] == 3


def test_moving_antenna_has_no_coincident_tags():
    tags = {"a": (0.2, 0.1, 0.0), "b": (0.6, -0.1, 0.0)}
    antenna = LinearAntenna((-0.2, -0.8, 0.4), (0.5, 0.0, 0.0))
    log = synthetic_log(tags, antenna, np.linspace(0.0, 2.0, 41))
    scheme = BackPosScheme(antenna_position_at=antenna)
    assert scheme.order(log, list(tags)).metadata["coincident_antenna_tags"] == 0


def test_kilometre_scale_geometry_falls_back_to_the_full_grid():
    # 50 km away the phase argument is ~2e6 rad, where the screen's error
    # bound would exceed ε: the grid is scored exactly instead.
    tags = {"far": (0.3, 0.1, 0.0)}
    antenna = LinearAntenna((0.0, -50_000.0, 10.0), (0.5, 0.0, 0.0))
    log = synthetic_log(tags, antenna, np.linspace(0.0, 2.0, 41), noise_std=0.2)
    scheme = BackPosScheme(
        antenna_position_at=antenna,
        region_min=Point3D(0.0, 0.0, 0.0),
        region_max=Point3D(0.5, 0.2, 0.0),
    )
    xs = np.arange(0.0, 0.5, 0.01)
    ys = np.arange(0.0, 0.2 + 1e-9, 0.01)
    measurements = scheme._snapshots(log, "far")
    wavelength = channel_wavelength_m(6)
    assert not _screen_is_exact(xs, ys, measurements, wavelength)
    assert _screen_is_exact(xs, ys - 49_999.0, measurements, wavelength)
    assert_matches_full_grid(scheme, log, list(tags))


def test_mirror_tie_goes_to_the_first_cell():
    # An antenna on the y = 0 line cannot tell y from −y: with a grid
    # symmetric about 0 in exact binary steps, every cell (x, y) ties
    # (x, −y) bit for bit, and the lower grid index (−y) must win.
    tags = {"mirror": (0.25, 0.125, 0.0)}
    antenna = LinearAntenna((-0.5, 0.0, 0.25), (0.5, 0.0, 0.0))
    # 61 noise-free reads: each snapshot quantile falls on one read exactly.
    log = synthetic_log(tags, antenna, np.linspace(0.0, 3.0, 61))
    scheme = BackPosScheme(
        antenna_position_at=antenna,
        region_min=Point3D(0.0, -0.25, 0.0),
        region_max=Point3D(0.5, 0.25, 0.0),
        grid_resolution_m=STEP,
        snapshot_window_s=0.01,
    )
    assert_matches_full_grid(scheme, log, list(tags))
    result = scheme.order(log, list(tags))
    assert result.x_ordering.scores["mirror"] == 0.25
    assert result.y_ordering.scores["mirror"] == -0.125


def test_tags_with_too_few_snapshots_stay_unordered():
    antenna = LinearAntenna((-0.2, -0.8, 0.4), (0.5, 0.0, 0.0))
    full = synthetic_log({"full": (0.5, 0.0, 0.0)}, antenna, np.linspace(0.0, 2.0, 41))
    # Three reads: fewer than the four virtual antennas.
    sparse = synthetic_log({"sparse": (0.3, 0.1, 0.0)}, antenna, np.array([0.1, 0.9, 1.7]))
    # Two bursts far apart: the middle snapshot windows catch no read.
    bursts = synthetic_log(
        {"bursts": (0.7, -0.1, 0.0)}, antenna, np.array([0.0, 0.001, 10.0, 10.001])
    )
    log = ReadLog([*full, *sparse, *bursts])
    scheme = BackPosScheme(antenna_position_at=antenna)
    tag_ids = ["full", "sparse", "bursts"]
    assert_matches_full_grid(scheme, log, tag_ids)
    result = scheme.order(log, tag_ids)
    assert result.x_ordering.ordered_ids == ("full",)
    assert set(result.x_ordering.unordered_ids) == {"sparse", "bursts"}


def test_channel_one_log_uses_channel_one_wavelength():
    # Noise-free reads on channel 1 with a fine grid: the tag sits on a grid
    # point, so with the right wavelength the estimate lands within one cell.
    # Scoring with channel 6's wavelength instead shifts it by several cells.
    truth = (0.5, 0.25, 0.0)
    antenna = LinearAntenna((-2.0, -2.5, 1.0), (2.0, 0.0, 0.0))
    # 61 reads: each snapshot quantile falls on one read exactly.
    log = synthetic_log({"tag": truth}, antenna, np.linspace(0.0, 3.0, 61), channel=1)
    step = 1.0 / 1024.0
    scheme = BackPosScheme(
        antenna_position_at=antenna,
        region_min=Point3D(0.4, 0.15, 0.0),
        region_max=Point3D(0.6, 0.35, 0.0),
        grid_resolution_m=step,
        snapshot_window_s=0.01,
    )
    result = scheme.order(log, ["tag"])
    assert abs(result.x_ordering.scores["tag"] - truth[0]) <= step
    assert abs(result.y_ordering.scores["tag"] - truth[1]) <= step


def test_mixed_channel_log_raises():
    antenna = LinearAntenna((-0.2, -0.8, 0.4), (0.5, 0.0, 0.0))
    times = np.linspace(0.0, 2.0, 41)
    one = synthetic_log({"a": (0.3, 0.0, 0.0)}, antenna, times, channel=1)
    six = synthetic_log({"b": (0.6, 0.0, 0.0)}, antenna, times, channel=6)
    log = ReadLog([*one, *six])
    with pytest.raises(ValueError, match="multiple reader channels"):
        BackPosScheme(antenna_position_at=antenna).order(log, ["a", "b"])


def test_every_leaderboard_call_matches_the_full_grid(monkeypatch):
    original = BackPosScheme.order
    calls: list[tuple[int, int]] = []

    def checked(self, read_log, expected_tag_ids):
        result = original(self, read_log, expected_tag_ids)
        estimated_x, estimated_y = full_grid_estimates(self, read_log, expected_tag_ids)
        assert result.x_ordering.scores == estimated_x
        assert result.y_ordering.scores == estimated_y
        coincident = sum(
            len({(p.x, p.y, p.z) for p, _ in measurements}) == 1
            for measurements in (
                self._snapshots(read_log, tag_id) for tag_id in expected_tag_ids
            )
            if len(measurements) >= 3
        )
        assert result.metadata["coincident_antenna_tags"] == coincident
        calls.append((coincident, len(estimated_x)))
        return result

    monkeypatch.setattr(BackPosScheme, "order", checked)
    compute_leaderboard(repetitions=1, service=SweepService(max_workers=1))
    assert len(calls) > 10
    # The conveyor scenes put the screen's exact fallback to work too.
    assert 0 < sum(c for c, _ in calls) < sum(n for _, n in calls)
