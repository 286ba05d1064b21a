"""Oracle tests for the reading-zone check and its reuse across rounds.

``ReadingZone.contains_many`` must decide exactly as the component-wise
formula below (the oracle) does, and on rigid layouts — static tags, or
tags all moved by one displacement ``d(t)`` on a belt — the fused sweep's
scheduler re-uses the previous round's in-zone set while the antenna,
relative to the tags, stays within the zone's freeze radius.  That must
never change a decision: sweeps with tags a hair inside and outside the
range and the beam edge read exactly as the scalar reference loop does.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.motion.scenarios import (
    BeltTagPositions,
    ConstantVelocityTagPositions,
    StaticAntennaPosition,
    SweepScenario,
    TrajectoryAntennaPosition,
    antenna_moving_scenario,
)
from repro.motion.speed_profiles import ConstantSpeedProfile, jittered_speed_profile
from repro.motion.trajectory import LinearTrajectory
from repro.rf.antenna import DirectionalAntenna, ReadingZone
from repro.rf.geometry import Point3D
from repro.rf.noise import NoiseModel
from repro.rfid import reader as reader_module
from repro.rfid.aloha import FrameSlottedAloha
from repro.rfid.tag import make_tags
from repro.simulation.collector import collect_sweep
from repro.simulation.presets import (
    standard_antenna_moving_scene,
    standard_reader_config,
    standard_tag_moving_scene,
)
from repro.simulation.scene import Scene


def reference_contains_many(
    zone: ReadingZone, antenna_pos: np.ndarray, tag_positions: np.ndarray
) -> np.ndarray:
    """The zone decision spelled out one coordinate at a time."""
    antenna_pos = np.asarray(antenna_pos, dtype=float)
    tag_positions = np.asarray(tag_positions, dtype=float)
    dx = tag_positions[..., 0] - antenna_pos[..., 0]
    dy = tag_positions[..., 1] - antenna_pos[..., 1]
    dz = tag_positions[..., 2] - antenna_pos[..., 2]
    norm = np.sqrt(dx * dx + dy * dy + dz * dz)
    mask = norm <= zone.max_range_m
    if zone.beam_limited:
        degenerate = norm == 0.0
        safe_norm = np.where(degenerate, 1.0, norm)
        b = np.asarray(zone.antenna.boresight, dtype=float)
        bx, by, bz = b / np.linalg.norm(b)
        cos_angle = (dx / safe_norm) * bx + (dy / safe_norm) * by + (dz / safe_norm) * bz
        cos_angle = np.clip(cos_angle, -1.0, 1.0)
        angles = np.where(degenerate, 0.0, np.arccos(cos_angle))
        mask = mask & (angles <= math.radians(zone.antenna.beamwidth_deg))
    return mask


coordinate = st.floats(-3.0, 3.0, allow_nan=False)
point = st.tuples(coordinate, coordinate, coordinate)
boresights = st.sampled_from(
    [(0.0, 0.0, -1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.3, -0.4, -1.2)]
)
zones = st.builds(
    ReadingZone,
    max_range_m=st.floats(0.2, 4.0),
    antenna=st.builds(
        DirectionalAntenna,
        beamwidth_deg=st.floats(5.0, 175.0),
        boresight=boresights,
    ),
    beam_limited=st.booleans(),
)


def zone_inputs(antenna_row: np.ndarray, tags: list, zone: ReadingZone) -> np.ndarray:
    """Tags plus the edge cases: on the antenna, and along ± the boresight."""
    b = np.asarray(zone.antenna.boresight, dtype=float)
    b = b / np.linalg.norm(b)
    extra = [antenna_row, antenna_row + 0.5 * b, antenna_row - 0.5 * b]
    return np.vstack([np.asarray(tags, dtype=float).reshape(-1, 3), *extra])


@settings(max_examples=200, deadline=None)
@given(zone=zones, antenna=point, tags=st.lists(point, min_size=1, max_size=12))
def test_contains_many_matches_the_formula(zone, antenna, tags):
    antenna_row = np.asarray(antenna, dtype=float)
    positions = zone_inputs(antenna_row, tags, zone)
    expected = reference_contains_many(zone, antenna_row, positions)
    assert np.array_equal(zone.contains_many(antenna_row, positions), expected)
    # (N, 3) antenna rows pair up with the tags row by row.
    rows = np.broadcast_to(antenna_row, positions.shape) + np.linspace(
        0.0, 0.3, positions.shape[0]
    )[:, None]
    assert np.array_equal(
        zone.contains_many(rows, positions), reference_contains_many(zone, rows, positions)
    )
    mask, _radius = zone.contains_many_frozen(antenna_row, positions)
    assert np.array_equal(mask, expected)


def test_single_point_contains_matches_the_formula():
    zone = ReadingZone(max_range_m=1.0, antenna=DirectionalAntenna(boresight=(0.0, 0.0, -1.0)))
    antenna = Point3D(0.0, 0.0, 0.5)
    for tag in (Point3D(0.0, 0.0, 0.0), Point3D(0.9, 0.0, 0.0), antenna, Point3D(0, 0, 1)):
        expected = reference_contains_many(zone, antenna.as_array(), tag.as_array())
        assert zone.contains(antenna, tag) == bool(expected)


@settings(max_examples=200, deadline=None)
@given(
    zone=zones,
    antenna=point,
    tags=st.lists(point, min_size=1, max_size=12),
    direction=st.tuples(coordinate, coordinate, coordinate),
    fraction=st.floats(0.0, 0.999),
)
def test_moves_within_the_freeze_radius_keep_every_decision(
    zone, antenna, tags, direction, fraction
):
    antenna_row = np.asarray(antenna, dtype=float)
    positions = np.asarray(tags, dtype=float)
    mask, radius = zone.contains_many_frozen(antenna_row, positions)
    step = np.asarray(direction, dtype=float)
    length = float(np.linalg.norm(step))
    if radius <= 0.0 or length == 0.0:
        return
    moved = antenna_row + step * (fraction * radius / length)
    assert math.dist(moved, antenna_row) < radius
    assert np.array_equal(zone.contains_many(moved, positions), mask)


@pytest.mark.parametrize("slack", [-1e-12, 1e-12])
def test_tags_on_an_edge_freeze_nothing(slack):
    zone = ReadingZone(max_range_m=2.0, antenna=DirectionalAntenna(boresight=(0.0, 0.0, -1.0)))
    antenna = np.array([0.3, -0.2, 0.6])
    direction = np.array([0.6, -0.3, -0.74])
    direction /= np.linalg.norm(direction)
    theta = math.radians(zone.antenna.beamwidth_deg) + slack
    on_range = antenna + (zone.max_range_m + slack) * direction
    on_beam = antenna + 0.5 * np.array([math.sin(theta), 0.0, -math.cos(theta)])
    for tag in (on_range, on_beam):
        mask, radius = zone.contains_many_frozen(antenna, tag[None, :])
        assert bool(mask[0]) is (slack < 0)
        assert radius < 0.0
    # On the antenna itself: no direction, no freeze either.
    assert zone.contains_many_frozen(antenna, antenna[None, :])[1] < 0.0


EDGE_RANGE_M = 0.8
EDGE_BEAM_RAD = math.radians(70.0)


def edge_positions(antenna: np.ndarray) -> list[Point3D]:
    """Tags 1e-12 m inside/outside the range and 1e-12 rad inside/outside
    the beam edge of a downward-looking antenna at ``antenna``."""
    positions = []
    for azimuth in (0.3, 1.9, 4.0):
        for slack in (-1e-12, 1e-12):
            direction = np.array([0.5 * math.cos(azimuth), 0.5 * math.sin(azimuth), -1.0])
            direction /= np.linalg.norm(direction)
            positions.append(Point3D(*(antenna + (EDGE_RANGE_M + slack) * direction)))
            theta = EDGE_BEAM_RAD + slack
            ray = np.array(
                [math.sin(theta) * math.cos(azimuth), math.sin(theta) * math.sin(azimuth), -math.cos(theta)]
            )
            positions.append(Point3D(*(antenna + 0.5 * ray)))
    return positions


def boundary_scene(seed: int = 5) -> Scene:
    """An antenna passing a tag row, with tags on the zone's edges at t = 0.

    The antenna starts at ``start`` looking down; some tags sit 1e-12 m
    inside/outside the range from there, others 1e-12 rad inside/outside the
    beam edge, and a row on the floor crosses the range boundary as the
    antenna passes.
    """
    start = np.array([0.0, -0.3, 0.5])
    positions = [Point3D(0.1 * i, 0.0, 0.0) for i in range(13)] + edge_positions(start)
    tags = make_tags(positions, seed=seed)
    trajectory = LinearTrajectory(
        Point3D(*start), Point3D(1.2, -0.3, 0.5), speed_profile=ConstantSpeedProfile(0.6)
    )
    return Scene(
        tags=tags,
        scenario=antenna_moving_scenario(trajectory, tags.positions()),
        reader_config=standard_reader_config(tags, seed=seed, max_range_m=EDGE_RANGE_M),
        protocol=FrameSlottedAloha(),
        seed=seed + 1,
    )


def jittered_belt(starts, seed):
    """A belt along −X whose speed jumps every 0.15 s around 0.6 m/s."""
    profile = jittered_speed_profile(
        0.6, 2.0, jitter_fraction=0.3, segment_duration_s=0.15,
        rng=np.random.default_rng(seed),
    )
    return BeltTagPositions(starts, profile)


def tilted_conveyor(starts, _seed):
    """Tags translating together, each axis moving enough to flip decisions."""
    return ConstantVelocityTagPositions(starts, (-0.2, 0.35, -0.3))


def rigid_boundary_scene(carrier, moving_antenna: bool = False, seed: int = 5) -> Scene:
    """An antenna over a belt: tags on the zone's edges at t = 0.

    The same edge tags as :func:`boundary_scene`, placed around the antenna,
    plus a row that the belt carries through the range and beam boundaries.
    ``carrier(starts, seed)`` builds the rigid tag provider.  The antenna is
    fixed, as over a real conveyor, or (``moving_antenna``) drifts too, so
    the relative row ``antenna(t) − d(t)`` mixes both motions.
    """
    antenna = np.array([0.6, -0.3, 0.5])
    positions = [Point3D(0.1 * i, 0.0, 0.0) for i in range(13)] + edge_positions(antenna)
    tags = make_tags(positions, seed=seed)
    if moving_antenna:
        antenna_position = TrajectoryAntennaPosition(
            LinearTrajectory(
                Point3D(*antenna),
                Point3D(*(antenna + [0.4, 0.15, 0.0])),
                speed_profile=ConstantSpeedProfile(0.25),
            )
        )
    else:
        antenna_position = StaticAntennaPosition(Point3D(*antenna))
    scenario = SweepScenario(
        antenna_position=antenna_position,
        tag_position=carrier(tags.positions(), seed),
        duration_s=2.0,
    )
    return Scene(
        tags=tags,
        scenario=scenario,
        reader_config=standard_reader_config(tags, seed=seed, max_range_m=EDGE_RANGE_M),
        protocol=FrameSlottedAloha(),
        seed=seed + 1,
    )


@pytest.fixture
def zone_trace(monkeypatch):
    """Records scheduler events in order: 'run', 'resume', 'zone' (an exact
    evaluation that may be reused), 'zone-every' (one that may not) and
    'round'."""
    events: list[str] = []

    def spy(owner, name, label):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            events.append(label)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    spy(reader_module._SweepScheduler, "run", "run")
    spy(reader_module._SweepScheduler, "resume", "resume")
    spy(ReadingZone, "contains_many_frozen", "zone")
    spy(ReadingZone, "contains_many", "zone-every")
    spy(FrameSlottedAloha, "run_round_schedule", "round")
    return events


def test_boundary_tags_sweep_like_the_scalar_reference(zone_trace):
    fused = collect_sweep(boundary_scene(), engine="fused").read_log
    assert 0 < zone_trace.count("zone") < zone_trace.count("round")
    scalar = collect_sweep(boundary_scene(), engine="scalar").read_log
    assert len(scalar) > 0
    assert fused.reads == scalar.reads


@pytest.mark.parametrize("moving_antenna", [False, True])
@pytest.mark.parametrize("carrier", [jittered_belt, tilted_conveyor])
def test_rigid_boundary_tags_sweep_like_the_scalar_reference(
    zone_trace, carrier, moving_antenna
):
    def scene():
        return rigid_boundary_scene(carrier, moving_antenna)

    fused = collect_sweep(scene(), engine="fused").read_log
    # Moving tags reuse the zone too: fewer evaluations than rounds.
    assert 0 < zone_trace.count("zone") < zone_trace.count("round") / 2
    assert zone_trace.count("zone-every") == 0
    scalar = collect_sweep(scene(), engine="scalar").read_log
    assert len(scalar) > 0
    assert fused.reads == scalar.reads


def test_plain_callable_layouts_evaluate_every_round(zone_trace):
    # A bare function hides the rigid displacement: no reuse is possible.
    def scene():
        rigid = rigid_boundary_scene(jittered_belt)
        belt = rigid.scenario.tag_position
        scenario = dataclasses.replace(
            rigid.scenario, tag_position=lambda tag_id, time_s: belt(tag_id, time_s)
        )
        return dataclasses.replace(rigid, scenario=scenario)

    fused = collect_sweep(scene(), engine="fused").read_log
    assert zone_trace.count("zone") == 0
    assert zone_trace.count("zone-every") == zone_trace.count("round") > 0
    scalar = collect_sweep(scene(), engine="scalar").read_log
    assert fused.reads == scalar.reads


# Deep fades with dropouts on: the optimistic schedule rolls back.
ROLLBACK_NOISE = NoiseModel(
    phase_noise_std_rad=0.25,
    rssi_noise_std_db=2.0,
    random_dropout_probability=0.10,
    fade_dropout_threshold_db=-7.0,
)


@pytest.mark.parametrize(
    ("scene_factory", "seed"),
    # Seeds at which each scene mis-guesses a few rounds (not the exact
    # fallback, whose single replay is no rollback).
    [(standard_antenna_moving_scene, 2015), (standard_tag_moving_scene, 5)],
)
def test_rounds_reuse_the_zone_and_a_resume_resets_it(zone_trace, scene_factory, seed):
    tags = make_tags([Point3D(i * 0.08, 0.06 * (i % 2), 0.0) for i in range(8)], seed=2015)

    def scene():
        return scene_factory(tags, seed=seed, noise=ROLLBACK_NOISE)

    fused_scene = scene()
    reader = reader_module.RFIDReader(
        config=fused_scene.reader_config, protocol=fused_scene.protocol
    )
    fused = reader.sweep(
        fused_scene.tags,
        fused_scene.scenario.antenna_position,
        fused_scene.scenario.duration_s,
        fused_scene.scenario.tag_position,
        fused_scene.rng(),
    )
    assert reader.last_sweep_stats["rolled_back_rounds"] > 0
    events = list(zone_trace)
    zone_trace.clear()
    scalar = collect_sweep(scene(), engine="scalar").read_log
    assert fused.reads == scalar.reads

    # Most rounds reuse the previous in-zone set...
    assert events.count("zone") < events.count("round") / 2
    assert events.count("zone-every") == 0
    # ...but every (re)started schedule evaluates the zone before its first
    # round, so a rollback never carries a frozen mask across the replay.
    starts = [index for index, event in enumerate(events) if event in ("run", "resume")]
    assert events.count("resume") == reader.last_sweep_stats["rolled_back_rounds"]
    for index in starts:
        assert events[index + 1] == "zone"
