"""Unit tests for the batched building blocks under the sweep engines.

The structure-of-arrays RF kernel, the noise-draw contract, the spatial-hash
coupling lookups, array-native motion sampling and the columnar read log must
each reproduce their scalar counterparts bitwise — the parts from which the
fused sweep engine stays bit-identical to the scalar reference loop (the
whole-sweep equivalence and golden-trace pins live in
``tests/test_fused_sweep.py``).
"""

import numpy as np
import pytest

from repro.motion.scenarios import (
    BeltTagPositions,
    ConstantVelocityTagPositions,
    StaticAntennaPosition,
    StaticTagPositions,
    TrajectoryAntennaPosition,
)
from repro.motion.speed_profiles import (
    ConstantSpeedProfile,
    PiecewiseSpeedProfile,
    jittered_speed_profile,
)
from repro.motion.trajectory import LinearTrajectory, WaypointTrajectory
from repro.rf.channel import BackscatterChannel
from repro.rf.geometry import Point3D, euclidean_distances
from repro.rf.multipath import Reflector
from repro.rf.noise import NoiseModel
from repro.rf.phase_model import wrap_phase
from repro.rfid.coupling import NeighborGrid
from repro.rfid.reading import ReadLog, TagRead
from repro.rfid.tag import make_tags
from repro.simulation.collector import collect_sweep
from repro.simulation.presets import (
    standard_antenna_moving_scene,
    standard_tag_moving_scene,
)
from repro.workloads.airport import MORNING_PEAK, baggage_batch
from repro.workloads.library import generate_bookshelf
from repro.workloads.warehouse import ConveyorConfig, conveyor_batch, conveyor_scene


class TestObserveBatchKernel:
    """The scalar observe() delegates to the batched kernel."""

    def test_sequential_observes_match_batch(self):
        channel = BackscatterChannel()
        antenna = Point3D(0.0, -0.1, 0.3)
        tag_rows = np.array([[0.1 * i, 0.0, 0.0] for i in range(6)])
        batch = channel.observe_batch(
            np.broadcast_to(antenna.as_array(), (6, 3)),
            tag_rows,
            np.random.default_rng(5),
        )
        rng = np.random.default_rng(5)
        for i in range(6):
            single = channel.observe(antenna, Point3D(*tag_rows[i]), rng)
            assert single.phase_rad == batch.phase_rad[i]
            assert single.rssi_dbm == batch.rssi_dbm[i]
            assert single.true_distance_m == batch.true_distance_m[i]
            assert single.readable == batch.readable[i]

    def test_extra_scatterers_match_scalar_reflectors(self):
        channel = BackscatterChannel(quantise=False)
        antenna = Point3D(0.0, 0.0, 0.3)
        tag_rows = np.array([[0.0, 0.0, 0.0], [0.05, 0.0, 0.0]])
        extras = (
            Reflector(Point3D(0.03, 0.0, 0.0), reflection_coefficient=0.75,
                      scattering_decay_m=0.022),
        )
        batch = channel.observe_batch(
            np.broadcast_to(antenna.as_array(), (2, 3)),
            tag_rows,
            np.random.default_rng(6),
            extra_positions=np.array([[0.03, 0.0, 0.0], [0.03, 0.0, 0.0]]),
            extra_coefficients=np.array([0.75, 0.75]),
            extra_decays=np.array([0.022, 0.022]),
            extra_event_index=np.array([0, 1]),
        )
        rng = np.random.default_rng(6)
        for i in range(2):
            single = channel.observe(
                antenna, Point3D(*tag_rows[i]), rng, extra_reflectors=extras
            )
            assert single.phase_rad == batch.phase_rad[i]
            assert single.rssi_dbm == batch.rssi_dbm[i]


class TestReaderConfigValidation:
    def test_rejects_nonsensical_coupling_parameters(self):
        # A non-positive radius used to crash only the batched path (the
        # NeighborGrid constructor); both paths now reject it up front.
        from repro.rfid.reader import ReaderConfig

        with pytest.raises(ValueError, match="radius"):
            ReaderConfig(tag_coupling_radius_m=0.0)
        with pytest.raises(ValueError, match="decay"):
            ReaderConfig(tag_coupling_decay_m=-0.01)
        with pytest.raises(ValueError, match="coefficient"):
            ReaderConfig(tag_coupling_coefficient=1.5)
        assert ReaderConfig(tag_coupling_coefficient=0.0) is not None


class TestNoiseDrawContract:
    """draw_event_noise is the production copy of the scalar methods' draws."""

    @pytest.mark.parametrize(
        "noise",
        [
            NoiseModel(),
            NoiseModel(phase_noise_std_rad=0.0),
            NoiseModel(rssi_noise_std_db=0.0),
            NoiseModel(random_dropout_probability=0.0),
            NoiseModel(
                phase_noise_std_rad=0.0,
                rssi_noise_std_db=0.0,
                random_dropout_probability=0.0,
            ),
        ],
    )
    def test_matches_scalar_method_sequence(self, noise):
        # Fades straddling the -12 dB dropout threshold exercise both the
        # forced-drop path (no uniform draw) and the random-dropout path.
        fades = np.array([-20.0, -3.0, 0.0, -12.0, -11.9, -1.0])
        dropped, phase_noise, rssi_noise = noise.draw_event_noise(
            fades, np.random.default_rng(11)
        )
        rng = np.random.default_rng(11)
        for i, fade in enumerate(fades):
            assert noise.read_dropped(float(fade), rng) == dropped[i]
            assert noise.noisy_phase(0.3, rng) == wrap_phase(0.3 + phase_noise[i])
            assert noise.noisy_rssi(-50.0, rng) == -50.0 + rssi_noise[i]


class TestNeighborGrid:
    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(-0.5, 0.5, size=(60, 3))
        radius = 0.15
        grid = NeighborGrid(positions, radius)
        for index in range(len(positions)):
            brute = [
                j
                for j in range(len(positions))
                if j != index
                and not euclidean_distances(positions[index], positions[j]) > radius
            ]
            assert grid.neighbors_of(index).tolist() == brute

    def test_neighbors_sorted(self):
        positions = np.array([[0.0, 0, 0], [0.1, 0, 0], [0.05, 0, 0], [2.0, 0, 0]])
        grid = NeighborGrid(positions, 0.15)
        assert grid.neighbors_of(0).tolist() == [1, 2]
        assert grid.neighbors_of(3).tolist() == []

    def test_validation(self):
        with pytest.raises(ValueError):
            NeighborGrid(np.zeros((2, 3)), 0.0)
        with pytest.raises(ValueError):
            NeighborGrid(np.zeros((2, 2)), 0.1)


class TestArrayNativeMotion:
    """positions_at must be bitwise-identical to repeated scalar sampling."""

    def test_linear_trajectory_piecewise_profile(self):
        profile = jittered_speed_profile(0.3, 5.0, rng=np.random.default_rng(3))
        trajectory = LinearTrajectory(Point3D(0, 0, 0.3), Point3D(2, 0, 0.3), profile)
        times = np.linspace(-0.5, trajectory.duration_s + 1.0, 97)
        rows = trajectory.positions_at(times)
        for t, row in zip(times, rows):
            point = trajectory.position(float(t))
            assert (row == [point.x, point.y, point.z]).all()

    def test_waypoint_trajectory(self):
        trajectory = WaypointTrajectory(
            [Point3D(0, 0, 0), Point3D(1, 0, 0), Point3D(1, 1, 0)],
            ConstantSpeedProfile(0.7),
        )
        times = np.linspace(-0.2, trajectory.duration_s + 0.5, 53)
        rows = trajectory.positions_at(times)
        for t, row in zip(times, rows):
            point = trajectory.position(float(t))
            assert (row == [point.x, point.y, point.z]).all()

    def test_piecewise_profile_distances(self):
        profile = PiecewiseSpeedProfile([(1.0, 0.1), (0.5, 0.4), (2.0, 0.2)])
        times = np.array([-1.0, 0.0, 0.3, 1.0, 1.2, 1.5, 3.0, 10.0])
        vectorized = profile.distances_at(times)
        for t, d in zip(times, vectorized):
            assert d == profile.distance_at(float(t))

    def test_tag_position_providers(self):
        points = {"a": Point3D(0.0, 0.1, 0.0), "b": Point3D(0.4, -0.1, 0.0)}
        ids = ["a", "b"]
        times = np.linspace(0.0, 4.0, 11)
        providers = [
            StaticTagPositions(points),
            ConstantVelocityTagPositions(points, (-0.3, 0.0, 0.01)),
            BeltTagPositions(
                points, jittered_speed_profile(0.25, 5.0, rng=np.random.default_rng(9))
            ),
        ]
        for provider in providers:
            rows = provider.positions_at(ids, times)
            assert rows.shape == (times.size, 2, 3)
            for t_index, t in enumerate(times):
                for n_index, tag_id in enumerate(ids):
                    point = provider(tag_id, float(t))
                    assert (
                        rows[t_index, n_index] == [point.x, point.y, point.z]
                    ).all()

    def test_static_antenna_positions(self):
        antenna = StaticAntennaPosition(Point3D(1.0, 2.0, 3.0))
        rows = antenna.positions_at(np.array([0.0, 1.0, 2.0]))
        assert rows.shape == (3, 3)
        assert (rows == [1.0, 2.0, 3.0]).all()

    def test_rigid_displacement_matches_positions_at(self):
        points = {"a": Point3D(0.0, 0.1, 0.0), "b": Point3D(0.4, -0.1, 0.2)}
        ids = ["a", "b"]
        starts = np.array([[p.x, p.y, p.z] for p in points.values()])
        times = np.linspace(-0.3, 4.0, 23)
        providers = [
            StaticTagPositions(points),
            ConstantVelocityTagPositions(points, (-0.3, 0.02, 0.01)),
            BeltTagPositions(
                points, jittered_speed_profile(0.25, 5.0, rng=np.random.default_rng(9))
            ),
        ]
        for provider in providers:
            rows = provider.positions_at(ids, times)
            for t_index, t in enumerate(times):
                shift = provider.displacement_at(float(t))
                assert all(type(value) is float for value in shift)
                assert (rows[t_index] == starts + np.array(shift)).all()

    def test_antenna_position_xyz_matches_positions_at(self):
        profile = jittered_speed_profile(0.3, 5.0, rng=np.random.default_rng(4))
        trajectory = LinearTrajectory(Point3D(0, 0.1, 0.3), Point3D(2, -0.2, 0.4), profile)
        times = np.linspace(-0.5, trajectory.duration_s + 1.0, 61)
        for antenna in (
            TrajectoryAntennaPosition(trajectory),
            StaticAntennaPosition(Point3D(1.0, 2.0, 3.0)),
        ):
            rows = antenna.positions_at(times)
            for t, row in zip(times, rows):
                xyz = antenna.position_xyz(float(t))
                assert all(type(value) is float for value in xyz)
                assert (row == list(xyz)).all()


class TestColumnarReadLog:
    def test_extend_columns_matches_appends(self):
        reads = [
            TagRead(0.2, "b", 1.0, -51.0, channel_index=6, antenna_port=2),
            TagRead(0.1, "a", 2.0, -52.0, channel_index=6, antenna_port=2),
            TagRead(0.3, "a", 3.0, -53.0, channel_index=6, antenna_port=2),
        ]
        appended = ReadLog(reads)
        columnar = ReadLog()
        columnar.extend_columns(
            np.array([0.2, 0.1, 0.3]),
            ["b", "a", "a"],
            np.array([1.0, 2.0, 3.0]),
            np.array([-51.0, -52.0, -53.0]),
            channel_index=6,
            antenna_port=2,
        )
        assert appended == columnar
        assert columnar.reads == reads

    def test_extend_columns_length_mismatch(self):
        log = ReadLog()
        with pytest.raises(ValueError, match="column lengths"):
            log.extend_columns(
                np.array([0.1]), ["a", "b"], np.array([1.0]), np.array([-50.0]), 6, 1
            )

    def test_per_tag_views_are_time_sorted(self):
        log = ReadLog(
            [
                TagRead(0.3, "a", 3.0, -53.0),
                TagRead(0.1, "a", 1.0, -51.0),
                TagRead(0.2, "b", 2.0, -52.0),
            ]
        )
        assert log.timestamps("a").tolist() == [0.1, 0.3]
        assert log.phases("a").tolist() == [1.0, 3.0]
        assert log.rssis("b").tolist() == [-52.0]
        assert [r.timestamp_s for r in log.for_tag("a")] == [0.1, 0.3]
        assert log.timestamps("missing").size == 0

    def test_sorted_by_time_is_stable(self):
        log = ReadLog(
            [
                TagRead(0.2, "a", 1.0, -50.0),
                TagRead(0.1, "b", 2.0, -51.0),
                TagRead(0.2, "c", 3.0, -52.0),
            ]
        )
        ordered = log.sorted_by_time()
        assert [r.tag_id for r in ordered.reads] == ["b", "a", "c"]

    def test_for_antenna_filters_ports(self):
        log = ReadLog(
            [
                TagRead(0.1, "a", 1.0, -50.0, antenna_port=1),
                TagRead(0.2, "a", 2.0, -51.0, antenna_port=2),
            ]
        )
        filtered = log.for_antenna(2)
        assert len(filtered) == 1
        assert filtered.reads[0].antenna_port == 2

    def test_mutation_invalidates_caches(self):
        log = ReadLog([TagRead(0.1, "a", 1.0, -50.0)])
        assert len(log.reads) == 1
        assert log.read_counts() == {"a": 1}
        log.append(TagRead(0.2, "a", 2.0, -51.0))
        assert len(log.reads) == 2
        assert log.timestamps("a").tolist() == [0.1, 0.2]
        assert log.channel_indices() == {6}
