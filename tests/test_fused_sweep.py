"""Equivalence, property, and rollback tests for the fused two-phase sweep.

The fused engine (phase 1: rng-owning scheduling loop emitting a whole-sweep
event table; phase 2: one fused physics pass) must be **bit-identical** to
the scalar reference loop on every workload — including channels whose deep
fades force the optimistic noise schedule to roll back, and pathological ones
that push it into the scheduler's exact mode.  A seeded golden trace pins the
fused output independently, and a property test pins the ``sweep_stream`` ↔
event-table replay contract.
"""

import dataclasses
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.motion.scenarios import StaticAntennaPosition, SweepScenario
from repro.rf.geometry import Point3D
from repro.rf.noise import NOISELESS, NoiseModel
from repro.rfid.aloha import FrameSlottedAloha, SlotOutcome
from repro.rfid.coupling import NeighborGrid
from repro.rfid.reader import RFIDReader
from repro.rfid.reading import ReadLog
from repro.rfid.tag import make_tags
from repro.simulation.collector import collect_sweep
from repro.simulation.presets import (
    standard_antenna_moving_scene,
    standard_reader_config,
    standard_tag_moving_scene,
)
from repro.simulation.scene import Scene
from repro.workloads.airport import MORNING_PEAK, baggage_batch
from repro.workloads.library import generate_bookshelf
from repro.workloads.warehouse import ConveyorConfig, conveyor_batch, conveyor_scene

ENGINES = ("fused", "scalar")


def sweep_logs(make_scene) -> dict[str, ReadLog]:
    """One read log per engine, each from an identically seeded fresh scene."""
    return {
        engine: collect_sweep(make_scene(), engine=engine).read_log
        for engine in ENGINES
    }


def assert_all_identical(logs: dict[str, ReadLog]) -> None:
    fused, reference = logs["fused"], logs["scalar"]
    assert len(reference) > 0
    assert len(fused) == len(reference)
    for index, (a, b) in enumerate(zip(fused.reads, reference.reads)):
        assert a == b, f"fused read {index} diverged: {a} vs {b}"


class TestFusedScalarEquivalence:
    """fused == scalar, field for field, on every workload."""

    def test_library_workload(self):
        # The librarian case: hand-pushed antenna over a static bookshelf.
        shelf = generate_bookshelf(levels=2, books_per_level=6, seed=21)
        tags = shelf.to_tags(seed=21)
        assert_all_identical(
            sweep_logs(lambda: standard_antenna_moving_scene(tags, seed=21))
        )

    def test_airport_workload(self):
        # The baggage case: static antenna, bags riding a constant-speed belt.
        batch = baggage_batch(MORNING_PEAK, bag_count=6, seed=22)
        assert_all_identical(
            sweep_logs(lambda: standard_tag_moving_scene(batch.tags, seed=22))
        )

    def test_warehouse_workload(self):
        # The sortation case: multi-lane cartons on a surging/crawling belt.
        config = ConveyorConfig(lanes=2, cartons_per_lane=3)
        assert_all_identical(
            sweep_logs(
                lambda: conveyor_scene(conveyor_batch(config, seed=23), seed=23)
            )
        )

    def test_moving_tags_with_coupling_disabled(self):
        # Coupling off on a moving layout takes the diagonal-only position
        # query (no full-population cross product).
        batch = baggage_batch(MORNING_PEAK, bag_count=5, seed=31)

        def make_scene():
            scene = standard_tag_moving_scene(batch.tags, seed=31)
            return dataclasses.replace(
                scene,
                reader_config=dataclasses.replace(
                    scene.reader_config, tag_coupling_coefficient=0.0
                ),
            )

        assert_all_identical(sweep_logs(make_scene))

    def test_plain_callable_positions(self):
        # A caller-supplied closure (no array-native provider).
        tags = make_tags([Point3D(i * 0.07, 0.0, 0.0) for i in range(4)], seed=4)
        starts = tags.positions()

        def wobble(tag_id, t):
            start = starts[tag_id]
            return Point3D(start.x - 0.25 * t, start.y + 0.01 * np.sin(t), start.z)

        def make_scene():
            scenario = SweepScenario(
                antenna_position=StaticAntennaPosition(Point3D(-0.2, -0.15, 0.3)),
                tag_position=wobble,
                duration_s=3.0,
                description="custom closure",
            )
            return Scene(
                tags=tags,
                scenario=scenario,
                reader_config=standard_reader_config(tags, seed=4),
                seed=4,
            )

        assert_all_identical(sweep_logs(make_scene))


class TestFusedGoldenTrace:
    """Seeded golden trace: a tripwire independent of the equivalence tests."""

    def test_standard_scene_trace(self):
        positions = [Point3D(i * 0.08, 0.06 * (i % 2), 0.0) for i in range(8)]
        tags = make_tags(positions, seed=2015)
        scene = standard_antenna_moving_scene(tags, seed=2015)
        log = collect_sweep(scene, engine="fused").read_log
        columns = log.columns()
        assert len(log) == 807
        assert len(log.tag_ids()) == 8
        assert columns["timestamp_s"][0] == pytest.approx(0.00565, abs=1e-12)
        assert columns["timestamp_s"][-1] == pytest.approx(3.79815, abs=1e-9)
        # A checksum over every reported phase pins the whole RF pipeline
        # (geometry, multipath, noise draws, quantisation) for this seed.
        assert float(np.sum(columns["phase_rad"])) == pytest.approx(
            2705.4266922855413, rel=1e-9
        )
        assert float(np.mean(columns["rssi_dbm"])) == pytest.approx(
            -52.325700729690084, rel=1e-9
        )


def fused_reader_and_scene(threshold_db: float, dropout_p: float = 0.10):
    """A seeded scene whose noise model uses the given deep-fade threshold."""
    noise = NoiseModel(
        phase_noise_std_rad=0.25,
        rssi_noise_std_db=2.0,
        random_dropout_probability=dropout_p,
        fade_dropout_threshold_db=threshold_db,
    )
    positions = [Point3D(i * 0.08, 0.06 * (i % 2), 0.0) for i in range(8)]
    tags = make_tags(positions, seed=2015)
    scene = standard_antenna_moving_scene(tags, seed=2015, noise=noise)
    reader = RFIDReader(config=scene.reader_config, protocol=scene.protocol)
    return reader, scene


def run_fused(reader: RFIDReader, scene: Scene) -> ReadLog:
    return reader.sweep(
        scene.tags,
        scene.scenario.antenna_position,
        scene.scenario.duration_s,
        scene.scenario.tag_position,
        scene.rng(),
        engine="fused",
    )


class TestOptimisticScheduleRollback:
    """The schedule/verify/rollback machinery stays exact under deep fades."""

    def test_default_channel_needs_one_attempt(self):
        reader, scene = fused_reader_and_scene(threshold_db=-10.0)
        log = run_fused(reader, scene)
        assert len(log) > 0
        stats = reader.last_sweep_stats
        assert stats["attempts"] == 1
        assert stats["rolled_back_rounds"] == 0
        assert stats["per_round_fallback"] is False
        # The stats also carry the scheduling-vs-physics wall split.
        assert set(stats) == {
            "attempts",
            "rolled_back_rounds",
            "per_round_fallback",
            "scheduling_s",
            "physics_s",
        }
        assert stats["scheduling_s"] > 0.0
        assert stats["physics_s"] > 0.0

    @pytest.mark.parametrize("threshold_db", [-6.0, -2.0, 0.0, 3.0])
    def test_deep_fades_stay_bit_identical(self, threshold_db):
        reader, scene = fused_reader_and_scene(threshold_db)
        fused = run_fused(reader, scene)
        _, scalar_scene = fused_reader_and_scene(threshold_db)
        scalar = collect_sweep(scalar_scene, engine="scalar").read_log
        assert fused.reads == scalar.reads
        # The thresholds are deep enough into the fade distribution that the
        # optimistic first attempt cannot have been clean.
        stats = reader.last_sweep_stats
        assert stats["attempts"] >= 1
        assert stats["rolled_back_rounds"] > 0 or stats["per_round_fallback"]

    def test_pathological_channel_uses_per_round_fallback(self):
        reader, scene = fused_reader_and_scene(threshold_db=3.0)
        fused = run_fused(reader, scene)
        assert reader.last_sweep_stats["per_round_fallback"]
        _, scalar_scene = fused_reader_and_scene(threshold_db=3.0)
        scalar = collect_sweep(scalar_scene, engine="scalar").read_log
        assert fused.reads == scalar.reads

    def test_fallback_time_lands_in_the_stats(self):
        # The exact schedule counts toward scheduling_s and its physics pass
        # toward physics_s, so the split accounts for the fallback sweep too.
        reader, scene = fused_reader_and_scene(threshold_db=3.0)
        started = time.perf_counter()
        reader.sweep_events(
            scene.tags,
            scene.scenario.antenna_position,
            scene.scenario.duration_s,
            scene.scenario.tag_position,
            scene.rng(),
        )
        wall = time.perf_counter() - started
        stats = reader.last_sweep_stats
        assert stats["per_round_fallback"]
        assert stats["scheduling_s"] + stats["physics_s"] >= 0.5 * wall

    def test_deep_fades_without_dropouts_never_roll_back(self):
        # With p == 0 no dropout uniform is ever drawn, so deep fades cannot
        # shift the rng stream — one attempt, with dropped |= deep applied
        # in the physics pass.
        reader, scene = fused_reader_and_scene(threshold_db=0.0, dropout_p=0.0)
        fused = run_fused(reader, scene)
        stats = reader.last_sweep_stats
        assert stats["attempts"] == 1
        assert stats["rolled_back_rounds"] == 0
        assert stats["per_round_fallback"] is False
        _, scalar_scene = fused_reader_and_scene(threshold_db=0.0, dropout_p=0.0)
        scalar = collect_sweep(scalar_scene, engine="scalar").read_log
        assert fused.reads == scalar.reads

    def test_noiseless_channel(self):
        positions = [Point3D(i * 0.08, 0.0, 0.0) for i in range(6)]
        tags = make_tags(positions, seed=11)
        logs = sweep_logs(
            lambda: standard_antenna_moving_scene(tags, seed=11, noise=NOISELESS)
        )
        assert_all_identical(logs)


class TestEventTableContract:
    """The event table is the schema both sweep() and sweep_stream() replay."""

    def _scene(self):
        positions = [Point3D(i * 0.08, 0.06 * (i % 2), 0.0) for i in range(8)]
        tags = make_tags(positions, seed=2015)
        return standard_antenna_moving_scene(tags, seed=2015)

    def _table(self):
        scene = self._scene()
        reader = RFIDReader(config=scene.reader_config, protocol=scene.protocol)
        return reader.sweep_events(
            scene.tags,
            scene.scenario.antenna_position,
            scene.scenario.duration_s,
            scene.scenario.tag_position,
            scene.rng(),
        )

    def test_stream_batches_concatenate_to_event_table(self):
        # Property: the concatenation of sweep_stream's per-round batches is
        # exactly the table's readable rows — same timestamps, tags, phases,
        # RSSI, and per-round grouping.
        table = self._table()
        scene = self._scene()
        reader = RFIDReader(config=scene.reader_config, protocol=scene.protocol)
        batches = list(
            reader.sweep_stream(
                scene.tags,
                scene.scenario.antenna_position,
                scene.scenario.duration_s,
                scene.scenario.tag_position,
                scene.rng(),
            )
        )
        readable = np.nonzero(table.readable)[0]
        streamed_times = np.concatenate([b.timestamps_s for b in batches])
        streamed_ids = [tag_id for b in batches for tag_id in b.tag_ids]
        streamed_phases = np.concatenate([b.phases_rad for b in batches])
        streamed_rssis = np.concatenate([b.rssi_dbm for b in batches])
        # Within a round the batch is time-sorted while the table is in slot
        # order; sorting each round's table rows the same way must reproduce
        # the stream exactly.
        expected_rows = []
        for round_id in dict.fromkeys(table.round_ids[readable].tolist()):
            rows = readable[table.round_ids[readable] == round_id]
            expected_rows.extend(rows[np.argsort(table.times_s[rows], kind="stable")])
        expected_rows = np.array(expected_rows, dtype=np.intp)
        ids = table.tag_ids
        assert streamed_times.tolist() == table.times_s[expected_rows].tolist()
        assert streamed_ids == [ids[table.tag_indices[i]] for i in expected_rows]
        assert streamed_phases.tolist() == table.phase_rad[expected_rows].tolist()
        assert streamed_rssis.tolist() == table.rssi_dbm[expected_rows].tolist()
        assert len(batches) == len(set(table.round_ids[readable].tolist()))
        assert [b.round_index for b in batches] == list(range(len(batches)))

    def test_table_rows_are_round_major(self):
        table = self._table()
        assert len(table) > 0
        assert np.all(np.diff(table.round_ids) >= 0)
        # Within a round, slot end times are increasing.
        for round_id in np.unique(table.round_ids):
            times = table.times_s[table.round_ids == round_id]
            assert np.all(np.diff(times) > 0)
        assert table.round_count >= int(table.round_ids[-1]) + 1
        assert table.observed
        assert table.deep_fade.shape == table.times_s.shape
        # No deep fades in the standard scene: the drawn dropout decisions
        # are the final ones and readable == ~dropped (link budget allowing).
        assert not table.deep_fade.any()

    def test_to_read_log_matches_sweep(self):
        table = self._table()
        log = collect_sweep(self._scene(), engine="fused").read_log
        assert table.to_read_log() == log
        assert table.event_tag_ids()[:3] == [
            table.tag_ids[i] for i in table.tag_indices[:3]
        ]

    def test_unobserved_table_refuses_replay(self):
        from repro.rfid.event_table import SweepEventTable

        table = SweepEventTable(tag_ids=["a"], channel_index=6, antenna_port=1)
        with pytest.raises(ValueError, match="no observables"):
            table.to_read_log()
        with pytest.raises(ValueError, match="no observables"):
            list(table.iter_round_batches())


class TestRunRoundSchedule:
    """The scheduling-only round is the exact twin of run_round."""

    @pytest.mark.parametrize("population", [0, 1, 3, 17, 60])
    def test_matches_run_round(self, population):
        tag_ids = [f"tag-{i:03d}" for i in range(population)]
        start = 1.2345

        reference = FrameSlottedAloha()
        rng_a = np.random.default_rng(99)
        events = reference.run_round(tag_ids, start, rng_a)
        expected_ids: list[str] = []
        expected_ends: list[float] = []
        for event in events:
            if event.outcome is SlotOutcome.SUCCESS and event.tag_id is not None:
                expected_ids.append(event.tag_id)
                expected_ends.append(event.end_time_s)
        expected_duration = reference.round_duration_s(events)

        scheduled = FrameSlottedAloha()
        rng_b = np.random.default_rng(99)
        success_ids, success_ends, duration = scheduled.run_round_schedule(
            tag_ids, start, rng_b
        )

        assert list(success_ids) == expected_ids
        assert list(success_ends) == expected_ends
        assert duration == expected_duration
        # Identical protocol state and rng state afterwards.
        assert scheduled.scheduling_checkpoint() == reference.scheduling_checkpoint()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(
        initial_q=st.floats(0.0, 8.4),
        adaptive=st.booleans(),
        population=st.integers(0, 300),
        start=st.floats(0.0, 1e3, allow_nan=False),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(initial_q=4.0, adaptive=False, population=0, start=0.5, seed=1)
    @example(initial_q=0.0, adaptive=True, population=1, start=0.5, seed=2)
    @example(initial_q=8.4, adaptive=True, population=1, start=0.5, seed=3)
    def test_matches_run_round_any_round(
        self, initial_q, adaptive, population, start, seed
    ):
        # Any Q, adaptive or not, and both forms of tag_ids: the id list and
        # the fused scheduler's index array (here a zone subset of a larger
        # population), whose winners come back as Python ints.
        names = [f"tag-{i:04d}" for i in range(population)]
        reference = FrameSlottedAloha(initial_q=initial_q, adaptive=adaptive)
        rng = np.random.default_rng(seed)
        events = reference.run_round(names, start, rng)
        successes = [e for e in events if e.outcome is SlotOutcome.SUCCESS]
        expected = (
            [e.end_time_s for e in successes],
            reference.round_duration_s(events),
            reference.scheduling_checkpoint(),
            rng.bit_generator.state,
        )
        expected_ids = [e.tag_id for e in successes]

        for tag_ids in (names, np.arange(0, 3 * population, 3, dtype=np.intp)):
            scheduled = FrameSlottedAloha(initial_q=initial_q, adaptive=adaptive)
            rng = np.random.default_rng(seed)
            ids, ends, duration = scheduled.run_round_schedule(tag_ids, start, rng)
            if isinstance(tag_ids, np.ndarray):
                assert all(type(index) is int for index in ids)
                ids = [names[index // 3] for index in ids]
            assert ids == expected_ids
            assert all(type(end) is float for end in ends)
            assert (
                ends,
                duration,
                scheduled.scheduling_checkpoint(),
                rng.bit_generator.state,
            ) == expected

    def test_multi_round_state_walk(self):
        # Alternate implementations across rounds: every prefix through
        # either implementation leaves the same Q and rng state — at a fixed
        # population, then one that shrinks and grows to walk Q down and up
        # (the schedule side takes the fused scheduler's index arrays).
        populations = [9] * 12 + [200, 150, 90, 40, 12, 3, 1, 0, 5, 30, 70, 120, 260]
        via_events = FrameSlottedAloha()
        via_schedule = FrameSlottedAloha()
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        clock_a = clock_b = 0.0
        for population in populations:
            tag_ids = [f"t{i}" for i in range(population)]
            events = via_events.run_round(tag_ids, clock_a, rng_a)
            clock_a += via_events.round_duration_s(events)
            ids, ends, duration = via_schedule.run_round_schedule(
                np.arange(population, dtype=np.intp), clock_b, rng_b
            )
            clock_b += duration
            successes = [e for e in events if e.outcome is SlotOutcome.SUCCESS]
            assert [tag_ids[i] for i in ids] == [e.tag_id for e in successes]
            assert ends == [e.end_time_s for e in successes]
            assert clock_a == clock_b
            assert (
                via_events.scheduling_checkpoint()
                == via_schedule.scheduling_checkpoint()
            )
            assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestNeighborCSR:
    """The CSR packing reproduces per-index neighbour lookups exactly."""

    def test_packed_matches_neighbors_of(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(-0.4, 0.4, size=(40, 3))
        grid = NeighborGrid(positions, 0.15)
        counts, offsets, flat = grid.packed_neighbors()
        for index in range(len(positions)):
            packed = flat[offsets[index] : offsets[index] + counts[index]]
            assert packed.tolist() == grid.neighbors_of(index).tolist()

    def test_neighbors_for_events(self):
        rng = np.random.default_rng(4)
        positions = rng.uniform(-0.3, 0.3, size=(25, 3))
        grid = NeighborGrid(positions, 0.15)
        tag_indices = np.array([3, 3, 17, 0, 24, 3], dtype=np.intp)
        event_index, neighbor_index = grid.neighbors_for_events(tag_indices)
        expected_events: list[int] = []
        expected_neighbors: list[int] = []
        for event, tag in enumerate(tag_indices):
            for neighbor in grid.neighbors_of(int(tag)):
                expected_events.append(event)
                expected_neighbors.append(int(neighbor))
        assert event_index.tolist() == expected_events
        assert neighbor_index.tolist() == expected_neighbors

    def test_no_neighbors(self):
        grid = NeighborGrid(np.array([[0.0, 0, 0], [5.0, 0, 0]]), 0.1)
        event_index, neighbor_index = grid.neighbors_for_events(
            np.array([0, 1], dtype=np.intp)
        )
        assert event_index.size == 0
        assert neighbor_index.size == 0


class TestPairedPositionQueries:
    """Native paired queries equal the cross-product diagonal bitwise."""

    def test_providers(self):
        from repro.motion.scenarios import (
            BeltTagPositions,
            ConstantVelocityTagPositions,
            StaticTagPositions,
            _TagPositionsBase,
        )
        from repro.motion.speed_profiles import jittered_speed_profile

        points = {
            "a": Point3D(0.0, 0.1, 0.0),
            "b": Point3D(0.4, -0.1, 0.0),
            "c": Point3D(-0.2, 0.05, 0.1),
        }
        providers = [
            StaticTagPositions(points),
            ConstantVelocityTagPositions(points, (-0.3, 0.02, 0.01)),
            BeltTagPositions(
                points,
                jittered_speed_profile(0.25, 5.0, rng=np.random.default_rng(9)),
            ),
        ]
        event_ids = ["a", "c", "c", "b", "a"]
        times = np.array([0.0, 0.7, 1.3, 2.9, 4.1])
        for provider in providers:
            native = provider.positions_paired(event_ids, times)
            diagonal = _TagPositionsBase.positions_paired(provider, event_ids, times)
            assert native.shape == (5, 3)
            assert (native == diagonal).all(), type(provider).__name__
