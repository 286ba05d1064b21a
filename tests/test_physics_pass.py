"""Contract tests for the fused engine's single physics pass.

The fused sweep splits into a scheduling phase that owns every random draw
and a physics phase that is rng-free and row-local: each event's phase,
RSSI, readability and deep-fade flag depend only on that event's own row of
the :class:`~repro.rfid.event_table.SweepEventTable`.  These tests pin that
contract directly on ``RFIDReader._observe_events`` across the library,
airport and warehouse workloads plus the coupling-on, coupling-off and
plain-callable position paths:

* evaluating any contiguous row range, any permutation of the rows, or a
  single row reproduces the whole-table pass bitwise;
* re-evaluating a completed table is idempotent;
* ``last_sweep_stats`` carries exactly the attempt counters and the
  scheduling-vs-physics wall split;
* ``engine=`` is the only way to choose a sweep engine.
"""

import dataclasses
import importlib
import inspect
from functools import lru_cache

import numpy as np
import pytest

from repro.evaluation.sweep import SweepService
from repro.motion.scenarios import StaticAntennaPosition, SweepScenario
from repro.rf.geometry import Point3D
from repro.rfid.event_table import SweepEventTable
from repro.rfid.reader import RFIDReader
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

OBSERVABLES = ("phase_rad", "rssi_dbm", "readable", "deep_fade")
SCHEDULING_COLUMNS = (
    "times_s",
    "tag_indices",
    "round_ids",
    "dropped",
    "phase_noise_rad",
    "rssi_noise_db",
    "assumed_deep",
)


def library_scene():
    shelf = generate_bookshelf(levels=2, books_per_level=6, seed=21)
    return standard_antenna_moving_scene(shelf.to_tags(seed=21), seed=21)


def airport_scene():
    batch = baggage_batch(MORNING_PEAK, bag_count=6, seed=22)
    return standard_tag_moving_scene(batch.tags, seed=22)


def warehouse_scene():
    config = ConveyorConfig(lanes=2, cartons_per_lane=3)
    return conveyor_scene(conveyor_batch(config, seed=23), seed=23)


def coupling_on_moving_scene():
    """Moving tags with coupling active: the dense-filter physics path."""
    batch = baggage_batch(MORNING_PEAK, bag_count=5, seed=31)
    scene = standard_tag_moving_scene(batch.tags, seed=31)
    assert scene.reader_config.tag_coupling_coefficient > 0.0
    return scene


def coupling_off_moving_scene():
    """Moving tags with coupling off: the paired position-query path."""
    scene = coupling_on_moving_scene()
    return dataclasses.replace(
        scene,
        reader_config=dataclasses.replace(
            scene.reader_config, tag_coupling_coefficient=0.0
        ),
    )


def closure_scene():
    """Caller-supplied closure positions (no array-native provider)."""
    tags = make_tags([Point3D(i * 0.07, 0.0, 0.0) for i in range(4)], seed=4)
    starts = tags.positions()

    def wobble(tag_id, t):
        start = starts[tag_id]
        return Point3D(start.x - 0.25 * t, start.y + 0.01 * np.sin(t), start.z)

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


WORKLOADS = {
    "library": library_scene,
    "airport": airport_scene,
    "warehouse": warehouse_scene,
    "coupling_on_moving": coupling_on_moving_scene,
    "coupling_off_moving": coupling_off_moving_scene,
    "closure": closure_scene,
}


@dataclasses.dataclass(frozen=True)
class CompletedSweep:
    reader: RFIDReader
    scene: Scene
    table: SweepEventTable
    stats: dict

    def observe(self, rows: np.ndarray) -> SweepEventTable:
        """Run the physics pass on a fresh table holding only ``rows``."""
        scenario = self.scene.scenario
        setup = self.reader._sweep_setup(
            self.scene.tags, scenario.tag_position, scenario.antenna_position
        )
        sub = dataclasses.replace(
            self.table,
            **{name: getattr(self.table, name)[rows] for name in SCHEDULING_COLUMNS},
            phase_rad=None,
            rssi_dbm=None,
            readable=None,
            deep_fade=None,
        )
        self.reader._observe_events(setup, scenario.antenna_position, sub)
        return sub


@lru_cache(maxsize=None)
def completed_sweep(workload: str) -> CompletedSweep:
    """One fused sweep of ``workload``; callers must not mutate its table."""
    scene = WORKLOADS[workload]()
    reader = RFIDReader(config=scene.reader_config, protocol=scene.protocol)
    scenario = scene.scenario
    table = reader.sweep_events(
        scene.tags,
        scenario.antenna_position,
        scenario.duration_s,
        scenario.tag_position,
        scene.rng(),
    )
    assert table.observed and len(table) > 0
    return CompletedSweep(reader, scene, table, dict(reader.last_sweep_stats))


def assert_rows_match(observed: SweepEventTable, table: SweepEventTable, rows) -> None:
    for name in OBSERVABLES:
        expected = getattr(table, name)[rows]
        actual = getattr(observed, name)
        assert actual.dtype == expected.dtype, name
        assert np.array_equal(actual, expected), name


class TestPhysicsIsRowLocal:
    """Any row subset or order reproduces the whole-table pass, bitwise."""

    @pytest.mark.parametrize("chunk", [7, 64, 257, 1_000_000])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_contiguous_ranges_match_single_pass(self, workload, chunk):
        sweep = completed_sweep(workload)
        count = len(sweep.table)
        for start in range(0, count, chunk):
            rows = np.arange(start, min(start + chunk, count))
            assert_rows_match(sweep.observe(rows), sweep.table, rows)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_permuted_rows_match_single_pass(self, workload):
        sweep = completed_sweep(workload)
        rows = np.random.default_rng(7).permutation(len(sweep.table))
        assert_rows_match(sweep.observe(rows), sweep.table, rows)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_single_rows_match_single_pass(self, workload):
        sweep = completed_sweep(workload)
        count = len(sweep.table)
        picks = np.random.default_rng(11).choice(count, size=min(25, count), replace=False)
        for row in picks:
            rows = np.array([row])
            assert_rows_match(sweep.observe(rows), sweep.table, rows)

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_reevaluation_is_idempotent(self, workload):
        sweep = completed_sweep(workload)
        rows = np.arange(len(sweep.table))
        first = sweep.observe(rows)
        second = sweep.observe(rows)
        assert_rows_match(first, sweep.table, rows)
        assert_rows_match(second, sweep.table, rows)

    def test_empty_table_gets_empty_columns(self):
        sweep = completed_sweep("library")
        empty = sweep.observe(np.arange(0))
        assert empty.observed
        assert len(empty) == 0
        assert_rows_match(empty, sweep.table, np.arange(0))
        assert len(empty.to_read_log()) == 0


class TestSweepStats:
    """``last_sweep_stats``: attempt counters plus the wall-time split."""

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_keys_and_wall_split(self, workload):
        stats = completed_sweep(workload).stats
        assert set(stats) == {
            "attempts",
            "rolled_back_rounds",
            "per_round_fallback",
            "scheduling_s",
            "physics_s",
        }
        assert stats["attempts"] >= 1
        assert stats["rolled_back_rounds"] <= stats["attempts"] - 1
        assert stats["scheduling_s"] > 0.0
        assert stats["physics_s"] > 0.0


def _parameter_names(fn) -> tuple[str, ...]:
    return tuple(
        name for name in inspect.signature(fn).parameters if name != "self"
    )


class TestOneEngineSelector:
    """``engine=`` is the only sweep-engine switch on every entry point."""

    @pytest.mark.parametrize(
        "fn, expected",
        [
            (RFIDReader.__init__, ("config", "protocol")),
            (
                RFIDReader.sweep,
                ("tags", "antenna_position", "duration_s", "tag_position", "rng", "engine"),
            ),
            (
                RFIDReader.sweep_events,
                ("tags", "antenna_position", "duration_s", "tag_position", "rng"),
            ),
            (collect_sweep, ("scene", "engine")),
        ],
        ids=["reader_init", "reader_sweep", "reader_sweep_events", "collect_sweep"],
    )
    def test_entry_point_parameters(self, fn, expected):
        assert _parameter_names(fn) == expected

    def test_sweep_service_fields(self):
        names = tuple(field.name for field in dataclasses.fields(SweepService))
        assert names == ("max_workers", "shard_size", "parallel")

    def test_engine_defaults_to_fused(self):
        for fn in (RFIDReader.sweep, collect_sweep):
            assert inspect.signature(fn).parameters["engine"].default == "fused"

    def test_collect_sweep_rejects_batched_switch(self):
        with pytest.raises(TypeError, match="batched"):
            collect_sweep(library_scene(), batched=False)

    def test_reader_sweep_rejects_batched_switch(self):
        scene = library_scene()
        reader = RFIDReader(config=scene.reader_config, protocol=scene.protocol)
        with pytest.raises(TypeError, match="batched"):
            reader.sweep(
                scene.tags,
                scene.scenario.antenna_position,
                scene.scenario.duration_s,
                batched=False,
            )

    # "round" named the per-round engine, which is gone.
    @pytest.mark.parametrize("engine", [None, "round"])
    def test_unknown_engine_is_rejected(self, engine):
        with pytest.raises(ValueError, match="engine must be one of"):
            collect_sweep(library_scene(), engine=engine)

    def test_backend_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.rfid.backends")
