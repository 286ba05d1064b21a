"""The three benchmark workloads: set-up, one timed pass, and its oracles.

Each workload is built from a seed and a :class:`Scale`.  ``setup()`` makes
every input the timed pass needs (simulated traffic, per-portal fault specs)
and the standalone oracles its outputs are checked against; ``run_pass()``
is the timed unit and returns a :class:`PassResult` that already holds the
oracle verdicts, so a divergence is counted as a failed operation.

* ``leaderboard`` ranks the five schemes: ``compute_leaderboard`` on a serial
  ``SweepService``.  Scheduling, physics, the baselines and STPP's batch
  localizer do the work; no ``service`` code runs.
* ``fleet`` replays simulated portal sweeps through a ``FleetService`` from
  one generator thread (a closed loop: a fixed number of portals is open at
  once, and a portal is finalized as soon as its last batch is handed over).
  Only the ``service`` layer and STPP's streaming aligner run.
* ``fleet-chaos`` is the same traffic with every portal armed with a seeded
  ``FaultSpec`` and sessions that raise ``TransientFaultError`` at seeded
  batches, so checkpoint writes and restore-plus-replay run beside ingest.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any
from unittest import mock

import numpy as np

from repro.baselines import STPPScheme
from repro.bench.leaderboard import compute_leaderboard
from repro.evaluation.metrics import evaluate_ordering
from repro.evaluation.sweep import SweepService
from repro.faults import FaultSpec
from repro.scenarios import default_registry
from repro.scenarios.builders import scenario_experiment
from repro.scenarios.registry import DEFAULT_SEED, SEED_STRIDE
from repro.service import (
    FleetConfig,
    FleetError,
    FleetService,
    LocalizationSession,
    TransientFaultError,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

BATCH_READS = 128
"""Reads per batch handed to the fleet (one reader report)."""

LEADERBOARD_SEED = DEFAULT_SEED
"""The leaderboard always runs at the seed its accuracy floors are pinned at
(``BENCH_accuracy.json``).  At other seeds ``compute_leaderboard`` can raise:
some library deployments hold fewer Landmarc reference tags than its k."""


def worker_count() -> int:
    """Fleet workers: the CPUs this process may run on (what ``nproc`` says)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Scale:
    """How much work one pass does."""

    leaderboard_repetitions: int = 2
    portals: int = 128
    """Portal sweeps replayed per fleet pass."""
    open_portals: int = 32
    """Portals the generator keeps open at once."""
    seeds_per_scenario: int = 3
    """Distinct simulated sweeps per registered scenario; portals replay them
    round-robin, so consecutive portals come from different scenarios."""
    scenarios: int | None = None
    """Use only the first N registered scenarios (None: all)."""
    min_passes: int = 3
    """Timed passes per run at least, so that every sweep's or portal's
    latency is a median of three or more measurements."""
    setup_repeats: int = 3
    """Set-ups per run; ``setup_s`` is their median."""


FULL = Scale()
TINY = Scale(
    leaderboard_repetitions=1, portals=6, open_portals=3, seeds_per_scenario=1,
    scenarios=3, min_passes=2, setup_repeats=1,
)


@dataclass
class PassResult:
    """What one timed pass measured, and what its oracles found."""

    cpu_s: float
    """Process CPU seconds the pass took: what ``pass_s`` reports."""
    wall_s: float
    attempted: int
    failed: int
    accuracy: float
    """STPP mean combined ordering accuracy of this pass's outputs."""
    final_latency_s: dict[Any, float] = field(default_factory=dict)
    """Final latency per scored sweep or portal, keyed so that the same
    sweep or portal has the same key in every pass.  Fleet latencies (this
    and the provisional ones) are read on the process CPU clock; the
    leaderboard's come from the sweep engine's own wall-clock timer."""
    provisional_latency_s: list[float] = field(default_factory=list)
    reads: int = 0
    counters: dict[str, float] = field(default_factory=dict)
    """Program counters read after the pass (per-layer counts)."""
    problems: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# leaderboard
# --------------------------------------------------------------------------


def _load_accuracy_checker():
    """``benchmarks/check_accuracy.py``, loaded under a private module name."""
    path = REPO_ROOT / "benchmarks" / "check_accuracy.py"
    spec = importlib.util.spec_from_file_location("_perfbench_check_accuracy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _OutcomeRecorder(SweepService):
    """A serial sweep service that keeps the outcomes it returns.

    The outcomes carry each scored sweep's STPP ordering latency, which the
    sweep engine measures itself (``SweepExperiment.run_scheme``).
    """

    def __init__(self) -> None:
        super().__init__(max_workers=1)
        self.outcomes: list = []

    def run_many(self, plans):
        outcomes = super().run_many(plans)
        self.outcomes.extend(outcomes)
        return outcomes


class Leaderboard:
    """The five-scheme leaderboard over the registered scenarios, serially."""

    name = "leaderboard"

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        # The seed is accepted for a uniform interface; see LEADERBOARD_SEED.
        self.scale = scale
        self.expected: dict[str, Any] | None = None

    def setup(self) -> None:
        """Warm simulation and STPP on one sweep per scenario; load the oracle."""
        self.checker = _load_accuracy_checker()
        registry = default_registry()
        stpp = STPPScheme()
        for index, name in enumerate(registry.names()[: self.scale.scenarios]):
            experiment = scenario_experiment(
                0, LEADERBOARD_SEED + SEED_STRIDE * index, registry.get(name)
            )
            experiment.run_scheme(stpp)

    def run_pass(self) -> PassResult:
        service = _OutcomeRecorder()
        started, cpu_started = time.perf_counter(), time.process_time()
        payload = compute_leaderboard(
            repetitions=self.scale.leaderboard_repetitions,
            seed=LEADERBOARD_SEED,
            service=service,
        )
        cpu = time.process_time() - cpu_started
        wall = time.perf_counter() - started
        latencies = {
            (outcome.plan, result.rep_index): float(score.latency_s)
            for outcome in service.outcomes
            for result in outcome.results
            for score in result.scores
            if score.scheme == "STPP"
        }
        problems = self._check(payload)
        sweeps = len(latencies)
        return PassResult(
            cpu_s=cpu,
            wall_s=wall,
            attempted=sweeps,
            failed=sweeps if problems else 0,
            accuracy=float(payload["mean_combined"]["STPP"]),
            final_latency_s=latencies,
            problems=problems,
        )

    def _check(self, payload: dict[str, Any]) -> list[str]:
        """check_accuracy's floors and fig17 ordering; equal to the first pass."""
        problems = []
        if self.expected is None:
            self.expected = payload
        elif payload != self.expected:
            problems.append("leaderboard payload differs between two passes")
        record = {**payload, "generated_at": "perfbench", "platform": "perfbench"}
        with tempfile.TemporaryDirectory(dir=REPO_ROOT / "perfbench") as scratch:
            path = Path(scratch) / "accuracy.json"
            path.write_text(json.dumps(record))
            self.checker.FAILURES.clear()
            # Run the gate as CI does, with its own default floors and margins.
            argv = ["check_accuracy.py", "--accuracy", str(path)]
            with mock.patch.object(sys, "argv", argv), contextlib.redirect_stdout(
                io.StringIO()
            ):
                try:
                    self.checker.main()
                except SystemExit:
                    pass  # the failures are in FAILURES
        problems.extend(f"check_accuracy: {f}" for f in self.checker.FAILURES)
        return problems


# --------------------------------------------------------------------------
# fleet traffic
# --------------------------------------------------------------------------


@dataclass
class _Sweep:
    """One simulated sweep, replayable as reader batches."""

    scenario: str
    tag_ids: list[str]
    channel: int
    batches: list
    true_x: dict[str, float]
    true_y: dict[str, float]


@dataclass
class _PortalPlan:
    """One portal of the replay: which sweep, and what goes wrong on it."""

    index: int
    sweep: _Sweep
    fault_spec: FaultSpec | None = None
    fail_at: int | None = None
    """Ingested-batch count at which the session raises a transient fault."""
    oracle: Any = None
    """The standalone session's final update this portal must equal."""
    provisional_at: tuple[int, ...] = ()
    """After how many handed-over batches the two provisional refreshes run."""

    def __post_init__(self) -> None:
        count = len(self.sweep.batches)
        self.provisional_at = tuple(sorted({max(1, count // 3), max(1, 2 * count // 3)}))

    @property
    def facility(self) -> str:
        return f"facility-{self.sweep.scenario}"

    @property
    def portal_id(self) -> str:
        return f"portal-{self.index:03d}"

    @property
    def key(self) -> str:
        return f"{self.facility}/{self.portal_id}"


def simulate_traffic(seed: int, scale: Scale) -> list[_Sweep]:
    """Distinct sweeps of the registered scenarios, interleaved by scenario."""
    registry = default_registry()
    names = registry.names()[: scale.scenarios]
    sweeps = []
    for replica in range(scale.seeds_per_scenario):
        for index, name in enumerate(names):
            sweep_seed = int(
                np.random.SeedSequence([seed, index, replica]).generate_state(1)[0]
            )
            experiment = scenario_experiment(replica, sweep_seed, registry.get(name))
            sweeps.append(
                _Sweep(
                    scenario=name,
                    tag_ids=list(experiment.target_ids),
                    channel=experiment.scene.reader_config.channel.channel_index,
                    batches=list(experiment.read_log.iter_batches(BATCH_READS)),
                    true_x=experiment.true_x,
                    true_y=experiment.true_y,
                )
            )
    return sweeps


def _standalone_final(plan: _PortalPlan, out_of_order: str):
    """A lone session fed what the fleet feeds the portal (after faults)."""
    session = LocalizationSession(
        expected_tag_ids=plan.sweep.tag_ids,
        channel_index=plan.sweep.channel,
        out_of_order=out_of_order,
    )
    batches = plan.sweep.batches
    if plan.fault_spec is not None:
        # The fleet seeds a portal's pipeline from its key, the same way.
        pipeline = plan.fault_spec.build(seed_offset=zlib.crc32(plan.key.encode()))
        batches = pipeline.apply(batches)
    for batch in batches:
        session.ingest_batch(batch)
    return session.finalize()


def _same_final(final, expected) -> bool:
    return (
        final.result.x_ordering == expected.result.x_ordering
        and final.result.y_ordering == expected.result.y_ordering
        and final.reads_ingested == expected.reads_ingested
    )


class _FlakySession(LocalizationSession):
    """Raises one ``TransientFaultError`` before ingesting batch ``fail_at``.

    A restart from checkpoint rebuilds a plain ``LocalizationSession``, so
    the fault fires at most once per portal.
    """

    def __init__(self, fail_at: int | None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.fail_at = fail_at
        self.fired = 0

    def ingest_batch(self, batch) -> None:
        if not self.fired and self.batches_ingested == self.fail_at:
            self.fired = 1
            raise TransientFaultError(f"injected reader-link fault at batch {self.fail_at}")
        super().ingest_batch(batch)


class _FlakySessionFactory:
    """``FleetConfig.session_factory`` that remembers every session it built."""

    def __init__(self, fail_at: dict[str, int | None]) -> None:
        self.fail_at = fail_at
        self.sessions: dict[str, _FlakySession] = {}

    def __call__(self, key, **kwargs) -> LocalizationSession:
        session = _FlakySession(self.fail_at[str(key)], **kwargs)
        self.sessions[str(key)] = session
        return session


class Fleet:
    """Closed-loop replay of simulated portal sweeps through a FleetService."""

    name = "fleet"
    out_of_order = "reorder"

    def __init__(self, seed: int, scale: Scale = FULL) -> None:
        self.seed = seed
        self.scale = scale
        self.workers = worker_count()

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        sweeps = simulate_traffic(self.seed, self.scale)
        self.plans = [
            _PortalPlan(index=i, sweep=sweeps[i % len(sweeps)])
            for i in range(self.scale.portals)
        ]
        self._arm()
        self._build_oracles()

    def _arm(self) -> None:
        """Fault-free traffic: nothing to arm."""

    def _build_oracles(self) -> None:
        # Fault-free portals replaying one sweep share its oracle.
        finals: dict[int, Any] = {}
        for plan in self.plans:
            sweep_id = id(plan.sweep)
            if sweep_id not in finals:
                finals[sweep_id] = _standalone_final(plan, self.out_of_order)
            plan.oracle = finals[sweep_id]

    def fleet_config(self) -> FleetConfig:
        return FleetConfig(worker_count=self.workers, shed_policy="block")

    # -- the timed pass ------------------------------------------------------

    def run_pass(self) -> PassResult:
        config = self.fleet_config()
        final_latency: dict[int, float] = {}
        provisional_latency: list[float] = []
        failed_portals: set[int] = set()
        problems: list[str] = []
        finals: dict[int, Any] = {}
        portal_stats = {}
        reads = 0
        pending = deque(self.plans)
        active: list[list] = []  # [plan, key, batches handed over]

        # The process CPU clock: on a GIL-bound process it reads wall time
        # minus the time the host's hypervisor stole (see README.md).
        clock = time.process_time
        with FleetService(config) as fleet:
            started, cpu_started = time.perf_counter(), clock()
            while pending or active:
                while pending and len(active) < self.scale.open_portals:
                    plan = pending.popleft()
                    key = fleet.open_portal(
                        plan.facility,
                        plan.portal_id,
                        expected_tag_ids=plan.sweep.tag_ids,
                        channel_index=plan.sweep.channel,
                        fault_spec=plan.fault_spec,
                        out_of_order=self.out_of_order,
                    )
                    active.append([plan, key, 0])
                for entry in list(active):
                    plan, key, handed = entry
                    batches = plan.sweep.batches
                    try:
                        last = handed + 1 == len(batches)
                        handed_at = clock()
                        fleet.ingest(key, batches[handed])
                        reads += len(batches[handed])
                        entry[2] = handed = handed + 1
                        if handed in plan.provisional_at and not last:
                            began = clock()
                            fleet.provisional(key)
                            provisional_latency.append(clock() - began)
                        if last:
                            finals[plan.index] = fleet.finalize(key)
                            final_latency[plan.index] = clock() - handed_at
                    except FleetError as exc:
                        failed_portals.add(plan.index)
                        problems.append(f"{key}: {type(exc).__name__}: {exc}")
                        last = True
                    if last:
                        portal_stats[plan.index] = fleet.portal_stats(key)
                        fleet.evict(key, force=True)
                        active.remove(entry)
            cpu = clock() - cpu_started
            wall = time.perf_counter() - started
            cache = fleet.profile_cache.stats()

        accuracies = []
        for plan in self.plans:
            final = finals.get(plan.index)
            stats = portal_stats.get(plan.index)
            if final is None or stats is None:
                failed_portals.add(plan.index)
                continue
            if not _same_final(final, plan.oracle):
                failed_portals.add(plan.index)
                problems.append(f"{plan.portal_id}: final differs from standalone session")
            if stats.shed_reads or stats.state == "quarantined":
                failed_portals.add(plan.index)
                problems.append(f"{plan.portal_id}: shed {stats.shed_reads} reads, {stats.state}")
            evaluation = evaluate_ordering(
                plan.sweep.true_x,
                plan.sweep.true_y,
                final.result.x_ordering.ordered_ids,
                final.result.y_ordering.ordered_ids,
            )
            accuracies.append(evaluation.combined)

        counters = {
            "service.restarts": sum(s.restarts for s in portal_stats.values()),
            "service.retries": sum(s.retries for s in portal_stats.values()),
            "faults.injected": sum(s.faults_injected for s in portal_stats.values()),
            "service.ProfileCacheRegistry.hits": cache["hits"],
            "service.ProfileCacheRegistry.builds": cache["builds"],
        }
        problems.extend(self._check_recovery(portal_stats, failed_portals, counters))
        return PassResult(
            cpu_s=cpu,
            wall_s=wall,
            attempted=len(self.plans),
            failed=len(failed_portals),
            accuracy=float(np.mean(accuracies)) if accuracies else float("nan"),
            final_latency_s=final_latency,
            provisional_latency_s=provisional_latency,
            reads=reads,
            counters=counters,
            problems=problems,
        )

    def _check_recovery(self, portal_stats, failed_portals, counters) -> list[str]:
        """Fault-free traffic must never restart a session."""
        if counters["service.restarts"] or counters["service.retries"]:
            failed_portals.update(portal_stats)
            return ["fault-free traffic restarted a session"]
        return []


class FleetChaos(Fleet):
    """The fleet replay with seeded feed faults and transient session faults."""

    name = "fleet-chaos"
    out_of_order = "dedupe"

    def _arm(self) -> None:
        for plan in self.plans:
            rng = np.random.default_rng([self.seed, plan.index, 0xC4A05])
            count = len(plan.sweep.batches)
            plan.fault_spec = FaultSpec.from_json(
                {
                    "seed": int(rng.integers(2**31)),
                    "injectors": [
                        {"kind": "read_loss", "rate": float(rng.uniform(0.02, 0.10))},
                        {"kind": "duplicate", "rate": float(rng.uniform(0.02, 0.08))},
                        {
                            "kind": "clock_skew",
                            "rate": float(rng.uniform(0.02, 0.08)),
                            "max_skew_s": 0.02,
                        },
                        {
                            "kind": "disconnect",
                            "start_batch": int(rng.integers(1, max(2, count - 1))),
                            "batch_count": 1,
                        },
                    ],
                }
            )
            # Three portals in four take one transient fault mid-stream.
            if rng.random() < 0.75 and count > 2:
                plan.fail_at = int(rng.integers(1, count - 1))

    def _build_oracles(self) -> None:
        # Every portal degrades its feed differently (the fault pipeline is
        # seeded from the portal key), so each needs its own oracle.
        for plan in self.plans:
            plan.oracle = _standalone_final(plan, self.out_of_order)

    def fleet_config(self) -> FleetConfig:
        # A fresh factory per pass: _check_recovery reads the sessions it built.
        self.factory = _FlakySessionFactory({p.key: p.fail_at for p in self.plans})
        return FleetConfig(
            worker_count=self.workers,
            shed_policy="block",
            session_factory=self.factory,
            checkpoint_every=2,
            retry_backoff_s=0.0,
        )

    def _check_recovery(self, portal_stats, failed_portals, counters) -> list[str]:
        """Each portal restarted exactly as often as its session faulted."""
        problems = []
        injected = 0
        for plan in self.plans:
            session = self.factory.sessions.get(plan.key)
            stats = portal_stats.get(plan.index)
            fired = session.fired if session is not None else 0
            injected += fired
            if stats is not None and stats.restarts != fired:
                failed_portals.add(plan.index)
                problems.append(
                    f"{plan.portal_id}: {stats.restarts} restarts for {fired} faults"
                )
        counters["faults.transient_injected"] = injected
        return problems


WORKLOADS = {cls.name: cls for cls in (Leaderboard, Fleet, FleetChaos)}
