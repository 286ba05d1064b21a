"""Outside-in layer tracing: time the calls into each layer's public functions.

Nothing under ``src/`` is instrumented.  :class:`LayerTracer` replaces a
method on its class, or a module-level function in every ``repro`` module
namespace that holds it (``repro.service.session.order_tags_x`` as well as
``repro.core.ordering_x.order_tags_x``), with a wrapper that records a span.
The wrappers exist only between :meth:`LayerTracer.install` and
:meth:`LayerTracer.uninstall`, which puts every original back.

Spans nest per thread.  A span's self time is its duration minus the time
covered by its direct child spans on the same thread, so a fleet worker's
``LocalizationSession.ingest_batch`` never counts as a child of the generator
thread's ``FleetService.finalize``: the finalize span's self time is then the
time it spent waiting for the queue to drain.  Only aggregates are kept
(calls, total, self and size per span name), not the spans themselves.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

SizeOf = Callable[[tuple, dict, Any], int]
"""``size_of(args, kwargs, result)`` -> the size of one call's work
(checkpoint bytes, simulated reads)."""


@dataclass
class SpanStats:
    """Aggregates of every span recorded under one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    size: int = 0
    """Sum of what the trace point's ``size_of`` measured (0 without one)."""


def _checkpoint_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    return len(result) if isinstance(result, (bytes, bytearray)) else 0


def _restore_bytes(args: tuple, kwargs: dict, result: Any) -> int:
    # A classmethod: args[0] is the class, the checkpoint bytes follow.
    data = next((a for a in args if isinstance(a, (bytes, bytearray))), None)
    return len(data if data is not None else kwargs.get("data", b""))


def _simulated_reads(args: tuple, kwargs: dict, result: Any) -> int:
    read_log = getattr(result, "read_log", None)
    return 0 if read_log is None else len(read_log)


class TracePoint(NamedTuple):
    """One public function of a layer, and the span name its calls record."""

    module: str
    owner: str | None
    """Class name for a method; None for a module-level function."""
    attr: str
    span: str
    """``<package>.<Class.fn>``: the layer is the ``src/repro`` package."""
    size_of: SizeOf | None = None
    size_metric: str | None = None
    size_unit: str | None = None


TRACE_POINTS: tuple[TracePoint, ...] = (
    TracePoint("repro.rfid.reader", "RFIDReader", "sweep", "rfid.RFIDReader.sweep"),
    TracePoint("repro.rf.channel", "BackscatterChannel", "sweep_physics",
               "rf.BackscatterChannel.sweep_physics"),
    TracePoint("repro.simulation.collector", None, "collect_sweep",
               "simulation.collect_sweep", _simulated_reads, "simulation.reads", "count"),
    TracePoint("repro.evaluation.sweep", "SweepService", "run_many",
               "evaluation.SweepService.run_many"),
    TracePoint("repro.evaluation.metrics", None, "evaluate_ordering",
               "evaluation.evaluate_ordering"),
    TracePoint("repro.baselines.backpos", "BackPosScheme", "order",
               "baselines.BackPosScheme.order"),
    TracePoint("repro.baselines.otrack", "OTrackScheme", "order",
               "baselines.OTrackScheme.order"),
    TracePoint("repro.baselines.landmarc", "LandmarcScheme", "order",
               "baselines.LandmarcScheme.order"),
    TracePoint("repro.baselines.g_rssi", "GRssiScheme", "order",
               "baselines.GRssiScheme.order"),
    TracePoint("repro.baselines.stpp_scheme", "STPPScheme", "order",
               "baselines.STPPScheme.order"),
    TracePoint("repro.core.localizer", "BatchLocalizer", "localize",
               "core.BatchLocalizer.localize"),
    TracePoint("repro.core.vzone", "VZoneDetector", "detect_all",
               "core.VZoneDetector.detect_all"),
    TracePoint("repro.core.dtw", None, "segmented_dtw_align_batch",
               "core.segmented_dtw_align_batch"),
    TracePoint("repro.core.dtw", "ResumableSegmentAligner", "align",
               "core.ResumableSegmentAligner.align"),
    TracePoint("repro.core.fitting", None, "fit_vzone", "core.fit_vzone"),
    TracePoint("repro.core.ordering_x", None, "order_tags_x", "core.order_tags_x"),
    TracePoint("repro.core.ordering_y", None, "order_tags_y", "core.order_tags_y"),
    TracePoint("repro.service.session", "LocalizationSession", "ingest_batch",
               "service.LocalizationSession.ingest_batch"),
    TracePoint("repro.service.session", "LocalizationSession", "provisional",
               "service.LocalizationSession.provisional"),
    TracePoint("repro.service.session", "LocalizationSession", "finalize",
               "service.LocalizationSession.finalize"),
    TracePoint("repro.service.session", "LocalizationSession", "checkpoint",
               "service.LocalizationSession.checkpoint", _checkpoint_bytes,
               "service.LocalizationSession.checkpoint.bytes", "B"),
    TracePoint("repro.service.session", "LocalizationSession", "restore",
               "service.LocalizationSession.restore", _restore_bytes,
               "service.LocalizationSession.restore.bytes", "B"),
    TracePoint("repro.service.fleet", "FleetService", "ingest",
               "service.FleetService.ingest"),
    TracePoint("repro.service.fleet", "FleetService", "provisional",
               "service.FleetService.provisional"),
    TracePoint("repro.service.fleet", "FleetService", "finalize",
               "service.FleetService.finalize"),
    TracePoint("repro.faults.injectors", "FaultPipeline", "push",
               "faults.FaultPipeline.push"),
)


def _import_all_repro_modules() -> None:
    """Import every ``repro`` module before patching.

    A module imported while the wrappers are installed would bind a wrapper
    by name and keep it after :meth:`LayerTracer.uninstall`.
    """
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


class LayerTracer:
    """Installs span wrappers at :data:`TRACE_POINTS` and aggregates spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[dict[str, SpanStats]] = []
        self._restore: list[Callable[[], None]] = []

    # -- span recording ------------------------------------------------------

    def _thread_state(self) -> tuple[list[list[float]], dict[str, SpanStats]]:
        """This thread's open-span stack and its own aggregates.

        Aggregating per thread keeps a lock off the traced call path; the
        lock is taken once per thread, to register its aggregates.
        """
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._per_thread.append(state[1])
        return state

    def _wrap(self, name: str, fn: Callable, size_of: SizeOf | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, aggregates = tracer._thread_state()
            children = [0.0]
            stack.append(children)
            result = None
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats = aggregates.get(name)
                if stats is None:
                    stats = aggregates[name] = SpanStats()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
                if size_of is not None:
                    stats.size += size_of(args, kwargs, result)

        return traced

    def snapshot(self) -> dict[str, SpanStats]:
        """The aggregates of every thread, merged.  Call it once the traced
        threads are idle: their aggregates are read without a lock."""
        merged: dict[str, SpanStats] = {}
        with self._lock:
            per_thread = list(self._per_thread)
        for aggregates in per_thread:
            for name, stats in list(aggregates.items()):
                total = merged.setdefault(name, SpanStats())
                total.calls += stats.calls
                total.total_s += stats.total_s
                total.self_s += stats.self_s
                total.size += stats.size
        return merged

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every trace point (once: a second install raises)."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        _import_all_repro_modules()
        try:
            for point in TRACE_POINTS:
                module = importlib.import_module(point.module)
                if point.owner is None:
                    function = getattr(module, point.attr)
                    self._patch_function(function, point.span, point.size_of)
                else:
                    owner = getattr(module, point.owner)
                    self._patch_method(owner, point.attr, point.span, point.size_of)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._restore:
            self._restore.pop()()

    def _patch_method(
        self, cls: type, attr: str, name: str, size_of: SizeOf | None
    ) -> None:
        raw = cls.__dict__.get(attr)
        if raw is None:
            # Inherited (BatchLocalizer.localize): shadow it on this class only.
            wrapped: Any = self._wrap(name, getattr(cls, attr), size_of)
            self._restore.append(lambda: delattr(cls, attr))
        elif isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(name, raw.__func__, size_of))
            self._restore.append(lambda: setattr(cls, attr, raw))
        else:
            wrapped = self._wrap(name, raw, size_of)
            self._restore.append(lambda: setattr(cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _patch_function(self, fn: Callable, name: str, size_of: SizeOf | None) -> None:
        wrapped = self._wrap(name, fn, size_of)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
                    self._restore.append(
                        lambda module=module, attr=attr: setattr(module, attr, fn)
                    )
