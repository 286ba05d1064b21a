"""Incremental profile assembly: reads in, growing phase profiles out.

:class:`StreamingCollector` is the streaming counterpart of
:func:`~repro.simulation.collector.profiles_from_read_log`: instead of
converting a *finished* :class:`~repro.rfid.reading.ReadLog` into a
:class:`~repro.core.phase_profile.ProfileSet`, it ingests reads (single
:class:`~repro.rfid.reading.TagRead` objects or columnar
:class:`~repro.rfid.reading.ReadBatch` batches from the reader's per-round
stream) as they arrive and maintains one growing per-tag sample buffer with
amortized O(1) appends.  Snapshots taken at any instant are bit-identical to what the
batch converter would produce from the reads ingested so far — same stable
timestamp sort, same phase wrapping — which is the foundation of the
streaming session's batch-convergence guarantee.

Out-of-order reads (a late LLRP report, a replayed log that was never
sorted) are handled by policy, chosen at construction:

* ``"reorder"`` (default): the late read is accepted and the tag's samples
  are deterministically stable-sorted by timestamp at the next snapshot —
  exactly the sort :meth:`PhaseProfile.from_reads` applies, so the result is
  independent of arrival order.  Consumers that maintain incremental state
  over the sample sequence (the streaming session) detect the reorder via
  :attr:`TagStreamBuffer.reorders` and rebuild that tag's state.
* ``"dedupe"``: like ``"reorder"``, but an **exact duplicate** read (same
  tag, timestamp, channel, and wrapped phase — an LLRP report retry) is
  dropped instead of corrupting the profile; drops are counted per tag in
  :attr:`TagStreamBuffer.duplicates_dropped`, surfaced exactly like
  :attr:`TagStreamBuffer.reorders`.
* ``"raise"``: ingestion raises ``ValueError`` at the offending read, for
  deployments where a timestamp regression means a broken reader clock.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from ..core.phase_profile import PhaseProfile, ProfileSet
from ..rf.constants import TWO_PI
from ..rfid.reading import ReadBatch, TagRead

OUT_OF_ORDER_POLICIES = ("reorder", "dedupe", "raise")
"""Supported responses to a read whose timestamp precedes its tag's last one.
``"dedupe"`` additionally drops exact duplicate reads at ingest."""

_INITIAL_CAPACITY = 16


class TagStreamBuffer:
    """The growing sample columns of one tag (append order preserved).

    Appends are amortized O(1): columns live in NumPy buffers that double in
    capacity when full, and phases are wrapped into [0, 2π) chunk-wise at
    ingest time.  :meth:`sorted_arrays` / :meth:`profile` return snapshots in
    timestamp order — bit-identical to
    :meth:`PhaseProfile.from_reads` on the same reads in the same arrival
    order (stable sort, so equal timestamps keep arrival order).
    """

    __slots__ = (
        "tag_id",
        "_times",
        "_phases",
        "_rssis",
        "_count",
        "_last_time",
        "_disordered",
        "reorders",
        "duplicates_dropped",
        "_seen",
        "_profile_cache",
        "_profile_cache_count",
        "_channel_index",
    )

    def __init__(self, tag_id: str) -> None:
        self.tag_id = tag_id
        self._times = np.empty(_INITIAL_CAPACITY, dtype=float)
        self._phases = np.empty(_INITIAL_CAPACITY, dtype=float)
        self._rssis = np.empty(_INITIAL_CAPACITY, dtype=float)
        self._count = 0
        self._last_time = float("-inf")
        self._disordered = False
        self.reorders = 0
        """Incremented whenever an out-of-order read is accepted; incremental
        consumers rebuild their per-tag state when this changes."""
        self.duplicates_dropped = 0
        """Exact duplicate reads dropped at ingest (``"dedupe"`` policy only)."""
        self._seen: set[tuple[float, float, int]] | None = None
        self._profile_cache: PhaseProfile | None = None
        self._profile_cache_count = -1
        self._channel_index = 6

    def __len__(self) -> int:
        return self._count

    @property
    def last_timestamp_s(self) -> float:
        """Largest timestamp ingested so far (-inf when empty).

        ``_last_time`` is maintained as the global high-water mark on every
        append (disordered chunks included), so this is O(1).
        """
        return self._last_time

    def _ensure_capacity(self, extra: int) -> None:
        needed = self._count + extra
        capacity = self._times.shape[0]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        for name in ("_times", "_phases", "_rssis"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=float)
            grown[: self._count] = old[: self._count]
            setattr(self, name, grown)

    def append_columns(
        self,
        timestamps_s: np.ndarray,
        phases_rad: np.ndarray,
        rssi_dbm: np.ndarray,
        channel_index: int,
        out_of_order: str,
    ) -> int:
        """Append a chunk of this tag's reads (arrival order).

        Returns the number of exact duplicates dropped (always 0 unless the
        policy is ``"dedupe"``), so the collector can keep its read count an
        ingested-reads count.
        """
        count = timestamps_s.shape[0]
        if count == 0:
            return 0
        if out_of_order == "dedupe":
            timestamps_s, phases_rad, rssi_dbm, dropped = self._dedupe_chunk(
                timestamps_s, phases_rad, rssi_dbm, channel_index
            )
            count = timestamps_s.shape[0]
            if count == 0:
                return dropped
        else:
            dropped = 0
        in_order = timestamps_s[0] >= self._last_time and (
            count == 1 or bool(np.all(np.diff(timestamps_s) >= 0.0))
        )
        if not in_order:
            if out_of_order == "raise":
                raise ValueError(
                    f"tag {self.tag_id}: out-of-order timestamp "
                    f"(new read at {float(np.min(timestamps_s)):.6f} s after "
                    f"{self._last_time:.6f} s); collector policy is 'raise'"
                )
            if not self._disordered:
                self._disordered = True
            self.reorders += 1
        self._ensure_capacity(count)
        start = self._count
        self._times[start : start + count] = timestamps_s
        self._phases[start : start + count] = np.mod(phases_rad, TWO_PI)
        self._rssis[start : start + count] = rssi_dbm
        self._count += count
        # The chunk max, not the chunk's last element: after an internally
        # disordered chunk the next reads must be compared against the true
        # high-water mark, or a read between the two would dodge the reorder
        # detection (and the consumer's incremental-state rebuild).
        self._last_time = max(self._last_time, float(np.max(timestamps_s)))
        self._channel_index = int(channel_index)
        self._profile_cache = None
        return dropped

    def _dedupe_chunk(
        self,
        timestamps_s: np.ndarray,
        phases_rad: np.ndarray,
        rssi_dbm: np.ndarray,
        channel_index: int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Filter exact duplicates out of one chunk (``"dedupe"`` policy).

        A duplicate is a read identical to an already-ingested one in
        (timestamp, wrapped phase, channel) — this tag's buffer, so the tag
        id is implicit.  Phases are wrapped before comparison so the dropped
        read is exactly the one whose ingestion would be a no-op signal-wise;
        wrapping is idempotent, so passing wrapped phases onward changes
        nothing downstream.
        """
        if self._seen is None:
            self._seen = set()
        seen = self._seen
        channel = int(channel_index)
        wrapped = np.mod(phases_rad, TWO_PI)
        count = timestamps_s.shape[0]
        keep = np.ones(count, dtype=bool)
        for index in range(count):
            key = (float(timestamps_s[index]), float(wrapped[index]), channel)
            if key in seen:
                keep[index] = False
            else:
                seen.add(key)
        dropped = count - int(np.count_nonzero(keep))
        if dropped == 0:
            return timestamps_s, wrapped, rssi_dbm, 0
        self.duplicates_dropped += dropped
        return timestamps_s[keep], wrapped[keep], rssi_dbm[keep], dropped

    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(timestamps, wrapped phases, rssis)`` in stable timestamp order.

        The returned arrays are views/copies the caller must not mutate.
        """
        times = self._times[: self._count]
        phases = self._phases[: self._count]
        rssis = self._rssis[: self._count]
        if not self._disordered:
            return times, phases, rssis
        order = np.argsort(times, kind="stable")
        return times[order], phases[order], rssis[order]

    def profile(self, channel_index: int | None = None) -> PhaseProfile:
        """Snapshot of this tag's profile over the reads ingested so far."""
        channel = self._channel_index if channel_index is None else channel_index
        if (
            self._profile_cache is not None
            and self._profile_cache_count == self._count
            and self._profile_cache.channel_index == channel
        ):
            return self._profile_cache
        times, phases, rssis = self.sorted_arrays()
        profile = PhaseProfile(
            tag_id=self.tag_id,
            timestamps_s=times,
            phases_rad=phases,
            rssi_dbm=rssis,
            channel_index=channel,
        )
        self._profile_cache = profile
        self._profile_cache_count = self._count
        return profile


class StreamingCollector:
    """Ingests reads incrementally and maintains per-tag phase profiles.

    Parameters
    ----------
    channel_index:
        Channel label for the produced profiles.  When omitted it is derived
        from the ingested reads, with the same contract as
        :func:`~repro.simulation.collector.profiles_from_read_log`: a stream
        spanning several reader channels has no single per-profile channel,
        so :meth:`profiles` raises unless the label was given explicitly.
    out_of_order:
        ``"reorder"`` (default), ``"dedupe"``, or ``"raise"`` — see the
        module docstring.
    """

    def __init__(
        self,
        channel_index: int | None = None,
        out_of_order: str = "reorder",
    ) -> None:
        if out_of_order not in OUT_OF_ORDER_POLICIES:
            raise ValueError(
                f"out_of_order must be one of {OUT_OF_ORDER_POLICIES}, "
                f"got {out_of_order!r}"
            )
        self.out_of_order = out_of_order
        self._explicit_channel = channel_index
        self._channels_seen: set[int] = set()
        self._streams: dict[str, TagStreamBuffer] = {}
        self._read_count = 0

    def __len__(self) -> int:
        return self._read_count

    @property
    def read_count(self) -> int:
        """Total reads ingested so far (duplicates dropped at ingest under
        the ``"dedupe"`` policy are not counted)."""
        return self._read_count

    @property
    def duplicates_dropped(self) -> int:
        """Exact duplicate reads dropped across all tags (``"dedupe"`` only)."""
        return sum(stream.duplicates_dropped for stream in self._streams.values())

    @property
    def reorders(self) -> int:
        """Out-of-order acceptances across all tags (any policy but ``"raise"``)."""
        return sum(stream.reorders for stream in self._streams.values())

    def tag_ids(self) -> list[str]:
        """Distinct tag ids in first-seen order (matches ``ReadLog.tag_ids``)."""
        return list(self._streams)

    def stream(self, tag_id: str) -> TagStreamBuffer:
        """The growing buffer of one tag (raises ``KeyError`` if never seen)."""
        return self._streams[tag_id]

    def streams(self) -> Iterator[TagStreamBuffer]:
        """All tag buffers in first-seen order."""
        return iter(self._streams.values())

    # -- ingestion ---------------------------------------------------------

    def _stream_for(self, tag_id: str) -> TagStreamBuffer:
        stream = self._streams.get(tag_id)
        if stream is None:
            stream = TagStreamBuffer(tag_id)
            self._streams[tag_id] = stream
        return stream

    def ingest_read(self, read: TagRead) -> None:
        """Ingest one decoded reply."""
        self.ingest_columns(
            np.array([read.timestamp_s], dtype=float),
            (read.tag_id,),
            np.array([read.phase_rad], dtype=float),
            np.array([read.rssi_dbm], dtype=float),
            channel_index=read.channel_index,
        )

    def ingest(self, reads: Iterable[TagRead]) -> None:
        """Ingest many reads (arrival order preserved)."""
        for read in reads:
            self.ingest_read(read)

    def ingest_batch(self, batch: ReadBatch) -> None:
        """Ingest one columnar read batch (e.g. from ``sweep_stream``)."""
        self.ingest_columns(
            batch.timestamps_s,
            batch.tag_ids,
            batch.phases_rad,
            batch.rssi_dbm,
            channel_index=batch.channel_index,
        )

    def ingest_batches(self, batches: Iterable[ReadBatch]) -> int:
        """Ingest a stream of read batches; returns the number ingested.

        Convenience for replaying a whole per-round stream — e.g. the fused
        sweep engine's event table
        (:meth:`~repro.rfid.event_table.SweepEventTable.iter_round_batches`,
        which is what ``RFIDReader.sweep_stream`` yields) or a finished log's
        :meth:`~repro.rfid.reading.ReadLog.iter_batches` — in arrival order.
        """
        count = 0
        for batch in batches:
            self.ingest_batch(batch)
            count += 1
        return count

    def ingest_columns(
        self,
        timestamps_s: np.ndarray,
        tag_ids: "tuple[str, ...] | list[str]",
        phases_rad: np.ndarray,
        rssi_dbm: np.ndarray,
        channel_index: int = 6,
    ) -> None:
        """Ingest parallel read columns sharing one reader channel.

        The batch is split per tag and appended to each tag's buffer in
        column order, so ingesting a log's batches reproduces ingesting its
        reads one by one.
        """
        timestamps = np.asarray(timestamps_s, dtype=float)
        phases = np.asarray(phases_rad, dtype=float)
        rssis = np.asarray(rssi_dbm, dtype=float)
        count = len(tag_ids)
        if timestamps.shape != (count,) or phases.shape != (count,) or rssis.shape != (count,):
            raise ValueError(
                "column lengths disagree: "
                f"{count} ids vs {timestamps.shape} timestamps, "
                f"{phases.shape} phases, {rssis.shape} rssis"
            )
        if count == 0:
            return
        self._channels_seen.add(int(channel_index))
        dropped = 0
        if len(set(tag_ids)) == 1:
            dropped = self._stream_for(tag_ids[0]).append_columns(
                timestamps, phases, rssis, channel_index, self.out_of_order
            )
        else:
            by_tag: dict[str, list[int]] = {}
            for index, tag_id in enumerate(tag_ids):
                by_tag.setdefault(tag_id, []).append(index)
            for tag_id, indices in by_tag.items():
                rows = np.array(indices, dtype=np.intp)
                dropped += self._stream_for(tag_id).append_columns(
                    timestamps[rows],
                    phases[rows],
                    rssis[rows],
                    channel_index,
                    self.out_of_order,
                )
        self._read_count += count - dropped

    # -- snapshots ---------------------------------------------------------

    def resolved_channel_index(self) -> int | None:
        """The channel label profiles get (explicit, or derived from reads)."""
        if self._explicit_channel is not None:
            return self._explicit_channel
        if len(self._channels_seen) > 1:
            raise ValueError(
                "read stream spans multiple reader channels "
                f"({sorted(self._channels_seen)}); pass channel_index explicitly"
            )
        return next(iter(self._channels_seen)) if self._channels_seen else None

    def profile(self, tag_id: str) -> PhaseProfile:
        """Snapshot profile of one tag over the reads ingested so far."""
        channel = self.resolved_channel_index()
        return self._streams[tag_id].profile(
            channel_index=6 if channel is None else channel
        )

    def profiles(self) -> ProfileSet:
        """Snapshot of every tag's profile, in first-seen order.

        Bit-identical to ``profiles_from_read_log(log_so_far)`` where
        ``log_so_far`` holds the same reads in the same arrival order.
        """
        channel = self.resolved_channel_index()
        profile_set = ProfileSet()
        for tag_id in self._streams:
            profile_set.add(
                self._streams[tag_id].profile(
                    channel_index=6 if channel is None else channel
                )
            )
        return profile_set
