"""Spatial hashing for tag-to-tag coupling neighbour lookups.

The reader models mutual coupling by treating every tag within
``ReaderConfig.tag_coupling_radius_m`` of the observed tag as a weak
scatterer.  The scalar reference path discovers those neighbours by scanning
the whole population per read — O(N) distance checks per decoded reply,
which is the dominant cost for dense scenes.  :class:`NeighborGrid` replaces
the scan with a uniform spatial hash whose cell edge equals the coupling
radius: any point within the radius of a query point lives in one of the 27
cells surrounding the query's cell, so a bucket lookup plus an exact distance
filter finds the same neighbour set the scan does.

For static tag layouts (the antenna-moving case) the grid — and every tag's
exact neighbour list, packed as CSR arrays — is built once per sweep and
reused for every event.  When tags move, positions change at every read
timestamp, so the reader instead evaluates the exact vectorized distance
filter over chunks of events (the moral equivalent of rebuilding the grid at
each position change; for the populations the workloads use, the dense NumPy
filter is already faster than rebuilding buckets per event).

The exact filter compares ``distance <= radius`` with the same naive
``sqrt(dx²+dy²+dz²)`` arithmetic as the scalar scan, so the neighbour sets —
and therefore the simulated RF observations — are bit-identical.
"""

from __future__ import annotations

import numpy as np

from ..rf.geometry import euclidean_distances

_NEIGHBOR_OFFSETS = [
    (dx, dy, dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
]


class NeighborGrid:
    """Uniform spatial hash over a fixed set of positions.

    Parameters
    ----------
    positions:
        ``(N, 3)`` array of point positions (metres).
    radius:
        Neighbour radius; also the cell edge length.
    """

    def __init__(self, positions: np.ndarray, radius: float) -> None:
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius}")
        self._positions = np.asarray(positions, dtype=float)
        if self._positions.ndim != 2 or self._positions.shape[1] != 3:
            raise ValueError(
                f"positions must have shape (N, 3), got {self._positions.shape}"
            )
        self._radius = float(radius)
        self._keys = np.floor(self._positions / self._radius).astype(np.int64)
        buckets: dict[tuple[int, int, int], list[int]] = {}
        for index, key in enumerate(map(tuple, self._keys)):
            buckets.setdefault(key, []).append(index)
        self._buckets = {
            key: np.array(indices, dtype=np.intp) for key, indices in buckets.items()
        }
        self._packed: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def radius(self) -> float:
        """The neighbour radius (== cell edge), metres."""
        return self._radius

    def __len__(self) -> int:
        return int(self._positions.shape[0])

    def candidates(self, index: int) -> np.ndarray:
        """Indices in the 27-cell neighbourhood of point ``index`` (sorted).

        A superset of the true neighbours within the radius; includes
        ``index`` itself.
        """
        cx, cy, cz = (int(c) for c in self._keys[index])
        found = []
        for dx, dy, dz in _NEIGHBOR_OFFSETS:
            bucket = self._buckets.get((cx + dx, cy + dy, cz + dz))
            if bucket is not None:
                found.append(bucket)
        if not found:
            return np.empty(0, dtype=np.intp)
        return np.sort(np.concatenate(found))

    def neighbors_of(self, index: int) -> np.ndarray:
        """Indices within ``radius`` of point ``index`` (excluding itself).

        Returned sorted ascending — the insertion order the scalar
        whole-population scan visits them in.  :meth:`packed_neighbors`
        calls this once per point and caches the result.
        """
        candidates = self.candidates(index)
        candidates = candidates[candidates != index]
        if candidates.size:
            distances = euclidean_distances(
                self._positions[index], self._positions[candidates]
            )
            candidates = candidates[distances <= self._radius]
        return candidates

    def packed_neighbors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR packing of every point's neighbour list (cached).

        Returns ``(counts, offsets, flat)``: point ``i``'s neighbours are
        ``flat[offsets[i] : offsets[i] + counts[i]]``, sorted ascending — the
        same order :meth:`neighbors_of` returns.  The fused sweep engine uses
        this to expand a whole event table's coupling scatterers in a few
        NumPy calls instead of one Python lookup per decoded reply.
        """
        if self._packed is None:
            lists = [self.neighbors_of(i) for i in range(len(self))]
            counts = np.array([len(n) for n in lists], dtype=np.intp)
            offsets = np.concatenate(([0], np.cumsum(counts)))[:-1]
            flat = (
                np.concatenate(lists) if lists and counts.sum() else np.empty(0, dtype=np.intp)
            )
            self._packed = (counts, offsets, flat.astype(np.intp, copy=False))
        return self._packed

    def neighbors_for_events(
        self, tag_indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-event neighbour pairs for a batch of observed tags.

        ``tag_indices`` names the observed point of each event.  Returns
        ``(event_index, neighbor_index)`` — one row per (event, neighbour)
        pair, grouped by event in event order with each event's neighbours
        ascending — exactly the flattening of repeated :meth:`neighbors_of`
        calls, computed via the CSR arrays.
        """
        counts, offsets, flat = self.packed_neighbors()
        tag_indices = np.asarray(tag_indices, dtype=np.intp)
        event_counts = counts[tag_indices]
        total = int(event_counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
        event_index = np.repeat(np.arange(tag_indices.size, dtype=np.intp), event_counts)
        # Position of each pair inside ``flat``: the event's CSR offset plus
        # the pair's rank within its event.
        pair_starts = np.concatenate(([0], np.cumsum(event_counts)))[:-1]
        within_event = np.arange(total, dtype=np.intp) - np.repeat(pair_starts, event_counts)
        flat_position = np.repeat(offsets[tag_indices], event_counts) + within_event
        return event_index, flat[flat_position]
