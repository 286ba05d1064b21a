"""BackPos baseline (Liu et al., INFOCOM 2014), reimplemented.

BackPos performs anchor-free absolute positioning from RF phase: several
antennas at known positions measure the phase of the same tag; pairwise phase
differences constrain the tag to hyperbolas, and intersecting them yields the
tag's position (modulo the half-wavelength ambiguity inherent to phase).

With a single moving antenna, snapshots of the sweep at a few known instants
play the role of the antenna array (the deployment geometry — where the
antenna is at a given time — is assumed known, exactly as BackPos assumes its
antenna positions are known).  The position is recovered by scoring candidate
positions on a grid against all phase measurements and picking the best match,
which is how hyperbolic/holographic phase positioning is implemented in
practice.  Ordering accuracy lands around the paper's reported ~80%: good, but
below STPP for closely spaced tags.

**Screen, then exact re-score.**  The estimate is the first cell maximising
the exact score ``S = |Σ_k exp(1j·(mod(4π·d_k/λ, 2π) − φ_k))|`` over the
grid.  Evaluating that complex expression on every cell is the expensive
part, so each tag's grid is first scored with a cheap float64 screen ``T``:
the same distances, the phase reduced as ``a − 2π·floor(a/2π)`` instead of
``np.mod``, ``np.cos``/``np.sin`` summed into real and imaginary planes, and
``np.hypot``.  Only the cells with ``T ≥ max T − 2ε`` are then re-scored with
the exact expression (same operands, same snapshot order — every operation
is elementwise, so a cell's exact score does not depend on which other cells
are evaluated beside it), and the first maximum among them wins.  If
``|T − S| ≤ ε`` on every cell, this is the exact full-grid argmax: the exact
maximiser ``c*`` has ``T(c*) ≥ S(c*) − ε ≥ S(ĉ) − ε ≥ T(ĉ) − 2ε`` for the
screen's maximiser ``ĉ``, and the same chain holds for every cell tied with
``c*``, so all exact maxima are candidates and the first-index tie-break
survives.

**How ε was derived.**  With unit roundoff ``u = 2⁻⁵³`` and the phase
argument ``a = 4π·d/λ``, both paths share ``d`` and ``a`` bit for bit.
``np.mod`` is ``fmod`` plus a sign fix, so the exact reduction is exact; the
screen's ``floor`` may pick a neighbouring multiple of ``2π`` (harmless: a
shift of ``2π`` moves cos/sin by at most ``|2π_float − 2π| < 2.5e-16``) and
its product and difference round by at most ``u·(a + 6π)``.  Subtracting
the snapshot phase (``φ ∈ [0, 2π)``) rounds by at most ``u·4π`` per path,
and libm's and NumPy's cos/sin are within 4 ulp, so each component of a
term differs by at most ``u·(a + 60)`` between the paths.  Over ``K``
snapshots each component sum also carries up to ``K²·u`` of accumulation
rounding per path, and the two magnitudes round by ``K·u`` each:

    |T − S| ≤ √2·(K·u·(a_max + 60) + 2K²·u) + 2K·u.

For the standard four-snapshot array and tags within 5 m of the antenna
(``a_max < 200`` rad) that is about ``2e-13``; ``ε = 1e-9`` holds it with
three orders of magnitude to spare.  A call whose bound would exceed ε (a
kilometre-scale region, or thousands of snapshots) scores the full grid
exactly instead.

**Coincident antenna rows.**  When every snapshot of a tag was taken from
the same antenna position — a static antenna watching a conveyor, for one —
the exact score is ``|Σ_k exp(−1j·φ_k)|`` on every cell: flat, with an
argmax decided by float rounding.  Such tags keep the exact full grid (a
screen would keep every cell anyway), with each distinct antenna row's
``mod`` field computed once per :meth:`BackPosScheme.order` call.  Their
count is reported as ``metadata["coincident_antenna_tags"]``: on those
scenes BackPos's estimate is rounding noise, not a position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..rf.constants import DEFAULT_CHANNEL_INDEX, TWO_PI, channel_wavelength_m
from ..rf.geometry import Point3D
from ..rfid.reading import ReadLog
from .base import OrderingScheme, SchemeResult

_SCREEN_TOLERANCE = 1e-9
"""ε: the bound on ``|screened − exact|`` score per cell (derivation above)."""


@dataclass
class BackPosScheme(OrderingScheme):
    """Phase-difference (hyperbolic) positioning, then ordering by coordinates."""

    antenna_position_at: Callable[[float], Point3D] | None = None
    """Known deployment geometry: antenna position as a function of time."""

    region_min: Point3D = Point3D(-0.5, -0.5, 0.0)
    region_max: Point3D = Point3D(1.5, 0.5, 0.0)
    """Bounding box of candidate tag positions (the deployment region)."""

    virtual_antenna_count: int = 4
    """How many sweep snapshots act as the antenna array."""

    grid_resolution_m: float = 0.01
    snapshot_window_s: float = 0.25
    """Reads within this window of a snapshot time contribute to its phase."""

    name: str = "BackPos"

    def order(self, read_log: ReadLog, expected_tag_ids: list[str]) -> SchemeResult:
        if self.antenna_position_at is None:
            raise ValueError("BackPos requires the antenna deployment geometry")
        channels = read_log.channel_indices()
        if len(channels) > 1:
            raise ValueError(
                f"read log spans multiple reader channels ({sorted(channels)}); "
                "BackPos needs one wavelength"
            )
        wavelength = channel_wavelength_m(
            channels.pop() if channels else DEFAULT_CHANNEL_INDEX
        )
        xs = np.arange(self.region_min.x, self.region_max.x, self.grid_resolution_m)
        ys = np.arange(self.region_min.y, self.region_max.y + 1e-9, self.grid_resolution_m)
        if xs.size == 0 or ys.size == 0:
            raise ValueError("empty candidate region")
        grid: tuple[np.ndarray, np.ndarray] | None = None
        # Exact predicted-phase field of the full grid per antenna row.
        fields: dict[tuple[float, float, float], np.ndarray] = {}

        estimated_x: dict[str, float] = {}
        estimated_y: dict[str, float] = {}
        coincident = 0
        for tag_id in expected_tag_ids:
            measurements = self._snapshots(read_log, tag_id)
            if len(measurements) < 3:
                continue
            # Coherent sum of per-snapshot residuals: its magnitude is maximal
            # when one constant offset (the unknown device offset mu) explains
            # every residual, i.e. when only phase *differences* are matched —
            # exactly the hyperbolic constraint BackPos uses.
            one_row = len({(p.x, p.y, p.z) for p, _ in measurements}) == 1
            coincident += one_row
            if one_row or not _screen_is_exact(xs, ys, measurements, wavelength):
                if grid is None:
                    grid = np.meshgrid(xs, ys, indexing="ij")
                magnitude = _exact_magnitude(*grid, measurements, wavelength, fields)
                best = int(np.argmax(magnitude))
            else:
                best = _screened_argmax(xs, ys, measurements, wavelength)
            row, column = divmod(best, ys.size)
            estimated_x[tag_id] = float(xs[row])
            estimated_y[tag_id] = float(ys[column])

        ordered_x = sorted(estimated_x, key=lambda tid: estimated_x[tid])
        ordered_y = sorted(estimated_y, key=lambda tid: estimated_y[tid])
        return SchemeResult(
            scheme=self.name,
            x_ordering=self._axis("x", ordered_x, estimated_x, expected_tag_ids),
            y_ordering=self._axis("y", ordered_y, estimated_y, expected_tag_ids),
            metadata={
                "virtual_antennas": self.virtual_antenna_count,
                "coincident_antenna_tags": coincident,
            },
        )

    def _snapshots(
        self, read_log: ReadLog, tag_id: str
    ) -> list[tuple[Point3D, float]]:
        """(antenna position, measured phase) pairs at the snapshot instants.

        The device-dependent constant offset ``mu`` is unknown to BackPos; the
        grid scoring above is insensitive to it because it only rewards
        consistency of phase *differences* across snapshots.
        """
        times = read_log.timestamps(tag_id)
        phases = read_log.phases(tag_id)
        if times.size < self.virtual_antenna_count:
            return []
        quantiles = np.linspace(0.15, 0.85, self.virtual_antenna_count)
        snapshot_times = np.quantile(times, quantiles)
        measurements: list[tuple[Point3D, float]] = []
        for snapshot in snapshot_times:
            mask = np.abs(times - snapshot) <= self.snapshot_window_s
            if not np.any(mask):
                continue
            # Circular mean of the phases near the snapshot.
            mean_phase = float(
                np.mod(np.angle(np.mean(np.exp(1j * phases[mask]))), TWO_PI)
            )
            centre_time = float(np.mean(times[mask]))
            measurements.append(
                (self.antenna_position_at(centre_time), mean_phase)
            )
        return measurements


def _exact_magnitude(
    cell_x: np.ndarray,
    cell_y: np.ndarray,
    measurements: list[tuple[Point3D, float]],
    wavelength: float,
    fields: dict[tuple[float, float, float], np.ndarray] | None = None,
) -> np.ndarray:
    """The exact score magnitude of each cell (any shape, elementwise).

    ``fields`` caches each antenna row's predicted-phase field across calls
    that score the same cells.
    """
    score = np.zeros(cell_x.shape, dtype=complex)
    for antenna_pos, phase in measurements:
        key = (antenna_pos.x, antenna_pos.y, antenna_pos.z)
        predicted = None if fields is None else fields.get(key)
        if predicted is None:
            dx = cell_x - antenna_pos.x
            dy = cell_y - antenna_pos.y
            dz = -antenna_pos.z
            distance = np.sqrt(dx * dx + dy * dy + dz * dz)
            predicted = np.mod(TWO_PI * 2.0 * distance / wavelength, TWO_PI)
            if fields is not None:
                fields[key] = predicted
        score += np.exp(1j * (predicted - phase))
    return np.abs(score)


def _screen_is_exact(
    xs: np.ndarray,
    ys: np.ndarray,
    measurements: list[tuple[Point3D, float]],
    wavelength: float,
) -> bool:
    """Whether the module docstring's error bound stays within ε.

    The farthest cell from an antenna row is a corner of the grid's box.
    """
    farthest = max(
        math.hypot(
            max(abs(xs[0] - p.x), abs(xs[-1] - p.x)),
            max(abs(ys[0] - p.y), abs(ys[-1] - p.y)),
            p.z,
        )
        for p, _ in measurements
    )
    argument = TWO_PI * 2.0 * farthest / wavelength
    count = len(measurements)
    unit = np.finfo(float).eps / 2.0
    bound = math.sqrt(2.0) * (count * unit * (argument + 60.0) + 2.0 * count * count * unit)
    return bound + 2.0 * count * unit <= _SCREEN_TOLERANCE


def _screened_argmax(
    xs: np.ndarray,
    ys: np.ndarray,
    measurements: list[tuple[Point3D, float]],
    wavelength: float,
) -> int:
    """Flat index of the first exact maximum, via the float64 screen."""
    real = np.zeros((xs.size, ys.size))
    imag = np.zeros((xs.size, ys.size))
    for antenna_pos, phase in measurements:
        dx = (xs - antenna_pos.x)[:, None]
        dy = ys - antenna_pos.y
        dz = -antenna_pos.z
        argument = np.sqrt(dx * dx + dy * dy + dz * dz)
        argument *= TWO_PI * 2.0
        argument /= wavelength
        turns = np.floor(argument / TWO_PI)
        turns *= TWO_PI
        argument -= turns
        argument -= phase
        real += np.cos(argument)
        imag += np.sin(argument)
    magnitude = np.hypot(real, imag).ravel()
    candidates = np.flatnonzero(magnitude >= magnitude.max() - 2.0 * _SCREEN_TOLERANCE)
    rows, columns = np.divmod(candidates, ys.size)
    exact = _exact_magnitude(xs[rows], ys[columns], measurements, wavelength)
    return int(candidates[int(np.argmax(exact))])
