"""Directional reader antenna model: gain pattern and reading zone.

The paper uses directional panel antennas (ImpinJ Threshold IPJ-A0311, Alien
ALR-8696-C).  Two properties of the antenna matter for STPP:

* the **gain pattern** shapes the received power (RSSI) and, together with tag
  sensitivity, bounds the *reading zone* — the region within which a passive
  tag can be energised and decoded;
* the **reading zone** bounds how many tags compete in each inventory round,
  which drives the undersampling effect studied in Table 1 of the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Point3D, euclidean_distances

_FREEZE_SLACK_M = 1e-9
"""Distance slack of :meth:`ReadingZone.contains_many_frozen`'s radius.

It covers every rounding between the frozen evaluation and a later round
that reuses it, each far below ``1e-9`` m for coordinates within a
kilometre (half an ulp there is ``2⁻⁵³·10³ m ≈ 1.1e-13`` m):

* the computed tag distances, relative error below ``4·2⁻⁵³`` (under
  ``1e-12`` m), at both ends of a move;
* the caller's measure of the antenna's move, ``math.dist`` of two rows;
* on a rigid layout, whose tag rows at ``t`` are ``start + d(t)``, the
  rounding of ``start + d(t)`` (half an ulp per coordinate, at both ends)
  and of the relative antenna rows ``antenna(t) − d(t)`` the move is
  measured on (half an ulp per coordinate, at both ends).  With ``ε_i`` the
  rounding of tag ``i``'s row at ``t₀`` minus that at ``t₁``, tag ``i`` at
  ``t₁`` sits relative to ``antenna(t₁)`` exactly as its frozen row sits
  relative to ``antenna(t₁) − d(t₁) + d(t₀) + ε_i``, so the move seen by tag
  ``i`` differs from the measured one by under ``4·√3`` half-ulps, below
  ``1e-12`` m."""

_ANGLE_ERROR_RAD = 1e-7
"""Bound on the error of a computed off-boresight angle.

The computed cosine is within ``10·2⁻⁵³`` of the true one; arccos turns a
cosine error ``x`` into at most ``sqrt(2x) ≈ 5e-8`` rad near boresight (and
far less elsewhere)."""


@lru_cache(maxsize=None)
def _unit_boresight_components(
    boresight: tuple[float, float, float],
) -> tuple[float, float, float]:
    """Normalised boresight components, cached per distinct boresight tuple.

    The antenna dataclass is frozen (and slotted), so the normalisation is a
    pure function of the field value; caching it keeps the batched RF kernel
    from re-normalising the same vector for every batch.
    """
    v = np.asarray(boresight, dtype=float)
    v = v / np.linalg.norm(v)
    return (float(v[0]), float(v[1]), float(v[2]))


@lru_cache(maxsize=None)
def _unit_boresight_array(boresight: tuple[float, float, float]) -> np.ndarray:
    """:func:`_unit_boresight_components` as a read-only ``(3,)`` array."""
    array = np.array(_unit_boresight_components(boresight), dtype=float)
    array.flags.writeable = False
    return array


@lru_cache(maxsize=None)
def _cosine_exponent_for(beamwidth_deg: float) -> float:
    """Pattern exponent ``n`` with −3 dB at half the beamwidth (cached)."""
    half = math.radians(beamwidth_deg / 2.0)
    cos_half = math.cos(half)
    if cos_half <= 0.0:
        return 1.0
    # 10*log10(cos^n) = -3  =>  n = -3 / (10*log10(cos))
    return -3.0 / (10.0 * math.log10(cos_half))


@dataclass(frozen=True, slots=True)
class DirectionalAntenna:
    """A panel antenna with a cosine-power gain pattern.

    The gain model is ``G(theta) = gain_dbi + 10*log10(max(cos(theta), eps)**n)``
    where ``theta`` is the angle off boresight and ``n`` controls the beamwidth.
    A cosine-power pattern is the standard first-order model for patch/panel
    antennas and is sufficient to reproduce the reading-zone behaviour the
    paper relies on.
    """

    gain_dbi: float = 6.0
    """Boresight gain in dBi (typical for the antennas used in the paper)."""

    beamwidth_deg: float = 70.0
    """Half-power (−3 dB) beamwidth in degrees."""

    boresight: tuple[float, float, float] = (0.0, 0.0, 1.0)
    """Unit-ish vector giving the boresight direction in world coordinates."""

    def __post_init__(self) -> None:
        if self.beamwidth_deg <= 0 or self.beamwidth_deg >= 180:
            raise ValueError(
                f"beamwidth must be in (0, 180) degrees, got {self.beamwidth_deg}"
            )
        norm = math.sqrt(sum(c * c for c in self.boresight))
        if norm == 0:
            raise ValueError("boresight vector must be non-zero")

    @property
    def _cosine_exponent(self) -> float:
        """Exponent ``n`` such that the pattern is −3 dB at half the beamwidth."""
        return _cosine_exponent_for(self.beamwidth_deg)

    def _unit_boresight(self) -> np.ndarray:
        return np.array(_unit_boresight_components(self.boresight), dtype=float)

    def off_boresight_angles(
        self, antenna_pos: np.ndarray, targets: np.ndarray
    ) -> np.ndarray:
        """Angles between the boresight and each target direction.

        ``antenna_pos`` and ``targets`` are broadcastable ``(..., 3)`` arrays.
        This is the vectorized kernel behind :meth:`off_boresight_angle_rad`;
        both evaluate the identical operation sequence (normalise the
        direction component-wise, then an explicit 3-term dot product), so the
        scalar and batched simulation paths agree bit-for-bit.
        """
        antenna_pos = np.asarray(antenna_pos, dtype=float)
        targets = np.asarray(targets, dtype=float)
        dx = targets[..., 0] - antenna_pos[..., 0]
        dy = targets[..., 1] - antenna_pos[..., 1]
        dz = targets[..., 2] - antenna_pos[..., 2]
        norm = np.sqrt(dx * dx + dy * dy + dz * dz)
        safe_norm = np.where(norm == 0.0, 1.0, norm)
        bx, by, bz = _unit_boresight_components(self.boresight)
        cos_angle = (dx / safe_norm) * bx + (dy / safe_norm) * by + (dz / safe_norm) * bz
        cos_angle = np.minimum(1.0, np.maximum(-1.0, cos_angle))
        return np.where(norm == 0.0, 0.0, np.arccos(cos_angle))

    def off_boresight_angle_rad(self, antenna_pos: Point3D, target: Point3D) -> float:
        """Angle between the boresight and the direction to ``target``."""
        return float(self.off_boresight_angles(antenna_pos.as_array(), target.as_array()))

    def gains_dbi_towards(self, antenna_pos: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Antenna gains (dBi) towards each target — vectorized pattern lookup.

        Directions behind the panel (more than 90° off boresight) get a flat
        −20 dB front-to-back rejection relative to boresight.
        """
        angle = self.off_boresight_angles(antenna_pos, targets)
        pattern_db = 10.0 * self._cosine_exponent * np.log10(
            np.maximum(np.cos(angle), 1e-9)
        )
        in_front = self.gain_dbi + np.maximum(pattern_db, -20.0)
        return np.where(angle >= math.pi / 2.0, self.gain_dbi - 20.0, in_front)

    def gain_dbi_towards(self, antenna_pos: Point3D, target: Point3D) -> float:
        """Antenna gain (dBi) in the direction of ``target``."""
        return float(self.gains_dbi_towards(antenna_pos.as_array(), target.as_array()))


@dataclass(frozen=True, slots=True)
class ReadingZone:
    """The region within which tags can be inventoried.

    The zone is modelled as the intersection of a maximum range (power-limited)
    and the antenna's forward hemisphere, optionally narrowed to the antenna
    beam.  ``contains`` is used by the reader simulator to decide which tags
    participate in an inventory round at a given antenna position.
    """

    max_range_m: float = 3.0
    """Maximum read range of the reader/tag pair, in metres."""

    antenna: DirectionalAntenna = DirectionalAntenna()
    """Antenna whose beam bounds the zone."""

    beam_limited: bool = True
    """If True, tags outside the half-power beam are considered unreadable."""

    def __post_init__(self) -> None:
        if self.max_range_m <= 0:
            raise ValueError(f"max_range_m must be positive, got {self.max_range_m}")

    def contains_many(self, antenna_pos: np.ndarray, tag_positions: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains`: a boolean mask over ``(N, 3)`` positions.

        The range and beam tests share one displacement/norm computation —
        the zone check runs once per inventory round, so this is a sweep hot
        path.  ``sqrt((t−a)²) == sqrt((a−t)²)`` exactly (IEEE negation), so
        the shared norm equals both :func:`euclidean_distances`' distance and
        :meth:`DirectionalAntenna.off_boresight_angles`' normalisation
        bit-for-bit, and the mask matches the scalar method's decisions.
        """
        norm, angles = self._range_and_angles(antenna_pos, tag_positions)
        mask = norm <= self.max_range_m
        if angles is not None:
            mask &= angles <= math.radians(self.antenna.beamwidth_deg)
        return mask

    def contains_many_frozen(
        self, antenna_pos: np.ndarray, tag_positions: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """:meth:`contains_many` plus its freeze radius.

        The freeze radius is how far the antenna may move from
        ``antenna_pos`` *relative to the tags* before any tag's decision can
        change::

            min_i min(|R − n_i|, n_i·sin(clip(|θ_i − α| − 2Θ, 0, π/2))) − s

        with ``n_i``/``θ_i`` the tag's distance and off-boresight angle, ``R``
        the range, ``α`` the beam limit, ``Θ`` =
        :data:`_ANGLE_ERROR_RAD` and ``s`` = :data:`_FREEZE_SLACK_M`.
        Both terms are exact bounds: the distance is 1-Lipschitz in the
        antenna position, and moving the antenna by ``δ < n`` turns the
        direction to a tag by at most ``asin(δ/n)``.  ``2Θ`` keeps the
        computed angle on its side of ``α`` both here and at the new position
        (arccos is ill-conditioned near boresight), and ``s`` does the same
        for the rounding of the computed distances and of the caller's
        displacement.  A tag at the antenna (``n_i = 0``) or on a boundary
        gives a radius below zero: nothing may be reused.

        Static tags are one case.  Tags that all move by one displacement
        ``d(t)`` (a belt) are the other: their geometry at ``t`` is the
        frozen layout seen from ``antenna(t) − d(t)``, so the caller measures
        the move on that relative row; :data:`_FREEZE_SLACK_M` covers the
        extra rounding.
        """
        norm, angles = self._range_and_angles(antenna_pos, tag_positions)
        mask = norm <= self.max_range_m
        margin = norm - self.max_range_m
        np.abs(margin, out=margin)
        if angles is not None:
            limit = math.radians(self.antenna.beamwidth_deg)
            mask &= angles <= limit
            turn = angles - limit
            np.abs(turn, out=turn)
            turn -= 2.0 * _ANGLE_ERROR_RAD
            np.maximum(turn, 0.0, out=turn)
            np.minimum(turn, math.pi / 2.0, out=turn)
            np.sin(turn, out=turn)
            turn *= norm
            np.minimum(margin, turn, out=margin)
        return mask, float(margin.min(initial=math.inf)) - _FREEZE_SLACK_M

    def _range_and_angles(
        self, antenna_pos: np.ndarray, tag_positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Each tag's distance and, when beam-limited, off-boresight angle.

        The operands and their order are those of
        :meth:`DirectionalAntenna.off_boresight_angles` — component-wise
        squares summed left to right, the displacement divided by the norm,
        times the unit boresight, the three products summed left to right,
        clamped to ``[−1, 1]`` — on one ``(…, 3)`` displacement.
        """
        antenna_pos = np.asarray(antenna_pos, dtype=float)
        tag_positions = np.asarray(tag_positions, dtype=float)
        offset = tag_positions - antenna_pos
        squared = offset * offset
        norm = np.sqrt(squared[..., 0] + squared[..., 1] + squared[..., 2])
        if not self.beam_limited:
            return norm, None
        degenerate = norm == 0.0
        safe_norm = np.where(degenerate, 1.0, norm)
        offset /= safe_norm[..., None]
        offset *= _unit_boresight_array(self.antenna.boresight)
        cos_angle = np.asarray(offset[..., 0] + offset[..., 1] + offset[..., 2])
        np.maximum(cos_angle, -1.0, out=cos_angle)
        np.minimum(cos_angle, 1.0, out=cos_angle)
        return norm, np.where(degenerate, 0.0, np.arccos(cos_angle))

    def contains(self, antenna_pos: Point3D, tag_pos: Point3D) -> bool:
        """Return True if a tag at ``tag_pos`` is readable from ``antenna_pos``."""
        return bool(self.contains_many(antenna_pos.as_array(), tag_pos.as_array()))

    def tags_in_zone(
        self, antenna_pos: Point3D, tag_positions: dict[str, Point3D]
    ) -> list[str]:
        """Return the identifiers of all tags readable from ``antenna_pos``."""
        return [
            tag_id
            for tag_id, pos in tag_positions.items()
            if self.contains(antenna_pos, pos)
        ]
