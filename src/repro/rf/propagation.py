"""Backscatter link budget: forward power, reverse power, and RSSI.

The RSSI that a COTS reader reports for a tag reply is the reverse-link
received power.  For a monostatic backscatter link (same antenna transmits and
receives) the received power follows the radar-like relation

    P_rx = P_tx + 2*G_reader + 2*G_tag - 2*FSPL(d) - L_backscatter

in dB, where ``FSPL`` is the one-way free-space path loss.  The forward-link
power at the tag determines whether the passive tag can energise at all
(tag sensitivity), which bounds the reading zone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .antenna import DirectionalAntenna
from .constants import (
    DEFAULT_READER_SENSITIVITY_DBM,
    DEFAULT_TAG_BACKSCATTER_LOSS_DB,
    DEFAULT_TAG_SENSITIVITY_DBM,
    DEFAULT_TX_POWER_DBM,
    SPEED_OF_LIGHT,
)
from .geometry import Point3D, euclidean_distances


def free_space_path_loss_db(distance_m: "float | np.ndarray", frequency_hz: float) -> "float | np.ndarray":
    """One-way free-space path loss in dB.

    Distances below 1 cm are clamped to 1 cm to keep the model finite when a
    trajectory passes arbitrarily close to a tag.
    """
    if frequency_hz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    dist = np.maximum(np.asarray(distance_m, dtype=float), 0.01)
    loss = 20.0 * np.log10(4.0 * math.pi * dist * frequency_hz / SPEED_OF_LIGHT)
    if np.isscalar(distance_m):
        return float(loss)
    return loss


def dbm_to_milliwatts(power_dbm: "float | np.ndarray") -> "float | np.ndarray":
    """Convert dBm to milliwatts."""
    return np.power(10.0, np.asarray(power_dbm, dtype=float) / 10.0)


def milliwatts_to_dbm(power_mw: "float | np.ndarray") -> "float | np.ndarray":
    """Convert milliwatts to dBm.  Raises on non-positive power."""
    power = np.asarray(power_mw, dtype=float)
    if np.any(power <= 0):
        raise ValueError("power must be positive to convert to dBm")
    result = 10.0 * np.log10(power)
    if np.isscalar(power_mw):
        return float(result)
    return result


@dataclass(frozen=True, slots=True)
class LinkBudget:
    """Backscatter link budget for a reader/antenna/tag combination."""

    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    antenna: DirectionalAntenna = DirectionalAntenna()
    tag_gain_dbi: float = 2.0
    """Gain of the tag's dipole antenna (≈2 dBi for a half-wave dipole)."""

    backscatter_loss_db: float = DEFAULT_TAG_BACKSCATTER_LOSS_DB
    tag_sensitivity_dbm: float = DEFAULT_TAG_SENSITIVITY_DBM
    reader_sensitivity_dbm: float = DEFAULT_READER_SENSITIVITY_DBM

    cable_loss_db: float = 1.0
    """Loss of the coaxial cable between reader and antenna, applied twice."""

    def _link_terms(
        self,
        antenna_pos: np.ndarray,
        tag_positions: np.ndarray,
        frequency_hz: float,
        distances: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(antenna gain dBi, one-way path loss dB) — the shared geometry."""
        if distances is None:
            distances = euclidean_distances(antenna_pos, tag_positions)
        gain = self.antenna.gains_dbi_towards(antenna_pos, tag_positions)
        return gain, free_space_path_loss_db(distances, frequency_hz)

    def _forward_dbm(self, gain: np.ndarray, path_loss: np.ndarray) -> np.ndarray:
        """The forward-link power expression (single source of truth)."""
        return (
            self.tx_power_dbm
            - self.cable_loss_db
            + gain
            + self.tag_gain_dbi
            - path_loss
        )

    def _reverse_dbm(self, gain: np.ndarray, path_loss: np.ndarray) -> np.ndarray:
        """The reverse-link power expression (single source of truth)."""
        return (
            self.tx_power_dbm
            - 2.0 * self.cable_loss_db
            + 2.0 * gain
            + 2.0 * self.tag_gain_dbi
            - 2.0 * path_loss
            - self.backscatter_loss_db
        )

    def forward_powers_dbm(
        self, antenna_pos: np.ndarray, tag_positions: np.ndarray, frequency_hz: float
    ) -> np.ndarray:
        """Vectorized forward-link power over broadcastable ``(..., 3)`` arrays."""
        return self._forward_dbm(
            *self._link_terms(antenna_pos, tag_positions, frequency_hz)
        )

    def forward_power_dbm(
        self, antenna_pos: Point3D, tag_pos: Point3D, frequency_hz: float
    ) -> float:
        """Power arriving at the tag on the forward link, in dBm."""
        return float(
            self.forward_powers_dbm(antenna_pos.as_array(), tag_pos.as_array(), frequency_hz)
        )

    def reverse_powers_dbm(
        self, antenna_pos: np.ndarray, tag_positions: np.ndarray, frequency_hz: float
    ) -> np.ndarray:
        """Vectorized reverse-link power (the RSSI) over ``(..., 3)`` arrays."""
        return self._reverse_dbm(
            *self._link_terms(antenna_pos, tag_positions, frequency_hz)
        )

    def reverse_power_dbm(
        self, antenna_pos: Point3D, tag_pos: Point3D, frequency_hz: float
    ) -> float:
        """Backscattered power arriving back at the reader (the RSSI), in dBm."""
        return float(
            self.reverse_powers_dbm(antenna_pos.as_array(), tag_pos.as_array(), frequency_hz)
        )

    def link_observables(
        self,
        antenna_pos: np.ndarray,
        tag_positions: np.ndarray,
        frequency_hz: float,
        distances: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(reverse-link power dBm, decodable mask) with geometry evaluated once.

        ``forward_powers_dbm``/``reverse_powers_dbm``/``replies_decodable``
        each re-derive the same distances, antenna gains, and path losses;
        the batched RF kernel needs both the RSSI and the decodable mask,
        so this computes the shared geometry a single time.  Each output is
        produced by the identical per-element expression the standalone
        methods use, so results are bit-identical to calling them separately.

        ``distances`` accepts precomputed antenna-to-tag distances (the
        caller usually already has them) and must equal
        ``euclidean_distances(antenna_pos, tag_positions)``.
        """
        gain, path_loss = self._link_terms(
            antenna_pos, tag_positions, frequency_hz, distances
        )
        forward = self._forward_dbm(gain, path_loss)
        reverse = self._reverse_dbm(gain, path_loss)
        decodable = (forward >= self.tag_sensitivity_dbm) & (
            reverse >= self.reader_sensitivity_dbm
        )
        return reverse, decodable

    def replies_decodable(
        self, antenna_pos: np.ndarray, tag_positions: np.ndarray, frequency_hz: float
    ) -> np.ndarray:
        """Vectorized :meth:`reply_decodable`: energised AND decodable masks."""
        _, decodable = self.link_observables(antenna_pos, tag_positions, frequency_hz)
        return decodable

    def tag_energised(
        self, antenna_pos: Point3D, tag_pos: Point3D, frequency_hz: float
    ) -> bool:
        """True if the forward-link power exceeds the tag's sensitivity."""
        return (
            self.forward_power_dbm(antenna_pos, tag_pos, frequency_hz)
            >= self.tag_sensitivity_dbm
        )

    def reply_decodable(
        self, antenna_pos: Point3D, tag_pos: Point3D, frequency_hz: float
    ) -> bool:
        """True if the tag can both energise and be decoded by the reader."""
        return bool(
            self.replies_decodable(antenna_pos.as_array(), tag_pos.as_array(), frequency_hz)
        )

    def max_read_range_m(self, frequency_hz: float, resolution_m: float = 0.01) -> float:
        """Estimate the boresight read range by scanning distance outward.

        The range is forward-link limited for passive tags under normal
        reader sensitivity; we scan rather than invert the link equations so
        the estimate stays valid if either constraint binds.
        """
        antenna_pos = Point3D(0.0, 0.0, 0.0)
        distance = resolution_m
        last_good = 0.0
        while distance < 50.0:
            tag_pos = Point3D(0.0, 0.0, distance)
            if self.reply_decodable(antenna_pos, tag_pos, frequency_hz):
                last_good = distance
            elif last_good > 0.0:
                break
            distance += resolution_m
        return last_good
