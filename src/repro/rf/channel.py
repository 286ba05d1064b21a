"""The composite RF channel: geometry in, (phase, RSSI, readable) out.

:class:`BackscatterChannel` glues together the pieces of the RF substrate —
carrier/wavelength (:mod:`repro.rf.constants`), the Eq. (1) phase model
(:mod:`repro.rf.phase_model`), the link budget (:mod:`repro.rf.propagation`),
multipath (:mod:`repro.rf.multipath`) and measurement noise
(:mod:`repro.rf.noise`) — into the single interface the simulator uses: given
an antenna position and a tag position, what does the reader observe?

The heavy lifting happens in :meth:`BackscatterChannel.observe_batch`, which
evaluates the whole pipeline (geometry, link budget, multipath complex gain,
Eq. (1) phase, quantisation, RSSI) for a structure-of-arrays batch of reply
attempts in vectorized NumPy.  The scalar :meth:`BackscatterChannel.observe`
delegates to the same kernel with a batch of one, so the scalar and batched
simulation paths are bit-identical by construction.  Randomness is drawn one
event at a time, in the fixed per-event order ``[dropout uniform?, phase
normal?, RSSI normal?]``, so a single shared generator produces the same
stream whichever path consumes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .antenna import DirectionalAntenna
from .constants import (
    DEFAULT_CHANNEL_INDEX,
    TWO_PI,
    channel_frequency_hz,
    channel_wavelength_m,
)
from .geometry import Point3D, euclidean_distances
from .multipath import MultipathChannel
from .noise import NoiseModel
from .phase_model import DeviceOffsets, quantise_phase, round_trip_phase, wrap_phase
from .propagation import LinkBudget


@dataclass(frozen=True, slots=True)
class ChannelObservation:
    """What the reader observes for a single tag reply attempt."""

    phase_rad: float
    """Reported phase in [0, 2*pi) — noisy, multipath-perturbed, quantised."""

    rssi_dbm: float
    """Reported RSSI in dBm — noisy and multipath-faded."""

    true_distance_m: float
    """Ground-truth one-way antenna-to-tag distance (for evaluation only)."""

    readable: bool
    """False when the link budget or a dropout prevents a successful read."""


@dataclass(frozen=True, slots=True)
class BatchObservation:
    """Structure-of-arrays observations for a batch of reply attempts."""

    phase_rad: np.ndarray
    """Reported phases in [0, 2*pi), shape ``(M,)``."""

    rssi_dbm: np.ndarray
    """Reported RSSI values in dBm, shape ``(M,)``."""

    true_distance_m: np.ndarray
    """Ground-truth one-way distances in metres, shape ``(M,)``."""

    readable: np.ndarray
    """Boolean mask of successfully decoded (non-dropped) replies."""

    def __len__(self) -> int:
        return int(self.phase_rad.size)


@dataclass(frozen=True, slots=True)
class SweepPhysics:
    """The rng-free physics of a batch of reply attempts.

    Everything :meth:`BackscatterChannel.observe_batch` computes *except* the
    noise draws: geometry, link budget, multipath fades, and the clean
    Eq. (1) phase.  The fused two-phase sweep engine evaluates this once over
    a whole sweep's event table, then combines it with noise columns that
    were drawn earlier, during scheduling
    (:meth:`BackscatterChannel.observe_scheduled`).
    """

    true_distance_m: np.ndarray
    """Antenna-to-tag one-way distances, shape ``(M,)``."""

    rssi_base_dbm: np.ndarray
    """Reverse-link power before fading and noise, shape ``(M,)``."""

    decodable: np.ndarray
    """Link-budget decodability mask (forward and reverse limits)."""

    fade_db: np.ndarray
    """Multipath fade relative to the direct path, dB."""

    deep_fade: np.ndarray
    """``fade_db <= noise.fade_dropout_threshold_db`` — the booleans that gate
    the dropout uniform draw (the only physics the rng order depends on)."""

    perturbation_rad: np.ndarray
    """Multipath phase perturbation, radians."""

    wrapped_phase_rad: np.ndarray
    """Clean Eq. (1) phase wrapped to [0, 2*pi), before perturbation/noise."""

    def __len__(self) -> int:
        return int(self.true_distance_m.size)


@dataclass(frozen=True, slots=True)
class BackscatterChannel:
    """A complete monostatic backscatter channel for one reader antenna."""

    channel_index: int = DEFAULT_CHANNEL_INDEX
    antenna: DirectionalAntenna = DirectionalAntenna()
    link_budget: LinkBudget = field(default_factory=LinkBudget)
    multipath: MultipathChannel = field(default_factory=MultipathChannel)
    noise: NoiseModel = field(default_factory=NoiseModel)
    device_offsets: DeviceOffsets = field(default_factory=DeviceOffsets)
    quantise: bool = True
    """Quantise phases to the 12-bit word COTS readers report."""

    @property
    def frequency_hz(self) -> float:
        """Carrier frequency of the configured channel."""
        return channel_frequency_hz(self.channel_index)

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength of the configured channel."""
        return channel_wavelength_m(self.channel_index)

    def ideal_phase(self, antenna_pos: Point3D, tag_pos: Point3D) -> float:
        """Noise-free, multipath-free Eq. (1) phase for this geometry."""
        distance = antenna_pos.distance_to(tag_pos)
        return float(
            round_trip_phase(distance, self.wavelength_m, self.device_offsets)
        )

    def ideal_rssi(self, antenna_pos: Point3D, tag_pos: Point3D) -> float:
        """Noise-free, multipath-free reverse-link power for this geometry."""
        return self.link_budget.reverse_power_dbm(
            antenna_pos, tag_pos, self.frequency_hz
        )

    def sweep_physics(
        self,
        antenna_positions: np.ndarray,
        tag_positions: np.ndarray,
        device_offsets_total: "float | np.ndarray | None" = None,
        extra_positions: np.ndarray | None = None,
        extra_coefficients: np.ndarray | None = None,
        extra_decays: np.ndarray | None = None,
        extra_event_index: np.ndarray | None = None,
    ) -> SweepPhysics:
        """Evaluate the rng-free physics of a batch of reply attempts.

        One vectorized pass over geometry, link budget
        (:meth:`~repro.rf.propagation.LinkBudget.link_observables`), multipath
        complex gains, and the clean Eq. (1) phase.  Every per-element
        expression matches the per-event arithmetic of the scalar path, so
        evaluating a whole sweep's events at once produces bitwise the same
        values as evaluating them round by round.

        Parameters
        ----------
        antenna_positions, tag_positions:
            ``(M, 3)`` arrays of the antenna and tag position per attempt.
        device_offsets_total:
            Per-event device offset ``mu`` (radians).  Defaults to this
            channel's own :attr:`device_offsets`.  The reader passes a
            per-event array because ``theta_TAG`` differs per tag model.
        extra_positions, extra_coefficients, extra_decays, extra_event_index:
            Flattened per-event transient scatterers (tag coupling); see
            :meth:`repro.rf.multipath.MultipathChannel.complex_gains`.
        """
        antenna_positions = np.asarray(antenna_positions, dtype=float)
        tag_positions = np.asarray(tag_positions, dtype=float)
        if tag_positions.ndim != 2 or tag_positions.shape[-1] != 3:
            raise ValueError(
                f"tag positions must have shape (M, 3), got {tag_positions.shape}"
            )
        frequency = self.frequency_hz
        wavelength = self.wavelength_m
        if device_offsets_total is None:
            device_offsets_total = self.device_offsets.total

        distance = euclidean_distances(antenna_positions, tag_positions)
        # One pass over the link geometry yields both the base RSSI and the
        # decodability mask (bit-identical to the standalone methods).
        rssi_base, decodable = self.link_budget.link_observables(
            antenna_positions, tag_positions, frequency, distances=distance
        )

        gains = self.multipath.complex_gains(
            antenna_positions,
            tag_positions,
            wavelength,
            extra_positions=extra_positions,
            extra_coefficients=extra_coefficients,
            extra_decays=extra_decays,
            extra_event_index=extra_event_index,
        )
        fade_db, perturbation = MultipathChannel.fades_and_perturbations(gains)

        # Clean Eq. (1) phase, wrapped — the first step of the scalar
        # operation order (perturbation/noise/quantisation come later, once
        # the noise columns are known).
        theta = TWO_PI * (2.0 * distance) / wavelength + device_offsets_total
        wrapped = np.mod(theta, TWO_PI)

        return SweepPhysics(
            true_distance_m=distance,
            rssi_base_dbm=rssi_base,
            decodable=decodable,
            fade_db=fade_db,
            deep_fade=fade_db <= self.noise.fade_dropout_threshold_db,
            perturbation_rad=perturbation,
            wrapped_phase_rad=wrapped,
        )

    def observe_scheduled(
        self,
        physics: SweepPhysics,
        dropped: np.ndarray,
        phase_noise: np.ndarray,
        rssi_noise: np.ndarray,
    ) -> BatchObservation:
        """Combine precomputed physics with pre-drawn noise columns.

        ``dropped`` holds the dropout decisions the scheduler drew; events in
        a deep fade are dropped regardless (the scalar ``read_dropped`` rule),
        so the final dropout mask is ``dropped | deep_fade``.  The phase
        pipeline replicates the scalar operation order exactly: wrapped
        round-trip phase, + multipath perturbation, wrap, + noise, wrap,
        quantise.
        """
        final_dropped = np.asarray(dropped, dtype=bool) | physics.deep_fade
        readable = physics.decodable & ~final_dropped

        phase = wrap_phase(physics.wrapped_phase_rad + physics.perturbation_rad)
        phase = wrap_phase(phase + phase_noise)
        if self.quantise:
            phase = quantise_phase(phase)

        rssi = physics.rssi_base_dbm + physics.fade_db + rssi_noise

        return BatchObservation(
            phase_rad=phase,
            rssi_dbm=rssi,
            true_distance_m=physics.true_distance_m,
            readable=readable,
        )

    def observe_batch(
        self,
        antenna_positions: np.ndarray,
        tag_positions: np.ndarray,
        rng: np.random.Generator,
        device_offsets_total: "float | np.ndarray | None" = None,
        extra_positions: np.ndarray | None = None,
        extra_coefficients: np.ndarray | None = None,
        extra_decays: np.ndarray | None = None,
        extra_event_index: np.ndarray | None = None,
    ) -> BatchObservation:
        """Simulate a batch of reply attempts in one vectorized pass.

        Composes :meth:`sweep_physics` with the per-event noise draws and
        :meth:`observe_scheduled`.  Noise is drawn per event, in event order,
        with the per-event draw sequence ``[dropout uniform (only when the
        fade is above the dropout threshold and the dropout probability is
        non-zero), phase normal (when phase noise is on), RSSI normal (when
        RSSI noise is on)]`` — exactly the sequence the scalar
        :meth:`observe` loop consumes, which is what makes batched and
        sequential sweeps bit-identical.
        """
        physics = self.sweep_physics(
            antenna_positions,
            tag_positions,
            device_offsets_total=device_offsets_total,
            extra_positions=extra_positions,
            extra_coefficients=extra_coefficients,
            extra_decays=extra_decays,
            extra_event_index=extra_event_index,
        )
        # Randomness: NoiseModel draws per event, in event order, so the
        # scalar and batched paths consume the shared generator identically.
        # Zero draws are added as exact no-ops (x + 0.0 == x for the values
        # seen here), mirroring the scalar noise methods' std == 0 shortcuts.
        dropped, phase_noise, rssi_noise = self.noise.draw_event_noise_scheduled(
            physics.deep_fade, rng
        )
        return self.observe_scheduled(physics, dropped, phase_noise, rssi_noise)

    def observe(
        self,
        antenna_pos: Point3D,
        tag_pos: Point3D,
        rng: np.random.Generator,
        extra_reflectors: "tuple | None" = None,
    ) -> ChannelObservation:
        """Simulate one reply attempt of a tag at ``tag_pos``.

        The observation includes multipath perturbation, measurement noise,
        quantisation, and readability (link budget + dropouts).  Callers that
        need deterministic behaviour should pass a seeded ``rng``.

        ``extra_reflectors`` adds transient reflectors/scatterers that only
        apply to this observation — the reader uses it to model coupling from
        neighbouring tags, whose positions may change over the sweep.

        Delegates to :meth:`observe_batch` with a batch of one, so sequential
        and batched simulation share one arithmetic kernel.
        """
        extra_positions = extra_coefficients = extra_decays = extra_index = None
        if extra_reflectors:
            extra_positions = np.array(
                [[r.position.x, r.position.y, r.position.z] for r in extra_reflectors]
            )
            extra_coefficients = np.array(
                [r.reflection_coefficient for r in extra_reflectors]
            )
            extra_decays = np.array(
                [
                    np.nan if r.scattering_decay_m is None else r.scattering_decay_m
                    for r in extra_reflectors
                ]
            )
            extra_index = np.zeros(len(extra_reflectors), dtype=np.intp)
        batch = self.observe_batch(
            antenna_pos.as_array()[None, :],
            tag_pos.as_array()[None, :],
            rng,
            extra_positions=extra_positions,
            extra_coefficients=extra_coefficients,
            extra_decays=extra_decays,
            extra_event_index=extra_index,
        )
        return ChannelObservation(
            phase_rad=float(batch.phase_rad[0]),
            rssi_dbm=float(batch.rssi_dbm[0]),
            true_distance_m=float(batch.true_distance_m[0]),
            readable=bool(batch.readable[0]),
        )
