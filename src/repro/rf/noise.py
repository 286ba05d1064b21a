"""Measurement-noise models for phase, RSSI, and missed reads.

Three noise processes matter for reproducing the paper's measured profiles
(Figures 5 and 6) as opposed to the clean reference profiles (Figures 3 and 4):

* additive Gaussian **phase noise** on each reported phase sample;
* additive Gaussian **RSSI noise** on each reported RSSI sample;
* **dropouts** — reads that are lost either at random (decode errors) or
  because the channel is in a deep multipath fade, which is what fragments
  the profiles outside (and sometimes inside) the V-zone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phase_model import wrap_phase


@dataclass(frozen=True, slots=True)
class NoiseModel:
    """Per-sample measurement noise applied by the collector."""

    phase_noise_std_rad: float = 0.1
    """Standard deviation of Gaussian phase noise, radians (≈0.1 rad on COTS readers)."""

    rssi_noise_std_db: float = 1.5
    """Standard deviation of Gaussian RSSI noise, dB."""

    random_dropout_probability: float = 0.05
    """Probability that an otherwise-successful read is lost at random."""

    fade_dropout_threshold_db: float = -12.0
    """Multipath fades deeper than this (relative to the direct path) lose the read."""

    def __post_init__(self) -> None:
        if self.phase_noise_std_rad < 0:
            raise ValueError("phase noise std must be non-negative")
        if self.rssi_noise_std_db < 0:
            raise ValueError("RSSI noise std must be non-negative")
        if not 0.0 <= self.random_dropout_probability < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")

    def noisy_phase(self, phase_rad: float, rng: np.random.Generator) -> float:
        """Return ``phase_rad`` with Gaussian noise added, wrapped to [0, 2*pi)."""
        if self.phase_noise_std_rad == 0.0:
            return float(wrap_phase(phase_rad))
        return float(wrap_phase(phase_rad + rng.normal(0.0, self.phase_noise_std_rad)))

    def noisy_rssi(self, rssi_dbm: float, rng: np.random.Generator) -> float:
        """Return ``rssi_dbm`` with Gaussian noise added."""
        if self.rssi_noise_std_db == 0.0:
            return float(rssi_dbm)
        return float(rssi_dbm + rng.normal(0.0, self.rssi_noise_std_db))

    def read_dropped(self, fade_db: float, rng: np.random.Generator) -> bool:
        """Decide whether a read is lost, given the multipath fade depth."""
        if fade_db <= self.fade_dropout_threshold_db:
            return True
        if self.random_dropout_probability == 0.0:
            return False
        return bool(rng.random() < self.random_dropout_probability)

    def draw_event_noise(
        self, fade_db: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-event noise draws for a batch of reads, in event order.

        Returns ``(dropped, phase_noise, rssi_noise)`` arrays of shape
        ``(M,)``.  Delegates to :meth:`draw_event_noise_scheduled` after
        reducing the fades to deep-fade booleans; the threshold comparison is
        the only thing the draws need from the fades.
        ``tests/test_batch_sweep.py`` pins the equivalence with the scalar
        methods, so editing either side of the contract fails a test instead
        of silently diverging the batched and scalar simulations.
        """
        deep_fade = np.asarray(fade_db) <= self.fade_dropout_threshold_db
        return self.draw_event_noise_scheduled(deep_fade, rng)

    def draw_event_noise_scheduled(
        self, deep_fade: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-event noise draws given precomputed deep-fade booleans.

        Array form of :meth:`draw_event_noise_lists`, which holds the draw
        order.  Splitting the booleans from the fade values is what enables
        the fused two-phase sweep: the scheduling phase draws noise under
        *assumed* booleans before any physics has run, and the physics phase
        verifies the assumption afterwards (rolling the generator back on the
        rare mis-guess).
        """
        dropped, phase_noise, rssi_noise = self.draw_event_noise_lists(
            np.asarray(deep_fade).tolist(), rng
        )
        return (
            np.array(dropped, dtype=bool),
            np.array(phase_noise, dtype=float),
            np.array(rssi_noise, dtype=float),
        )

    def draw_event_noise_lists(
        self, deep_fade: list[bool], rng: np.random.Generator
    ) -> tuple[list[bool], list[float], list[float]]:
        """The per-event draws as Python lists — the scheduler's per-round form.

        This is the single production implementation of the per-event
        draw-order contract: each event consumes the generator exactly as the
        scalar methods would in the sequence ``read_dropped`` →
        ``noisy_phase`` → ``noisy_rssi`` — a dropout uniform only when the
        fade is above the threshold (``deep_fade`` false) and the dropout
        probability is non-zero, then one normal per enabled noise term.

        ``rng.normal(0.0, std)`` is NumPy's ``loc + scale * z`` on one
        ``standard_normal`` draw ``z``, so ``0.0 + std * z`` from a bound
        ``rng.standard_normal`` is the same value bit for bit and consumes the
        generator identically, without the per-call argument handling.
        """
        count = len(deep_fade)
        dropout_p = self.random_dropout_probability
        phase_std = self.phase_noise_std_rad
        rssi_std = self.rssi_noise_std_db
        uniform = rng.random
        standard_normal = rng.standard_normal
        dropped = [False] * count
        phase_noise = [0.0] * count
        rssi_noise = [0.0] * count
        for i, deep in enumerate(deep_fade):
            if deep:
                dropped[i] = True
            elif dropout_p != 0.0:
                dropped[i] = uniform() < dropout_p
            if phase_std != 0.0:
                phase_noise[i] = 0.0 + phase_std * standard_normal()
            if rssi_std != 0.0:
                rssi_noise[i] = 0.0 + rssi_std * standard_normal()
        return dropped, phase_noise, rssi_noise


NOISELESS = NoiseModel(
    phase_noise_std_rad=0.0,
    rssi_noise_std_db=0.0,
    random_dropout_probability=0.0,
    fade_dropout_threshold_db=-1e9,
)
"""A noise model that changes nothing — used to generate reference-like profiles."""
