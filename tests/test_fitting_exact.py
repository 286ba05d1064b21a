"""Bit-exactness pins for the lean V-zone fit and the list-free backtrack.

``fit_vzone`` inlines ``np.polyfit``/``np.polyval``/``np.unwrap`` and
``_backtrack`` compares plain floats instead of ``min(key=...)`` over NumPy
scalars.  Both must give the *same bits* as the library calls they replace:
every V-zone bottom time and curvature feeds the X/Y orderings, and the
batch == streaming == fleet pins compare them exactly.  The NumPy-based
oracle lives here only.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.dtw import _backtrack
from repro.core.fitting import QuadraticFit, _polyfit2, _unwrap, fit_vzone
from repro.rf.constants import TWO_PI

RankWarning = np.exceptions.RankWarning


def _oracle_fit(times_s, phases_rad, min_samples: int = 5) -> QuadraticFit:
    """``fit_vzone`` as written against ``np.unwrap``/``np.polyfit``/``np.polyval``."""
    times = np.asarray(times_s, dtype=float)
    phases = np.asarray(phases_rad, dtype=float)
    if times.size == 0:
        return QuadraticFit(0.0, float("nan"), float("nan"), float("inf"), 0, False)
    unwrapped = np.unwrap(phases)
    unwrapped = unwrapped - np.floor(float(np.min(unwrapped)) / TWO_PI) * TWO_PI
    fallback_time = float(times[int(np.argmin(unwrapped))])
    fallback_phase = float(np.min(unwrapped))
    if times.size < max(3, min_samples):
        return QuadraticFit(
            0.0, fallback_time, fallback_phase, float("inf"), int(times.size), False
        )
    t_centre = float(np.mean(times))
    shifted = times - t_centre
    coeffs = np.polyfit(shifted, unwrapped, deg=2)
    a, b, c = (float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))
    residuals = unwrapped - np.polyval(coeffs, shifted)
    rms = float(np.sqrt(np.mean(residuals**2)))
    if a <= 0.0:
        return QuadraticFit(
            a, fallback_time, fallback_phase, rms, int(times.size), False
        )
    bottom_time = -b / (2.0 * a) + t_centre
    bottom_phase = c - (b * b) / (4.0 * a)
    window_start, window_end = float(times[0]), float(times[-1])
    inside = window_start <= bottom_time <= window_end
    if not inside:
        bottom_time = min(max(bottom_time, window_start), window_end)
    return QuadraticFit(
        a, float(bottom_time), float(bottom_phase), rms, int(times.size), bool(inside)
    )


def _random_window(rng, size: int, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """A noisy wrapped parabola whose nadir sits ``offset`` rad above 0."""
    times = np.sort(rng.uniform(0.0, 2.0, size))
    curvature = rng.uniform(-2.0, 12.0)
    phases = curvature * (times - rng.uniform(0.0, 2.0)) ** 2 + offset
    phases = np.mod(phases + rng.normal(0.0, 0.2, size), TWO_PI)
    return times, phases


def _same_bits(actual: QuadraticFit, expected: QuadraticFit) -> None:
    assert repr(actual) == repr(expected)  # NaN-aware, and -0.0 != 0.0


class TestLeanFit:
    def test_random_windows_match_the_numpy_oracle(self):
        rng = np.random.default_rng(2015)
        for _ in range(400):
            size = int(rng.integers(1, 90))
            times, phases = _random_window(rng, size, rng.uniform(-1.0, TWO_PI + 1.0))
            _same_bits(fit_vzone(times, phases), _oracle_fit(times, phases))
            assert np.array_equal(_unwrap(phases), np.unwrap(phases))
            if size >= 3:
                shifted = times - float(np.mean(times))
                assert np.array_equal(
                    _polyfit2(shifted, phases), np.polyfit(shifted, phases, deg=2)
                )

    @pytest.mark.parametrize("offset", [1e-9, 0.02, -0.02, TWO_PI - 1e-9, TWO_PI - 0.02])
    def test_wrapping_near_zero_and_two_pi(self, offset):
        rng = np.random.default_rng(7)
        for _ in range(20):
            times, phases = _random_window(rng, 40, offset)
            assert np.abs(np.diff(phases)).max() > np.pi  # really wraps
            assert np.array_equal(_unwrap(phases), np.unwrap(phases))
            _same_bits(fit_vzone(times, phases), _oracle_fit(times, phases))

    def test_difference_of_exactly_plus_and_minus_pi(self):
        # 0.5 + π and 4.0 − π are exact in binary64 here, so the differences
        # land on ±π exactly: the ±π boundary fix and the |dd| < π cut both
        # see equality.
        phases = np.array([0.5, 0.5 + np.pi, 0.5, 4.0, 4.0 - np.pi, 4.0, 1.0, 2.0])
        diffs = np.diff(phases)
        assert np.any(diffs == np.pi) and np.any(diffs == -np.pi)
        assert np.array_equal(_unwrap(phases), np.unwrap(phases))
        times = np.linspace(0.0, 1.0, phases.size)
        _same_bits(fit_vzone(times, phases), _oracle_fit(times, phases))

    def test_rank_deficient_fit_raises_the_same_rank_warning(self):
        # Two distinct sample times: the x² column equals the constant
        # column after centring, so the Vandermonde system has rank 2.
        times = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        phases = np.array([1.0, 1.1, 0.9, 2.0, 2.1, 1.9])
        with pytest.warns(RankWarning, match="Polyfit may be poorly conditioned"):
            expected = _oracle_fit(times, phases)
        with pytest.warns(RankWarning, match="Polyfit may be poorly conditioned") as caught:
            actual = fit_vzone(times, phases)
        _same_bits(actual, expected)
        # Attributed to fit_vzone's own module, as np.polyfit's stacklevel did.
        assert caught[0].filename.endswith("fitting.py")

    def test_full_rank_fit_is_silent(self):
        times = np.linspace(0.0, 1.0, 20)
        phases = 3.0 * (times - 0.5) ** 2 + 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit_vzone(times, phases)


class TestBacktrackTies:
    def test_equal_diag_up_and_left_take_the_diagonal(self):
        cost = np.array([[1.0, 1.0], [1.0, 9.0]])
        assert _backtrack(cost) == ((0, 0), (1, 1))

    def test_equal_up_and_left_below_the_diagonal_take_up(self):
        cost = np.array([[2.0, 1.0], [1.0, 9.0]])
        assert _backtrack(cost) == ((0, 0), (0, 1), (1, 1))

    def test_strictly_smaller_left_wins(self):
        cost = np.array([[2.0, 2.0], [1.0, 9.0]])
        assert _backtrack(cost) == ((0, 0), (1, 0), (1, 1))

    def test_all_equal_matrix_walks_the_diagonal(self):
        assert _backtrack(np.zeros((4, 4))) == tuple((k, k) for k in range(4))
        assert _backtrack(np.zeros((3, 5)), start_col=3) == ((0, 1), (1, 2), (2, 3))
