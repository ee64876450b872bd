"""Unit tests for the pentadiagonal HP trend filter."""
import numpy as np
import pytest

from repro.core.hp_filter import (_solve_pentadiagonal, hp_filter,
                                  hp_lambda_for_cutoff)


def _dense_hp(y, lamb):
    n = y.size
    D = np.zeros((n - 2, n))
    for i in range(n - 2):
        D[i, i:i + 3] = [1.0, -2.0, 1.0]
    A = np.eye(n) + 2.0 * lamb * D.T @ D
    return np.linalg.solve(A, y)


class TestPentadiagonalSolver:
    @pytest.mark.parametrize("n", [4, 5, 7, 20, 101])
    def test_matches_dense_solver(self, n):
        rng = np.random.default_rng(n)
        y = rng.normal(0, 1, n)
        lamb = 10.0
        np.testing.assert_allclose(hp_filter(y, lamb), _dense_hp(y, lamb),
                                   rtol=1e-8, atol=1e-10)

    def test_identity_system(self):
        # d1=d2=0 → A=diag(d0); solve is y/d0.
        y = np.array([2.0, 4.0, 6.0, 8.0])
        x = _solve_pentadiagonal(np.full(4, 2.0), np.zeros(3), np.zeros(2), y)
        np.testing.assert_allclose(x, y / 2.0)

    def test_random_spd_system(self):
        rng = np.random.default_rng(9)
        n = 50
        d0 = np.full(n, 10.0) + rng.random(n)
        d1 = rng.random(n - 1)
        d2 = rng.random(n - 2)
        A = np.diag(d0) + np.diag(d1, 1) + np.diag(d1, -1) \
            + np.diag(d2, 2) + np.diag(d2, -2)
        y = rng.normal(0, 1, n)
        np.testing.assert_allclose(_solve_pentadiagonal(d0, d1, d2, y),
                                   np.linalg.solve(A, y), rtol=1e-9)


class TestHPFilter:
    def test_linear_trend_in_nullspace(self):
        # Second differences of a line are 0 → the line is untouched
        # (up to the identity part): τ̂ of a pure line IS the line.
        t = np.arange(200, dtype=float)
        y = 3.0 + 0.5 * t
        np.testing.assert_allclose(hp_filter(y, 1e6), y, rtol=1e-6)

    def test_removes_slow_trend_keeps_fast_sinusoid(self):
        t = np.arange(1000)
        trend = 10 * np.abs(2 * t / 999 - 1)
        season = np.sin(2 * np.pi * t / 50)
        tau = hp_filter(trend + season)
        resid = (trend + season) - tau
        # Trend mostly gone, seasonal mostly kept.
        assert np.abs(resid - season).std() < 0.3 * season.std()

    def test_lambda_zero_returns_input(self):
        y = np.random.default_rng(1).normal(0, 1, 64)
        np.testing.assert_allclose(hp_filter(y, 0.0), y, atol=1e-12)

    def test_large_lambda_approaches_line(self):
        rng = np.random.default_rng(2)
        y = rng.normal(0, 1, 300)
        tau = hp_filter(y, 1e12)
        # Second difference of the limit is ~0 (a straight line).
        assert np.max(np.abs(np.diff(tau, 2))) < 1e-6

    def test_short_series_mean(self):
        y = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(hp_filter(y), np.full(3, 2.0))

    def test_empty(self):
        assert hp_filter(np.array([])).size == 0

    def test_preserves_mean(self):
        rng = np.random.default_rng(3)
        y = rng.normal(5, 1, 500)
        assert hp_filter(y).mean() == pytest.approx(y.mean(), abs=0.05)


class TestFactorCache:
    @staticmethod
    def _uncached(y, lamb):
        n = y.size
        c = 2.0 * lamb
        d0 = np.full(n, 1.0 + 6.0 * c)
        d0[0] = d0[-1] = 1.0 + c
        d0[1] = d0[-2] = 1.0 + 5.0 * c
        d1 = np.full(n - 1, -4.0 * c)
        d1[0] = d1[-1] = -2.0 * c
        return _solve_pentadiagonal(d0, d1, np.full(n - 2, c), y)

    def test_repeated_length_matches_uncached(self):
        rng = np.random.default_rng(4)
        n = 300
        lamb = hp_lambda_for_cutoff(n / 2.0)
        for _ in range(3):
            y = rng.normal(0, 1, n).cumsum()
            assert np.array_equal(hp_filter(y), self._uncached(y, lamb))

    def test_returned_array_is_fresh(self):
        y = np.random.default_rng(5).normal(0, 1, 120)
        first = hp_filter(y, 50.0)
        expected = first.copy()
        first[:] = np.nan
        assert np.array_equal(hp_filter(y, 50.0), expected)


class TestLambdaCutoff:
    def test_monotone_in_cutoff(self):
        assert hp_lambda_for_cutoff(100) < hp_lambda_for_cutoff(200) \
            < hp_lambda_for_cutoff(400)

    def test_trivial_cutoff_zero(self):
        assert hp_lambda_for_cutoff(2) == 0.0

    def test_half_power_at_cutoff(self):
        # Smoother gain 1/(1+8λ(1−cos ω_c)²) must be 1/2 at the cutoff.
        p_c = 64.0
        lam = hp_lambda_for_cutoff(p_c)
        w = 2 * np.pi / p_c
        gain = 1.0 / (1.0 + 8.0 * lam * (1 - np.cos(w)) ** 2)
        assert gain == pytest.approx(0.5, rel=1e-6)

    def test_half_power_empirical(self):
        # Feed a pure sinusoid at the cutoff period: the trend estimate
        # should carry about half its amplitude.
        n, p_c = 4096, 64.0
        lam = hp_lambda_for_cutoff(p_c)
        t = np.arange(n)
        y = np.sin(2 * np.pi * t / p_c)
        tau = hp_filter(y, lam)
        core = slice(500, n - 500)  # avoid boundary effects
        amp = np.max(np.abs(tau[core]))
        assert amp == pytest.approx(0.5, abs=0.05)
