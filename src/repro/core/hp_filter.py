"""Hodrick–Prescott trend filter (paper §3.2, Eq. 2) without scipy.

The HP estimate solves ``(I + 2λ DᵀD) τ = y`` where ``D`` is the (N−2)×N
second-difference operator.  The system matrix is symmetric positive
definite and pentadiagonal, so we factor it with a banded LDLᵀ (bandwidth
2) in O(N) — dense solves would need O(N²) memory at the N≈7200 cloud
series of Table 4.

λ is not specified in the paper; we derive it from the HP frequency
response: for this objective the smoother's gain is
``1/(1 + 8λ(1−cos ω)²)``, so the half-power cutoff period ``p_c`` gives
``λ = 1/(32 sin⁴(π/p_c))``.  The pipeline defaults to ``p_c = N/2`` —
anything slower than half the series is trend, which preserves every
detectable period (≤ N/2 by definition).
"""
from __future__ import annotations

import functools

import numpy as np


def hp_lambda_for_cutoff(p_c: float) -> float:
    """λ whose half-power cutoff is at period ``p_c`` samples."""
    if p_c <= 2.0:
        return 0.0
    return 1.0 / (32.0 * np.sin(np.pi / p_c) ** 4)


def _ldl_factor(d0: np.ndarray, d1: np.ndarray, d2: np.ndarray):
    """Banded LDLᵀ of a symmetric pentadiagonal SPD matrix.

    ``d0`` is the main diagonal (len N), ``d1`` the first sub/super
    diagonal (len N−1), ``d2`` the second (len N−2).  Returns the diagonal
    ``d`` and the two sub-diagonals ``l1``, ``l2`` of the unit lower ``L``
    as tuples of Python floats.
    """
    n = d0.size
    d = np.empty(n)
    l1 = np.zeros(max(n - 1, 0))
    l2 = np.zeros(max(n - 2, 0))
    d[0] = d0[0]
    if n > 1:
        l1[0] = d1[0] / d[0]
        if n > 2:
            l2[0] = d2[0] / d[0]
        d[1] = d0[1] - l1[0] ** 2 * d[0]
        if n > 2:
            l1[1] = (d1[1] - l2[0] * l1[0] * d[0]) / d[1]
            if n > 3:
                l2[1] = d2[1] / d[1]
    for i in range(2, n):
        d[i] = d0[i] - l1[i - 1] ** 2 * d[i - 1] - l2[i - 2] ** 2 * d[i - 2]
        if i < n - 1:
            l1[i] = (d1[i] - l2[i - 1] * l1[i - 1] * d[i - 1]) / d[i]
        if i < n - 2:
            l2[i] = d2[i] / d[i]
    return tuple(d.tolist()), tuple(l1.tolist()), tuple(l2.tolist())


def _ldl_solve(d: tuple, l1: tuple, l2: tuple, y: np.ndarray) -> np.ndarray:
    """Solve ``L D Lᵀ x = y`` for the factor of :func:`_ldl_factor`.  The
    sweeps run over Python floats, which beats indexing numpy arrays."""
    n = len(d)
    y = np.asarray(y, dtype=float).tolist()
    # Forward solve L z = y
    z = [0.0] * n
    z[0] = y[0]
    if n > 1:
        z[1] = y[1] - l1[0] * z[0]
    for i in range(2, n):
        z[i] = y[i] - l1[i - 1] * z[i - 1] - l2[i - 2] * z[i - 2]
    # Diagonal solve D w = z
    z = [zi / di for zi, di in zip(z, d)]
    # Back solve Lᵀ x = w
    x = [0.0] * n
    x[n - 1] = z[n - 1]
    if n > 1:
        x[n - 2] = z[n - 2] - l1[n - 2] * x[n - 1]
    for i in range(n - 3, -1, -1):
        x[i] = z[i] - l1[i] * x[i + 1] - l2[i] * x[i + 2]
    return np.array(x)


def _solve_pentadiagonal(d0: np.ndarray, d1: np.ndarray, d2: np.ndarray,
                         y: np.ndarray) -> np.ndarray:
    """Solve ``A x = y`` for symmetric pentadiagonal SPD ``A`` (diagonals as
    in :func:`_ldl_factor`).  Banded LDLᵀ."""
    return _ldl_solve(*_ldl_factor(d0, d1, d2), y)


@functools.lru_cache(maxsize=32)
def _hp_factor(n: int, lamb: float):
    """LDLᵀ factor of ``I + 2λ·DᵀD``, which depends on ``(N, λ)`` only."""
    # Diagonals of I + 2λ·DᵀD with D the second-difference operator.
    c = 2.0 * lamb
    d0 = np.full(n, 1.0 + 6.0 * c)
    d0[0] = d0[-1] = 1.0 + 1.0 * c
    d0[1] = d0[-2] = 1.0 + 5.0 * c
    d1 = np.full(n - 1, -4.0 * c)
    d1[0] = d1[-1] = -2.0 * c
    d2 = np.full(n - 2, 1.0 * c)
    return _ldl_factor(d0, d1, d2)


def hp_filter(y: np.ndarray, lamb: float | None = None) -> np.ndarray:
    """Return the HP trend estimate τ̂ of Eq. 2.

    ``lamb=None`` selects λ from the ``p_c = N/2`` cutoff rule.  The
    detrended series is ``y − hp_filter(y)``.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 4:
        return np.full(n, float(np.mean(y))) if n else y.copy()
    if lamb is None:
        lamb = hp_lambda_for_cutoff(n / 2.0)
    return _ldl_solve(*_hp_factor(n, float(lamb)), y)
