"""Robust location/scale/variance estimators used throughout RobustPeriod.

The paper relies on three robust primitives:

* median / MAD for normalization and outlier clipping (§3.2);
* the biweight midvariance for the robust unbiased wavelet variance (Eq. 4);
* Huber's ψ weights for the Huber-periodogram IRLS solver (Eq. 6-7).

Everything is pure numpy; no scipy is available in this container.
"""
from __future__ import annotations

import numpy as np

#: Consistency factor making MAD an unbiased σ estimate under Gaussianity.
MAD_TO_SIGMA = 1.4826


def median(x: np.ndarray) -> float:
    """Median of a 1-D array (nan-safe: nans are ignored)."""
    return float(np.nanmedian(np.asarray(x, dtype=float)))


def mad(x: np.ndarray, center: float | None = None) -> float:
    """Median absolute deviation around ``center`` (default: the median).

    Returns the *raw* MAD (no Gaussian consistency factor); multiply by
    :data:`MAD_TO_SIGMA` to get a σ-consistent scale.
    """
    x = np.asarray(x, dtype=float)
    if center is None:
        center = median(x)
    return float(np.nanmedian(np.abs(x - center)))


def robust_scale(x: np.ndarray) -> float:
    """σ-consistent robust scale: 1.4826·MAD, falling back to the standard
    deviation when the MAD degenerates to zero (e.g. >50% identical values)."""
    s = MAD_TO_SIGMA * mad(x)
    if s <= 0.0 or not np.isfinite(s):
        s = float(np.nanstd(x))
    return s


def biweight_midvariance(x: np.ndarray, *, c: float = 9.0) -> float:
    """Tukey's biweight midvariance (Wilcox 2017), the robust variance used
    for the wavelet variance of Eq. 4.

    ``u_t = (x_t − Med(x)) / (c · MAD(x))``;  observations with ``|u| ≥ 1``
    get zero weight.  Matches Eq. 4 with ``n = len(x)``:

        n · Σ (x−M)²(1−u²)⁴ I(|u|<1)  /  [ Σ (1−u²)(1−5u²) I(|u|<1) ]²
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n == 0:
        return 0.0
    m = median(x)
    d = x - m
    s = mad(x, center=m)
    if s <= 0.0:
        # Degenerate scale: fall back to the classical variance, which is 0
        # for a constant array and still sensible otherwise.
        return float(np.var(d))
    u = d / (c * s)
    mask = np.abs(u) < 1.0
    if not mask.any():
        return 0.0
    u2 = u[mask] ** 2
    num = n * np.sum(d[mask] ** 2 * (1.0 - u2) ** 4)
    den = np.sum((1.0 - u2) * (1.0 - 5.0 * u2)) ** 2
    if den <= 0.0:
        return 0.0
    return float(num / den)


def huber_weights(r: np.ndarray, zeta: float) -> np.ndarray:
    """IRLS weights for the Huber loss: 1 inside ``|r| ≤ ζ``, ``ζ/|r|`` outside.

    Minimizing Σ γ_ζ(r_t) by IRLS repeatedly solves the weighted LS problem
    with these weights; this is the standard ψ(r)/r weight function.  A NaN
    residual gets weight 1 and an infinite one weight 0.
    """
    return zeta / np.fmax(np.abs(r), zeta)


def psi_clip(x: np.ndarray, c: float) -> np.ndarray:
    """Bounded ψ function of §3.2: sign(x)·min(|x|, c)."""
    return np.sign(x) * np.minimum(np.abs(x), c)
