"""Data preprocessing of §3.2: normalize, HP-detrend, clip extreme outliers.

``preprocess(y)`` returns the series the rest of the pipeline consumes:

1. HP trend filter (Eq. 2) estimates τ̂; the series is detrended as
   ``ŷ = y − τ̂``;
2. ``y' = ψ((ŷ − μ)/s)`` with μ = median, s = MAD, and the bounded
   ψ(x) = sign(x)·min(|x|, c) — this both normalizes the scale and
   coarsely clips extreme outliers (Dürre et al. 2015).

NaNs (missing data, as in the cloud datasets of Table 4) are linearly
interpolated first, matching the paper's handling of Data-5/6.
"""
from __future__ import annotations

import numpy as np

from .hp_filter import hp_filter
from .robust_stats import mad, median, psi_clip


def interpolate_missing(y: np.ndarray) -> np.ndarray:
    """Linear interpolation over NaNs (edge NaNs take the nearest value)."""
    y = np.asarray(y, dtype=float).copy()
    bad = ~np.isfinite(y)
    if bad.any():
        good = ~bad
        if not good.any():
            return np.zeros_like(y)
        idx = np.arange(y.size)
        y[bad] = np.interp(idx[bad], idx[good], y[good])
    return y


def _interpolate_detrend(y: np.ndarray, lamb: float | None,
                         detrend: bool) -> tuple[np.ndarray, float]:
    """Interpolate NaNs and HP-detrend; also return the scale floor below
    which the normalized series is taken to be all zeros."""
    y = interpolate_missing(y)
    # Relative floor: a numerically-flat series (HP residual of a constant)
    # must map to zeros, not to amplified float noise.
    tiny = 1e-8 * max(1.0, float(np.max(np.abs(y)) if y.size else 0.0))
    if detrend and y.size >= 8:
        y = y - hp_filter(y, lamb)
    return y, tiny


def detrend_normalize(y: np.ndarray, *, lamb: float | None = None) -> np.ndarray:
    """HP-detrend + z-normalize, **without** the robust ψ-clip.

    The paper applies the HP filter to *all* algorithms for a fair
    comparison (§4.1.1); the robust clipping is RobustPeriod's own
    preprocessing, so baselines get this variant.
    """
    y, tiny = _interpolate_detrend(y, lamb, detrend=True)
    s = float(np.std(y))
    return (y - float(np.mean(y))) / s if s > tiny else np.zeros_like(y)


def preprocess(y: np.ndarray, *, lamb: float | None = None,
               c: float = 3.0, detrend: bool = True) -> np.ndarray:
    """Normalized, detrended, outlier-clipped series y' of §3.2."""
    y, tiny = _interpolate_detrend(y, lamb, detrend)
    mu = median(y)
    s = mad(y, center=mu)
    if s <= tiny or not np.isfinite(s):
        s = float(np.std(y))
    if s <= tiny or not np.isfinite(s):
        return np.zeros_like(y)
    return psi_clip((y - mu) / s, c)
