"""Periodograms: ordinary (Eq. 5), Huber M-periodogram (Eq. 6-7), and the
LAD-periodogram used for the paper's Fig. 6 comparison.

The M-periodogram at frequency index k is

    P^M_k = (N'/4) · ||β̂(k)||²,
    β̂(k) = argmin_β Σ_t γ( φ_t β − x_t ),   φ_t = [cos(2πkt/N'), sin(2πkt/N')]

The paper solves the Huber case by ADMM; the objective is convex with a
unique minimizer on the full-rank 2-column harmonic design, so IRLS
converges to the same β̂ (documented substitution in DESIGN.md).  IRLS
vectorizes across frequencies: all frequencies in a chunk share the
residual/weight matrices, each iteration solving K independent 2×2
weighted normal systems in closed form.

Robust scale handling: the minimizer of the Huber problem with threshold
ζ·σ̂ on data x equals σ̂ times the minimizer with threshold ζ on x/σ̂, so
we normalize by the MAD-based scale and use the standard ζ = 1.345.
"""
from __future__ import annotations

import numpy as np

from .robust_stats import huber_weights, robust_scale

HUBER_ZETA = 1.345


def ordinary_periodogram(x: np.ndarray) -> np.ndarray:
    """Eq. 5: P_k = |DFT{x}|²/N for k = 0..⌊N/2⌋ (rfft bins)."""
    x = np.asarray(x, dtype=float)
    X = np.fft.rfft(x)
    return (X.real**2 + X.imag**2) / x.size


def _trig(table: np.ndarray, ks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``[cos, sin](2πkt/N')`` for every ``(k, t)``, shape 2×K×T, read from
    the length-N' ``table`` at ``(k·t) mod N'`` (no per-element ``np.cos``)."""
    kt = np.outer(ks, t)
    kt %= table.shape[1]
    return np.take(table, kt, axis=1)


def _irls_chunk(x: np.ndarray, ks: np.ndarray, a: np.ndarray, b: np.ndarray,
                table: np.ndarray, tail_gram: np.ndarray, zeta: float,
                loss: str, max_iter: int, tol: float) -> np.ndarray:
    """Solve the M-periodogram for a chunk of frequency indices.

    Returns ||β̂(k)||² per k.  ``loss`` is 'huber' or 'lad'.  ``x`` is the
    real prefix of the series: every sample from ``x.size`` up to N' is 0.
    ``(a, b)`` is the OLS start and ``tail_gram`` (3×K) the zero tail's
    Σcos², Σcos·sin, Σsin².  The tail adds nothing to the right-hand side,
    and while ``hypot(a, b) ≤ ζ`` its residuals ``|a·cos + b·sin| ≤ ζ`` all
    get Huber weight 1, so its Gram terms are exactly ``tail_gram``.  Only
    the other rows (all rows for LAD) weight the tail explicitly.
    """
    n = table.shape[1]
    m = x.size
    t_tail = np.arange(m, n)
    C, S = _trig(table, ks, np.arange(m))      # K×m
    for _ in range(max_iter):
        # The margin covers rounding in a·cos + b·sin.
        explicit = (np.hypot(a, b) > zeta * (1.0 - 1e-9) if loss == "huber"
                    else np.ones(ks.size, dtype=bool))
        e = np.flatnonzero(explicit)
        Ce, Se = _trig(table, ks[e], t_tail)    # E×(N'−m)
        # Residuals of the prefix and of the explicit tail rows share one
        # buffer, so one weight call covers both.
        r = np.empty(C.size + Ce.size)
        rp = r[:C.size].reshape(C.shape)
        np.multiply(a[:, None], C, out=rp)
        rp += b[:, None] * S
        rp -= x
        np.add(a[e, None] * Ce, b[e, None] * Se,
               out=r[C.size:].reshape(Ce.shape))
        if loss == "huber":
            w = huber_weights(r, zeta)
        else:  # LAD: w = 1/|r| with guard
            w = 1.0 / np.maximum(np.abs(r), 1e-8)
        wC, wS, gram = _weighted_gram(w[:C.size].reshape(C.shape), C, S)
        gram += np.where(explicit, 0.0, tail_gram)
        gram[:, e] += _weighted_gram(w[C.size:].reshape(Ce.shape), Ce, Se)[2]
        Scc, Scs, Sss = gram
        Scx = wC @ x
        Ssx = wS @ x
        det = Scc * Sss - Scs**2
        ok = det > 1e-12
        a_new = np.where(ok, (Sss * Scx - Scs * Ssx) / np.where(ok, det, 1.0), a)
        b_new = np.where(ok, (Scc * Ssx - Scs * Scx) / np.where(ok, det, 1.0), b)
        delta = np.max(np.abs(a_new - a) + np.abs(b_new - b))
        a, b = a_new, b_new
        if delta < tol:
            break
    return a**2 + b**2


def _weighted_gram(w: np.ndarray, C: np.ndarray, S: np.ndarray):
    """``(w·C, w·S, [Σw·cos², Σw·cos·sin, Σw·sin²])`` per row."""
    wC = w * C
    wS = w * S
    return wC, wS, np.stack([np.einsum("kt,kt->k", wC, C),
                             np.einsum("kt,kt->k", wC, S),
                             np.einsum("kt,kt->k", wS, S)])


def m_periodogram(x: np.ndarray, *, loss: str = "huber",
                  zeta: float = HUBER_ZETA,
                  exact_band: tuple[int, int] | None = None,
                  n_data: int | None = None,
                  max_iter: int = 20, tol: float = 1e-7,
                  chunk: int = 256) -> np.ndarray:
    """M-periodogram of Eq. 6 for k = 0..⌊N/2⌋.

    ``exact_band=(lo, hi)`` restricts the (expensive) robust solve to the
    frequency indices ``lo ≤ k ≤ hi`` — the per-level speed-up of §3.4.1
    — with the ordinary periodogram (Eq. 5) approximating the rest.
    ``exact_band=None`` solves every interior frequency robustly.

    ``n_data``: length of the real (unpadded) prefix of ``x``.  The robust
    scale is estimated on that prefix only — estimating it on the padded
    series collapses the MAD (≥50% exact zeros), which turns the Huber fit
    into a LAD fit that a majority of zeros pulls to β=0, crushing genuine
    spectral peaks.

    The IRLS runs over ``t < m`` only, ``m`` one past the last nonzero
    sample: the zero tail enters through its Gram terms, read for every
    ``k`` from one FFT of the tail indicator at bin ``2k``.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    nyq = n // 2
    X = np.fft.rfft(x)
    P = (X.real**2 + X.imag**2) / n
    sig = robust_scale(x[: n_data if n_data else n])
    if sig <= 0 or not np.isfinite(sig):
        return P
    lo, hi = (1, nyq) if exact_band is None else exact_band
    lo = max(1, int(lo))
    hi = min(nyq - 1 if n % 2 == 0 else nyq, int(hi))
    if hi < lo:
        return P
    ks = np.arange(lo, hi + 1)
    m = np.flatnonzero(x)[-1] + 1   # x has a nonzero sample, as sig > 0
    xn = x[:m] / sig
    # OLS start (exact at Fourier frequencies): (2/N')·(Re X_k, −Im X_k).
    a0 = (2.0 / n) * X.real[ks] / sig
    b0 = (-2.0 / n) * X.imag[ks] / sig
    ang = 2.0 * np.pi * np.arange(n) / n
    table = np.stack([np.cos(ang), np.sin(ang)])
    # cos² = (1 + cos 2θ)/2, cos·sin = sin 2θ/2, sin² = (1 − cos 2θ)/2.
    indicator = np.zeros(n)
    indicator[m:] = 1.0
    F = np.fft.fft(indicator)[(2 * ks) % n]
    tail_gram = 0.5 * np.stack([(n - m) + F.real, -F.imag, (n - m) - F.real])
    beta2 = np.empty(ks.size)
    for s in range(0, ks.size, chunk):
        sl = slice(s, s + chunk)
        beta2[sl] = _irls_chunk(xn, ks[sl], a0[sl], b0[sl], table,
                                tail_gram[:, sl], zeta, loss, max_iter, tol)
    P[ks] = (n / 4.0) * beta2 * sig**2
    return P


def huber_periodogram(x: np.ndarray, **kw) -> np.ndarray:
    """Huber-loss M-periodogram (the paper's default)."""
    return m_periodogram(x, loss="huber", **kw)


def lad_periodogram(x: np.ndarray, **kw) -> np.ndarray:
    """LAD-loss M-periodogram (Li 2008), for the Fig. 6 comparison."""
    return m_periodogram(x, loss="lad", **kw)
