"""Seeded input corpora for the benchmark workloads.

Every corpus is a function of the workload seed alone: the same seed gives
the same series.  Periodic series come from ``repro.datasets``; the
aperiodic null series are generated here, so the library's dataset module
stays the paper's.

A corpus is long-format ``data`` (``dataset, series_id, t, y``) plus
``truth`` (``dataset, series_id, periods`` as a JSON int list), the shapes
``repro.sparkrun`` consumes.  Null datasets are named ``null_<kind>`` and
carry the empty truth ``[]``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro import datasets

NULL_KINDS = ("white", "random_walk", "ar1", "level_shift")
NULL_PREFIX = "null_"


def null_series(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """One aperiodic series of length ``n``.

    white: N(0, 1); random_walk: its cumulative sum; ar1: AR(1) with
    φ = 0.9; level_shift: white noise with one step of height U(3, 6) at a
    uniform point in the middle half.
    """
    e = rng.normal(size=n)
    if kind == "white":
        return e
    if kind == "random_walk":
        return np.cumsum(e)
    if kind == "ar1":
        y = np.empty(n)
        y[0] = e[0]
        for i in range(1, n):
            y[i] = 0.9 * y[i - 1] + e[i]
        return y
    if kind == "level_shift":
        at = int(rng.integers(n // 4, 3 * n // 4))
        step = rng.uniform(3.0, 6.0) * rng.choice([-1.0, 1.0])
        return e + np.where(np.arange(n) >= at, step, 0.0)
    raise ValueError(f"unknown null kind {kind!r}")


def null_suite(n_per_kind: int, n: int, seed: int
               ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """``n_per_kind`` series of each null kind, one dataset per kind."""
    rng = np.random.default_rng(seed)
    rows, truths = [], []
    for kind in NULL_KINDS:
        for sid in range(n_per_kind):
            y = null_series(kind, n, rng)
            rows.append(pd.DataFrame({"dataset": NULL_PREFIX + kind,
                                      "series_id": sid, "t": np.arange(n),
                                      "y": y}))
            truths.append((NULL_PREFIX + kind, sid, "[]"))
    return (pd.concat(rows, ignore_index=True),
            pd.DataFrame(truths, columns=["dataset", "series_id", "periods"]))


@dataclass(frozen=True)
class Corpus:
    data: pd.DataFrame
    truth: pd.DataFrame

    def series(self) -> list[tuple[str, int, np.ndarray, list[int]]]:
        """``(dataset, series_id, y, true periods)`` in a stable order."""
        truth = {(d, int(s)): json.loads(p) for d, s, p in
                 self.truth[["dataset", "series_id", "periods"]].itertuples(
                     index=False)}
        out = []
        for (d, s), g in self.data.groupby(["dataset", "series_id"],
                                           sort=True):
            y = g.sort_values("t")["y"].to_numpy(dtype=float)
            out.append((d, int(s), y, truth[(d, int(s))]))
        return out

    def subset(self, keys: set[tuple[str, int]]) -> "Corpus":
        def pick(df):
            idx = pd.MultiIndex.from_frame(df[["dataset", "series_id"]])
            return df[idx.isin(list(keys))].reset_index(drop=True)
        return Corpus(pick(self.data), pick(self.truth))

    def warmup(self) -> "Corpus":
        """The first series of every dataset: a small job that starts every
        Python worker and imports the library before timing begins."""
        keys = {(d, int(g["series_id"].min()))
                for d, g in self.truth.groupby("dataset")}
        return self.subset(keys)


def _concat(parts) -> Corpus:
    return Corpus(pd.concat([d for d, _ in parts], ignore_index=True),
                  pd.concat([t for _, t in parts], ignore_index=True))


def _count(n: int, scale: float) -> int:
    return max(1, int(round(n * scale)))


def _subseeds(seed: int, k: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, k)]


def spark_short(seed: int, scale: float = 1.0) -> Corpus:
    """Many short (N=500) mild sin series and nulls, for ``siegel``."""
    s = _subseeds(seed, 2)
    return _concat([
        datasets.synthetic_suite(kind="sin", periods=(20, 50, 100), n=500,
                                 noise_var=0.1, outlier_ratio=0.01,
                                 n_series=_count(96, scale), seed=s[0],
                                 name="sin_short"),
        null_suite(_count(24, scale), 500, s[1]),
    ])


#: Lengths of the mild synthetic series in ``local-long``, and how many
#: series of each length and cloud-like D1–D6 sets a pass holds.
LONG_MILD_N = (4000, 5000, 6000)
LONG_MILD_EACH = 4
LONG_CLOUD_SETS = 8


def local_long(seed: int, scale: float = 1.0) -> tuple[Corpus, Corpus]:
    """``(timed, nulls)`` for the single-process workload.

    timed: cloud-like D1–D6 sets (N=1008–7200) and mild sin series
    (σ²=0.1, η=0.01, periods 20/50/100) of the lengths in ``LONG_MILD_N``.
    The mild series are a fifth of the calls, so p90 latency falls in the
    middle of them and p50 inside the cloud series, away from the cost
    step between the two groups.  Many distinct series per group keep both
    percentiles from hanging on one series' cost.

    nulls: short null series, scored for ``null_fp_rate`` outside the
    latency loop so they do not displace the long-series percentiles.

    ``scale`` < 1 shrinks every part, for smoke tests.
    """
    s = _subseeds(seed, 1 + LONG_CLOUD_SETS + len(LONG_MILD_N))
    parts = []
    for k in range(_count(LONG_CLOUD_SETS, scale)):
        d, t = datasets.cloud_like(seed=s[1 + k])
        d["dataset"] = t["dataset"] = f"cloud_{k}"
        parts.append((d, t))
    for n, sub in zip(LONG_MILD_N, s[1 + LONG_CLOUD_SETS:]):
        parts.append(datasets.synthetic_suite(
            kind="sin", periods=(20, 50, 100), n=max(512, int(n * scale)),
            noise_var=0.1, outlier_ratio=0.01,
            n_series=_count(LONG_MILD_EACH, scale), seed=sub,
            name=f"sin_mild_{n}"))
    return _concat(parts), Corpus(*null_suite(_count(32, scale), 256, s[0]))


#: Seed of the fixed ``local-long`` warm-up set, which the output check
#: also scores against its ground truth.
WARMUP_SEED = 0


def local_warmup() -> Corpus:
    """The fixed warm-up set of ``local-long``, the same for every
    workload seed: the first cloud-like D1–D6 set and the first mild
    series of each length in ``LONG_MILD_N``, all at full size."""
    timed, _ = local_long(WARMUP_SEED)
    keys = {(d, int(s)) for d, s in
            timed.truth[["dataset", "series_id"]].itertuples(index=False)
            if d == "cloud_0" or (d.startswith("sin_") and s == 0)}
    return timed.subset(keys)
