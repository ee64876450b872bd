"""Summary statistics and metric-name rules shared by the benchmark."""
from __future__ import annotations

import math
import re
import statistics

#: Fewest samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def valid_name(name: str) -> bool:
    return _NAME.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return _UNIT.fullmatch(unit) is not None


def min_samples(pct: float) -> int:
    """Samples needed so that at least ``TAIL_SAMPLES`` lie beyond the
    ``pct`` percentile (100 for p90, 20 for p50)."""
    return math.ceil(TAIL_SAMPLES * 100 / (100 - pct))


def percentile(values, pct: float) -> float:
    """The ``pct`` percentile (linear interpolation between order
    statistics).  Raises when fewer than ``TAIL_SAMPLES`` samples would
    lie beyond it, rather than report a tail the run did not observe."""
    xs = sorted(values)
    need = min_samples(pct)
    if len(xs) < need:
        raise ValueError(f"p{pct:g} needs {need} samples, got {len(xs)}")
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Inter-quartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
