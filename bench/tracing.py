"""In-process spans and counters around the library's layer boundaries.

``Tracer.installed()`` replaces each traced function under the
module-level name its caller looks it up by, so the call graph of
``detect_full`` and ``siegel.detect`` is unchanged and every call at a
boundary is recorded.  Spans stay in memory and are written out when the
run ends.  The wrappers live in this process only: Spark's Python
workers import the library afresh, which is why the ``core.*`` numbers
come from a local pass.

A target the library no longer has raises ``MissingTarget``; the caller
also checks that every layer its workload runs recorded calls, so a
renamed or re-routed function fails the traced run instead of reading 0.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

Observer = Callable[["Tracer", tuple, dict, object], None]


class MissingTarget(LookupError):
    """A traced module attribute does not exist."""


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _open: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None,
             span: bool = True) -> Callable:
        """``fn`` recording a span called ``name`` (unless ``span`` is
        false) and counting its calls; ``observe`` sees every result."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if not span:
                out = fn(*args, **kwargs)
            else:
                sid = len(self.spans)
                parent = self._open[-1] if self._open else None
                s = Span(sid, parent, name, time.perf_counter(), 0.0)
                self.spans.append(s)
                self._open.append(sid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    s.end = time.perf_counter()
                    self._open.pop()
            if observe is not None:
                observe(self, args, kwargs, out)
            return out
        return traced

    @contextmanager
    def installed(self, targets: list[tuple]):
        """Patch ``(module, attribute, span name[, observer[, span]])``
        targets for the duration of the block."""
        undo = []
        try:
            for module, attr, name, *rest in targets:
                mod = importlib.import_module(module)
                if not hasattr(mod, attr):
                    raise MissingTarget(f"no trace target {module}.{attr}")
                orig = getattr(mod, attr)
                undo.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(name, orig, *rest))
            yield self
        finally:
            for mod, attr, orig in reversed(undo):
                setattr(mod, attr, orig)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(total, self)`` seconds per span name.  A span's self time is
        its duration minus the durations of its direct children."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for s in self.spans:
            total[s.name] += s.end - s.start
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        own: dict[str, float] = defaultdict(float)
        for s in self.spans:
            own[s.name] += s.end - s.start - child[s.id]
        return total, own

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": [[s.id, s.parent, s.name, s.start, s.end]
                                 for s in self.spans],
                       "counts": dict(self.counts)}, f)


def _band_width(tracer: Tracer, args: tuple, kwargs: dict, _out) -> None:
    """Frequencies the Huber periodogram solves robustly: the width of
    ``exact_band`` clipped to the interior bins, as ``m_periodogram``
    documents it (all interior bins when no band is given)."""
    n = len(args[0]) if args else len(kwargs["x"])
    nyq = n // 2
    lo, hi = kwargs.get("exact_band") or (1, nyq)
    lo, hi = max(1, int(lo)), min(nyq - 1 if n % 2 == 0 else nyq, int(hi))
    tracer.counts["core.huber_periodogram.freqs_solved"] += max(0, hi - lo + 1)


def _fisher_outcome(tracer: Tracer, _args, _kwargs, out) -> None:
    significant, k_star, _p = out
    tracer.counts["core.fisher.tested"] += 1
    tracer.counts["core.fisher.candidates"] += bool(significant and k_star >= 1)


def _acf_outcome(tracer: Tracer, _args, _kwargs, out) -> None:
    tracer.counts["core.acf.accepted"] += int(out) > 0


RP = "repro.core.robust_period"

#: Layer boundaries of ``detect_full`` and ``siegel.detect``.
CORE_TARGETS = [
    (RP, "detect_full", "core.robust_period"),
    (RP, "preprocess", "core.preprocess"),
    ("repro.baselines.siegel", "detrend_normalize", "core.preprocess"),
    ("repro.core.preprocess", "hp_filter", "core.hp_filter"),
    (RP, "modwt", "core.wavelets.modwt"),
    (RP, "robust_wavelet_variance", "core.wavelets.variance"),
    (RP, "huber_periodogram", "core.huber_periodogram", _band_width),
    ("repro.core.huber_periodogram", "huber_weights", "core.irls_weights",
     None, False),
    (RP, "fisher_test", "core.fisher.test", _fisher_outcome),
    ("repro.core.fisher", "fisher_g_critical", "core.fisher.g_critical"),
    (RP, "huber_acf", "core.acf"),
    (RP, "acf_med_period", "core.acf.med", _acf_outcome),
    ("repro.baselines.siegel", "detect", "baselines.siegel"),
]


def core_metrics(tracer: Tracer) -> dict[str, float]:
    """The ``core.*`` and ``baselines.*`` per-layer metrics of one pass."""
    total, own = tracer.totals()
    c = tracer.counts

    def ratio(num: str, den: str) -> float:
        return c[num] / c[den] if c[den] else 0.0

    return {
        "core.robust_period.self_s": own["core.robust_period"],
        "core.preprocess.self_s": own["core.preprocess"],
        "core.hp_filter.s": total["core.hp_filter"],
        "core.hp_filter.calls": c["core.hp_filter.calls"],
        "core.wavelets.modwt_s": total["core.wavelets.modwt"],
        "core.wavelets.variance_s": total["core.wavelets.variance"],
        "core.huber_periodogram.s": total["core.huber_periodogram"],
        "core.huber_periodogram.calls": c["core.huber_periodogram.calls"],
        "core.huber_periodogram.freqs_solved":
            c["core.huber_periodogram.freqs_solved"],
        "core.huber_periodogram.irls_iters": c["core.irls_weights.calls"],
        "core.fisher.test_s": total["core.fisher.test"],
        "core.fisher.g_critical_s": total["core.fisher.g_critical"],
        "core.fisher.g_critical_calls": c["core.fisher.g_critical.calls"],
        "core.fisher.pass_ratio": ratio("core.fisher.candidates",
                                        "core.fisher.tested"),
        "core.acf.s": total["core.acf"] + total["core.acf.med"],
        "core.acf.accept_ratio": ratio("core.acf.accepted",
                                       "core.fisher.candidates"),
        "baselines.siegel.s": total["baselines.siegel"],
    }
