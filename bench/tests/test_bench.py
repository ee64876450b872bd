"""Tests of the benchmark itself: span arithmetic, the percentile rule,
metric names against BENCHMARK.json, and a tiny-corpus run of every
workload.

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpora  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ spans


def test_self_time_subtracts_direct_children_only():
    S = tracing.Span
    t = tracing.Tracer(spans=[
        S(0, None, "a", 0.0, 10.0),
        S(1, 0, "b", 1.0, 4.0),
        S(2, 1, "c", 2.0, 3.0),
        S(3, 0, "b", 5.0, 6.0),
    ])
    total, own = t.totals()
    assert total == {"a": 10.0, "b": 4.0, "c": 1.0}
    assert own == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_installed_wraps_by_module_name_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    tracer = tracing.Tracer()
    with tracer.installed([("fake_layer", "outer", "o"),
                           ("fake_layer", "inner", "i")]):
        assert mod.outer(1) == 4
    assert mod.outer is outer and mod.inner is inner
    assert tracer.counts["o.calls"] == tracer.counts["i.calls"] == 1
    o, i = tracer.spans
    assert (o.name, o.parent, i.name, i.parent) == ("o", None, "i", o.id)
    total, own = tracer.totals()
    assert own["o"] == pytest.approx(total["o"] - total["i"])


def test_installed_refuses_a_gone_target_and_restores(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.f = f = lambda x: x  # noqa: E731
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    with pytest.raises(tracing.MissingTarget, match="fake_layer.gone"):
        with tracing.Tracer().installed([("fake_layer", "f", "f"),
                                         ("fake_layer", "gone", "g")]):
            pass
    assert mod.f is f


def test_band_width_clips_to_interior_bins():
    t = tracing.Tracer()
    x = np.zeros(100)
    tracing._band_width(t, (x,), {"exact_band": (0, 80)}, None)
    tracing._band_width(t, (x,), {"exact_band": (10, 19)}, None)
    tracing._band_width(t, (x,), {}, None)
    # (1..49) + (10..19) + (1..49)
    assert t.counts["core.huber_periodogram.freqs_solved"] == 49 + 10 + 49


# ------------------------------------------------------------ statistics


def test_percentile_needs_ten_samples_beyond():
    assert measure.min_samples(90) == 100
    assert measure.min_samples(50) == 20
    with pytest.raises(ValueError):
        measure.percentile(range(99), 90)
    with pytest.raises(ValueError):
        measure.percentile(range(19), 50)
    xs = np.random.default_rng(0).normal(size=100)
    assert measure.percentile(xs, 90) == pytest.approx(np.percentile(xs, 90))
    assert measure.percentile(xs[:20], 50) == pytest.approx(
        np.median(xs[:20]))


def test_quality_pools_periodic_and_counts_nulls():
    f1, fp = run.quality([
        ("sin", [20, 50], [20, 50, 100]),   # tp 2, fn 1
        ("sin", [101, 7], [100]),           # tp 1 (±2 %), fp 1
        ("null_white", [], []),
        ("null_ar1", [33], []),
    ])
    assert f1 == pytest.approx(2 * 3 / (2 * 3 + 1 + 1))
    assert fp == 0.5


# ------------------------------------------------------------ names


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_metric_names_valid_unique_and_reported():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(measure.valid_name(n) for n in names)
    assert not measure.valid_name("_x") and not measure.valid_name("a b")
    for metrics, table in ((SPEC["end_to_end"], run.END_TO_END),
                           (SPEC["per_layer"], run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in metrics} == table
        assert all(measure.valid_unit(m["unit"]) for m in metrics)
        assert all(m["better"] in ("higher", "lower") for m in metrics)


# ------------------------------------------------------------ corpora


def test_corpora_repeat_per_seed():
    a = corpora.spark_short(3, scale=0.05)
    b = corpora.spark_short(3, scale=0.05)
    c = corpora.spark_short(4, scale=0.05)
    assert a.data.equals(b.data) and a.truth.equals(b.truth)
    assert not a.data.equals(c.data)
    kinds = {d for d in a.truth["dataset"] if d.startswith("null_")}
    assert kinds == {"null_" + k for k in corpora.NULL_KINDS}


# ------------------------------------------------------------ smoke


def _check_result(result, names):
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(names)
    json.dumps(result)
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_corpus_run(workload):
    plain = _check_result(run.run(workload, 1, 0.1, False, scale=0.05),
                          run.END_TO_END)
    assert plain["ok_rate"] == 1.0 and plain["wall_s"] > 0
    traced = _check_result(run.run(workload, 1, 0.1, True, scale=0.05),
                           run.PER_LAYER)
    if workload == "local-long":
        assert traced["sparkrun.tasks"] == 0
        assert traced["core.huber_periodogram.calls"] > 0
    else:
        assert traced["sparkrun.tasks"] > 0
        assert traced["sparkrun.jvm_peak_rss_mb"] > 0
    if workload == "spark-short":
        assert traced["core.huber_periodogram.calls"] == 0
        assert traced["core.fisher.g_critical_calls"] > 0


@pytest.mark.parametrize("target", [
    # gone from the module
    ("repro.core.robust_period", "no_such_stage", "core.hp_filter"),
    # present, but not the name its caller looks it up by
    ("repro.core.hp_filter", "hp_filter", "core.hp_filter"),
])
def test_traced_run_fails_when_a_layer_is_not_reached(monkeypatch, target):
    targets = [t for t in tracing.CORE_TARGETS if t[2] != "core.hp_filter"]
    monkeypatch.setattr(tracing, "CORE_TARGETS", targets + [target])
    result = run.run("local-long", 1, 0.1, True, scale=0.05)
    assert result["correct"] is False and result["metrics"] == {}


def test_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "local-long",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
