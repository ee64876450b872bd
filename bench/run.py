"""RobustPeriod benchmark: one seeded workload, measured, checked, reported.

    python3 bench/run.py --workload spark-short --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src``.  The
workloads, the metrics and the layer each per-layer metric should move are
described in ``bench/METRICS.md``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  The environment and each metric
go to stdout, progress to stderr; the last stdout line is the JSON result.
A failed output check prints the mismatch to stderr, reports
``"correct": false`` and exits with status 1.

Load is a closed loop from one Python process: the next job (or pass)
starts when the previous one has returned, until ``--seconds`` have passed
and the latency percentiles have enough samples.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build"
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no library at {ROOT / 'src' / 'repro'}: run from a checkout")
sys.path.insert(0, str(ROOT / "src"))

import corpora  # noqa: E402
import measure  # noqa: E402
import sparkjob  # noqa: E402
import tracing  # noqa: E402
from repro.sparkrun.metrics import match_counts  # noqa: E402

WORKLOADS = ("spark-short", "local-long")
#: The algorithm ``spark-short`` runs through Spark.
SPARK_ALGO = "siegel"

#: The direct library call each Spark algorithm must agree with.
LOCAL_CALL = {
    "robust_period": ("repro.core.robust_period", "detect"),
    "siegel": ("repro.baselines.siegel", "detect"),
}

#: Spans the local traced pass of each workload must record calls of; a
#: layer that reads 0 there is no longer reached under its traced name.
TRACED_LAYERS = {
    "spark-short": ("baselines.siegel", "core.preprocess", "core.hp_filter",
                    "core.fisher.g_critical"),
    "local-long": ("core.robust_period", "core.preprocess", "core.hp_filter",
                   "core.wavelets.modwt", "core.wavelets.variance",
                   "core.huber_periodogram", "core.irls_weights",
                   "core.fisher.test", "core.acf", "core.acf.med"),
}

SETUP_REPS = 3
MIN_JOBS = 2
TOL = 0.02

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "series_per_s": "1/s", "peak_rss_mb": "MB",
    "f1_tol2": "ratio", "null_fp_rate": "ratio", "ok_rate": "ratio",
}
SPARK_LAYER = {
    "sparkrun.detect.ingest_s": "s", "sparkrun.detect.detect_s": "s",
    "sparkrun.detect.udf_algo_s": "s",
    "sparkrun.detect.udf_overhead_core_s": "s",
    "sparkrun.detect.algo_inflation": "ratio",
    "sparkrun.detect.partition_skew": "ratio",
    "sparkrun.metrics.match_s": "s", "sparkrun.metrics.aggregate_s": "s",
    "sparkrun.tasks": "count", "sparkrun.tasks_failed": "count",
    "sparkrun.jvm_peak_rss_mb": "MB",
}
CORE_LAYER = {name: ("count" if name.endswith(("calls", "freqs_solved",
                                               "irls_iters"))
                     else "ratio" if name.endswith("ratio") else "s")
              for name in tracing.core_metrics(tracing.Tracer())}
PER_LAYER = {**SPARK_LAYER, **CORE_LAYER, "trace.overhead_s": "s"}


class CheckFailed(AssertionError):
    """The program's output disagrees with its reference."""


def local_fn(algo: str):
    """The library function, looked up at call time so traced wrappers
    installed on the module apply."""
    module, attr = LOCAL_CALL[algo]
    return getattr(importlib.import_module(module), attr)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak RSS of this process, or with ``RUSAGE_CHILDREN`` of its
    largest ended child: the Spark driver JVM, once
    ``SparkRunner.close()`` has waited for it."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment(runner=None) -> dict:
    import numpy
    import pandas
    import pyarrow

    env = {
        "nproc": sparkjob.nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")
        .get("Build Dependencies", {}).get("blas", {}).get("name"),
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS")
                    or k == "VECLIB_MAXIMUM_THREADS"},
    }
    if runner is not None and runner.spark is not None:
        conf = runner.spark.sparkContext.getConf()
        env.update({
            "spark": runner.spark.version,
            "spark_master": runner.spark.sparkContext.master,
            "shuffle_partitions":
                runner.spark.conf.get("spark.sql.shuffle.partitions"),
            "adaptive": runner.spark.conf.get("spark.sql.adaptive.enabled"),
            "driver_memory": conf.get("spark.driver.memory", None),
        })
    return env


def quality(rows) -> tuple[float, float]:
    """``(f1_tol2, null_fp_rate)`` from ``(dataset, detected, truth)``:
    F1 pooled over the periodic series at ±2 %, and the share of null
    series that report any period."""
    tp = fp = fn = 0
    nulls = null_fp = 0
    for dataset, detected, truth in rows:
        if dataset.startswith(corpora.NULL_PREFIX):
            nulls += 1
            null_fp += bool(detected)
        else:
            a, b, c = match_counts(detected, truth, TOL)
            tp, fp, fn = tp + a, fp + b, fn + c
    f1 = 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 0.0
    return f1, (null_fp / nulls if nulls else 0.0)


def _periods(detections) -> dict[tuple[str, int], list[int]]:
    return {(d, int(s)): json.loads(p) for d, s, p in
            detections[["dataset", "series_id", "periods"]].itertuples(
                index=False)}


def local_pass(series, algo: str) -> tuple[dict, list[float], int]:
    """Direct library calls over ``series``, one at a time →
    (periods, seconds per call, failures)."""
    out, elapsed, failed = {}, [], 0
    for d, s, y, _ in series:
        fn = local_fn(algo)
        t0 = time.perf_counter()
        try:
            out[(d, s)] = sorted(int(p) for p in fn(y))
        except Exception:
            traceback.print_exc()
            failed += 1
        elapsed.append(time.perf_counter() - t0)
    return out, elapsed, failed


def traced_pass(workload: str, fn) -> tuple[dict, float, tracing.Tracer]:
    """``fn()`` with the ``core`` layers traced → (metrics, wall, tracer).
    Fails when a target is gone or a layer the workload runs recorded no
    calls, rather than report a 0 that reads as a speed-up."""
    tracer = tracing.Tracer()
    try:
        with tracer.installed(tracing.CORE_TARGETS):
            t0 = time.perf_counter()
            fn()
            wall = time.perf_counter() - t0
    except tracing.MissingTarget as e:
        raise CheckFailed(str(e)) from None
    idle = [n for n in TRACED_LAYERS[workload]
            if not tracer.counts[n + ".calls"]]
    _check(not idle, f"traced pass recorded no calls of {idle}")
    return tracing.core_metrics(tracer), wall, tracer


_T0 = time.perf_counter()


def log(msg: str) -> None:
    print(f"[{time.perf_counter() - _T0:7.1f}s] {msg}", file=sys.stderr,
          flush=True)


def print_latency(seconds: list[float]) -> None:
    """Per-series latency p50 and p90, each only with at least ten samples
    beyond it.  Printed, not reported: it moves with the host's speed
    state (see METRICS.md)."""
    ms = [1000 * x for x in seconds]
    for pct in (50, 90):
        if len(ms) >= measure.min_samples(pct):
            print(f"series_ms_p{pct} {measure.percentile(ms, pct):.6g} ms "
                  f"(n={len(ms)})")


def _check(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------- Spark


def spark_setup(runner, seed: int, scale: float, reps: int):
    """Session start, corpus generation and one warm-up job, ``reps``
    times, each with a new SparkContext (so new Python workers).  One more
    set-up comes first and is not counted: it launches the JVM, so it is
    always the slowest and would make the median the maximum of the
    rest."""
    times = []
    for i in range(reps + 1):
        runner.stop_session()
        t0 = time.perf_counter()
        spark = runner.new_session()
        corpus = corpora.spark_short(seed, scale)
        warm = sparkjob.run_job(spark, corpus.warmup(), SPARK_ALGO,
                                f"warmup-{i}")
        times.append(time.perf_counter() - t0)
        warm.det.unpersist()
        log(f"setup {i}: {times[-1]:.2f}s")
    return spark, corpus, times[1:]


def spark_check(spark, corpus, algo: str, jobs, reference: dict) -> None:
    """Every job's periods equal the local calls; every job's scores
    equal the first's; the last job's Spark SQL aggregate equals DuckDB's
    over the same match counts."""
    from repro.oracle import assert_equivalent
    from repro.sparkrun.metrics import AGG_SQL, match_df

    keys = set(reference)
    for i, job in enumerate(jobs):
        got = _periods(job.detections)
        _check(set(got) <= keys, f"job {i}: unknown series in output")
        bad = [k for k in got if got[k] != reference[k]]
        _check(not bad, f"job {i}: Spark periods differ from local "
               f"{LOCAL_CALL[algo]} on {len(bad)} series, e.g. "
               + ", ".join(f"{k}: {got[k]} vs {reference[k]}"
                           for k in bad[:3]))
        _check(jobs[0].scores.sort_values(["dataset", "tol"])
               .reset_index(drop=True)
               .equals(job.scores.sort_values(["dataset", "tol"])
                       .reset_index(drop=True)),
               f"job {i}: scores differ from job 0")
    counts = match_df(spark, jobs[-1].det, corpus.truth).toPandas()
    try:
        assert_equivalent(spark.createDataFrame(jobs[-1].scores),
                          AGG_SQL.format(table="m"), m=counts)
    except AssertionError as e:
        raise CheckFailed(f"Spark SQL aggregate differs from DuckDB: {e}")


def run_spark(runner, seed: int, seconds: float, trace: bool,
              scale: float) -> tuple[dict, int, int]:
    spark, corpus, setup_times = spark_setup(
        runner, seed, scale, 1 if trace else SETUP_REPS)
    print("env " + json.dumps(environment(runner)), flush=True)
    series = corpus.series()
    n_series = len(series)
    jobs = []  # chronological; a traced job follows each plain one
    t_start = time.perf_counter()
    while time.perf_counter() - t_start < seconds or len(jobs) < MIN_JOBS:
        if jobs:
            # An identical plan would read the previous job's cache.
            jobs[-1].det.unpersist()
        jobs.append(sparkjob.run_job(spark, corpus, SPARK_ALGO,
                                     f"job-{len(jobs)}",
                                     traced=trace and len(jobs) % 2 == 1))
    plain = [j for j in jobs if j.phases is None]
    traced = [j for j in jobs if j.phases is not None]
    log(f"{len(plain)} plain + {len(traced)} traced jobs: "
        + " ".join(f"{j.wall_s:.2f}" for j in jobs))
    tasks = [sparkjob.task_counts(spark, f"job-{i}")
             for i in range(len(jobs))]
    missing = sum(n_series - len(j.detections) for j in jobs)
    failed = missing + sum(f for _, f in tasks)
    attempted = n_series * len(jobs)

    reference, local_s, local_failed = local_pass(series, SPARK_ALGO)
    _check(local_failed == 0, f"{local_failed} local calls raised")
    log(f"local reference pass: {sum(local_s):.2f}s")
    spark_check(spark, corpus, SPARK_ALGO, jobs, reference)
    log("checked")
    skew = sparkjob.partition_skew(jobs[-1].det) if trace else 0.0
    jobs[-1].det.unpersist()

    if not trace:
        print_latency([x for j in plain for x in j.detections["elapsed_s"]])
        walls = [j.wall_s for j in plain]
        got = _periods(plain[0].detections)
        f1, null_fp = quality((d, got.get((d, s), []), t)
                              for d, s, _, t in series)
        metrics = {
            "setup_s": measure.median(setup_times),
            "wall_s": measure.median(walls),
            "series_per_s": n_series * len(plain) / sum(walls),
            "f1_tol2": f1, "null_fp_rate": null_fp,
            "ok_rate": 1.0 - failed / attempted,
        }
        return metrics, attempted, failed

    ph = {k: measure.median([j.phases[k] for j in traced])
          for k in traced[0].phases}
    udf_algo = measure.median([j.detections["elapsed_s"].sum()
                               for j in traced])
    detect_s = ph["detect_s"] - ph["ingest_s"]
    core, _, tracer = traced_pass("spark-short",
                                  lambda: local_pass(series, SPARK_ALGO))
    tracer.dump(WORK / f"trace-spark-short-{seed}.json")
    metrics = {
        "sparkrun.detect.ingest_s": ph["ingest_s"],
        "sparkrun.detect.detect_s": detect_s,
        "sparkrun.detect.udf_algo_s": udf_algo,
        "sparkrun.detect.udf_overhead_core_s":
            detect_s * sparkjob.nproc() - udf_algo,
        "sparkrun.detect.algo_inflation": udf_algo / sum(local_s),
        "sparkrun.detect.partition_skew": skew,
        "sparkrun.metrics.match_s": ph["match_s"],
        "sparkrun.metrics.aggregate_s": ph["score_s"] - ph["match_s"],
        "sparkrun.tasks": measure.median(
            [d for j, (d, _) in zip(jobs, tasks) if j.phases is None]),
        "sparkrun.tasks_failed": sum(f for _, f in tasks),
        **core,
        "trace.overhead_s": measure.median([j.wall_s for j in traced])
        - measure.median([j.wall_s for j in plain]),
    }
    return metrics, attempted, failed


# ---------------------------------------------------------------- local


def run_local(seed: int, seconds: float, trace: bool, scale: float
              ) -> tuple[dict, int, int]:
    from repro.core import robust_period

    warm = corpora.local_warmup().series()
    reps = 1 if trace else SETUP_REPS
    setup_times, warm_out = [], []

    def set_up():
        """Corpus generation and the warm-up set → (nulls, timed series).
        The set-ups after the first run between the timed passes, so
        their median sees the host over the whole run, as ``wall_s``
        does."""
        t0 = time.perf_counter()
        timed, nulls = corpora.local_long(seed, scale)
        series = timed.series()
        warm_out.append([robust_period.detect_full(y).periods
                         for _, _, y, _ in warm])
        setup_times.append(time.perf_counter() - t0)
        return nulls, series

    nulls, series = set_up()
    print("env " + json.dumps(environment()), flush=True)

    outputs = defaultdict(list)
    calls, plain, traced_walls, cores = [], [], [], []
    failed = 0

    def one_pass(record: bool) -> None:
        nonlocal failed
        for d, s, y, _ in series:
            t0 = time.perf_counter()
            try:
                periods = robust_period.detect_full(y).periods
            except Exception:
                traceback.print_exc()
                failed += 1
                periods = None
            dt = time.perf_counter() - t0
            if record:
                calls.append(dt)
            outputs[(d, s)].append(periods)

    need = 0 if trace else measure.min_samples(90)
    t_start = time.perf_counter()
    while (time.perf_counter() - t_start < seconds or len(calls) < need
           or (trace and not traced_walls)):
        if trace and len(traced_walls) < len(plain):
            core, wall, tracer = traced_pass("local-long",
                                             lambda: one_pass(False))
            cores.append(core)
            traced_walls.append(wall)
        else:
            if plain and len(setup_times) < reps:
                set_up()
            t0 = time.perf_counter()
            one_pass(True)
            plain.append(time.perf_counter() - t0)
    while len(setup_times) < reps:
        set_up()
    log(f"{len(plain)} plain + {len(traced_walls)} traced passes: "
        + " ".join(f"{w:.2f}" for w in plain))
    attempted = len(series) * (len(plain) + len(traced_walls))

    for key, outs in outputs.items():
        _check(all(o == outs[0] for o in outs),
               f"{key}: periods differ between repeated calls: {outs}")
    for (d, s, y, _) in series[:1]:
        _check(robust_period.detect(y) == outputs[(d, s)][0],
               f"{(d, s)}: detect() differs from detect_full().periods")
    _check(all(w == warm_out[0] for w in warm_out),
           "warm-up periods differ between set-ups")
    for (d, s, _, truth), got in zip(warm, warm_out[0]):
        _, fp, fn = match_counts(got, truth, TOL)
        _check(not fp and not fn, f"warm-up {(d, s)}: periods {got}, "
               f"truth {truth} (±2 %)")

    if trace:
        tracer.dump(WORK / f"trace-local-long-{seed}.json")
        metrics = {name: 0 for name in SPARK_LAYER}
        metrics.update({k: measure.median([c[k] for c in cores])
                        for k in cores[0]})
        metrics["trace.overhead_s"] = (measure.median(traced_walls)
                                       - measure.median(plain))
        return metrics, attempted, failed

    null_series = nulls.series()
    null_out, _, null_failed = local_pass(null_series, "robust_period")
    failed += null_failed
    attempted += len(null_series)
    f1, null_fp = quality(
        [(d, outputs[(d, s)][0] or [], t) for d, s, _, t in series]
        + [(d, null_out.get((d, s), []), t) for d, s, _, t in null_series])
    print_latency(calls)
    metrics = {
        "setup_s": measure.median(setup_times),
        "wall_s": measure.median(plain),
        "series_per_s": len(calls) / sum(plain),
        "f1_tol2": f1, "null_fp_rate": null_fp,
        "ok_rate": 1.0 - failed / attempted,
    }
    return metrics, attempted, failed


# ---------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> dict:
    """One measured run → the result object printed as the last line."""
    WORK.mkdir(parents=True, exist_ok=True)
    units = PER_LAYER if trace else END_TO_END
    runner = (None if workload == "local-long"
              else sparkjob.SparkRunner(WORK, ROOT / "src"))
    correct = True
    try:
        if runner is None:
            metrics, attempted, failed = run_local(seed, seconds, trace, scale)
        else:
            metrics, attempted, failed = run_spark(
                runner, seed, seconds, trace, scale)
    except CheckFailed as e:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
        correct, metrics, attempted, failed = False, {}, 1, 0
    finally:
        if runner is not None:
            runner.close()
    if correct and not trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    if correct and trace and runner is not None:
        metrics["sparkrun.jvm_peak_rss_mb"] = peak_rss_mb(
            resource.RUSAGE_CHILDREN)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]}
                        for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
