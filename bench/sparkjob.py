"""The Spark side of the benchmark: session lifecycle and the timed job.

The session uses the settings of the test suite's ``spark`` fixture (local
master, Arrow on, broadcast joins off, ``SPARK_SHUFFLE_PARTITIONS`` or 64
shuffle partitions) with ``nproc`` cores.  Temporary files stay in the work
directory, and ``close()`` waits for the JVM to exit.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

import pandas as pd


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def driver_memory() -> str:
    return os.environ.get("SPARK_DRIVER_MEM", "2g")


def shuffle_partitions() -> str:
    return os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64")


class SparkRunner:
    """One JVM for the whole run; ``new_session()`` replaces the
    SparkContext (and with it every executor and Python worker)."""

    def __init__(self, work: Path, src: Path):
        self.work = work
        self.src = src
        self.spark = None

    def _prepare_env(self) -> None:
        tmp = self.work / "tmp"
        local = self.work / "spark-local"
        tmp.mkdir(parents=True, exist_ok=True)
        local.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = str(self.src) + (
            os.pathsep + path if path else "")
        java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
        # spark-submit first runs a short launcher JVM with its own options.
        os.environ["SPARK_LAUNCHER_OPTS"] = java_opts
        os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
            f"--master local[{nproc()}]",
            f"--driver-memory {driver_memory()}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(local))}",
            f"--driver-java-options {shlex.quote(java_opts)}",
            "pyspark-shell",
        ])

    def stop_session(self) -> None:
        if self.spark is not None:
            self.spark.stop()
            self.spark = None

    def new_session(self):
        from pyspark import SparkContext
        from pyspark.sql import SparkSession

        self.stop_session()
        if SparkContext._gateway is None:
            self._prepare_env()
        self.spark = (
            SparkSession.builder.appName("repro-bench")
            .config("spark.sql.shuffle.partitions", shuffle_partitions())
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")
        return self.spark

    def close(self) -> None:
        from pyspark import SparkContext

        self.stop_session()
        gateway = SparkContext._gateway
        if gateway is None:
            return
        proc = getattr(gateway, "proc", None)
        gateway.shutdown()
        SparkContext._gateway = None
        SparkContext._jvm = None
        if proc is not None:
            # The gateway server exits when its stdin closes.
            proc.stdin.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()


@dataclass
class JobResult:
    det: object                  # the cached detection DataFrame
    detections: pd.DataFrame     # collected detection rows
    scores: pd.DataFrame         # collected precision/recall/F1 rows
    wall_s: float
    phases: dict | None = None   # traced jobs only


def _noop(df) -> None:
    df.write.format("noop").mode("overwrite").save()


def run_job(spark, corpus, algo: str, group: str,
            traced: bool = False) -> JobResult:
    """pandas corpus → detections and scores collected into pandas.

    The untraced job is the repository's own pattern (``tables._score_pdf``):
    detect, cache, collect, score.  The traced job materialises each public
    call on its own: ``series_df``, ``detect_periods``, ``match_df`` and
    ``score``.  The caller unpersists ``det``.
    """
    from repro.sparkrun.detect import detect_periods, series_df
    from repro.sparkrun.metrics import match_df, score

    spark.sparkContext.setJobGroup(group, group)
    phases = None
    t0 = time.perf_counter()
    if traced:
        _noop(series_df(spark, corpus.data))
        t1 = time.perf_counter()
    det = detect_periods(spark, corpus.data, [algo]).cache()
    detections = det.toPandas()
    t2 = time.perf_counter()
    if traced:
        _noop(match_df(spark, det, corpus.truth))
        t3 = time.perf_counter()
    scores = score(spark, det, corpus.truth).toPandas()
    t4 = time.perf_counter()
    if traced:
        phases = {"ingest_s": t1 - t0, "detect_s": t2 - t1,
                  "match_s": t3 - t2, "score_s": t4 - t3}
    return JobResult(det, detections, scores, t4 - t0, phases)


def task_counts(spark, group: str) -> tuple[int, int]:
    """(completed, failed) task attempts of every job in ``group``."""
    st = spark.sparkContext.statusTracker()
    done = failed = 0
    for job_id in st.getJobIdsForGroup(group):
        info = st.getJobInfo(job_id)
        for stage_id in (info.stageIds if info else []):
            stage = st.getStageInfo(stage_id)
            if stage is not None:
                done += stage.numCompletedTasks
                failed += stage.numFailedTasks
    return done, failed


def partition_skew(det) -> float:
    """max ÷ mean of the summed ``elapsed_s`` per output partition."""
    from pyspark.sql import functions as F

    per = (det.groupBy(F.spark_partition_id().alias("p"))
           .agg(F.sum("elapsed_s").alias("s")).toPandas()["s"])
    return float(per.max() / per.mean()) if len(per) and per.mean() > 0 else 0.0
