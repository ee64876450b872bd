"""Spark batch detection layer.

The paper's contribution is a per-series algorithm (repro hint:
``single_node_parallelizable``), so the Spark layering is a DataFrame
job: series live in a long-format DataFrame ``(dataset, series_id, t,
y)``; ``groupBy(dataset, series_id).applyInPandas`` fans each series out
to an Arrow-backed task that runs every requested algorithm and emits
one row per (series, algorithm) with the detected periods (JSON) and the
wall-clock time — the timing column feeds Table 7.

All algorithms are exposed through one registry so table runners and
tests select them by name.
"""
from __future__ import annotations

import json
import time
from typing import Callable, Iterable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (DoubleType, IntegerType, StringType,
                               StructField, StructType)

from repro.baselines import autoperiod, find_frequency, sazed, siegel, wavelet_fisher
from repro.core import ablations
from repro.core.robust_period import detect as robust_period_detect

#: name → callable(np.ndarray) -> list[int]
ALGOS: dict[str, Callable[[np.ndarray], list[int]]] = {
    "robust_period": robust_period_detect,
    "find_frequency": find_frequency.detect,
    "sazed_maj": sazed.detect_maj,
    "sazed_opt": sazed.detect_opt,
    "siegel": siegel.detect,
    "autoperiod": autoperiod.detect,
    "wavelet_fisher": wavelet_fisher.detect,
    "huber_fisher": ablations.huber_fisher,
    "huber_siegel_acf": ablations.huber_siegel_acf,
    "nr_robust_period": ablations.nr_robust_period,
}

SINGLE_ALGOS = ("find_frequency", "sazed_maj", "sazed_opt", "robust_period")
MULTI_ALGOS = ("siegel", "autoperiod", "wavelet_fisher", "robust_period")
ABLATION_ALGOS = ("huber_fisher", "huber_siegel_acf", "nr_robust_period",
                  "robust_period")

DETECT_SCHEMA = StructType([
    StructField("dataset", StringType()),
    StructField("series_id", IntegerType()),
    StructField("algo", StringType()),
    StructField("periods", StringType()),   # JSON int list
    StructField("n_periods", IntegerType()),
    StructField("elapsed_s", DoubleType()),
])


def series_df(spark: SparkSession, data: pd.DataFrame,
              partitions: int | None = None) -> DataFrame:
    """Long-format pandas frame → Spark DataFrame, repartitioned by series
    so detection tasks spread across cores."""
    df = spark.createDataFrame(data)
    n_series = data[["dataset", "series_id"]].drop_duplicates().shape[0]
    if partitions is None:
        partitions = max(1, min(n_series, spark.sparkContext.defaultParallelism * 2))
    return df.repartition(partitions, "dataset", "series_id")


def _make_detect_fn(algos: Iterable[str]):
    algos = list(algos)

    def detect_group(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("t")
        y = pdf["y"].to_numpy(dtype=float)
        dataset = pdf["dataset"].iloc[0]
        sid = int(pdf["series_id"].iloc[0])
        out = []
        for name in algos:
            fn = ALGOS[name]
            t0 = time.perf_counter()
            try:
                periods = sorted(int(p) for p in fn(y))
            except Exception:
                periods = []
            dt = time.perf_counter() - t0
            out.append((dataset, sid, name, json.dumps(periods),
                        len(periods), dt))
        return pd.DataFrame(out, columns=[f.name for f in DETECT_SCHEMA.fields])

    return detect_group


def detect_periods(spark: SparkSession, data: pd.DataFrame,
                   algos: Iterable[str]) -> DataFrame:
    """Run the named algorithms over every series; one output row per
    (dataset, series_id, algo)."""
    unknown = set(algos) - set(ALGOS)
    if unknown:
        raise ValueError(f"unknown algorithms: {sorted(unknown)}")
    sdf = series_df(spark, data)
    return (sdf.groupBy("dataset", "series_id")
            .applyInPandas(_make_detect_fn(algos), schema=DETECT_SCHEMA))


def timing_summary(det: DataFrame) -> DataFrame:
    """Mean per-series wall time per (dataset, algo) — Table 7's metric."""
    return (det.groupBy("dataset", "algo")
            .agg(F.avg("elapsed_s").alias("mean_elapsed_s"),
                 F.count("*").alias("n_series"))
            .orderBy("dataset", "algo"))
