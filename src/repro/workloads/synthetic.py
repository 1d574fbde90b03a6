"""Synthetic workloads of Section 5.2: table R(a, b) with the query
``SELECT R.a, SUM(R.b) FROM R GROUP BY R.a``, with controlled
cross-fragment similarity, within-fragment duplication, and destination
imbalance.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.engine.aggspec import sum_spec
from repro.workloads.base import Workload

_SQL = "SELECT a, SUM(b) AS sum_b FROM r GROUP BY a"


def _spec():
    return sum_spec("a", "b", key_out="a", out="sum_b")


def overlap_for_jaccard(j: float) -> float:
    """Range-overlap fraction of adjacent fragments with Jaccard ``J``
    (Figure 9): ``o = 2J / (1 + J)``, the inverse of ``J = o / (2 - o)``
    for unit-width ranges."""
    if not 0 <= j <= 1:
        raise ValueError("Jaccard must be in [0, 1]")
    return 2.0 * j / (1.0 + j)


def similarity_workload(
    spark: SparkSession,
    *,
    n_frags: int,
    tuples_per_frag: int,
    overlap: float,
    seed: int = 0,
) -> Workload:
    """Figure 9's construction: fragment ``i`` holds the dense key range
    ``[i * (D - o), i * (D - o) + D)`` with ``D = tuples_per_frag`` and
    ``o = overlap * D`` keys shared with each neighbour — one tuple per
    key, so pre-aggregation cannot shrink anything (the paper's
    high-cardinality regime). ``overlap=1`` makes every fragment's key
    set identical (J = 1 between all pairs); ``overlap=0`` makes them
    disjoint.
    """
    d = tuples_per_frag
    o = int(round(overlap * d))
    g = np.random.default_rng(seed)
    frames = []
    for i in range(n_frags):
        start = i * (d - o)
        frames.append(
            pd.DataFrame(
                {
                    "frag": np.full(d, i, dtype=np.int32),
                    "a": np.arange(start, start + d, dtype=np.int64),
                    "b": g.integers(0, 1000, d).astype(np.int64),
                }
            )
        )
    pdf = pd.concat(frames, ignore_index=True)
    return Workload(
        name=f"similarity(o={overlap:.2f})",
        df=spark.createDataFrame(pdf),
        spec=_spec(),
        sql=_SQL,
        n_frags=n_frags,
        tuple_bytes=16.0,
    )


def dup_keys_workload(
    spark: SparkSession,
    *,
    n_frags: int,
    tuples_per_frag: int,
    dups: int,
    seed: int = 0,
) -> Workload:
    """Section 5.2.2: every fragment draws ``tuples_per_frag`` keys
    uniformly from a global domain sized so that each GROUP BY key
    appears ``dups`` times in expectation cluster-wide. ``dups=1`` is the
    pure high-cardinality case; larger ``dups`` gives local
    pre-aggregation more to do and raises cross-fragment similarity.
    """
    if dups < 1:
        raise ValueError("dups must be >= 1")
    domain = max(1, n_frags * tuples_per_frag // dups)
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {
            "frag": np.repeat(np.arange(n_frags, dtype=np.int32), tuples_per_frag),
            "a": g.integers(1, domain + 1, n_frags * tuples_per_frag).astype(np.int64),
            "b": g.integers(0, 1000, n_frags * tuples_per_frag).astype(np.int64),
        }
    )
    return Workload(
        name=f"dup_keys(d={dups})",
        df=spark.createDataFrame(pdf),
        spec=_spec(),
        sql=_SQL,
        n_frags=n_frags,
        tuple_bytes=16.0,
    )


def imbalance_workload(
    spark: SparkSession,
    *,
    n_frags: int,
    total_tuples: int,
    frac0: float,
    seed: int = 0,
) -> Workload:
    """Section 5.2.3: all-to-all aggregation with a skewed repartition
    function. Keys 1..K are scattered uniformly across fragments; the
    partitioner sends the first ``frac0 * K`` keys to partition 0
    (destination fragment 0) and splits the rest evenly over partitions
    1..n_frags-1. ``frac0 = 1/n_frags`` is the balanced case (imbalance
    level l = 1).
    """
    if not 0 < frac0 < 1:
        raise ValueError("frac0 must be in (0, 1)")
    k = total_tuples
    n0 = int(round(frac0 * k))
    g = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {
            "frag": g.integers(0, n_frags, k).astype(np.int32),
            "a": g.permutation(np.arange(1, k + 1)).astype(np.int64),
            "b": g.integers(0, 1000, k).astype(np.int64),
        }
    )
    rest = n_frags - 1
    partitioner = F.when(F.col("a") <= n0, F.lit(0)).otherwise(
        1 + F.pmod(F.col("a") - n0 - 1, F.lit(rest))
    )
    return Workload(
        name=f"imbalance(frac0={frac0:.3f})",
        df=spark.createDataFrame(pdf),
        spec=_spec(),
        sql=_SQL,
        n_frags=n_frags,
        tuple_bytes=16.0,
        partitioner=partitioner,
    )


def imbalance_level(n_frags: int, frac0: float) -> float:
    """The paper's imbalance level ``l = n / m``: partition-0 tuples over
    the per-partition tuples of the remaining fragments."""
    return frac0 / ((1.0 - frac0) / (n_frags - 1))
