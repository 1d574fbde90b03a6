"""The fragmented relation as a Spark DataFrame.

A :class:`DistState` models the cluster-wide state ``X_i(v)`` of
Section 2 inside one local Spark session: each row belongs to a logical
fragment (``frag`` column) and a partition (``part`` column — the
GROUP-BY-key hash class whose destination the mapping ``M`` fixes).
All state mutation (pre-aggregation, transfers) happens through Catalyst
DataFrame transformations.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.engine.aggspec import AggSpec


@dataclass
class DistState:
    """Distributed aggregation state.

    ``df`` columns: ``frag`` (int), ``part`` (int), ``key`` (long), plus
    one column per partial aggregate of ``spec``. ``dest`` is the
    partition-to-destination mapping ``M``; ``tuple_bytes`` is the wire
    width ``w`` of one tuple.
    """

    df: DataFrame
    spec: AggSpec
    n_frags: int
    dest: np.ndarray
    tuple_bytes: float = 16.0
    preaggregated: bool = False

    @property
    def n_parts(self) -> int:
        return len(self.dest)

    def with_df(self, df: DataFrame, *, preaggregated: bool | None = None) -> "DistState":
        return replace(
            self,
            df=df,
            preaggregated=self.preaggregated if preaggregated is None else preaggregated,
        )


def make_state(
    df: DataFrame,
    spec: AggSpec,
    *,
    n_frags: int,
    mode: str,
    dest_frag: int = 0,
    n_parts: int | None = None,
    frag_col: str = "frag",
    tuple_bytes: float = 16.0,
    partitioner: Column | None = None,
) -> DistState:
    """Build the initial state ``X_0`` from an input DataFrame.

    ``mode="all_to_one"``: a single partition 0 whose destination is
    ``dest_frag``. ``mode="all_to_all"``: ``n_parts`` partitions
    (default: one per fragment) assigned by ``partitioner`` (default:
    ``xxhash64(key) mod n_parts``), partition ``l`` destined to fragment
    ``l mod n_frags`` — the paper's balanced mapping. A custom
    ``partitioner`` column models skewed repartition functions
    (Section 5.2.3).
    """
    key = F.col(spec.key).cast("long").alias("key")
    if mode == "all_to_one":
        if not 0 <= dest_frag < n_frags:
            raise ValueError(f"dest_frag {dest_frag} out of range")
        part = F.lit(0).alias("part")
        dest = np.array([dest_frag], dtype=np.int64)
    elif mode == "all_to_all":
        m = n_parts if n_parts is not None else n_frags
        part_expr = (
            partitioner
            if partitioner is not None
            else F.pmod(F.xxhash64(F.col(spec.key).cast("long")), F.lit(m))
        )
        part = part_expr.cast("int").alias("part")
        dest = np.arange(m, dtype=np.int64) % n_frags
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = df.select(
        F.col(frag_col).cast("int").alias("frag"),
        part,
        key,
        *[p.init_col() for p in spec.partials],
    )
    return DistState(
        df=out,
        spec=spec,
        n_frags=n_frags,
        dest=dest,
        tuple_bytes=tuple_bytes,
        preaggregated=False,
    )


def merge_partials(df: DataFrame, spec: AggSpec) -> DataFrame:
    """Combine rows with equal (frag, part, key) — local aggregation."""
    return df.groupBy("frag", "part", "key").agg(
        *[p.merge_col() for p in spec.partials]
    )


def preaggregate(state: DistState) -> DistState:
    """Step-2 local pre-aggregation: one aggregated row per key per
    fragment. Idempotent."""
    if state.preaggregated:
        return state
    return state.with_df(merge_partials(state.df, state.spec), preaggregated=True)


def finalize(state: DistState) -> DataFrame:
    """Merge every partial of a (partition, key) and project the
    aggregation to its output columns.

    This is the result a complete plan leaves on each partition's
    destination fragment; the executor checks that the plan is complete.
    """
    merged = state.df.groupBy("part", "key").agg(
        *[p.merge_col() for p in state.spec.partials]
    )
    return merged.select(*state.spec.final_cols())
