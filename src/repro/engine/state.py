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
from pyspark.errors import AnalysisException
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.engine.aggspec import AggSpec


@dataclass
class DistState:
    """Distributed aggregation state.

    ``df`` columns: ``frag`` (int), ``part`` (int), ``key`` (the input's
    grouping column, any hashable type), plus one column per partial
    aggregate of ``spec``. ``dest`` is the partition-to-destination
    mapping ``M``; ``tuple_bytes`` is the wire width ``w`` of one tuple.
    """

    df: DataFrame
    spec: AggSpec
    n_frags: int
    dest: np.ndarray
    tuple_bytes: float = 16.0

    @property
    def n_parts(self) -> int:
        return len(self.dest)


def make_state(
    df: DataFrame,
    spec: AggSpec,
    *,
    n_frags: int,
    mode: str,
    dest_frag: int = 0,
    n_parts: int | None = None,
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

    Raises ``ValueError`` for fewer than one fragment or partition, for
    ``n_parts`` or ``partitioner`` given with ``all_to_one`` (which would
    ignore them), and for a key column that ``xxhash64`` cannot hash (a
    map, for one): the signature job and the default partitioner hash
    the key.
    """
    if n_frags < 1 or (n_parts is not None and n_parts < 1):
        raise ValueError(f"need n_frags >= 1 and n_parts >= 1, got {n_frags}, {n_parts}")
    try:
        df.select(F.xxhash64(F.col(spec.key)))  # analysis only, no job
    except AnalysisException as e:
        raise ValueError(
            f"key column {spec.key!r} cannot be hashed: {e.getCondition()}"
        ) from e
    key = F.col(spec.key).alias("key")
    if mode == "all_to_one":
        if n_parts is not None or partitioner is not None:
            raise ValueError("all_to_one has one partition: n_parts and partitioner not allowed")
        if not 0 <= dest_frag < n_frags:
            raise ValueError(f"dest_frag {dest_frag} out of range")
        part = F.lit(0).alias("part")
        dest = np.array([dest_frag], dtype=np.int64)
    elif mode == "all_to_all":
        m = n_parts if n_parts is not None else n_frags
        part_expr = (
            partitioner
            if partitioner is not None
            else F.pmod(F.xxhash64(F.col(spec.key)), F.lit(m))
        )
        part = part_expr.cast("int").alias("part")
        dest = np.arange(m, dtype=np.int64) % n_frags
    else:
        raise ValueError(f"unknown mode {mode!r}")
    out = df.select(
        F.col("frag").cast("int").alias("frag"),
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
    )


def preaggregate(state: DistState) -> DistState:
    """Step-2 local pre-aggregation: one aggregated row per key per
    fragment, merging rows with equal (frag, part, key).

    The result is hash-partitioned by ``frag`` into one Spark partition
    per task slot (at most one per fragment), each holding whole
    fragments: the merge needs no second exchange, and the per-fragment
    jobs over the persisted state (signatures, LOOM's counts) need none.
    """
    k = min(state.n_frags, state.df.sparkSession.sparkContext.defaultParallelism)
    merged = state.df.repartition(k, "frag").groupBy("frag", "part", "key").agg(
        *[p.merge_col() for p in state.spec.partials]
    )
    return replace(state, df=merged)


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
