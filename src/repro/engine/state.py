"""The fragmented relation as a Spark DataFrame.

A :class:`DistState` models the cluster-wide state ``X_i(v)`` of
Section 2 inside one local Spark session: each row belongs to a logical
fragment (``frag`` column) and a partition (``part`` column — the
GROUP-BY-key hash class whose destination the mapping ``M`` fixes).
All state mutation (pre-aggregation, transfers) happens through Catalyst
DataFrame transformations.

Plans read two counts of a state, each one lazily cached Spark job:
``DistState.rows``, the row count of every (fragment, partition), and
``DistState.keys``, per distinct (partition, key) its spread value and
origin-fragment bitmask. A local merge changes no key's set of origin
fragments, so a state made by :func:`preaggregate` counts its keys from
the rows it merges, with no merge shuffle, and its row counts are the
per-cell popcounts of those masks: one job. A raw state's row counts
are one ``groupBy(frag, part).count()``, and Repart's complete single
phase reads nothing else.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark.errors import AnalysisException
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.engine.aggspec import AggSpec
from repro.minhash.hashing import MERSENNE_P, spread_keys


class Keys(NamedTuple):
    """What :func:`count_keys` reads back: per distinct (partition, key)
    its ``part``, its spread key ``x = pmod(xxhash64(key), 2^31 - 1)`` and
    its origin ``masks`` row (⌈N/64⌉ uint64 words, bit ``v`` set when
    fragment ``v`` holds the key)."""

    part: np.ndarray  # (K,) int64
    x: np.ndarray  # (K,) int64
    masks: np.ndarray  # (K, ⌈N/64⌉) uint64


class Origins(NamedTuple):
    """A state's two counts together: ``rows[v, l]``, fragment ``v``'s
    rows of partition ``l`` (:func:`count_rows`), then the fields of
    :class:`Keys` (:func:`count_keys`)."""

    rows: np.ndarray  # (N, L) int64
    part: np.ndarray  # (K,) int64
    x: np.ndarray  # (K,) int64
    masks: np.ndarray  # (K, ⌈N/64⌉) uint64

    @classmethod
    def from_key_sets(cls, key_sets: list[list[np.ndarray]]) -> "Origins":
        """The Spark-free :class:`Origins` of int64 key sets, ``key_sets[v][l]``
        holding partition ``l``'s keys on fragment ``v``: for the same
        ``LongType`` keys, the pre-aggregated state's
        :attr:`DistState.origins` up to the order of its per-key rows.
        Raises ``ValueError`` for no fragments or partitions, or ragged
        ``key_sets``."""
        if not key_sets or not key_sets[0]:
            raise ValueError("key_sets needs at least one fragment and partition")
        n, m = len(key_sets), len(key_sets[0])
        if any(len(parts) != m for parts in key_sets):
            raise ValueError("ragged key_sets")
        cells = [np.unique(np.asarray(k, dtype=np.int64)) for parts in key_sets for k in parts]
        sizes = np.array([c.size for c in cells], dtype=np.int64)
        frag, part = np.divmod(np.repeat(np.arange(n * m), sizes), m)
        key = np.concatenate(cells)
        # One sort over (part, key); each run of equal pairs is one key.
        order = np.lexsort((key, part))
        frag, part, key = frag[order], part[order], key[order]
        new = np.ones(key.size, dtype=bool)
        new[1:] = (part[1:] != part[:-1]) | (key[1:] != key[:-1])
        masks = np.zeros((new.sum(), -(-n // 64)), dtype=np.uint64)
        bit = np.left_shift(np.uint64(1), (frag % 64).astype(np.uint64))
        np.bitwise_or.at(masks, (np.cumsum(new) - 1, frag // 64), bit)
        return cls(sizes.reshape(n, m), part[new], spread_keys(key[new]), masks)


@dataclass
class DistState:
    """Distributed aggregation state.

    ``df`` columns: ``frag`` (int), ``part`` (int), ``key`` (the input's
    grouping column, any hashable type), plus one column per partial
    aggregate of ``spec``. ``dest`` is the partition-to-destination
    mapping ``M``; ``tuple_bytes`` is the wire width ``w`` of one tuple.
    ``merged_from``, set by :func:`preaggregate`, is the rows ``df``
    merges: the state's keys are counted from them. A state made by
    ``dataclasses.replace`` runs its own counts, over the ``merged_from``
    it keeps unless that is replaced too.
    """

    df: DataFrame
    spec: AggSpec
    n_frags: int
    dest: np.ndarray
    tuple_bytes: float = 16.0
    merged_from: DataFrame | None = None

    @property
    def n_parts(self) -> int:
        return len(self.dest)

    @cached_property
    def keys(self) -> Keys:
        """The per-key count (:func:`count_keys`), run on first use, over
        ``merged_from`` when the state has it."""
        source = self.df if self.merged_from is None else self.merged_from
        return count_keys(source, self.n_frags, self.n_parts)

    @cached_property
    def rows(self) -> np.ndarray:
        """``rows[v, l]``, run on first use: each cell's mask popcount
        for a pre-aggregated state (no job beyond :attr:`keys`), else
        :func:`count_rows`."""
        if self.merged_from is None:
            return count_rows(self.df, self.n_frags, self.n_parts)
        return popcount_cells(self.keys.part, self.keys.masks, self.n_frags, self.n_parts)

    @property
    def origins(self) -> Origins:
        """:attr:`rows` and :attr:`keys` together, what the planners read."""
        return Origins(self.rows, *self.keys)


def make_state(
    df: DataFrame,
    spec: AggSpec,
    *,
    n_frags: int,
    mode: str,
    dest_frag: int | None = None,
    n_parts: int | None = None,
    tuple_bytes: float = 16.0,
    partitioner: Column | None = None,
) -> DistState:
    """Build the initial state ``X_0`` from an input DataFrame.

    ``mode="all_to_one"``: a single partition 0 whose destination is
    ``dest_frag`` (default 0). ``mode="all_to_all"``: ``n_parts``
    partitions (default: one per fragment), partition ``l`` destined to
    fragment ``l mod n_frags`` — the paper's balanced mapping. Rows are
    assigned by ``partitioner`` (default: ``xxhash64(key) mod n_parts``,
    which is 0 for all-to-one); a custom ``partitioner`` column models
    skewed repartition functions (Section 5.2.3).

    Raises ``ValueError`` for fewer than one fragment or partition, for
    a ``tuple_bytes`` that is not finite and positive (it prices every
    transfer), for an argument the mode would ignore (``n_parts`` or
    ``partitioner`` with ``all_to_one``, ``dest_frag`` with
    ``all_to_all``), and for a key column that ``xxhash64`` cannot hash
    (a map, for one): the count job and the default partitioner hash
    the key.
    """
    if n_frags < 1 or (n_parts is not None and n_parts < 1):
        raise ValueError(f"need n_frags >= 1 and n_parts >= 1, got {n_frags}, {n_parts}")
    if not 0 < tuple_bytes < np.inf:
        raise ValueError(f"tuple_bytes must be finite and > 0, got {tuple_bytes}")
    try:
        df.select(F.xxhash64(F.col(spec.key)))  # analysis only, no job
    except AnalysisException as e:
        raise ValueError(
            f"key column {spec.key!r} cannot be hashed: {e.getCondition()}"
        ) from e
    if mode not in ("all_to_one", "all_to_all"):
        raise ValueError(f"unknown mode {mode!r}")
    one = mode == "all_to_one"
    if one and (n_parts is not None or partitioner is not None):
        raise ValueError("all_to_one has one partition: n_parts and partitioner not allowed")
    if not one and dest_frag is not None:
        raise ValueError("all_to_all sends partition l to fragment l mod n: dest_frag not allowed")
    m = 1 if one else n_parts or n_frags
    dest = np.array([dest_frag or 0], dtype=np.int64) if one else np.arange(m) % n_frags
    if not 0 <= dest[0] < n_frags:
        raise ValueError(f"dest_frag {dest_frag} out of range")
    if partitioner is None:
        partitioner = F.pmod(F.xxhash64(F.col(spec.key)), F.lit(m))
    out = df.select(
        F.col("frag").cast("int").alias("frag"),
        partitioner.cast("int").alias("part"),
        F.col(spec.key).alias("key"),
        *[p.init_col() for p in spec.partials],
    )
    return DistState(df=out, spec=spec, n_frags=n_frags, dest=dest, tuple_bytes=tuple_bytes)


def _outside(v: np.ndarray, n: int) -> np.ndarray:
    """Which of ``v`` (float, NaN for null) lie outside ``[0, n)``."""
    return ~((0 <= v) & (v < n))


def scatter_cells(
    pdf: pd.DataFrame, values: np.ndarray, fill, n_frags: int, n_parts: int
) -> np.ndarray:
    """An ``(n_frags, n_parts, ...)`` array holding ``fill``, with
    ``values[i]`` at the ``(frag, part)`` cell of row ``i`` of ``pdf``, a
    driver-side read of a per-(fragment, partition) Spark job.

    Raises ``ValueError`` for a null or out-of-range ``frag`` or ``part``,
    which would otherwise wrap around (negative) or fail later.
    """
    v, l = pdf["frag"].to_numpy(np.float64), pdf["part"].to_numpy(np.float64)
    bad = _outside(v, n_frags) | _outside(l, n_parts)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"(frag, part) = ({v[i]:g}, {l[i]:g}) out of declared range: "
                         f"outside [0, {n_frags}) x [0, {n_parts})")
    out = np.full((n_frags, n_parts, *values.shape[1:]), fill, dtype=values.dtype)
    out[v.astype(np.int64), l.astype(np.int64)] = values
    return out


def origin_bits(masks: np.ndarray, n_frags: int) -> np.ndarray:
    """``(K, n_frags)`` uint8: bit ``v`` of every origin mask row."""
    return np.unpackbits(
        np.ascontiguousarray(masks, dtype="<u8").view(np.uint8), axis=1, count=n_frags,
        bitorder="little",
    )


def popcount_cells(part: np.ndarray, masks: np.ndarray, n_frags: int, n_parts: int) -> np.ndarray:
    """``(n_frags, n_parts)`` int64: the keys of partition ``l`` whose mask
    has bit ``v``, which is ``rows[v, l]`` of a pre-aggregated state."""
    k, v = np.nonzero(origin_bits(masks, n_frags))
    cells = np.bincount(v * n_parts + part[k], minlength=n_frags * n_parts)
    return cells.astype(np.int64).reshape(n_frags, n_parts)


def count_rows(df: DataFrame, n_frags: int, n_parts: int) -> np.ndarray:
    """``rows[v, l]``: ``df``'s rows per (frag, part), one
    ``groupBy(frag, part).count()``. Raises ``ValueError`` for a null or
    out-of-range ``frag``/``part``."""
    pdf = df.groupBy("frag", "part").count().toPandas()
    return scatter_cells(pdf, pdf["count"].to_numpy(np.int64), 0, n_frags, n_parts)


def count_keys(df: DataFrame, n_frags: int, n_parts: int) -> Keys:
    """OR ``df``'s origin bits per (part, key) in one ``groupBy``, read
    back in one Arrow batch; a null key stays one group, and ``x`` is
    hashed from the grouped key.

    Raises ``ValueError`` for a null or out-of-range ``frag``, which the
    aggregate flags per key, and for a null or out-of-range ``part``,
    checked on the driver.
    """
    words = [f"m{w}" for w in range(-(-n_frags // 64))]
    bits = [
        F.expr(f"bit_or(if(frag >= {64 * w} AND frag < {64 * w + 64}, "
               f"shiftleft(1L, frag - {64 * w}), 0L)) AS {m}")
        for w, m in enumerate(words)
    ]
    bad = F.expr(f"bool_or(frag IS NULL OR frag < 0 OR frag >= {n_frags})")
    pdf = (
        df.groupBy("part", "key")
        .agg(*bits, bad.alias("bad"))
        .withColumn("x", F.pmod(F.xxhash64("key"), F.lit(MERSENNE_P)))
        .drop("key")
        .toPandas()
    )
    if pdf["bad"].any():
        raise ValueError(f"a frag out of declared range: null or outside [0, {n_frags})")
    part = pdf["part"].to_numpy(np.float64)
    if (outside := _outside(part, n_parts)).any():
        raise ValueError(f"part = {part[np.argmax(outside)]:g} out of declared range: "
                         f"outside [0, {n_parts})")
    return Keys(
        part=part.astype(np.int64),
        x=pdf["x"].to_numpy(np.int64),
        masks=pdf[words].to_numpy(np.int64).view(np.uint64),
    )


def preaggregate(state: DistState) -> DistState:
    """Step-2 local pre-aggregation: one aggregated row per key per
    fragment, merging rows with equal (frag, part, key).

    The result is hash-partitioned by ``frag`` into one Spark partition
    per task slot (at most one per fragment), each holding whole
    fragments: the merge needs no second exchange. It keeps the state's
    rows as ``merged_from``, which its counts read instead of the merge.
    """
    k = min(state.n_frags, state.df.sparkSession.sparkContext.defaultParallelism)
    merged = state.df.repartition(k, "frag").groupBy("frag", "part", "key").agg(
        *[p.merge_col() for p in state.spec.partials]
    )
    return replace(state, df=merged, merged_from=state.df)


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
