"""Distributed minhash signature computation (Step 2 of Figure 5).

Every fragment's local, pre-aggregated data is summarised as a distinct
count (``Card``) and an ``n``-slot minhash signature per partition —
computed *in Spark* as one ``groupBy(frag, part)`` with ``n`` ``min()``
aggregate expressions plus a ``count``. Only the (N × L × n) signature
arrays are collected to the driver (about 1 KB per fragment-partition,
as in the paper); the data itself never leaves the executors.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.minhash.estimate import CoordinatorState
from repro.minhash.hashing import EMPTY_SLOT, MERSENNE_P, HashFamily


def compute_signatures(
    df: DataFrame,
    family: HashFamily,
    *,
    n_frags: int,
    n_parts: int,
) -> CoordinatorState:
    """Collect ``Card`` and ``MinH`` for every (fragment, partition).

    ``df`` must hold one row per distinct key per (frag, part) — i.e. the
    locally pre-aggregated state (``Card`` is a plain ``count``), with
    columns ``frag``, ``part`` and ``key``. Keys of any type ``xxhash64``
    accepts are mixed with it and reduced mod ``p = 2^31 - 1`` so the
    ``a*x + b`` hash expression stays exact in 64-bit arithmetic. For
    ``LongType`` keys the result equals
    ``CoordinatorState.from_key_sets`` bit for bit.

    Missing (frag, part) combinations yield Card 0 and the empty-set
    signature.
    """
    a, b = family.params
    x = F.pmod(F.xxhash64(F.col("key")), F.lit(MERSENNE_P))
    aggs = [F.count(F.lit(1)).alias("card")] + [
        F.min((x * F.lit(int(a[j])) + F.lit(int(b[j]))) % F.lit(MERSENNE_P)).alias(
            f"h{j}"
        )
        for j in range(family.n)
    ]
    rows = df.groupBy("frag", "part").agg(*aggs).collect()

    card = np.zeros((n_frags, n_parts), dtype=np.float64)
    minh = np.full((n_frags, n_parts, family.n), EMPTY_SLOT, dtype=np.int64)
    for r in rows:
        v, l = int(r["frag"]), int(r["part"])
        if not (0 <= v < n_frags and 0 <= l < n_parts):
            raise ValueError(f"fragment/partition ({v}, {l}) out of declared range")
        card[v, l] = float(r["card"])
        minh[v, l] = [r[f"h{j}"] for j in range(family.n)]
    return CoordinatorState(card, minh)
