"""Distributed minhash signature computation (Step 2 of Figure 5).

Every fragment's local, pre-aggregated data is summarised as a distinct
count (``Card``) and an ``n``-slot minhash signature per partition —
computed *in Spark* as one ``groupBy(frag, part)`` with ``n`` ``min()``
aggregates, written as one SQL array expression, plus a ``count``. Only
the (N × L × n) signature arrays are collected to the driver (about
1 KB per fragment-partition, as in the paper), in one Arrow read; the
data itself never leaves the executors.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.engine.state import scatter_cells
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
    signature; a null or out-of-range ``frag``/``part`` raises ``ValueError``.
    """
    a, b = family.params
    x = f"pmod(xxhash64(`key`), {MERSENNE_P})"
    slots = ", ".join(f"min(({x} * {aj} + {bj}) % {MERSENNE_P})" for aj, bj in zip(a, b))
    aggs = F.expr("count(1) AS card"), F.expr(f"array({slots}) AS minh")
    pdf = df.groupBy("frag", "part").agg(*aggs).toPandas()

    card = scatter_cells(pdf, pdf["card"].to_numpy(np.float64), 0.0, n_frags, n_parts)
    minh = np.array(pdf["minh"].tolist(), dtype=np.int64).reshape(len(pdf), family.n)
    return CoordinatorState(card, scatter_cells(pdf, minh, EMPTY_SLOT, n_frags, n_parts))
