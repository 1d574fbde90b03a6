"""Minhash signatures of every (fragment, partition) (Step 2 of Figure 5).

Every fragment's local, pre-aggregated data is summarised as a distinct
count (``Card``) and an ``n``-slot minhash signature per partition. A
signature is a function of its fragment's key set alone, so both come
from the state's :class:`~repro.engine.state.Origins`. For a GRASP
query that is one Spark job, the pre-aggregated state's per-key count
(``DistState.keys``, a ``groupBy(part, key)`` over the rows the state
merges): ``MinH`` is derived on the driver from its per-key rows, each
key's spread value ``x`` and origin bitmask (the fragments that hold
it), and ``Card`` is each cell's mask popcount. Only those rows, never
the aggregated data, leave the executors. The numpy reference path
derives the same arrays from ``Origins.from_key_sets``: this is the one
derivation of ``Card`` and ``MinH``. :func:`compute_signatures` runs
the state's two counts, :func:`~repro.engine.state.count_rows` and
:func:`~repro.engine.state.count_keys`, over any ``(frag, part, key)``
DataFrame.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame

from repro.engine.state import Origins, count_keys, count_rows, origin_bits
from repro.minhash.estimate import CoordinatorState
from repro.minhash.hashing import EMPTY_SLOT, MERSENNE_P, HashFamily


def derive_signatures(origins: Origins, family: HashFamily) -> CoordinatorState:
    """``Card`` and ``MinH`` from a state's :class:`Origins`.

    ``MinH[v, l, j]`` is the minimum of ``(x * a_j + b_j) mod p`` over the
    keys of partition ``l`` whose mask has bit ``v``; ``Card[v, l]`` is
    the row count. A cell with no rows holds Card 0 and the empty-set
    signature.
    """
    rows, part, x, masks = origins
    n, n_parts = rows.shape
    order = np.argsort(part, kind="stable")
    part, x = part[order], x[order]
    bits = origin_bits(masks[order], n)
    # One (fragment, key) pair per distinct key of each (fragment,
    # partition) cell, ordered by cell, so each cell is one ``reduceat`` run.
    v, k = np.nonzero(bits.T)
    cell = v * n_parts + part[k]
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    cells = cell[starts]
    minh = np.full((family.n, n * n_parts), EMPTY_SLOT, dtype=np.int64)
    a, b = family.params
    # One slot at a time keeps temporaries O(pairs). a < p and x < p keep
    # a*x + b < 2^62: exact in int64.
    for j in range(family.n):
        h = (x * a[j] + b[j]) % MERSENNE_P
        minh[j, cells] = np.minimum.reduceat(h[k], starts)
    # C order: the planner reads each signature's n slots contiguously.
    minh = np.ascontiguousarray(minh.T).reshape(n, n_parts, family.n)
    return CoordinatorState(rows.astype(np.float64), minh)


def compute_signatures(
    df: DataFrame,
    family: HashFamily,
    *,
    n_frags: int,
    n_parts: int,
) -> CoordinatorState:
    """Collect ``Card`` and ``MinH`` for every (fragment, partition) of
    ``df``: its row count and its per-key count, then
    :func:`derive_signatures`.

    ``df`` has columns ``frag``, ``part`` and ``key``; ``Card`` is its
    row count, over the locally pre-aggregated state the distinct-key
    count. Keys of any type ``xxhash64`` accepts are mixed with it and
    reduced mod ``p = 2^31 - 1``; for ``LongType`` keys the result equals
    ``derive_signatures(Origins.from_key_sets(...))`` bit for bit. A
    null or out-of-range ``frag``/``part`` raises ``ValueError``.
    """
    rows = count_rows(df, n_frags, n_parts)
    return derive_signatures(Origins(rows, *count_keys(df, n_frags, n_parts)), family)
