"""Reference minhash signature for the derivation tests.

The direct form of Section 3.3: a key set's signature holds, per slot
``j``, the minimum of ``h_j(x)`` over its keys, computed one key set at
a time. ``repro.minhash.signatures.derive_signatures`` over
``Origins.from_key_sets`` must return exactly these signatures, cell by
cell, for the same int64 keys; this module shares no code with that
derivation apart from the hash family and ``spread_keys``.
"""
from __future__ import annotations

import numpy as np

from repro.minhash.hashing import EMPTY_SLOT, MERSENNE_P, HashFamily, spread_keys


def signature(keys: np.ndarray, family: HashFamily) -> np.ndarray:
    """Minhash signature of a key set: ``sig[j] = min_x h_j(x)``.

    An empty set yields a vector of :data:`EMPTY_SLOT`. Duplicate keys
    are harmless (min is idempotent).
    """
    if len(keys) == 0:
        return np.full(family.n, EMPTY_SLOT, dtype=np.int64)
    a, b = family.params
    # a < p < 2^31 and x < p < 2^31 keep a*x + b < 2^62: exact in int64.
    x = spread_keys(keys)
    hv = (x[:, None] * a[None, :] + b[None, :]) % MERSENNE_P
    return hv.min(axis=0).astype(np.int64)
