"""Universal hash family for minhash (Section 3.3 of the paper).

The paper's example uses ``h(x) = (a*x + b) mod p``; we use the same
family with the Mersenne prime ``p = 2^31 - 1``. Keys are first mixed
with Spark's ``xxhash64`` and reduced ``pmod p``, so ``a*x + b < 2^62``
always fits in a signed 64-bit integer — this lets the signature
computation run as plain Spark SQL ``min()`` aggregates without bigint
overflow. :func:`spread_keys` is the numpy port of that step for int64
keys, so the numpy :func:`signature` equals Spark's bit for bit on
``LongType`` keys; keys of other types are hashed only in Spark.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MERSENNE_P = (1 << 31) - 1
#: Signature value of the empty set: ``min`` over zero elements.
EMPTY_SLOT = MERSENNE_P


@dataclass(frozen=True)
class HashFamily:
    """``n`` independent hashes ``h_j(x) = (a_j * x + b_j) mod p``.

    ``a`` in [1, p), ``b`` in [0, p), drawn deterministically from
    ``seed``. The paper uses n=100 (signatures < 1 KB, estimate within
    10% of truth with 95% probability).
    """

    n: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one hash function")

    @property
    def params(self) -> tuple[np.ndarray, np.ndarray]:
        """The (a, b) coefficient arrays, each of length ``n``."""
        g = np.random.default_rng(self.seed)
        a = g.integers(1, MERSENNE_P, self.n, dtype=np.int64)
        b = g.integers(0, MERSENNE_P, self.n, dtype=np.int64)
        return a, b


_P1, _P2, _P3, _P4, _P5 = (
    np.uint64(v)
    for v in (
        0x9E3779B185EBCA87,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0x85EBCA77C2B2AE63,
        0x27D4EB2F165667C5,
    )
)


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def _xxhash64(keys: np.ndarray) -> np.ndarray:
    """Spark's ``xxhash64`` of a long column (XXH64 of 8 bytes, seed 42)."""
    with np.errstate(over="ignore"):
        h = np.uint64(42) + _P5 + np.uint64(8)
        h = h ^ (_rotl(keys.astype(np.uint64) * _P2, 31) * _P1)
        h = _rotl(h, 27) * _P1 + _P4
        h = (h ^ (h >> np.uint64(33))) * _P2
        h = (h ^ (h >> np.uint64(29))) * _P3
        return (h ^ (h >> np.uint64(32))).view(np.int64)


def spread_keys(keys: np.ndarray) -> np.ndarray:
    """``pmod(xxhash64(key), p)`` for int64 keys, as Spark computes it."""
    return _xxhash64(np.asarray(keys, dtype=np.int64)) % MERSENNE_P


def signature(keys: np.ndarray, family: HashFamily) -> np.ndarray:
    """Minhash signature of a key set: ``sig[j] = min_x h_j(x)``.

    An empty set yields a vector of :data:`EMPTY_SLOT`. Duplicate keys
    are harmless (min is idempotent).
    """
    if len(keys) == 0:
        return np.full(family.n, EMPTY_SLOT, dtype=np.int64)
    a, b = family.params
    # a < p < 2^31 and x < p < 2^31 keep a*x + b < 2^62: exact in int64,
    # matching what the Spark SQL expression computes.
    x = spread_keys(keys)
    hv = (x[:, None] * a[None, :] + b[None, :]) % MERSENNE_P
    return hv.min(axis=0).astype(np.int64)
