"""Algorithm 1 of the paper: ESTCARD and UPDATE over the coordinator's
``Card`` and ``MinH`` arrays, both elementwise over index arrays, so the
Eq. 8 cost matrix reads ESTCARD for any grid of (s, t, l) and one call
applies a whole phase's UPDATEs.

``Card`` has shape (N, L) — estimated distinct-key count of partition
``l`` on fragment ``v``. ``MinH`` has shape (N, L, n) — the minhash
signature of each (fragment, partition) set; empty sets hold
:data:`repro.minhash.hashing.EMPTY_SLOT` in every slot. Both come from
:func:`repro.minhash.signatures.derive_signatures`, over a Spark state's
one count or, on the numpy reference path, over
``Origins.from_key_sets``; this module does not build them.

The state also caches, for every partition, how many signature slots
each pair of fragments agrees on, so the Jaccard estimates of a phase
cost no signature comparisons, and how many slots of each signature are
EMPTY, so an emptied sender's agreements cost none either.
:func:`update` keeps both caches exact.
"""
from __future__ import annotations

from copy import copy as shallow_copy
from dataclasses import dataclass, field

import numpy as np

from repro.minhash.hashing import EMPTY_SLOT


@dataclass
class CoordinatorState:
    """Driver-side planning state: the two arrays of Section 3.3, plus two
    caches derived from ``minh``.

    ``agree[l, s, t]`` is the number of signature slots on which
    fragments ``s`` and ``t`` agree in partition ``l`` (shape (L, N, N),
    symmetric, ``n`` on the diagonal). ``n_empty[v, l]`` is the number
    of EMPTY slots in ``minh[v, l]`` (shape (N, L)). Both are counted
    once at construction; :func:`update` refreshes the entries it
    touches and :meth:`copy` copies them. :func:`update` is the only
    supported way to change ``card`` or ``minh`` after construction —
    writing to the arrays directly leaves the caches stale.
    """

    card: np.ndarray  # (N, L) float64
    minh: np.ndarray  # (N, L, n) int64
    agree: np.ndarray = field(init=False, repr=False, compare=False)  # (L, N, N) int64
    n_empty: np.ndarray = field(init=False, repr=False, compare=False)  # (N, L) int64

    def __post_init__(self) -> None:
        if self.card.ndim != 2 or self.minh.ndim != 3:
            raise ValueError("card must be (N, L); minh must be (N, L, n)")
        if self.card.shape != self.minh.shape[:2]:
            raise ValueError(
                f"shape mismatch: card {self.card.shape} vs minh {self.minh.shape}"
            )
        self.card = self.card.astype(np.float64, copy=True)
        self.minh = self.minh.astype(np.int64, copy=True)
        self.agree = np.empty((self.n_parts, self.n_frags, self.n_frags), dtype=np.int64)
        for l in range(self.n_parts):
            sig = self.minh[:, l, :]
            np.sum(sig[:, None, :] == sig[None, :, :], axis=2, out=self.agree[l])
        self.n_empty = np.sum(self.minh == EMPTY_SLOT, axis=2)

    @property
    def n_frags(self) -> int:
        return self.card.shape[0]

    @property
    def n_parts(self) -> int:
        return self.card.shape[1]

    @property
    def n_slots(self) -> int:
        return self.minh.shape[2]

    def copy(self) -> "CoordinatorState":
        """An independent state; the caches are copied, not recounted."""
        out = shallow_copy(self)
        out.card, out.minh = self.card.copy(), self.minh.copy()
        out.agree, out.n_empty = self.agree.copy(), self.n_empty.copy()
        return out


def est_card(state: CoordinatorState, s, t, l):
    """ESTCARD(s, t, l): estimated ``|X^l(s) ∪ X^l(t)|``, elementwise over
    broadcast index arrays (or scalars).

    Paper formula ``(|S| + |T|) / (1 + J)`` with the estimate clamped to
    the always-valid set bounds ``[max(|S|,|T|), |S|+|T|]`` (deviation
    noted in DESIGN.md — clamping can only improve the estimator). ``J``
    is ``agree / n`` from the state's agreement cache, which equals
    ``np.mean`` of the slot-equality vector bit for bit: the mean sums
    ones in float64, which is exact, then divides by ``n``.
    """
    cs, ct = state.card[s, l], state.card[t, l]
    total = cs + ct
    return np.clip(
        total / (1.0 + state.agree[l, s, t] / state.n_slots), np.maximum(cs, ct), total
    )


def update(state: CoordinatorState, s, t, l) -> None:
    """UPDATE(s, t, l): apply the planned ``s -> t`` transfers of
    partitions ``l`` to the coordinator arrays — each ``t`` now holds the
    estimated union (signature = pairwise min), each ``s`` is emptied.

    ``s``, ``t`` and ``l`` are scalars or equal-length arrays, one entry
    per transfer. Algorithm 2 uses each (partition, node) at most once
    per phase, so one phase's transfers touch disjoint (l, node) pairs;
    every ESTCARD then reads state that no other transfer of the batch
    changes, and one vectorised pass equals applying them one at a time.
    An index outside the state or a repeated (l, node) pair raises
    ``ValueError`` before anything is written. Only each receiver's row
    and column of ``agree`` are recounted (N·n slot comparisons per
    transfer): an emptied sender's signature is all EMPTY, so it agrees
    with each signature on exactly that signature's EMPTY slots, which
    ``n_empty`` holds. This is the only supported mutator of the state.
    """
    s, t, l = (np.atleast_1d(np.asarray(x, dtype=np.intp)) for x in (s, t, l))
    n, m = state.n_frags, state.n_parts
    for name, x, size in (("s", s, n), ("t", t, n), ("l", l, m)):
        if np.any((x < 0) | (x >= size)):
            raise ValueError(f"UPDATE index {name} outside [0, {size}): {x.tolist()}")
    ls, vs = np.concatenate([l, l]), np.concatenate([s, t])
    if np.unique(ls * n + vs).size != vs.size:
        raise ValueError("a batch of UPDATEs must touch each (partition, node) once")
    state.card[t, l] = est_card(state, s, t, l)
    state.card[s, l] = 0.0
    sig = np.minimum(state.minh[t, l], state.minh[s, l])  # (transfers, n)
    state.minh[t, l] = sig
    state.minh[s, l] = EMPTY_SLOT
    state.n_empty[t, l] = np.sum(sig == EMPTY_SLOT, axis=1)
    state.n_empty[s, l] = state.n_slots
    nodes, lc = np.arange(n), l[:, None]
    sent = state.n_empty[:, l].T  # (transfers, N); n on each sender's diagonal
    state.agree[lc, s[:, None], nodes] = sent
    state.agree[lc, nodes, s[:, None]] = sent
    rows = np.sum(state.minh[:, l] == sig, axis=2).T  # (transfers, N)
    state.agree[lc, t[:, None], nodes] = rows
    state.agree[lc, nodes, t[:, None]] = rows
