"""Algorithm 1 of the paper: ESTCARD and UPDATE over the coordinator's
``Card`` and ``MinH`` arrays, plus the all-pairs variant used to build
the Eq. 8 cost matrix.

``Card`` has shape (N, L) — estimated distinct-key count of partition
``l`` on fragment ``v``. ``MinH`` has shape (N, L, n) — the minhash
signature of each (fragment, partition) set; empty sets hold
:data:`repro.minhash.hashing.EMPTY_SLOT` in every slot.

The state also caches, for every partition, how many signature slots
each pair of fragments agrees on, so the Jaccard estimates of a phase
cost no signature comparisons. :func:`update` keeps that cache exact.
"""
from __future__ import annotations

from copy import copy as shallow_copy
from dataclasses import dataclass, field

import numpy as np

from repro.minhash.hashing import EMPTY_SLOT, HashFamily, signature


@dataclass
class CoordinatorState:
    """Driver-side planning state: the two arrays of Section 3.3, plus a
    cache derived from ``minh``.

    ``agree[l, s, t]`` is the number of signature slots on which
    fragments ``s`` and ``t`` agree in partition ``l`` (shape (L, N, N),
    symmetric, ``n`` on the diagonal). It is counted once at
    construction; :func:`update` refreshes the rows and columns it
    touches and :meth:`copy` copies it. :func:`update` is the only
    supported way to change ``card`` or ``minh`` after construction —
    writing to the arrays directly leaves ``agree`` stale.
    """

    card: np.ndarray  # (N, L) float64
    minh: np.ndarray  # (N, L, n) int64
    agree: np.ndarray = field(init=False, repr=False, compare=False)  # (L, N, N) int64

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
        """An independent state; the agreement cache is copied, not recounted."""
        out = shallow_copy(self)
        out.card, out.minh, out.agree = self.card.copy(), self.minh.copy(), self.agree.copy()
        return out

    @classmethod
    def from_key_sets(
        cls, key_sets: list[list[np.ndarray]], family: HashFamily
    ) -> "CoordinatorState":
        """Build exact Card and true minhash signatures from explicit key
        sets — ``key_sets[v][l]`` is the int64 key array of partition l
        on fragment v. The numpy reference path (tests and tiny
        inputs): it returns the ``Card``/``MinH`` that
        ``repro.minhash.signatures.compute_signatures`` collects for the
        same ``LongType`` keys, bit for bit.
        """
        n, m = len(key_sets), len(key_sets[0])
        card = np.zeros((n, m))
        minh = np.full((n, m, family.n), EMPTY_SLOT, dtype=np.int64)
        for v in range(n):
            if len(key_sets[v]) != m:
                raise ValueError("ragged key_sets")
            for l in range(m):
                keys = np.unique(np.asarray(key_sets[v][l]))
                card[v, l] = len(keys)
                minh[v, l] = signature(keys, family)
        return cls(card, minh)


def _union_card(cs, ct, agree, n: int):
    """``(|S| + |T|) / (1 + J)`` clamped to ``[max(|S|,|T|), |S|+|T|]``,
    elementwise, with ``J = agree / n``. ``agree / n`` equals
    ``np.mean`` of the slot-equality vector bit for bit: the mean sums
    ones in float64, which is exact, then divides by ``n``."""
    total = cs + ct
    return np.clip(total / (1.0 + agree / n), np.maximum(cs, ct), total)


def est_card(state: CoordinatorState, s: int, t: int, l: int) -> float:
    """ESTCARD(s, t, l): estimated ``|X^l(s) ∪ X^l(t)|``.

    Paper formula ``(|S| + |T|) / (1 + J)`` with the estimate clamped to
    the always-valid set bounds ``[max(|S|,|T|), |S|+|T|]`` (deviation
    noted in DESIGN.md — clamping can only improve the estimator). ``J``
    is read from the state's agreement cache.
    """
    return float(
        _union_card(state.card[s, l], state.card[t, l], state.agree[l, s, t], state.n_slots)
    )


def update(state: CoordinatorState, s: int, t: int, l: int) -> None:
    """UPDATE(s, t, l): apply the planned ``s -> t`` transfer of partition
    ``l`` to the coordinator arrays — ``t`` now holds the estimated
    union (signature = pairwise min), ``s`` is emptied.

    Only ``minh[s, l]`` and ``minh[t, l]`` change, so only rows and
    columns ``s`` and ``t`` of ``agree[l]`` are recounted (2·N·n slot
    comparisons). This is the only supported mutator of the state.
    """
    state.card[t, l] = est_card(state, s, t, l)
    state.card[s, l] = 0.0
    sig = state.minh[:, l, :]
    np.minimum(sig[t], sig[s], out=sig[t])
    sig[s] = EMPTY_SLOT
    rows = np.sum(sig[[s, t], None, :] == sig[None, :, :], axis=2)  # (2, N)
    agree = state.agree[l]
    agree[[s, t], :] = rows
    agree[:, [s, t]] = rows.T


def all_pairs_union_card(state: CoordinatorState) -> np.ndarray:
    """Vectorised ESTCARD for every (l, s, t): an (L, N, N) array
    ``U[l, s, t] ≈ |X^l(s) ∪ X^l(t)|`` with the same clamping as
    :func:`est_card`. Used by the Eq. 8 cost-matrix builder.
    """
    c = np.ascontiguousarray(state.card.T)  # (L, N)
    return _union_card(c[:, :, None], c[:, None, :], state.agree, state.n_slots)
