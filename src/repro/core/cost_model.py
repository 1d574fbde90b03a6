"""The Eq. 8 one-phase-lookahead cost matrix.

The coordinator builds, at the start of every phase ``P_i``, a matrix
``C_i[l, s, t]`` — the heuristic cost of node ``s`` sending its share of
partition ``l`` to node ``t`` in this phase:

    C_i = inf                      if s == t, s == M(l), X^l(s) empty,
                                   or (X^l(t) empty and t != M(l))
    C_i = COST(s->t)               if t == M(l)   (never re-transmitted)
    C_i = COST(s->t) + E_i(s,t,l)  otherwise

with ``COST(s->t) = |X^l(s)| * w / B(s->t)`` (Eq. 5) and
``E_i = ESTCARD(s,t,l) * w / B(s->t)`` the anticipated cost of shipping
the union in the next phase. The case order follows DESIGN.md: the
final destination may receive even when empty (Section 2.1 constraint).
:func:`eq8` prices any grid of ``(l, s, t)`` entries; :func:`cost_matrix`
applies it to the full grid.
"""
from __future__ import annotations

import numpy as np

from repro.minhash.estimate import CoordinatorState, est_card

MB = 1e6


def eq8(
    state: CoordinatorState, bandwidth: np.ndarray, dest: np.ndarray, w: float, l, s, t
) -> np.ndarray:
    """``C_i[l, s, t]`` elementwise for broadcast index arrays ``l, s, t``.

    ``bandwidth`` must already be validated (:func:`cost_matrix` checks
    it); its diagonal is never read. The union estimates come from the
    state's cached slot-agreement counts (:func:`est_card`), so pricing
    an entry compares no signatures.
    """
    inv_bw = 1.0 / (np.where(s == t, np.inf, bandwidth[s, t]) * MB)  # 0 on the diagonal
    cs, ct = state.card[s, l], state.card[t, l]
    cost = cs * w * inv_bw  # COST(s->t), Eq. 5
    c = est_card(state, s, t, l) * w * inv_bw + cost  # + E_i(s, t, l)
    to_dest = t == dest[l]
    # t == M(l): pay only the transfer, never re-shipped.
    c = np.where(to_dest, cost, c)
    # Empty or destination senders never send; no self transfers; empty
    # receivers are useless targets — except the destination.
    blocked = (s == t) | (s == dest[l]) | (cs <= 0) | ((ct <= 0) & ~to_dest)
    return np.where(blocked, np.inf, c)


def cost_matrix(
    state: CoordinatorState,
    bandwidth: np.ndarray,
    dest: np.ndarray,
    w: float,
) -> np.ndarray:
    """Build ``C_i`` for every partition: shape (L, N, N), row = sender.

    ``bandwidth`` is the planner's *estimated* B matrix (N, N) in MB/s;
    every off-diagonal entry must be finite and positive (the diagonal
    is never used). ``dest`` maps each partition to its final
    destination fragment (``M`` of Section 2.2), each in [0, N); ``w`` is
    the tuple width in bytes. All L partitions are priced in one
    broadcast.
    """
    n, m = state.n_frags, state.n_parts
    if bandwidth.shape != (n, n):
        raise ValueError(f"bandwidth shape {bandwidth.shape} != ({n}, {n})")
    if dest.shape != (m,):
        raise ValueError(f"dest shape {dest.shape} != ({m},)")
    if np.any((dest < 0) | (dest >= n)):
        raise ValueError(f"dest {dest.tolist()} has a fragment outside [0, {n})")
    off_diag = bandwidth[~np.eye(n, dtype=bool)]
    if not np.all(np.isfinite(off_diag) & (off_diag > 0)):
        raise ValueError("off-diagonal bandwidth entries must be finite and positive")
    nodes = np.arange(n)
    return eq8(state, bandwidth, dest, w, np.arange(m)[:, None, None], nodes[:, None], nodes)
