"""Eq. 5 transfer cost and the Eq. 8 one-phase-lookahead cost matrix.

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
"""
from __future__ import annotations

import numpy as np

from repro.minhash.estimate import CoordinatorState, all_pairs_union_card

MB = 1e6


def transfer_seconds(n_tuples: float, w: float, bw_mbps: float) -> float:
    """Eq. 5: seconds to ship ``n_tuples`` tuples of ``w`` bytes at
    ``bw_mbps`` MB/s."""
    if bw_mbps <= 0:
        raise ValueError("bandwidth must be positive")
    return n_tuples * w / (bw_mbps * MB)


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
    destination fragment (``M`` of Section 2.2); ``w`` is the tuple
    width in bytes.

    All L partitions are priced in one broadcast. The union estimates
    come from the state's cached slot-agreement counts
    (:func:`repro.minhash.estimate.all_pairs_union_card`), so building
    ``C_i`` compares no signatures.
    """
    n, m = state.n_frags, state.n_parts
    if bandwidth.shape != (n, n):
        raise ValueError(f"bandwidth shape {bandwidth.shape} != ({n}, {n})")
    if dest.shape != (m,):
        raise ValueError(f"dest shape {dest.shape} != ({m},)")
    eye = np.eye(n, dtype=bool)
    off_diag = bandwidth[~eye]
    if not np.all(np.isfinite(off_diag) & (off_diag > 0)):
        raise ValueError("off-diagonal bandwidth entries must be finite and positive")

    inv_bw = 1.0 / (np.where(eye, np.inf, bandwidth) * MB)  # 0 on the diagonal
    card = np.ascontiguousarray(state.card.T)  # (L, N)
    cost = card[:, :, None] * w * inv_bw  # COST(s->t), Eq. 5
    c = all_pairs_union_card(state)
    c *= w
    c *= inv_bw  # E_i(s, t, l)
    c += cost
    parts = np.arange(m)
    # t == M(l): pay only the transfer, never re-shipped.
    c[parts, :, dest] = cost[parts, :, dest]
    # Empty receivers are useless targets — except the destination.
    empty = card <= 0
    recv_block = empty.copy()
    recv_block[parts, dest] = False
    c.transpose(0, 2, 1)[recv_block] = np.inf
    # Empty or destination senders never send; no self transfers.
    empty[parts, dest] = True
    c[empty] = np.inf
    c[:, eye] = np.inf
    return c
