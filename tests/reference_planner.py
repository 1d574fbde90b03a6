"""Reference GRASP planner for the plan-equality tests.

The direct form of the planner: every phase recomputes each
partition's all-pairs Jaccard estimate from the signatures with
``np.mean``, builds Eq. 8 one partition at a time, and runs Algorithm 2
as a masked ``np.argmin`` per pick. It is slow but obviously faithful
to the paper. ``repro.core.grasp.plan_aggregation`` must produce exactly
the same plan (transfers, order and tie-breaks) and the same final
``Card``/``MinH`` arrays.

It works on plain ``card`` (N, L) and ``minh`` (N, L, n) arrays, so it
shares no state or cache with the production ``CoordinatorState``.
"""
from __future__ import annotations

import numpy as np

from repro.core.cost_model import MB
from repro.core.plan import Phase, Plan, Transfer
from repro.minhash.hashing import EMPTY_SLOT


def est_card(card, minh, s: int, t: int, l: int) -> float:
    cs, ct = card[s, l], card[t, l]
    j = float(np.mean(minh[s, l] == minh[t, l]))
    raw = (cs + ct) / (1.0 + j)
    return float(np.clip(raw, max(cs, ct), cs + ct))


def update(card, minh, s: int, t: int, l: int) -> None:
    card[t, l] = est_card(card, minh, s, t, l)
    card[s, l] = 0.0
    np.minimum(minh[t, l], minh[s, l], out=minh[t, l])
    minh[s, l] = EMPTY_SLOT


def all_pairs_union_card(card, minh, l: int) -> np.ndarray:
    sig = minh[:, l, :]
    j = np.mean(sig[:, None, :] == sig[None, :, :], axis=2)
    c = card[:, l]
    raw = (c[:, None] + c[None, :]) / (1.0 + j)
    lo = np.maximum(c[:, None], c[None, :])
    hi = c[:, None] + c[None, :]
    return np.clip(raw, lo, hi)


def cost_matrix(card, minh, bandwidth, dest, w: float) -> np.ndarray:
    n, m = card.shape
    c = np.empty((m, n, n), dtype=np.float64)
    eye = np.eye(n, dtype=bool)
    inv_bw = np.where(np.isfinite(bandwidth) & (bandwidth > 0), 1.0 / (bandwidth * MB), 0.0)
    for l in range(m):
        card_l = card[:, l]
        cost = card_l[:, None] * w * inv_bw
        e = all_pairs_union_card(card, minh, l) * w * inv_bw
        cl = cost + e
        cl[:, dest[l]] = cost[:, dest[l]]
        empty = card_l <= 0
        recv_block = empty.copy()
        recv_block[dest[l]] = False
        cl[:, recv_block] = np.inf
        cl[empty, :] = np.inf
        cl[dest[l], :] = np.inf
        cl[eye] = np.inf
        c[l] = cl
    return c


def select_phase(c, card, minh) -> Phase:
    m, n, _ = c.shape
    send_ok = np.ones(n, dtype=bool)
    recv_ok = np.ones(n, dtype=bool)
    part_ok = np.ones((m, n), dtype=bool)
    phase = Phase()
    while send_ok.any() and recv_ok.any():
        mask = (
            part_ok[:, :, None]
            & part_ok[:, None, :]
            & send_ok[None, :, None]
            & recv_ok[None, None, :]
        )
        view = np.where(mask, c, np.inf)
        l, s, t = np.unravel_index(np.argmin(view), view.shape)
        if not np.isfinite(view[l, s, t]):
            break
        phase.transfers.append(Transfer(int(s), int(t), int(l)))
        send_ok[s] = False
        recv_ok[t] = False
        part_ok[l, s] = False
        part_ok[l, t] = False
        update(card, minh, int(s), int(t), int(l))
    return phase


def plan_aggregation(card, minh, bandwidth, dest, *, w: float):
    """Reference plan for ``(card, minh)``; returns ``(plan, card, minh)``
    with the arrays as the planner's UPDATE calls left them."""
    card = np.array(card, dtype=np.float64)
    minh = np.array(minh, dtype=np.int64)
    dest = np.asarray(dest, dtype=np.int64)
    plan = Plan(algorithm="grasp")
    while True:
        remaining = card.copy()
        remaining[dest, np.arange(card.shape[1])] = 0.0
        if np.all(remaining <= 0):
            return plan, card, minh
        phase = select_phase(cost_matrix(card, minh, bandwidth, dest, w), card, minh)
        if not phase.transfers:
            raise RuntimeError("reference planner made no progress")
        plan.phases.append(phase)
