"""The GRASP planner: Algorithm 2 pair selection and the phase loop.

Given the coordinator arrays (``Card``, ``MinH``), the estimated
bandwidth matrix ``B`` and the partition-destination mapping ``M``,
:func:`plan_aggregation` produces the full multi-phase :class:`Plan`
before any data moves (Steps 3–8 of Figure 5). All arithmetic runs on
the driver over numpy arrays — the paper's coordinator is likewise a
single node operating on collected signatures.
"""
from __future__ import annotations

import numpy as np

from repro.core.cost_model import cost_matrix
from repro.core.plan import Phase, Plan, Transfer
from repro.minhash.estimate import CoordinatorState, update

#: Sorted candidates checked per validity test in :func:`select_phase`.
_WINDOW = 64


def select_phase(c: np.ndarray, state: CoordinatorState) -> Phase:
    """Algorithm 2: greedily pick transfers for one phase.

    Repeatedly takes the globally cheapest viable ``(s -> t, l)`` entry
    of ``C_i`` (ties: first in C order of ``(l, s, t)``), then removes
    ``s`` from the sender candidates, ``t`` from the receiver candidates,
    and both from partition ``l``'s candidates — enforcing one send and
    one receive per node per phase, and no same-partition send+receive.
    Each pick immediately applies ``UPDATE(s, t, l)`` to the coordinator
    ``state`` (the estimated post-transfer sizes feed the next phase's
    ``C``).

    ``C_i`` does not change within a phase and candidates only ever
    leave the candidate sets, so the greedy sequence is a forward scan
    of ``C_i``'s finite entries sorted by (cost, flat index) that skips
    entries whose sender, receiver or (l, node) is already used. The
    sort is done in bands of the cheapest remaining entries
    (``np.partition`` for the band's top value, then every entry up to
    and including it, so ties stay in one band); a band is checked for
    validity a window at a time, and entries that are already invalid
    are dropped before the next, wider band is cut.
    """
    m, n, _ = c.shape
    send_ok = np.ones(n, dtype=bool)
    recv_ok = np.ones(n, dtype=bool)
    part_ok = np.ones((m, n), dtype=bool)
    phase = Phase()
    flat = np.flatnonzero(np.isfinite(c))  # ascending, i.e. C order
    cost = c.ravel()[flat]
    band = 4 * n
    while flat.size:
        k = min(band, flat.size) - 1
        top = np.partition(cost, k)[k]
        cut = cost <= top
        idx = flat[cut][np.argsort(cost[cut], kind="stable")]
        flat, cost = flat[~cut], cost[~cut]
        band *= 4
        bl, rest = np.divmod(idx, n * n)
        bs, bt = np.divmod(rest, n)
        pos = 0
        while pos < idx.size:
            win = slice(pos, pos + _WINDOW)
            wl, ws, wt = bl[win], bs[win], bt[win]
            hit = send_ok[ws] & recv_ok[wt] & part_ok[wl, ws] & part_ok[wl, wt]
            i = int(np.argmax(hit))
            if not hit[i]:
                pos += _WINDOW
                continue
            l, s, t = int(wl[i]), int(ws[i]), int(wt[i])
            phase.transfers.append(Transfer(s, t, l))
            send_ok[s] = False
            recv_ok[t] = False
            part_ok[l, s] = False
            part_ok[l, t] = False
            update(state, s, t, l)
            pos += i + 1
        # Entries that are invalid now stay invalid: drop them before
        # cutting the next band.
        ok = part_ok[:, :, None] & part_ok[:, None, :] & send_ok[:, None] & recv_ok
        keep = ok.ravel()[flat]
        flat, cost = flat[keep], cost[keep]
    phase.validate()
    return phase


def aggregation_done(state: CoordinatorState, dest: np.ndarray) -> bool:
    """Eq. 2 / Eq. 7: every partition's data sits only at its destination."""
    remaining = state.card.copy()
    remaining[dest, np.arange(state.n_parts)] = 0.0
    return bool(np.all(remaining <= 0))


def plan_aggregation(
    state: CoordinatorState,
    bandwidth: np.ndarray,
    dest: np.ndarray,
    *,
    w: float,
) -> Plan:
    """Produce the complete GRASP aggregation plan.

    ``state`` is consumed (mutated through the planner's UPDATE calls) —
    pass ``state.copy()`` to keep the original. All-to-one aggregation is
    the single-partition case ``dest = [v*]``. Every phase empties at
    least one (fragment, partition), so more than N·L + 1 phases means
    the planner is making no progress and raises ``RuntimeError``.
    """
    dest = np.asarray(dest, dtype=np.int64)
    limit = state.n_frags * state.n_parts + 1
    plan = Plan(algorithm="grasp")
    while not aggregation_done(state, dest):
        if len(plan.phases) >= limit:
            raise RuntimeError(
                f"planner exceeded {limit} phases — no progress being made"
            )
        c = cost_matrix(state, bandwidth, dest, w)
        phase = select_phase(c, state)
        if not phase.transfers:
            raise RuntimeError("no viable transfer found but aggregation incomplete")
        plan.phases.append(phase)
    plan.validate()
    return plan
