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

from repro.core.cost_model import cost_matrix, eq8
from repro.core.plan import Phase, Plan, Transfer
from repro.minhash.estimate import CoordinatorState, update


def select_phase(c: np.ndarray) -> Phase:
    """Algorithm 2: greedily pick transfers for one phase from ``C_i``.

    Repeatedly takes the globally cheapest viable ``(s -> t, l)`` entry
    of ``C_i`` (ties: first in C order of ``(l, s, t)``), then removes
    ``s`` from the sender candidates, ``t`` from the receiver candidates,
    and both from partition ``l``'s candidates — enforcing one send and
    one receive per node per phase, and no same-partition send+receive.

    ``C_i`` does not change within a phase and candidates only ever
    leave the candidate sets, so the greedy sequence is a forward scan
    of ``C_i``'s finite entries sorted by (cost, flat index) that skips
    entries whose sender, receiver or (l, node) is already used. The
    sort is done in bands cut in whole ``(l, s)`` rows of ``C_i``: each
    live row keeps its cheapest entry above the previous band's top,
    ``np.partition`` of those minima gives the band's top, and the rows
    whose minimum is at or below it hold every entry of the band, ties
    included. Gathered in row order and sorted stably by cost, the band
    keeps the (cost, flat index) order. Each pick keeps only the band's
    still-valid entries and takes the first; the band ends when none is
    valid. Rows whose sender has sent or whose ``(l, s)`` is used are
    then dropped, so the next, wider band reads only live senders. The
    picks' UPDATEs are applied by the caller (:func:`plan_aggregation`),
    once per phase.
    """
    m, n, _ = c.shape
    send_ok = np.ones(n, dtype=bool)
    recv_ok = np.ones(n, dtype=bool)
    part_ok = np.ones((m, n), dtype=bool)
    phase = Phase()
    rows = c.reshape(m * n, n)
    low = rows.min(axis=1)  # each row's cheapest entry above `floor`
    live = np.flatnonzero(low < np.inf)  # ascending, i.e. C order
    low = low[live]
    floor, band = -np.inf, n
    while live.size:
        k = min(band, live.size) - 1
        top = np.partition(low, k)[k]
        cut = low <= top
        band_rows = live[cut]
        block = rows[band_rows]
        ri, bt = np.nonzero((block > floor) & (block <= top))
        order = np.argsort(block[ri, bt], kind="stable")
        bl, bs = np.divmod(band_rows[ri[order]], n)
        bt = bt[order]
        while True:
            hit = send_ok[bs] & recv_ok[bt] & part_ok[bl, bs] & part_ok[bl, bt]
            bl, bs, bt = bl[hit], bs[hit], bt[hit]
            if not bl.size:
                break
            l, s, t = int(bl[0]), int(bs[0]), int(bt[0])
            phase.transfers.append(Transfer(s, t, l))
            send_ok[s] = False
            recv_ok[t] = False
            part_ok[l, s] = False
            part_ok[l, t] = False
        low[cut] = np.where(block > top, block, np.inf).min(axis=1)
        floor, band = top, band * 4
        # Rows that are dead now stay dead: drop them before cutting the
        # next band.
        rl, rs = np.divmod(live, n)
        keep = (low < np.inf) & send_ok[rs] & part_ok[rl, rs]
        live, low = live[keep], low[keep]
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
    ``C`` is built once. After each phase's batched UPDATE, each
    emptied sender's row and column of ``C[l]`` are set to ``inf``, the
    value Eq. 8 gives them (an empty sender never sends, and an empty
    node that is not ``M(l)`` never receives; a sender is never ``M(l)``),
    and only the receivers' rows and columns are repriced. That is all of
    Eq. 8 that a transfer changes.
    """
    dest = np.asarray(dest, dtype=np.int64)
    limit = state.n_frags * state.n_parts + 1
    nodes = np.arange(state.n_frags)
    plan = Plan(algorithm="grasp")
    c = cost_matrix(state, bandwidth, dest, w)
    while not aggregation_done(state, dest):
        if len(plan.phases) >= limit:
            raise RuntimeError(
                f"planner exceeded {limit} phases — no progress being made"
            )
        phase = select_phase(c)
        if not phase.transfers:
            raise RuntimeError("no viable transfer found but aggregation incomplete")
        plan.phases.append(phase)
        s, t, l = np.array([(x.src, x.dst, x.part) for x in phase], dtype=np.intp).T
        update(state, s, t, l)
        c[l, s, :] = np.inf
        c[l, :, s] = np.inf
        l, t = l[:, None], t[:, None]
        c[l, t, nodes] = eq8(state, bandwidth, dest, w, l, t, nodes)
        c[l, nodes, t] = eq8(state, bandwidth, dest, w, l, nodes, t)
    plan.validate()
    return plan
