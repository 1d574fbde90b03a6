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
    sort is done in bands of the cheapest remaining entries
    (``np.partition`` for the band's top value, then every entry up to
    and including it, so ties stay in one band). Each pick keeps only the
    band's still-valid entries and takes the first; the band ends when
    none is valid, and entries that are already invalid are dropped
    before the next, wider band is cut. The picks' UPDATEs are applied
    by the caller (:func:`plan_aggregation`), once per phase.
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
    ``C`` is built once; after each phase's batched UPDATE only rows and
    columns ``v`` of ``C[l]`` for the touched (l, v) are repriced, which
    is all of Eq. 8 that a transfer changes.
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
        ls, vs = np.concatenate([l, l])[:, None], np.concatenate([s, t])[:, None]
        c[ls, vs, nodes] = eq8(state, bandwidth, dest, w, ls, vs, nodes)
        c[ls, nodes, vs] = eq8(state, bandwidth, dest, w, ls, nodes, vs)
    plan.validate()
    return plan
