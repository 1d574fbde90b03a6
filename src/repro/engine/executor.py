"""Plan execution (Step 9 of Figure 5) as a walk over one Spark count.

A transfer always moves a sender's whole (fragment, partition), so what
a fragment holds of a partition after any phase is a set of origin
fragments, fixed by the plan alone. The state's one Spark count
(``DistState.origins``), which does not depend on the plan and which the
planners read too, collects each (partition, key)'s set of origin
fragments as a bitmask and each origin's row count. The driver walks
the plan over ``held[fragment, partition]`` origin bitmasks: a transfer
ships the sender's rows in phase 0 and, later, the keys whose origins
meet what the sender holds. ``truecost.plan_cost`` prices those counts
on the ground-truth network model, so the simulated seconds reflect
exactly what a phase-by-phase run would move.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame

from repro.core.plan import Plan
from repro.engine.state import DistState, Origins, finalize
from repro.netsim.topology import Topology
from repro.netsim.truecost import PlanCost, plan_cost


@dataclass
class ExecutionResult(PlanCost):
    """Outcome of executing one plan: its simulated cost (Eq. 3, Table 2;
    ``network_seconds`` includes receiver compute when ``recv_mbps`` is
    given) and the finalized result."""

    final_df: DataFrame
    plan: Plan

    def unpersist(self) -> None:
        """Release ``final_df`` if a caller cached it."""
        self.final_df.unpersist()


def _count_shipped(
    origins: Origins, dest: np.ndarray, plan: Plan
) -> tuple[list[list[int]], int]:
    """Tuples each transfer ships, per phase in plan order, and the tuples
    left away from their destination ``dest[l]`` after the last phase.

    A driver walk over ``origins``: ``held[v, l]``, the origins whose
    partition ``l`` fragment ``v`` holds, follows the plan, and every
    ship reads the holdings before its phase. Phase 0 ships the sender's
    own rows (raw rows for a raw state); later phases ship merged
    partials, one per key whose mask meets the sender's.
    """
    rows, part, _, masks = origins
    (n, n_parts), n_words = rows.shape, masks.shape[1]
    hist, n_keys = np.unique(
        np.column_stack([part.view(np.uint64), masks]), axis=0, return_counts=True
    )
    by_part = [(hist[hist[:, 0] == p, 1:], n_keys[hist[:, 0] == p]) for p in range(n_parts)]
    held = np.zeros((n, n_parts, n_words), dtype=np.uint64)
    for o in range(n):
        held[o, :, o // 64] = np.uint64(1) << np.uint64(o % 64)

    def tuples(i: int, h: int, p: int) -> int:
        if i == 0:  # nothing has moved yet: h holds its own rows
            return int(rows[h, p])
        m, k = by_part[p]
        return int(k[(m & held[h, p]).any(axis=1)].sum())

    shipped = []
    for i, phase in enumerate(plan):
        shipped.append([tuples(i, t.src, t.part) for t in phase])
        moves = [(t, held[t.src, t.part].copy()) for t in phase]
        for t, _ in moves:
            held[t.src, t.part] = 0
        for t, m in moves:
            held[t.dst, t.part] |= m
    away = held.any(axis=2) & (np.arange(n)[:, None] != dest[None, :])
    return shipped, sum(tuples(len(plan), h, p) for h, p in zip(*np.nonzero(away)))


def execute_plan(
    state: DistState,
    plan: Plan,
    topo: Topology,
    *,
    recv_mbps: float | None = None,
) -> ExecutionResult:
    """Run ``plan`` over ``state``; return the finalized result and the
    simulated cost accounting, receivers aggregating at ``recv_mbps``
    MB/s when it is given (Section 5.3.5).

    Raises ``ValueError`` for a row outside the state's fragments or
    partitions, and ``RuntimeError`` if, after the last phase, any tuple
    sits away from its partition's destination — an incomplete plan is a
    bug, not a number.
    """
    if topo.n_frags != state.n_frags:
        raise ValueError(
            f"topology has {topo.n_frags} fragments, state has {state.n_frags}"
        )
    shipped, leftovers = _count_shipped(state.origins, state.dest, plan)
    if leftovers:
        raise RuntimeError(
            f"plan {plan.algorithm!r} incomplete: {leftovers} tuples not at "
            "their destination after the last phase"
        )
    cost = plan_cost(plan, shipped, state.dest, topo, state.tuple_bytes, recv_mbps)
    return ExecutionResult(**vars(cost), final_df=finalize(state), plan=plan)
