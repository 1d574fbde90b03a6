"""Plan execution (Step 9 of Figure 5) as a walk over the state's counts.

A transfer always moves a sender's whole (fragment, partition), so what
a fragment holds of a partition after any phase is a set of origin
fragments, fixed by the plan alone. The state's counts do not depend on
the plan, and the planners read them too: ``DistState.rows``, each
origin's row count, and ``DistState.keys``, each (partition, key)'s set
of origin fragments as a bitmask. The driver walks the plan over
``held[fragment, partition]`` origin bitmasks: a transfer ships the
sender's rows in phase 0 and, later, the keys whose origins meet what
the sender holds. The walk reads the per-key count only for a later
phase or for a cell left away from its destination, so Repart's and
Preagg+Repart's complete single phase reads ``rows`` alone, and every
run makes one Spark count. ``truecost.plan_cost`` prices those counts
on the ground-truth network model, so the simulated seconds reflect
exactly what a phase-by-phase run would move.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np
from pyspark.sql import DataFrame

from repro.core.plan import Plan
from repro.engine.state import DistState, Keys, finalize
from repro.netsim.topology import Topology
from repro.netsim.truecost import PlanCost, plan_cost


@dataclass
class ExecutionResult(PlanCost):
    """Outcome of executing one plan: its simulated cost (Eq. 3, Table 2;
    ``network_seconds`` includes receiver compute when ``recv_mbps`` is
    given), the executed plan and its state."""

    plan: Plan
    state: DistState

    @cached_property
    def final_df(self) -> DataFrame:
        """The finalized result, built on first read."""
        return finalize(self.state)

    def unpersist(self) -> None:
        """Release ``final_df`` if it was built and a caller cached it."""
        if "final_df" in self.__dict__:
            self.final_df.unpersist()


def _count_shipped(
    rows: np.ndarray, keys: Callable[[], Keys], dest: np.ndarray, plan: Plan
) -> tuple[list[list[int]], int]:
    """Tuples each transfer ships, per phase in plan order, and the tuples
    left away from their destination ``dest[l]`` after the last phase.

    A driver walk: ``held[v, l]``, the origins whose partition ``l``
    fragment ``v`` holds, follows the plan, and every ship reads the
    holdings before its phase. Phase 0 ships the sender's own rows,
    ``rows[v, l]`` (raw rows for a raw state); later phases and the
    leftovers count merged partials, one per key whose mask meets the
    sender's, from ``keys()`` (anything with ``part`` and ``masks``),
    called only then.
    """
    n, n_parts = rows.shape
    held = np.zeros((n, n_parts, -(-n // 64)), dtype=np.uint64)
    for o in range(n):
        held[o, :, o // 64] = np.uint64(1) << np.uint64(o % 64)

    @cache
    def by_part() -> list[tuple[np.ndarray, np.ndarray]]:
        k = keys()
        hist, n_keys = np.unique(
            np.column_stack([k.part.view(np.uint64), k.masks]), axis=0, return_counts=True
        )
        return [(hist[hist[:, 0] == p, 1:], n_keys[hist[:, 0] == p]) for p in range(n_parts)]

    def tuples(i: int, h: int, p: int) -> int:
        if i == 0:  # nothing has moved yet: h holds its own rows
            return int(rows[h, p])
        m, k = by_part()[p]
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
    """Run ``plan`` over ``state``; return the simulated cost accounting,
    receivers aggregating at ``recv_mbps`` MB/s when it is given (Section
    5.3.5), and the finalized result, built on first read.

    Raises ``ValueError`` for a row outside the state's fragments or
    partitions, and ``RuntimeError`` if, after the last phase, any tuple
    sits away from its partition's destination — an incomplete plan is a
    bug, not a number.
    """
    if topo.n_frags != state.n_frags:
        raise ValueError(
            f"topology has {topo.n_frags} fragments, state has {state.n_frags}"
        )
    shipped, leftovers = _count_shipped(state.rows, lambda: state.keys, state.dest, plan)
    if leftovers:
        raise RuntimeError(
            f"plan {plan.algorithm!r} incomplete: {leftovers} tuples not at "
            "their destination after the last phase"
        )
    cost = plan_cost(plan, shipped, state.dest, topo, state.tuple_bytes, recv_mbps)
    return ExecutionResult(**vars(cost), plan=plan, state=state)
