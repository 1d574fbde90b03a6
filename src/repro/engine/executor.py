"""Plan execution in Spark (Step 9 of Figure 5) as one count job.

A transfer always moves a sender's whole (fragment, partition), so what
a fragment holds of a partition after any phase is a set of origin
fragments, fixed by the plan alone. One Spark job, which does not depend
on the plan, collects each (partition, key)'s set of origin fragments as
a bitmask and each origin's row count. The driver walks the plan over
``held[fragment, partition]`` origin bitmasks: a transfer ships the
sender's rows in phase 0 and, later, the keys whose origins meet what
the sender holds. ``truecost.plan_cost`` prices those counts on the
ground-truth network model, so the simulated seconds reflect exactly
what a phase-by-phase run would move.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.plan import Plan
from repro.engine.state import DistState, finalize, scatter_cells
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


def count_origins(state: DistState) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """``rows[v, l]``, fragment ``v``'s rows of partition ``l``, and per
    partition its distinct origin masks (⌈N/64⌉ uint64 words, bit ``v``
    set when fragment ``v`` holds the key) with the keys per mask.

    One ``groupingSets`` aggregate, independent of any plan, counts per
    (frag, part) and ORs origin bits per (part, key), read back in one
    Arrow batch; ``grouping_id`` tells the two kinds of row apart, so a
    null key stays one group, as the merge ``groupBy`` keeps it. Raises
    ``ValueError`` for a null or out-of-range ``frag``/``part``.
    """
    n, n_parts = state.n_frags, state.n_parts
    words = [f"m{w}" for w in range(-(-n // 64))]
    bits = [
        F.expr(f"bit_or(if(frag >= {64 * w} AND frag < {64 * w + 64}, "
               f"shiftleft(1L, frag - {64 * w}), 0L)) AS {m}")
        for w, m in enumerate(words)
    ]
    pdf = (
        state.df.groupingSets([["part", "key"], ["frag", "part"]], "frag", "part", "key")
        .agg(F.grouping_id().alias("gid"), F.count("*").alias("rows"), *bits)
        .drop("key")
        .toPandas()
    )
    per_key = pdf["gid"].to_numpy() == 0b100  # frag is aggregated over
    own, keys = pdf[~per_key], pdf[per_key]
    rows = scatter_cells(own, own["rows"].to_numpy(np.int64), 0, n, n_parts)
    hist, n_keys = np.unique(
        keys[["part", *words]].to_numpy(np.int64).view(np.uint64), axis=0, return_counts=True
    )
    return rows, [(hist[hist[:, 0] == p, 1:], n_keys[hist[:, 0] == p]) for p in range(n_parts)]


def _count_shipped(state: DistState, plan: Plan) -> tuple[list[list[int]], int]:
    """Tuples each transfer ships, per phase in plan order, and the tuples
    left away from their destination after the last phase.

    A driver walk over :func:`count_origins`: ``held[v, l]``, the origins
    whose partition ``l`` fragment ``v`` holds, follows the plan, and
    every ship reads the holdings before its phase. Phase 0 ships the
    sender's own rows (raw rows for a raw state); later phases ship
    merged partials, one per key whose mask meets the sender's.
    """
    rows, by_part = count_origins(state)
    n, n_parts, n_words = state.n_frags, state.n_parts, -(-state.n_frags // 64)
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
    away = held.any(axis=2) & (np.arange(n)[:, None] != state.dest[None, :])
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
    shipped, leftovers = _count_shipped(state, plan)
    if leftovers:
        raise RuntimeError(
            f"plan {plan.algorithm!r} incomplete: {leftovers} tuples not at "
            "their destination after the last phase"
        )
    cost = plan_cost(plan, shipped, state.dest, topo, state.tuple_bytes, recv_mbps)
    return ExecutionResult(**vars(cost), final_df=finalize(state), plan=plan)
