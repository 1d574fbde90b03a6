"""Plan execution in Spark (Step 9 of Figure 5) as one count job.

A transfer always moves a sender's whole (fragment, partition), so the
plan alone fixes which input fragments' rows each transfer carries. The
driver walks the plan over a ``holder[origin fragment, partition]``
table and labels every origin with each (phase, sender) that ships it,
plus a final label naming where it ends up. One Spark job joins the
state to that label table and counts, per (phase, sender, partition),
the tuples the transfer ships. ``truecost.plan_cost`` prices those
counts on the ground-truth network model, so the simulated seconds
reflect exactly what a phase-by-phase run would move.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.plan import Plan
from repro.engine.state import DistState, finalize
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


def _count_shipped(state: DistState, plan: Plan) -> dict[tuple[int, int, int], int]:
    """Tuples held by each (phase, holder, part), from one Spark job.

    The driver walks ``holder[origin frag, part]`` through the plan: phase
    ``i`` labels each origin that its pre-phase holder sends with ``(i,
    sender)``, and phase ``len(plan)`` labels every origin with its final
    holder. Phase 0 ships the state's rows as they are (raw rows for a raw
    state); later phases ship merged partials, one per key. Keys are
    counted by a second ``groupBy``, not ``countDistinct``, so that a null
    key counts as one tuple, as the merge ``groupBy`` keeps it.
    """
    n, n_parts = state.n_frags, state.n_parts
    holder = np.tile(np.arange(n)[:, None], (1, n_parts))
    labels: list[tuple[int, int, int, int]] = []
    for i, phase in enumerate(plan):
        moves = [(np.flatnonzero(holder[:, t.part] == t.src), t) for t in phase]
        for origins, t in moves:
            labels += [(int(v), t.part, i, t.src) for v in origins]
            holder[origins, t.part] = t.dst
    labels += [(v, l, len(plan), int(h)) for (v, l), h in np.ndenumerate(holder)]
    df = state.df
    lab = F.broadcast(
        df.sparkSession.createDataFrame(
            labels, schema="l_frag int, l_part int, phase int, holder int"
        )
    )
    on = (df["frag"] == lab["l_frag"]) & (df["part"] == lab["l_part"])
    rows = (
        df.join(lab, on, "left")
        .groupBy("phase", "holder", "part", "key")
        .count()
        .groupBy("phase", "holder", "part")
        .agg(F.sum("count").alias("rows"), F.count("*").alias("keys"))
        .collect()
    )
    counts: dict[tuple[int, int, int], int] = {}
    for r in rows:
        if r["phase"] is None:
            raise ValueError(
                f"{r['rows']} rows of partition {r['part']} have frag outside "
                f"[0, {n}) or part outside [0, {n_parts})"
            )
        shipped = r["rows"] if r["phase"] == 0 else r["keys"]
        counts[(r["phase"], r["holder"], r["part"])] = shipped
    return counts


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
    counts = _count_shipped(state, plan)
    leftovers = sum(
        n
        for (i, frag, part), n in counts.items()
        if i == len(plan) and frag != state.dest[part]
    )
    if leftovers:
        raise RuntimeError(
            f"plan {plan.algorithm!r} incomplete: {leftovers} tuples not at "
            "their destination after the last phase"
        )
    shipped = [
        [counts.get((i, t.src, t.part), 0) for t in phase]
        for i, phase in enumerate(plan)
    ]
    cost = plan_cost(plan, shipped, state.dest, topo, state.tuple_bytes, recv_mbps)
    return ExecutionResult(**vars(cost), final_df=finalize(state), plan=plan)
