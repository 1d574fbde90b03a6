"""Exact driver-side plan simulation over explicit key sets.

This is the reference semantics of Section 2: partitions are Python
sets, a transfer moves the sender's whole (partition) set into the
receiver's, and the set sizes are priced by ``truecost.plan_cost``,
as the Spark executor's counts are. Tests use it to (a) property-check
planner output on random instances and (b) cross-validate the Spark
executor's per-phase counts — the two paths must agree tuple-for-tuple
on pre-aggregated input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.plan import Plan
from repro.netsim.topology import Topology
from repro.netsim.truecost import ComputeModel, plan_cost


@dataclass
class SimResult:
    """Exact costs and movement accounting for one simulated plan."""

    network_seconds: float
    phase_seconds: list[float]
    dest_tuples: int
    total_tuples_sent: int
    #: final key sets, indexed ``[frag][part]``
    final_sets: list[list[set]]

    def completed(self, dest: np.ndarray) -> bool:
        """Eq. 7: every partition's keys live only at its destination."""
        for v, parts in enumerate(self.final_sets):
            for l, keys in enumerate(parts):
                if keys and v != dest[l]:
                    return False
        return True


def simulate_plan(
    key_sets: list[list[set]],
    plan: Plan,
    dest: np.ndarray,
    topo: Topology,
    *,
    w: float = 16.0,
    compute: ComputeModel | None = None,
    preaggregated: bool = True,
) -> SimResult:
    """Execute ``plan`` exactly over ``key_sets[frag][part]``.

    Each phase applies all its transfers against the phase-start state
    (concurrent semantics — a node that both sends partition l1 and
    receives partition l2 in the same phase ships its *pre-phase* l1
    set). Raises if a transfer's sender/receiver collide with the plan
    structure in a way ``Plan.validate`` should have caught.
    """
    state = [[set(p) for p in parts] for parts in key_sets]
    shipped: list[list[int]] = []
    for phase in plan:
        outgoing = [(t, state[t.src][t.part]) for t in phase]
        shipped.append([len(data) for _, data in outgoing])
        for t, data in outgoing:
            state[t.src][t.part] = set()
        for t, data in outgoing:
            state[t.dst][t.part] |= data
    cost = plan_cost(plan, shipped, np.asarray(dest), topo, w, compute, preaggregated)
    return SimResult(**cost._asdict(), final_sets=state)
