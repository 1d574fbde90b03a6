"""LOOM baseline: fixed fan-in aggregation trees (Culhane et al.).

LOOM builds an all-to-one aggregation overlay whose fan-in is a
function of the overall reduction rate ``|R_root| / |R_leaf|``; it is
given *accurate* cardinalities (the paper configures LOOM with the true
result size so it achieves its best performance) but is oblivious to
which partitions are similar — it models every fragment as a uniform
random subset of the final key domain.

Our implementation sweeps every fan-in ``f`` in ``[2, N-1]``, models the
completion time of the complete f-ary tree under the uniform-reduction
model and the theoretical topology bandwidths, and keeps the best f —
this is the "fan-in as a function of the reduction rate" behaviour
without porting LOOM's closed-form. Fragments are laid out in machine
order so child groups tend to be co-located (LOOM is network-aware),
with the aggregation destination as the root.

Execution proceeds level by level, deepest level first: each phase, all
nodes of one depth send to their parents. A parent receives from up to
``f`` children concurrently, so LOOM phases are ``shared_links`` phases
(the fan-in bottleneck the paper observes in Figure 18b).
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.plan import Phase, Plan, Transfer
from repro.netsim.topology import Topology
from repro.netsim.truecost import plan_cost


def union_model(sizes: np.ndarray, domain: float) -> float:
    """Expected union cardinality of independent uniform random subsets
    of a ``domain``-key universe: ``D * (1 - prod(1 - |s_i|/D))``."""
    if domain <= 0:
        return 0.0
    frac = np.clip(np.asarray(sizes, dtype=np.float64) / domain, 0.0, 1.0)
    return float(domain * (1.0 - np.prod(1.0 - frac)))


def _machine_order(topo: Topology, root: int) -> list[int]:
    """Fragments sorted by machine with the tree root first."""
    rest = [v for v in range(topo.n_frags) if v != root]
    rest.sort(key=lambda v: (topo.machine_of(v), v))
    return [root] + rest


def _tree_phases(order: list[int], f: int) -> list[Phase]:
    """The complete f-ary tree over ``order`` (root first, BFS layout: the
    parent of ``order[i]`` is ``order[(i - 1) // f]``), one phase per
    depth, deepest first: every node of a depth sends to its parent."""
    phases = []
    lo, width = 1, f
    while lo < len(order):
        hi = min(lo + width, len(order))
        transfers = [Transfer(order[i], order[(i - 1) // f], 0) for i in range(lo, hi)]
        phases.append(Phase(transfers=transfers, shared_links=True))
        lo, width = hi, width * f
    return phases[::-1]


def modeled_tree_cost(
    leaf_cards: np.ndarray,
    domain: float,
    f: int,
    topo: Topology,
    order: list[int],
    w: float,
) -> float:
    """Modeled completion seconds of the complete f-ary tree with fan-in
    ``f``: per level, every parent's receive time under Eq. 9 sharing,
    with node sizes evolved by the uniform-reduction union model."""
    phases = _tree_phases(order, f)
    size = {v: float(leaf_cards[v]) for v in order}
    shipped = []
    for phase in phases:
        shipped.append([size[t.src] for t in phase])
        for parent in {t.dst for t in phase}:
            children = [size[t.src] for t in phase if t.dst == parent]
            size[parent] = union_model(np.array([size[parent]] + children), domain)
        for t in phase:
            size[t.src] = 0.0
    root = np.array(order[:1])
    return plan_cost(phases, shipped, root, topo, w, None, True).network_seconds


def loom_plan(
    leaf_cards: np.ndarray,
    domain: float,
    dest: int,
    topo: Topology,
    *,
    w: float,
) -> Plan:
    """Build the LOOM aggregation plan for an all-to-one aggregation of
    partition 0.

    ``leaf_cards[v]`` is the accurate distinct-key count on fragment
    ``v``; ``domain`` is the accurate final result cardinality
    ``|R_root|``.
    """
    n = topo.n_frags
    if leaf_cards.shape != (n,):
        raise ValueError(f"leaf_cards shape {leaf_cards.shape} != ({n},)")
    order = _machine_order(topo, dest)
    best_f, best_cost = 2, math.inf
    for f in range(2, n):
        cost = modeled_tree_cost(leaf_cards, domain, f, topo, order, w)
        if cost < best_cost - 1e-12:
            best_f, best_cost = f, cost
    plan = Plan(phases=_tree_phases(order, best_f), algorithm="loom")
    plan.validate()
    return plan


def loom_fanin(plan: Plan) -> int:
    """The fan-in actually used by a LOOM plan (max children per parent)."""
    best = 0
    for phase in plan:
        counts: dict[int, int] = {}
        for t in phase:
            counts[t.dst] = counts.get(t.dst, 0) + 1
        best = max(best, max(counts.values(), default=0))
    return best
