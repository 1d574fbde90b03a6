"""Ground-truth plan costing with link sharing (Eq. 3–5 and Eq. 9).

Every plan is priced here, by :func:`plan_cost`, from its per-transfer
tuple counts: the Spark executor passes the counts it measured, the
exact simulator its set sizes, and LOOM's fan-in model its union-model
sizes. This module returns the simulated wall time of each phase on the
true topology. Link sharing follows Section 4.1: the available
bandwidth of a cross-machine transfer is

    B(s->t) = min( W_up(mach(s)) / d_o(mach(s)),
                   W_down(mach(t)) / d_i(mach(t)) )

where ``d_o`` / ``d_i`` count concurrent cross-machine transfers in this
phase using that NIC. Intra-machine transfers share the machine's
intra-machine bandwidth the same way. The phase cost is the max over
its transfers (Eq. 4); the plan cost is the sum of the phase costs
(Eq. 3).

With a receiver throughput ``recv_mbps``, each receiver also spends
``received_bytes / recv_mbps`` aggregating its input (Section 5.3.5:
EC2's 10 Gbps network makes the query compute-bound). Which throughput
applies is the engine's concern; this module only prices bytes.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.plan import Phase
from repro.netsim.topology import Topology


def phase_cost(
    phase: Phase, bytes_sent: Sequence[float], topo: Topology, recv_mbps: float | None
) -> float:
    """Simulated wall-clock seconds of one phase on the true topology.

    ``bytes_sent[j]`` is the bytes the ``j``-th transfer of ``phase``
    moved (tuple count × tuple width). Transfers with zero bytes still
    occupy their links (the sender must still signal end-of-stream) but
    contribute zero time.

    With a receiver throughput ``recv_mbps`` (MB/s), each receiver
    additionally spends ``received_bytes / recv_mbps`` aggregating its
    input, serialised after its network receive; the phase ends when the
    slowest node finishes (max over nodes of net + compute time).
    """
    mb = 1e6
    m = topo.machines
    links = [(m[t.src], m[t.dst]) for t in phase]
    # Eq. 9 sharers: concurrent transfers on each machine's intra-machine
    # fabric, uplink and downlink.
    intra = Counter(ms for ms, mt in links if ms == mt)
    up = Counter(ms for ms, mt in links if ms != mt)
    down = Counter(mt for ms, mt in links if ms != mt)
    net: defaultdict[int, float] = defaultdict(float)  # receiver -> slowest receive
    got: defaultdict[int, float] = defaultdict(float)  # receiver -> bytes received
    for t, (ms, mt), b in zip(phase, links, bytes_sent, strict=True):
        if ms == mt:
            bw = topo.intra_bw / intra[ms]
        else:
            bw = topo.nic_bw / max(up[ms], down[mt])
        net[t.dst] = max(net[t.dst], b / (bw * mb))
        got[t.dst] += b
    if recv_mbps is None:
        return max(net.values(), default=0.0)
    return max((net[v] + got[v] / (recv_mbps * mb) for v in net), default=0.0)


@dataclass
class PlanCost:
    """A plan's simulated cost and movement accounting (Eq. 3, Table 2)."""

    network_seconds: float
    phase_seconds: list[float]
    #: tuples received by each partition's final destination, all phases
    dest_tuples: int
    total_tuples_sent: int


def plan_cost(
    plan: Iterable[Phase],
    shipped: list[list[float]],
    dest: np.ndarray,
    topo: Topology,
    w: float,
    recv_mbps: float | None,
) -> PlanCost:
    """Eq. 3: price every phase of ``plan`` with :func:`phase_cost` and
    sum them.

    ``shipped[i][j]`` is the tuple count of the ``j``-th transfer of
    phase ``i`` (fractional in LOOM's union model); each tuple is ``w``
    bytes. ``dest[l]`` is partition ``l``'s final destination.
    """
    phase_secs: list[float] = []
    dest_tuples = total_sent = 0
    for phase, counts in zip(plan, shipped, strict=True):
        phase_secs.append(phase_cost(phase, [n * w for n in counts], topo, recv_mbps))
        for t, n in zip(phase, counts):
            total_sent += n
            if t.dst == dest[t.part]:
                dest_tuples += n
    return PlanCost(float(sum(phase_secs)), phase_secs, dest_tuples, total_sent)
