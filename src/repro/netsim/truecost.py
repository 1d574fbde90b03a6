"""Ground-truth phase costing with link sharing (Eq. 3–5 and Eq. 9).

The executor feeds this module the *actual* per-transfer byte counts it
measured in Spark; this module returns the simulated wall time of each
phase on the true topology. Link sharing follows Section 4.1: the
available bandwidth of a cross-machine transfer is

    B(s->t) = min( W_up(mach(s)) / d_o(mach(s)),
                   W_down(mach(t)) / d_i(mach(t)) )

where ``d_o`` / ``d_i`` count concurrent cross-machine transfers in this
phase using that NIC. Intra-machine transfers share the machine's
intra-machine bandwidth the same way. The phase cost is the max over
its transfers (Eq. 4); the executor sums the phase costs into the plan
cost (Eq. 3).

The optional :class:`ComputeModel` adds per-receiver aggregation time
(Section 5.3.5: EC2's 10 Gbps network makes the query compute-bound;
the paper measures 309 MB/s aggregation throughput on raw data and
811 MB/s on pre-aggregated data).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.plan import Phase, Transfer
from repro.netsim.topology import Topology


@dataclass(frozen=True)
class ComputeModel:
    """Receiver-side aggregation throughput model (MB/s)."""

    raw_mbps: float = 309.0
    preagg_mbps: float = 811.0

    def throughput(self, preaggregated: bool) -> float:
        return self.preagg_mbps if preaggregated else self.raw_mbps


def phase_cost(
    phase: Phase,
    bytes_sent: dict[Transfer, float],
    topo: Topology,
    *,
    compute: ComputeModel | None = None,
    preaggregated: bool = True,
) -> float:
    """Simulated wall-clock seconds of one phase on the true topology.

    ``bytes_sent`` maps each transfer in the phase to the bytes it moved
    (actual Spark-measured tuple count × tuple width). Transfers with
    zero bytes still occupy their links (the sender must still signal
    end-of-stream) but contribute zero time.

    With a :class:`ComputeModel`, each receiver additionally spends
    ``received_bytes / throughput`` aggregating its input, serialised
    after its network receive; the phase ends when the slowest node
    finishes (max over nodes of net + compute time).
    """
    mb = 1e6
    # Concurrent-transfer counts per NIC (cross-machine) and per machine's
    # intra-machine fabric, for the Eq. 9 bandwidth split.
    d_out: Counter[int] = Counter()
    d_in: Counter[int] = Counter()
    d_intra: Counter[int] = Counter()
    for t in phase:
        ms, mt = topo.machine_of(t.src), topo.machine_of(t.dst)
        if ms == mt:
            d_intra[ms] += 1
        else:
            d_out[ms] += 1
            d_in[mt] += 1

    net_time: dict[Transfer, float] = {}
    recv_net: Counter[int] = Counter()  # frag -> max net seconds of its receives
    recv_bytes: Counter[int] = Counter()
    for t in phase:
        ms, mt = topo.machine_of(t.src), topo.machine_of(t.dst)
        if ms == mt:
            bw = topo.intra_bw / d_intra[ms]
        else:
            bw = min(topo.nic_bw / d_out[ms], topo.nic_bw / d_in[mt])
        sec = bytes_sent.get(t, 0.0) / (bw * mb)
        net_time[t] = sec
        recv_net[t.dst] = max(recv_net[t.dst], sec)
        recv_bytes[t.dst] += bytes_sent.get(t, 0.0)

    if compute is None:
        return max(net_time.values(), default=0.0)
    thr = compute.throughput(preaggregated) * mb
    per_node = [recv_net[v] + recv_bytes[v] / thr for v in recv_net]
    return max(per_node, default=0.0)
