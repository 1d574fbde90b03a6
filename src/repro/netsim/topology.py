"""Star-topology cluster model (Section 2 of the paper).

The paper models a fat-tree data-center network as a star: every
compute node has one uplink and one downlink to a single router node
``v_R``. We extend this with the paper's experimental reality
(Section 5.3): multiple *plan fragments* run per physical machine, so
fragment-to-fragment bandwidth is nonuniform — fragments on the same
machine communicate at intra-machine (memory/loopback) speed while
fragments on different machines share their machine's NIC.

All bandwidths are MB/s; sizes are bytes; times are seconds.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Topology:
    """A cluster of ``n_machines`` machines running ``frags_per_machine``
    plan fragments each.

    ``nic_bw`` is each machine's NIC bandwidth (both uplink and downlink,
    full duplex — e.g. 118 MB/s for the paper's 1 Gbps cluster).
    ``intra_bw`` is the fragment-to-fragment bandwidth inside one machine.
    A uniform network (Section 5.2) is ``frags_per_machine=1`` or
    ``intra_bw == nic_bw``.
    """

    n_machines: int
    frags_per_machine: int = 1
    nic_bw: float = 118.0
    intra_bw: float = 118.0

    def __post_init__(self) -> None:
        if self.n_machines < 1 or self.frags_per_machine < 1:
            raise ValueError("need at least one machine and one fragment")
        if not (0 < self.nic_bw < np.inf and 0 < self.intra_bw < np.inf):
            raise ValueError("bandwidths must be finite and positive")

    @property
    def n_frags(self) -> int:
        """Total number of plan fragments (graph nodes ``V_C``)."""
        return self.n_machines * self.frags_per_machine

    @property
    def machines(self) -> np.ndarray:
        """Machine of every fragment, indexed by fragment: fragments are
        numbered machine by machine. Every same-machine/cross-machine link
        class is derived from this vector."""
        return np.arange(self.n_frags) // self.frags_per_machine
