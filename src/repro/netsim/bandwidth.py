"""Simulated pairwise bandwidth estimation (Section 3.2 of the paper).

The paper's GRASP prototype measures the pairwise bandwidth ``B(s->t)``
with a startup benchmark: ``s`` streams data to ``t`` and the average
throughput is recorded in a matrix ``B`` (row = sender, col = receiver).
We have no physical network, so the "measurement" is simulated as the
topology's theoretical point-to-point bandwidth times a deterministic
multiplicative measurement noise. Section 5.3.1 of the paper reports
estimation errors within 20% of theoretical, so the noise is
uniform in [1 - 0.2, 1].

The robustness experiment (Figure 14 / T5) perturbs the matrix further
with :func:`underestimate`, mimicking co-location (intra-machine links
underestimated), NIC contention (one machine's links), and switch
contention (all cross-machine links).
"""
from __future__ import annotations

import numpy as np

from repro.netsim.topology import Topology

#: Largest relative error of a simulated measurement (Section 5.3.1).
MAX_ERROR = 0.2


def theoretical_matrix(topo: Topology) -> np.ndarray:
    """The (N, N) point-to-point bandwidth matrix from hardware specs.

    Diagonal entries are ``inf`` (a no-op "transfer" to oneself costs
    nothing); planners never schedule them (Eq. 8 sets their cost to inf).
    """
    n = topo.n_frags
    b = np.empty((n, n), dtype=np.float64)
    for s in range(n):
        for t in range(n):
            b[s, t] = np.inf if s == t else topo.link_bandwidth(s, t)
    return b


def benchmark_matrix(topo: Topology, *, seed: int = 0) -> np.ndarray:
    """Simulate the startup pairwise-throughput benchmark.

    Each measured value is the theoretical bandwidth scaled by an
    independent uniform factor in ``[1 - MAX_ERROR, 1]`` — benchmarks
    observe protocol overheads and so sit at or below line rate.
    Deterministic in ``seed``.
    """
    g = np.random.default_rng(seed)
    b = theoretical_matrix(topo)
    n = topo.n_frags
    noise = 1.0 - MAX_ERROR * g.random((n, n))
    off_diag = ~np.eye(n, dtype=bool)
    b[off_diag] = b[off_diag] * noise[off_diag]
    return b


def underestimate(
    b: np.ndarray,
    topo: Topology,
    *,
    level: float,
    scope: str,
) -> np.ndarray:
    """Return a copy of ``b`` with some entries scaled down by ``level``.

    ``scope`` selects which links are underestimated, mirroring the
    scenarios of Figure 14:

    - ``"colocation"``: intra-machine links of machine 0 (local
      fragments contend for memory bandwidth);
    - ``"nic"``: all cross-machine links touching machine 0 (its NIC is
      busy);
    - ``"switch"``: every cross-machine link (core switch contention).
    """
    if not 0 <= level < 1:
        raise ValueError("level must be in [0, 1)")
    n = topo.n_frags
    if b.shape != (n, n):
        raise ValueError(f"matrix shape {b.shape} != ({n}, {n})")
    same = np.array(
        [[s != t and topo.same_machine(s, t) for t in range(n)] for s in range(n)]
    )
    cross = np.array(
        [[s != t and not topo.same_machine(s, t) for t in range(n)] for s in range(n)]
    )
    on_mach = np.array([topo.machine_of(f) == 0 for f in range(n)])
    if scope == "colocation":
        mask = same & on_mach[:, None] & on_mach[None, :]
    elif scope == "nic":
        mask = cross & (on_mach[:, None] | on_mach[None, :])
    elif scope == "switch":
        mask = cross
    else:
        raise ValueError(f"unknown scope {scope!r}")
    out = b.copy()
    out[mask] = out[mask] * (1.0 - level)
    return out


def estimation_report(topo: Topology, *, seed: int = 0):
    """Rows comparing theoretical vs simulated-benchmark bandwidth (the
    20% error band), split into within-machine and across-machine
    links (Figure 13 / T4).

    Returns a list of dicts with keys ``link_type``, ``theoretical_mbps``,
    ``estimated_mbps`` (mean over links of that type), ``error_pct``.
    """
    theo = theoretical_matrix(topo)
    est = benchmark_matrix(topo, seed=seed)
    n = topo.n_frags
    rows = []
    for link_type in ("within_machine", "across_machines"):
        sel = [
            (s, t)
            for s in range(n)
            for t in range(n)
            if s != t and topo.same_machine(s, t) == (link_type == "within_machine")
        ]
        if not sel:
            continue
        th = float(np.mean([theo[s, t] for s, t in sel]))
        es = float(np.mean([est[s, t] for s, t in sel]))
        rows.append(
            {
                "link_type": link_type,
                "theoretical_mbps": th,
                "estimated_mbps": es,
                "error_pct": 100.0 * abs(es - th) / th,
            }
        )
    return rows
