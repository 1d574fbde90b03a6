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


def _link_classes(topo: Topology) -> tuple[np.ndarray, np.ndarray]:
    """(N, N) masks of the within-machine and the across-machine links,
    from ``topo.machines``; the diagonal is in neither."""
    m = topo.machines
    same = m[:, None] == m[None, :]
    return same & ~np.eye(len(m), dtype=bool), ~same


def theoretical_matrix(topo: Topology) -> np.ndarray:
    """The (N, N) point-to-point bandwidth matrix from hardware specs:
    an isolated transfer (no link sharing) runs at intra-machine speed
    when co-located, otherwise at NIC speed.

    Diagonal entries are ``inf`` (a no-op "transfer" to oneself costs
    nothing); planners never schedule them (Eq. 8 sets their cost to inf).
    """
    within, across = _link_classes(topo)
    b = np.full(within.shape, np.inf)
    b[within] = topo.intra_bw
    b[across] = topo.nic_bw
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
    within, across = _link_classes(topo)
    on_mach = topo.machines == 0
    if scope == "colocation":
        mask = within & on_mach[:, None] & on_mach[None, :]
    elif scope == "nic":
        mask = across & (on_mach[:, None] | on_mach[None, :])
    elif scope == "switch":
        mask = across
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
    rows = []
    for link_type, sel in zip(("within_machine", "across_machines"), _link_classes(topo)):
        if not sel.any():
            continue
        th = float(np.mean(theo[sel]))
        es = float(np.mean(est[sel]))
        rows.append(
            {
                "link_type": link_type,
                "theoretical_mbps": th,
                "estimated_mbps": es,
                "error_pct": 100.0 * abs(es - th) / th,
            }
        )
    return rows
