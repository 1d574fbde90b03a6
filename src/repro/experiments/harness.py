"""Run one (workload, topology, algorithm) combination end to end.

The harness is the glue between workloads, planners and the executor:
it builds the initial distributed state, runs the algorithm-specific
planning path (pre-aggregation, minhash signatures, LOOM cardinality
inputs), executes the plan in Spark, and returns a flat result row for
the experiment tables.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.loom import loom_fanin, loom_plan
from repro.baselines.repartition import repartition_plan
from repro.core.grasp import plan_aggregation
from repro.engine.executor import ExecutionResult, execute_plan
from repro.engine.state import make_state, preaggregate
from repro.minhash.hashing import HashFamily
from repro.minhash.signatures import derive_signatures
from repro.netsim.bandwidth import benchmark_matrix
from repro.netsim.topology import Topology
from repro.workloads.base import Workload

ALGORITHMS = ("repart", "preagg_repart", "loom", "grasp")
#: Hash family shared by all experiments — n=100 like the paper.
FAMILY = HashFamily(n=100, seed=7)
#: Receiver aggregation throughput (MB/s) of raw and of pre-aggregated
#: input, measured on the paper's EC2 cluster (Section 5.3.5).
RAW_MBPS, PREAGG_MBPS = 309.0, 811.0


@dataclass
class ResultRow:
    """One experiment measurement (one bar/point of a paper figure)."""

    workload: str
    algorithm: str
    mode: str
    network_seconds: float
    planning_seconds: float
    dest_tuples: int
    total_tuples_sent: int
    n_phases: int
    n_transfers: int
    loom_fanin: int = 0
    #: Wall times, both measured by :func:`run_algorithm` (plans carry
    #: none). ``planning_seconds`` is the coordinator's whole step: for
    #: GRASP the pre-aggregated state's one Spark count, its per-key job
    #: (``DistState.keys``), the signatures derived from it and
    #: scheduling, for LOOM that per-key job plus ``loom_plan``, 0 for
    #: the repartition baselines (their count runs in execution).
    #: ``schedule_seconds`` is GRASP's coordinator scheduling alone
    #: (Eq. 8 cost matrices + Algorithm 2): the count job's first-run
    #: warm-up would otherwise mask the Section 5.3.3 growth-with-N trend.
    schedule_seconds: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def run_algorithm(
    workload: Workload,
    algorithm: str,
    topo: Topology,
    *,
    mode: str = "all_to_one",
    dest_frag: int | None = None,
    b_est: np.ndarray | None = None,
    family: HashFamily = FAMILY,
    compute_bound: bool = False,
    bench_seed: int = 0,
    keep_result: bool = False,
) -> tuple[ResultRow, ExecutionResult | None]:
    """Plan and execute ``algorithm`` on ``workload`` over ``topo``.

    ``b_est`` overrides GRASP's estimated bandwidth matrix (robustness
    experiments); by default it is the simulated startup benchmark.
    ``compute_bound`` adds receiver aggregation time to the cost at
    :data:`RAW_MBPS` for Repart, which alone ships raw tuples, and at
    :data:`PREAGG_MBPS` for the others.
    ``keep_result`` returns the full :class:`ExecutionResult` (tests use
    it for the oracle check); otherwise the result is dropped unbuilt.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "loom" and mode != "all_to_one":
        raise ValueError("LOOM only supports all-to-one aggregation")
    if topo.n_frags != workload.n_frags:
        raise ValueError("topology and workload disagree on fragment count")
    state0 = make_state(
        workload.df,
        workload.spec,
        n_frags=workload.n_frags,
        mode=mode,
        dest_frag=dest_frag,
        tuple_bytes=workload.tuple_bytes,
        partitioner=workload.partitioner if mode == "all_to_all" else None,
    )
    raw = algorithm == "repart"
    st = state0 if raw else preaggregate(state0)
    recv_mbps = (RAW_MBPS if raw else PREAGG_MBPS) if compute_bound else None
    fanin = 0
    planning_seconds = schedule_seconds = 0.0
    if algorithm in ("repart", "preagg_repart"):
        plan = repartition_plan(st.n_frags, st.dest, algorithm=algorithm)
    elif algorithm == "loom":
        t0 = time.perf_counter()
        # LOOM is configured with accurate cardinalities (Section 5.1.1):
        # each fragment's keys and the result's, both from the state's
        # one per-key count over the one partition.
        cards, domain = st.rows[:, 0].astype(np.float64), float(len(st.keys.part))
        plan = loom_plan(cards, domain, int(st.dest[0]), topo, w=workload.tuple_bytes)
        fanin = loom_fanin(plan)
        planning_seconds = time.perf_counter() - t0
    else:  # grasp
        b = b_est if b_est is not None else benchmark_matrix(topo, seed=bench_seed)
        t0 = time.perf_counter()
        coord = derive_signatures(st.origins, family)
        t1 = time.perf_counter()
        plan = plan_aggregation(coord, b, st.dest, w=workload.tuple_bytes)
        schedule_seconds = time.perf_counter() - t1
        planning_seconds = time.perf_counter() - t0
    # The planners' count of the state is cached on it: execution reuses
    # it. The result is built only if a caller reads ``final_df``.
    result = execute_plan(st, plan, topo, recv_mbps=recv_mbps)
    row = ResultRow(
        workload=workload.name,
        algorithm=algorithm,
        mode=mode,
        network_seconds=result.network_seconds,
        planning_seconds=planning_seconds,
        dest_tuples=result.dest_tuples,
        total_tuples_sent=result.total_tuples_sent,
        n_phases=len(plan),
        n_transfers=plan.n_transfers,
        loom_fanin=fanin,
        schedule_seconds=schedule_seconds,
    )
    return row, result if keep_result else None


def add_speedups(rows: list[dict], *, baseline_seconds: float) -> list[dict]:
    """Attach ``speedup = baseline / network_seconds`` to each row dict."""
    for r in rows:
        r["speedup"] = (
            baseline_seconds / r["network_seconds"]
            if r["network_seconds"] > 0
            else float("inf")
        )
    return rows


def format_rows(rows: list[dict], columns: list[str] | None = None) -> str:
    """Render result rows as an aligned text table (``benchmarks/`` prints
    these; EXPERIMENTS.md records them)."""
    if not rows:
        return "(no rows)"
    cols = columns or list(rows[0].keys())

    def fmt(v) -> str:
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    table = [[fmt(r.get(c, "")) for c in cols] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(cols)]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(cols, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
    return "\n".join(lines)
