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
from repro.minhash.signatures import compute_signatures
from repro.netsim.bandwidth import benchmark_matrix
from repro.netsim.topology import Topology
from repro.netsim.truecost import ComputeModel
from repro.workloads.base import Workload

ALGORITHMS = ("repart", "preagg_repart", "loom", "grasp")


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
    #: GRASP the Spark signature job plus scheduling, for LOOM its
    #: cardinality jobs plus ``loom_plan``, 0 for the repartition
    #: baselines. ``schedule_seconds`` is GRASP's coordinator scheduling
    #: alone (Eq. 8 cost matrices + Algorithm 2): the signature job's
    #: first-run warm-up would otherwise mask the Section 5.3.3
    #: growth-with-N trend.
    schedule_seconds: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def run_algorithm(
    workload: Workload,
    algorithm: str,
    topo: Topology,
    *,
    mode: str = "all_to_one",
    dest_frag: int = 0,
    b_est: np.ndarray | None = None,
    family: HashFamily | None = None,
    compute: ComputeModel | None = None,
    bench_seed: int = 0,
    keep_result: bool = False,
) -> tuple[ResultRow, ExecutionResult | None]:
    """Plan and execute ``algorithm`` on ``workload`` over ``topo``.

    ``b_est`` overrides GRASP's estimated bandwidth matrix (robustness
    experiments); by default it is the simulated startup benchmark.
    ``keep_result`` returns the full :class:`ExecutionResult` (tests use
    it for the oracle check); otherwise the final DataFrame is dropped.
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
        partitioner=workload.partitioner,
    )
    fanin = 0
    planning_seconds = schedule_seconds = 0.0
    if algorithm in ("repart", "preagg_repart"):
        st = state0 if algorithm == "repart" else preaggregate(state0)
        plan = repartition_plan(st.n_frags, st.dest, algorithm=algorithm)
        result = execute_plan(st, plan, topo, compute=compute)
    else:
        st = preaggregate(state0)
        st.df.persist()
        try:
            if algorithm == "loom":
                t0 = time.perf_counter()
                # LOOM is configured with accurate cardinalities (Section 5.1.1).
                per_frag = {
                    int(r["frag"]): int(r["count"])
                    for r in st.df.groupBy("frag").count().collect()
                }
                leaf_cards = np.array(
                    [per_frag.get(v, 0) for v in range(st.n_frags)], dtype=np.float64
                )
                domain = st.df.select("key").distinct().count()
                plan = loom_plan(
                    leaf_cards, float(domain), dest_frag, topo, w=workload.tuple_bytes
                )
                fanin = loom_fanin(plan)
            else:  # grasp
                b = b_est if b_est is not None else benchmark_matrix(topo, seed=bench_seed)
                t0 = time.perf_counter()
                coord = compute_signatures(
                    st.df, family or HashFamily(n=100, seed=7),
                    n_frags=st.n_frags, n_parts=st.n_parts,
                )
                t1 = time.perf_counter()
                plan = plan_aggregation(coord, b, st.dest, w=workload.tuple_bytes)
                schedule_seconds = time.perf_counter() - t1
            planning_seconds = time.perf_counter() - t0
            result = execute_plan(st, plan, topo, compute=compute)
        finally:
            st.df.unpersist()
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
