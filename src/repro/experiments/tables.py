"""Experiment definitions T1–T9 — one per evaluated table/figure.

Each ``tN_*`` function runs the full sweep for one paper result at a
laptop-friendly scale and returns a list of row dicts. Run a table with
``pytest benchmarks/bench_tN_*.py -s``, which prints the rows with
``harness.format_rows`` and checks their shape. The mapping to paper
figures/tables and the expected shapes live in DESIGN.md §5 and
EXPERIMENTS.md.

All speedups are over Preagg+Repart, matching the paper's axes; where a
figure normalises to a specific sweep point (J=0, l=1), so do we.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.experiments.harness import ALGORITHMS, add_speedups, run_algorithm
from repro.minhash.hashing import HashFamily
from repro.netsim.bandwidth import (
    benchmark_matrix,
    estimation_report,
    theoretical_matrix,
    underestimate,
)
from repro.netsim.topology import Topology
from repro.netsim.truecost import ComputeModel
from repro.workloads.modis import modis_workload
from repro.workloads.reviews import amazon_workload, yelp_workload
from repro.workloads.synthetic import (
    dup_keys_workload,
    imbalance_level,
    imbalance_workload,
    overlap_for_jaccard,
    similarity_workload,
)
from repro.workloads.tpch import q18_workload

#: Hash family shared by all experiments — n=100 like the paper.
FAMILY = HashFamily(n=100, seed=7)


def _compare(wl, topo, algos, tag, *, base=(), **run) -> list[dict]:
    """Run ``algos`` on ``wl`` and return their rows with ``tag``'s
    columns and the speedup over the first Preagg+Repart row of
    ``base``, or of these rows when ``base`` is empty. ``run`` is passed
    on to ``run_algorithm``."""
    rows = [
        {**run_algorithm(wl, algo, topo, family=FAMILY, **run)[0].as_dict(), **tag}
        for algo in algos
    ]
    ref = next(r for r in (base or rows) if r["algorithm"] == "preagg_repart")
    return add_speedups(rows, baseline_seconds=ref["network_seconds"])


def t1_similarity(
    spark: SparkSession,
    *,
    n_frags: int = 8,
    tuples_per_frag: int = 20_000,
    jaccards: tuple[float, ...] = (0.0, 1 / 7, 1 / 3, 0.6, 1.0),
) -> list[dict]:
    """T1 / Figure 10: all-to-one speedup vs cross-fragment Jaccard
    similarity, uniform 118 MB/s network, one tuple per key."""
    topo = Topology(n_machines=n_frags, frags_per_machine=1, nic_bw=118.0)
    rows: list[dict] = []
    for j in jaccards:
        wl = similarity_workload(
            spark,
            n_frags=n_frags,
            tuples_per_frag=tuples_per_frag,
            overlap=overlap_for_jaccard(j),
        )
        # Baseline: Preagg+Repart at J=0.
        rows += _compare(wl, topo, ALGORITHMS, {"jaccard": j}, base=rows)
    return rows


def t2_dup_keys(
    spark: SparkSession,
    *,
    n_frags: int = 8,
    tuples_per_frag: int = 40_000,
    dup_levels: tuple[int, ...] = (1, 2, 4, 8),
) -> list[dict]:
    """T2 / Figure 11: all-to-one speedup vs tuples per GROUP BY key."""
    topo = Topology(n_machines=n_frags, frags_per_machine=1, nic_bw=118.0)
    rows: list[dict] = []
    for d in dup_levels:
        wl = dup_keys_workload(
            spark, n_frags=n_frags, tuples_per_frag=tuples_per_frag, dups=d
        )
        # Per-level baseline (Figure 11 axis).
        rows += _compare(wl, topo, ALGORITHMS, {"dups": d})
    return rows


def t3_imbalance(
    spark: SparkSession,
    *,
    n_frags: int = 8,
    total_tuples: int = 160_000,
    frac0_levels: tuple[float, ...] = (1 / 8, 1 / 4, 3 / 8, 1 / 2),
) -> list[dict]:
    """T3 / Figure 12: all-to-all speedup vs imbalance level l (no LOOM —
    it cannot run all-to-all). Baseline: Preagg+Repart at l = 1."""
    topo = Topology(n_machines=n_frags, frags_per_machine=1, nic_bw=118.0)
    rows: list[dict] = []
    for f0 in frac0_levels:
        wl = imbalance_workload(
            spark, n_frags=n_frags, total_tuples=total_tuples, frac0=f0
        )
        lvl = imbalance_level(n_frags, f0)
        # Baseline: Preagg+Repart at l = 1.
        rows += _compare(
            wl, topo, ("repart", "preagg_repart", "grasp"),
            {"imbalance_level": lvl}, base=rows, mode="all_to_all",
        )
    return rows


def t4_bandwidth_estimation(
    *, n_machines: int = 8, frags_per_machine: int = 14
) -> list[dict]:
    """T4 / Figure 13: simulated-benchmark vs theoretical bandwidth for
    within-machine and across-machine links (driver-side only)."""
    topo = Topology(
        n_machines=n_machines,
        frags_per_machine=frags_per_machine,
        nic_bw=118.0,
        intra_bw=2000.0,
    )
    return estimation_report(topo, seed=11)


def t5_estimation_robustness(
    spark: SparkSession,
    *,
    n_machines: int = 8,
    frags_per_machine: int = 4,
    n_files: int = 64,
    tuples_per_file: int = 3_000,
) -> list[dict]:
    """T5 / Figure 14: GRASP response-time change when planning with an
    underestimated bandwidth matrix on the MODIS-like dataset.

    'topology' plans with the exact hardware matrix; 'grasp_estimation'
    with the simulated startup benchmark; the rest underestimate 20% or
    50% under the three contention scenarios of the figure."""
    topo = Topology(
        n_machines=n_machines,
        frags_per_machine=frags_per_machine,
        nic_bw=118.0,
        intra_bw=2000.0,
    )
    wl = modis_workload(
        spark,
        n_frags=topo.n_frags,
        n_files=n_files,
        tuples_per_file=tuples_per_file,
    )
    theo = theoretical_matrix(topo)
    est = benchmark_matrix(topo, seed=11)
    settings: list[tuple[str, float, np.ndarray]] = [
        ("topology", 0.0, theo),
        ("grasp_estimation", 0.0, est),
    ]
    for level in (0.2, 0.5):
        for scope in ("colocation", "nic", "switch"):
            settings.append(
                (scope, level, underestimate(theo, topo, level=level, scope=scope))
            )
    rows: list[dict] = []
    base = None
    for name, level, b in settings:
        r, _ = run_algorithm(
            wl, "grasp", topo, mode="all_to_one", b_est=b, family=FAMILY
        )
        if name == "topology":
            base = r.network_seconds
        rows.append({**r.as_dict(), "setting": name, "underestimation": level})
    for r in rows:
        r["pct_change_vs_topology"] = 100.0 * (r["network_seconds"] - base) / base
    return rows


def t6_nonuniform(
    spark: SparkSession,
    *,
    n_machines: int = 4,
    frags_per_machine: int = 4,
    tuples_per_frag: int = 12_000,
) -> list[dict]:
    """T6 / Figure 15: nonuniform bandwidth (co-located fragments talk at
    intra-machine speed). Workload per the paper: every fragment holds
    the same dense key range (J = 1 across all pairs)."""
    topo = Topology(
        n_machines=n_machines,
        frags_per_machine=frags_per_machine,
        nic_bw=118.0,
        intra_bw=2000.0,
    )
    wl = similarity_workload(
        spark, n_frags=topo.n_frags, tuples_per_frag=tuples_per_frag, overlap=1.0
    )
    rows: list[dict] = []
    for mode, algos in (
        ("all_to_one", ALGORITHMS),
        ("all_to_all", ("repart", "preagg_repart", "grasp")),
    ):
        rows += _compare(wl, topo, algos, {}, mode=mode)
    return rows


def t7_scaleout(
    spark: SparkSession,
    *,
    frags_per_machine: int = 4,
    machine_counts: tuple[int, ...] = (2, 4, 8, 14),
    tuples_per_frag: int = 5_000,
) -> list[dict]:
    """T7 / Figure 16: speedup when scaling out the number of fragments.
    Identical key ranges per fragment, nonuniform network, planner
    wall-time reported per row (the paper's §5.3.3 planning-cost
    caveat)."""
    rows: list[dict] = []
    for m in machine_counts:
        topo = Topology(
            n_machines=m,
            frags_per_machine=frags_per_machine,
            nic_bw=118.0,
            intra_bw=2000.0,
        )
        wl = similarity_workload(
            spark, n_frags=topo.n_frags, tuples_per_frag=tuples_per_frag, overlap=1.0
        )
        for mode, algos in (
            ("all_to_one", ("preagg_repart", "loom", "grasp")),
            ("all_to_all", ("preagg_repart", "grasp")),
        ):
            rows += _compare(wl, topo, algos, {"n_frags": topo.n_frags}, mode=mode)
    return rows


def t8_real_datasets(
    spark: SparkSession,
    *,
    n_machines: int = 8,
    frags_per_machine: int = 4,
    tpch_sf: float = 0.05,
) -> list[dict]:
    """T8 / Figure 17 + Table 2: TPC-H and the three real-data stand-ins,
    all-to-one to fragment 0 on the nonuniform shared cluster.
    ``dest_tuples`` is Table 2's "tuples received by the final
    destination fragment"."""
    topo = Topology(
        n_machines=n_machines,
        frags_per_machine=frags_per_machine,
        nic_bw=118.0,
        intra_bw=2000.0,
    )
    n = topo.n_frags
    workloads = [
        q18_workload(spark, sf=tpch_sf, n_frags=n),
        modis_workload(spark, n_frags=n),
        amazon_workload(spark, n_frags=n),
        yelp_workload(spark, n_frags=n),
    ]
    rows: list[dict] = []
    for wl in workloads:
        rows += _compare(wl, topo, ALGORITHMS, {})
    return rows


def t9_ec2(
    spark: SparkSession,
    *,
    n_machines: int = 8,
    frags_per_machine: int = 3,
    n_files: int = 72,
    tuples_per_file: int = 3_000,
) -> list[dict]:
    """T9 / Figure 20: the EC2 10 Gbps setting — network fast enough that
    aggregation becomes compute-bound; receiver compute is modeled with
    the paper's measured 309 MB/s (raw) / 811 MB/s (pre-aggregated)
    throughputs."""
    topo = Topology(
        n_machines=n_machines,
        frags_per_machine=frags_per_machine,
        nic_bw=1250.0,
        intra_bw=2500.0,
    )
    compute = ComputeModel(raw_mbps=309.0, preagg_mbps=811.0)
    wl = modis_workload(
        spark,
        n_frags=topo.n_frags,
        n_files=n_files,
        tuples_per_file=tuples_per_file,
    )
    return _compare(wl, topo, ALGORITHMS, {}, compute=compute)
