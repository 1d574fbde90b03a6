"""The benchmark's workloads.

Each workload builds its seeded inputs once, runs an untimed warm-up that
checks its results and records the reference outcome, and then answers
one request of each of its ``kinds`` per timed round. A request is
timed; its :meth:`check`, outside the timed span, raises
:class:`Mismatch` when the outcome differs from the reference.

Work that only serves a check (the DuckDB oracle, the exact key sets of
the reference simulator) runs in an ``oracle`` span, so that set-up can
leave it out.

- ``a2o_dup``: all-to-one GROUP BY over the dup-keys table (d=4) on
  8 machines x 4 fragments with Repart, Preagg+Repart and GRASP. Few
  phases carrying much data: big single shuffles and one large
  signature job.
- ``plan_n80``: the coordinator alone on a dup-keys all-to-all state on
  8 machines x 10 fragments (N = L = 80), where the planner (Eq. 8 and
  Algorithm 2) does nearly all the work (paper section 5.3.3).

Plans are made through ``grasp.plan_aggregation`` looked up on the module
at call time, so a tracer's wrapper on that attribute sees the call.
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.baselines.repartition import repartition_plan
from repro.core import grasp
from repro.core.simulate import simulate_plan
from repro.engine.state import make_state, preaggregate
from repro.experiments.harness import run_algorithm
from repro.minhash.hashing import HashFamily
from repro.minhash.signatures import compute_signatures
from repro.netsim.bandwidth import benchmark_matrix
from repro.netsim.topology import Topology
from repro.oracle import assert_equivalent
from repro.workloads.synthetic import dup_keys_workload

#: The experiments' hash family (``repro.experiments.tables.FAMILY``).
FAMILY = HashFamily(n=100, seed=7)
NIC_MBPS = 118.0
INTRA_MBPS = 2000.0


class Mismatch(Exception):
    """A request's outcome differs from the checked reference outcome."""


def _outcome(row) -> tuple:
    return (row.network_seconds, row.dest_tuples, row.total_tuples_sent, row.n_phases)


def _fingerprint(plan) -> list:
    return [[(t.src, t.dst, t.part) for t in phase] for phase in plan]


class A2ODup:
    name = "a2o_dup"
    kinds = ("repart", "preagg_repart", "grasp")
    tuples_per_frag = 5_000

    def __init__(self, spark: SparkSession, seed: int) -> None:
        self.spark = spark
        self.seed = seed
        self.topo = Topology(
            n_machines=8, frags_per_machine=4, nic_bw=NIC_MBPS, intra_bw=INTRA_MBPS
        )
        self.wl = None
        self.tables: dict | None = None
        self.ref: dict[str, tuple] = {}
        #: Facts of each kind's checked outcome.
        self.facts: dict[str, dict] = {}
        self.speedup: float | None = None

    def build(self) -> None:
        self.wl = dup_keys_workload(
            self.spark,
            n_frags=self.topo.n_frags,
            tuples_per_frag=self.tuples_per_frag,
            dups=4,
            seed=self.seed,
        )
        self.wl.df.cache().count()

    def _run(self, kind: str, keep_result: bool = False):
        return run_algorithm(
            self.wl,
            kind,
            self.topo,
            mode="all_to_one",
            family=FAMILY,
            bench_seed=self.seed,
            keep_result=keep_result,
        )

    def warm_up(self, kind: str, tracer) -> None:
        row, result = self._run(kind, keep_result=True)
        try:
            with tracer.span("oracle", kind=kind):
                if self.tables is None:
                    self.tables = self.wl.oracle_tables()
                assert_equivalent(result.final_df, self.wl.sql, **self.tables)
        finally:
            result.unpersist()
        self.ref[kind] = _outcome(row)
        self.facts[kind] = {
            "sim_network_s": row.network_seconds,
            "tuples_sent": row.total_tuples_sent,
            "dest_tuples": row.dest_tuples,
            "phases": row.n_phases,
            "transfers": row.n_transfers,
        }
        if "preagg_repart" in self.facts and "grasp" in self.facts:
            self.speedup = (
                self.facts["preagg_repart"]["sim_network_s"]
                / self.facts["grasp"]["sim_network_s"]
            )

    def request(self, kind: str):
        return self._run(kind)[0]

    def check(self, kind: str, out, tracer) -> None:
        if _outcome(out) != self.ref.get(kind):
            raise Mismatch(f"{kind}: {_outcome(out)} != warm-up {self.ref.get(kind)}")


class PlanN80:
    """The ``plan`` request: GRASP's coordinator step, ``plan_aggregation``
    on a fresh copy of the ``Card``/``MinH`` collected in the warm-up."""

    name = "plan_n80"
    kinds = ("plan",)
    tuples_per_frag = 2_000

    def __init__(self, spark: SparkSession, seed: int) -> None:
        self.spark = spark
        self.seed = seed
        self.topo = Topology(
            n_machines=8, frags_per_machine=10, nic_bw=NIC_MBPS, intra_bw=INTRA_MBPS
        )
        self.state = None
        self.plan_ref: list | None = None
        self.facts: dict[str, dict] = {}
        self.speedup: float | None = None

    def build(self) -> None:
        n = self.topo.n_frags
        wl = dup_keys_workload(
            self.spark,
            n_frags=n,
            tuples_per_frag=self.tuples_per_frag,
            dups=4,
            seed=self.seed,
        )
        self.state = preaggregate(
            make_state(
                wl.df,
                wl.spec,
                n_frags=n,
                mode="all_to_all",
                tuple_bytes=wl.tuple_bytes,
                partitioner=wl.partitioner,
            )
        )
        self.state.df.persist().count()

    def warm_up(self, kind: str, tracer) -> None:
        # The planner is numpy on the driver, with no JIT or cache to warm
        # (two consecutive plans differ by 0.3%), so the warm-up is only
        # Spark's part: collecting the coordinator's inputs, plus the
        # exact key sets that validate the first plan.
        st = self.state
        self.coord = compute_signatures(st.df, FAMILY, n_frags=st.n_frags, n_parts=st.n_parts)
        self.bandwidth = benchmark_matrix(self.topo, seed=self.seed)
        with tracer.span("oracle", kind=kind):
            pdf = st.df.select("frag", "part", "key").toPandas()
            self.key_sets = [[set() for _ in range(st.n_parts)] for _ in range(st.n_frags)]
            for (v, l), keys in pdf.groupby(["frag", "part"])["key"]:
                self.key_sets[v][l] = set(keys.tolist())

    def request(self, kind: str):
        st = self.state
        return grasp.plan_aggregation(self.coord.copy(), self.bandwidth, st.dest, w=st.tuple_bytes)

    def check(self, kind: str, plan, tracer) -> None:
        """The first plan must complete the aggregation on the true key
        sets; every later plan must equal it."""
        st = self.state
        if self.plan_ref is None:
            with tracer.span("oracle", kind=kind):
                sim = simulate_plan(self.key_sets, plan, st.dest, self.topo, w=st.tuple_bytes)
                if not sim.completed(st.dest):
                    raise Mismatch("GRASP plan leaves tuples away from their destination")
                base = simulate_plan(
                    self.key_sets,
                    repartition_plan(st.n_frags, st.dest, algorithm="preagg_repart"),
                    st.dest,
                    self.topo,
                    w=st.tuple_bytes,
                )
            self.plan_ref = _fingerprint(plan)
            self.speedup = base.network_seconds / sim.network_seconds
            self.facts["plan"] = {"sim_network_s": sim.network_seconds}
        if _fingerprint(plan) != self.plan_ref:
            raise Mismatch("plan differs from the checked reference plan")
        self.facts["plan"].update(phases=len(plan), transfers=plan.n_transfers)


WORKLOADS = {w.name: w for w in (A2ODup, PlanN80)}
