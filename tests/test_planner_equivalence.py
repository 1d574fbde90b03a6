"""Plan-equality gate: the production planner must make exactly the plan
of the reference planner in ``tests/reference_planner.py`` — the same
transfers in the same order, ties included — and leave ``Card`` and
``MinH`` bit-equal to the reference's. The gate covers random instances
and, end to end through the harness, every workload family and mode
that the T1–T9 tables run."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import grasp
from repro.engine.state import make_state, preaggregate
from repro.experiments.harness import run_algorithm
from repro.experiments.tables import FAMILY
from repro.minhash.estimate import CoordinatorState
from repro.minhash.hashing import HashFamily
from repro.netsim.bandwidth import benchmark_matrix
from repro.netsim.topology import Topology
from repro.workloads.modis import modis_workload
from repro.workloads.reviews import amazon_workload, yelp_workload
from repro.workloads.synthetic import (
    dup_keys_workload,
    imbalance_workload,
    overlap_for_jaccard,
    similarity_workload,
)
from repro.workloads.tpch import q18_workload
from tests import reference_planner as ref


def fingerprint(plan) -> list:
    return [[(t.src, t.dst, t.part) for t in phase] for phase in plan]


def assert_same_plan(card, minh, bandwidth, dest, w):
    state = CoordinatorState(card, minh)
    plan = grasp.plan_aggregation(state, bandwidth, dest, w=w)
    ref_plan, ref_card, ref_minh = ref.plan_aggregation(card, minh, bandwidth, dest, w=w)
    assert fingerprint(plan) == fingerprint(ref_plan)
    assert state.card.tobytes() == ref_card.tobytes()
    assert state.minh.tobytes() == ref_minh.tobytes()
    return plan


@st.composite
def tie_heavy_instance(draw):
    """Few keys, short signatures and flat bandwidth, so that many
    entries of C share a cost."""
    n = draw(st.integers(min_value=2, max_value=11))
    m = draw(st.integers(min_value=1, max_value=5))
    universe = draw(st.integers(min_value=1, max_value=8))
    keys = st.lists(st.integers(min_value=0, max_value=universe - 1), max_size=universe)
    sets = [[np.array(draw(keys), dtype=np.int64) for _ in range(m)] for _ in range(n)]
    fam = HashFamily(n=draw(st.sampled_from([4, 16, 100])), seed=draw(st.integers(0, 3)))
    state = CoordinatorState.from_key_sets(sets, fam)
    if draw(st.booleans()):
        bandwidth = np.ones((n, n))
    else:
        bandwidth = np.array(
            draw(st.lists(st.sampled_from([1.0, 2.0]), min_size=n * n, max_size=n * n))
        ).reshape(n, n)
    if draw(st.booleans()):  # all-to-one
        dest = np.full(m, draw(st.integers(0, n - 1)), dtype=np.int64)
    else:  # all-to-all
        dest = np.array([draw(st.integers(0, n - 1)) for _ in range(m)], dtype=np.int64)
    w = draw(st.sampled_from([16.0, 1e6]))
    return state.card, state.minh, bandwidth, dest, w


class TestPlanEquality:
    @given(inst=tie_heavy_instance())
    @settings(max_examples=300, deadline=None)
    def test_random_tie_heavy_instances(self, inst):
        assert_same_plan(*inst)

    def test_seeded_n24_scans_several_bands(self, monkeypatch):
        n = m = 24
        g = np.random.default_rng(11)
        sets = [
            [g.choice(60, size=g.integers(0, 25), replace=False) for _ in range(m)]
            for _ in range(n)
        ]
        state = CoordinatorState.from_key_sets(sets, HashFamily(n=100, seed=7))
        bandwidth = np.where(g.random((n, n)) < 0.5, 118.0, 2000.0)
        # Count the bands each phase cuts: one np.partition call per band.
        bands = []
        partition = np.partition

        def counting_partition(a, kth):
            bands[-1] += 1
            return partition(a, kth)

        select_phase = grasp.select_phase

        def counting_select(*args):
            bands.append(0)
            return select_phase(*args)

        monkeypatch.setattr(np, "partition", counting_partition)
        monkeypatch.setattr(grasp, "select_phase", counting_select)
        plan = assert_same_plan(state.card, state.minh, bandwidth, np.arange(m), 16.0)
        assert len(plan) > 1
        assert max(bands) > 1


def test_empty_phase_matches_reference():
    # Nothing to move: both planners return an empty plan.
    card = np.array([[3.0], [0.0]])
    minh = np.zeros((2, 1, 4), dtype=np.int64)
    plan = assert_same_plan(card, minh, np.ones((2, 2)), np.array([0]), 16.0)
    assert len(plan) == 0


@pytest.mark.parametrize("bw", [1.0, 118.0])
def test_identical_fragments_break_ties_in_c_order(bw):
    # Every pair costs the same, so the plan is fixed by tie-breaking alone.
    sets = [[np.arange(5)] for _ in range(9)]
    state = CoordinatorState.from_key_sets(sets, HashFamily(n=16, seed=1))
    assert_same_plan(state.card, state.minh, np.full((9, 9), bw), np.array([4]), 16.0)


TOPO = Topology(n_machines=3, frags_per_machine=2, nic_bw=118.0, intra_bw=2000.0)
N = TOPO.n_frags

#: Every (workload family, mode) that T1–T9 run, at test scale.
TABLE_WORKLOADS = {
    "similarity-all_to_one": (
        lambda s: similarity_workload(
            s, n_frags=N, tuples_per_frag=300, overlap=overlap_for_jaccard(1 / 3)
        ),
        "all_to_one",
    ),
    "similarity-all_to_all": (
        lambda s: similarity_workload(s, n_frags=N, tuples_per_frag=300, overlap=1.0),
        "all_to_all",
    ),
    "dup_keys-all_to_one": (
        lambda s: dup_keys_workload(s, n_frags=N, tuples_per_frag=600, dups=4),
        "all_to_one",
    ),
    "imbalance-all_to_all": (
        lambda s: imbalance_workload(s, n_frags=N, total_tuples=3000, frac0=1 / 2),
        "all_to_all",
    ),
    "modis-all_to_one": (
        lambda s: modis_workload(s, n_frags=N, n_files=12, tuples_per_file=300),
        "all_to_one",
    ),
    "amazon-all_to_one": (lambda s: amazon_workload(s, n_frags=N, scale=1e-5), "all_to_one"),
    "yelp-all_to_one": (lambda s: yelp_workload(s, n_frags=N, scale=1e-4), "all_to_one"),
    "tpch-all_to_one": (lambda s: q18_workload(s, sf=0.002, n_frags=N), "all_to_one"),
}


@pytest.mark.parametrize("name", list(TABLE_WORKLOADS))
def test_table_workload_plan_matches_reference(spark, name):
    """The harness's GRASP plan equals the reference planner's plan made
    from the exact pre-aggregated key sets, hashed in numpy."""
    make, mode = TABLE_WORKLOADS[name]
    wl = make(spark)
    _, res = run_algorithm(wl, "grasp", TOPO, mode=mode, family=FAMILY, keep_result=True)
    res.unpersist()
    st = preaggregate(
        make_state(
            wl.df, wl.spec, n_frags=N, mode=mode,
            tuple_bytes=wl.tuple_bytes, partitioner=wl.partitioner,
        )
    )
    sets = [[np.empty(0, dtype=np.int64)] * st.n_parts for _ in range(N)]
    for (v, l), keys in st.df.select("frag", "part", "key").toPandas().groupby(["frag", "part"]):
        sets[v][l] = keys["key"].to_numpy()
    coord = CoordinatorState.from_key_sets(sets, FAMILY)
    ref_plan, _, _ = ref.plan_aggregation(
        coord.card, coord.minh, benchmark_matrix(TOPO, seed=0), st.dest, w=wl.tuple_bytes
    )
    assert len(ref_plan) > 1
    assert res.plan == ref_plan
