"""Spark-free tests of the driver-side model: ``Origins.from_key_sets``,
the one derivation of ``Card``/``MinH`` over it, checked cell by cell
against ``tests/reference_minhash.py``, and the executor's plan walk
(``_count_shipped``), checked against the exact simulator and, for a
complete single phase, without the per-key arrays."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.loom import loom_plan
from repro.baselines.repartition import repartition_plan
from repro.core.grasp import plan_aggregation
from repro.core.plan import Phase, Plan, Transfer
from repro.core.simulate import simulate_plan
from repro.engine.executor import _count_shipped
from repro.engine.state import Origins, popcount_cells
from repro.minhash.hashing import HashFamily, spread_keys
from repro.minhash.signatures import derive_signatures
from repro.netsim.bandwidth import benchmark_matrix
from repro.netsim.topology import Topology
from repro.netsim.truecost import plan_cost
from tests.reference_minhash import signature

FAM = HashFamily(n=16, seed=3)
W = 16.0


@st.composite
def key_sets(draw, max_frags, max_parts=4):
    """``[frag][part]`` int64 key arrays over a small universe of keys,
    negative ones and ones beyond 2^31 included, so cells overlap, repeat
    keys and are often empty."""
    n = draw(st.integers(min_value=1, max_value=max_frags))
    m = draw(st.integers(min_value=1, max_value=max_parts))
    universe = draw(
        st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=12, unique=True)
    )
    cell = st.lists(st.sampled_from(universe), max_size=8)
    return [[np.array(draw(cell), dtype=np.int64) for _ in range(m)] for _ in range(n)]


class TestFromKeySets:
    def test_layout_across_mask_words(self):
        # N = 70: fragment 63 is word 0's top bit, fragment 64 word 1's first.
        sets = [[np.empty(0, dtype=np.int64)] * 2 for _ in range(70)]
        for v in (0, 63, 64, 69):
            sets[v] = [np.array([5, 5, -(2**40)]), np.empty(0, dtype=np.int64)]
        sets[64] = [sets[64][0], np.array([2**40])]
        o = Origins.from_key_sets(sets)
        assert o.rows.dtype == np.int64 and o.rows.shape == (70, 2)
        assert o.rows[[0, 63, 64, 69], 0].tolist() == [2, 2, 2, 2]
        assert o.rows.sum() == 9 and o.rows[64, 1] == 1
        order = np.lexsort((o.x, o.part))
        keys = np.array([-(2**40), 5, 2**40])
        expect = sorted(zip([0, 0, 1], spread_keys(keys).tolist()))
        assert list(zip(o.part[order].tolist(), o.x[order].tolist())) == expect
        both = np.array([1 | 1 << 63, 1 | 1 << 5], dtype=np.uint64)
        masks = {(p, x): m.tolist() for p, x, m in zip(o.part, o.x, o.masks)}
        x = spread_keys(keys)
        assert masks[(0, x[0])] == masks[(0, x[1])] == both.tolist()
        assert masks[(1, x[2])] == [0, 1]

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            Origins.from_key_sets([[np.array([1]), np.array([2])], [np.array([3])]])

    def test_zero_fragments_rejected(self):
        with pytest.raises(ValueError, match="at least one fragment"):
            Origins.from_key_sets([])

    @given(sets=key_sets(max_frags=70))
    @settings(max_examples=60, deadline=None)
    def test_rows_are_mask_popcounts(self, sets):
        # A pre-aggregated state's row counts come from its masks alone.
        o = Origins.from_key_sets(sets)
        cells = popcount_cells(o.part, o.masks, *o.rows.shape)
        assert cells.dtype == np.int64
        np.testing.assert_array_equal(cells, o.rows)

    @given(sets=key_sets(max_frags=70), n_slots=st.sampled_from([1, 16, 100]))
    @settings(max_examples=60, deadline=None)
    def test_derivation_matches_reference_signature(self, sets, n_slots):
        fam = HashFamily(n=n_slots, seed=5)
        state = derive_signatures(Origins.from_key_sets(sets), fam)
        for v, parts in enumerate(sets):
            for l, keys in enumerate(parts):
                assert state.card[v, l] == np.unique(keys).size
                np.testing.assert_array_equal(state.minh[v, l], signature(keys, fam))


def check_walk(sets, dest, topo):
    """GRASP, Repart and (for one partition, N >= 3) LOOM plans over
    ``sets``: the walk's counts, priced by ``plan_cost``, equal the
    simulator's, and every plan leaves no tuple away from its
    destination."""
    n = len(sets)
    origins = Origins.from_key_sets(sets)
    plans = [
        plan_aggregation(derive_signatures(origins, FAM), benchmark_matrix(topo), dest, w=W),
        repartition_plan(n, dest),
    ]
    if len(dest) == 1 and n >= 3:
        cards = origins.rows[:, 0].astype(np.float64)
        plans.append(loom_plan(cards, float(origins.part.size), int(dest[0]), topo, w=W))
    py_sets = [[set(keys.tolist()) for keys in parts] for parts in sets]
    for plan in plans:
        shipped, leftovers = _count_shipped(origins.rows, lambda: origins, dest, plan)
        assert leftovers == 0
        got = plan_cost(plan, shipped, dest, topo, W, None)
        sim = simulate_plan(py_sets, plan, dest, topo, w=W)
        assert got.total_tuples_sent == sim.total_tuples_sent
        assert got.dest_tuples == sim.dest_tuples
        assert got.phase_seconds == sim.phase_seconds


class TestWalkEqualsSimulation:
    @given(sets=key_sets(max_frags=11), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_instances(self, sets, data):
        n, m = len(sets), len(sets[0])
        if data.draw(st.booleans(), label="all_to_one"):
            sets = [parts[:1] for parts in sets]
            dest = np.array([data.draw(st.integers(0, n - 1), label="dest")])
        else:
            dest = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
        per_machine = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
        intra = data.draw(st.sampled_from([118.0, 1180.0]))
        check_walk(sets, dest, Topology(n // per_machine, per_machine, 118.0, intra))

    @pytest.mark.parametrize("dest", [[63], [63, 64, 0]], ids=["all_to_one", "all_to_all"])
    def test_n70_straddles_a_mask_word(self, dest):
        rng = np.random.default_rng(70)
        universe = rng.integers(-(2**40), 2**40, 300)
        sets = [
            [rng.choice(universe, rng.integers(0, 12)) for _ in dest] for _ in range(70)
        ]
        for v in (63, 64):
            sets[v] = [np.concatenate([keys, universe[:20]]) for keys in sets[v]]
        check_walk(sets, np.array(dest), Topology(14, 5, 118.0, 1180.0))


def _keys_unavailable():
    raise AssertionError("the walk read the per-key arrays")


class TestWalkWithoutKeys:
    """A complete single phase ships ``rows[v, l]``: the walk never reads
    the per-key arrays for it, and an incomplete plan still counts its
    leftovers from them."""

    @given(sets=key_sets(max_frags=70), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_repartition_plan_reads_rows_alone(self, sets, data):
        n, m = len(sets), len(sets[0])
        dest = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)))
        o = Origins.from_key_sets(sets)
        plan = repartition_plan(n, dest)
        got = _count_shipped(o.rows, _keys_unavailable, dest, plan)
        assert got == _count_shipped(o.rows, lambda: o, dest, plan)
        assert got[1] == 0

    @pytest.mark.parametrize("mode", ["all_to_one", "all_to_all"])
    def test_incomplete_plan_reads_keys(self, mode):
        # The plans of test_executor_spark's test_incomplete_plan_raises.
        rng = np.random.default_rng(4)
        m = 1 if mode == "all_to_one" else 4
        sets = [[rng.integers(0, 40, 10) for _ in range(m)] for _ in range(4)]
        o = Origins.from_key_sets(sets)
        if mode == "all_to_one":
            dest, bad = np.array([0]), Plan(phases=[Phase([Transfer(1, 0, 0)])])
        else:
            dest = np.arange(4)
            bad = repartition_plan(4, np.array([0, 2, 2, 3]))
        with pytest.raises(AssertionError, match="per-key"):
            _count_shipped(o.rows, _keys_unavailable, dest, bad)
        assert _count_shipped(o.rows, lambda: o, dest, bad)[1] > 0
