"""Unit tests for the minhash hash family and signature computation."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minhash.hashing import (
    EMPTY_SLOT,
    MERSENNE_P,
    HashFamily,
    signature,
    spread_keys,
)


class TestHashFamily:
    def test_params_deterministic(self):
        f = HashFamily(n=10, seed=3)
        a1, b1 = f.params
        a2, b2 = f.params
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_params_ranges(self):
        a, b = HashFamily(n=200, seed=0).params
        assert np.all((a >= 1) & (a < MERSENNE_P))
        assert np.all((b >= 0) & (b < MERSENNE_P))

    def test_seed_changes_params(self):
        a1, _ = HashFamily(n=10, seed=1).params
        a2, _ = HashFamily(n=10, seed=2).params
        assert not np.array_equal(a1, a2)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            HashFamily(n=0)


class TestSpreadKeys:
    def test_range(self):
        x = spread_keys(np.array([0, 1, 2**40, -5]))
        assert np.all((x >= 0) & (x < MERSENNE_P))

    def test_deterministic_and_distinct(self):
        keys = np.arange(1000)
        a = spread_keys(keys)
        np.testing.assert_array_equal(a, spread_keys(keys))
        assert len(np.unique(a)) == 1000  # no collisions on small input


class TestSignature:
    FAM = HashFamily(n=64, seed=5)

    def test_empty_set(self):
        sig = signature(np.array([], dtype=np.int64), self.FAM)
        assert np.all(sig == EMPTY_SLOT)

    def test_shape_and_range(self):
        sig = signature(np.arange(100), self.FAM)
        assert sig.shape == (64,)
        assert np.all((sig >= 0) & (sig < MERSENNE_P))

    def test_duplicates_ignored(self):
        a = signature(np.array([1, 2, 3]), self.FAM)
        b = signature(np.array([1, 1, 2, 2, 3, 3]), self.FAM)
        np.testing.assert_array_equal(a, b)

    def test_order_invariant(self):
        a = signature(np.array([5, 9, 1]), self.FAM)
        b = signature(np.array([1, 5, 9]), self.FAM)
        np.testing.assert_array_equal(a, b)

    def test_identical_sets_identical_signatures(self):
        keys = np.arange(50, 150)
        np.testing.assert_array_equal(
            signature(keys, self.FAM), signature(keys.copy(), self.FAM)
        )

    def test_monotone_under_union(self):
        # sig(S ∪ T) is the pairwise min of sig(S), sig(T) — the property
        # GRASP exploits to avoid re-reading data (Section 3.3).
        s = np.arange(0, 60)
        t = np.arange(40, 100)
        su = signature(s, self.FAM)
        tu = signature(t, self.FAM)
        union = signature(np.union1d(s, t), self.FAM)
        np.testing.assert_array_equal(union, np.minimum(su, tu))

    @given(
        s=st.sets(st.integers(min_value=-(2**40), max_value=2**40), max_size=60),
        t=st.sets(st.integers(min_value=-(2**40), max_value=2**40), max_size=60),
    )
    @settings(max_examples=40, deadline=None)
    def test_union_property_hypothesis(self, s, t):
        fam = HashFamily(n=16, seed=11)
        su = signature(np.array(sorted(s), dtype=np.int64), fam)
        tu = signature(np.array(sorted(t), dtype=np.int64), fam)
        union = signature(np.array(sorted(s | t), dtype=np.int64), fam)
        np.testing.assert_array_equal(union, np.minimum(su, tu))

    def test_jaccard_estimate_statistical(self):
        # Paper (Satuluri & Parthasarathy): n=100 → within 10% of truth
        # with 95% probability. Check a single known pair generously.
        fam = HashFamily(n=100, seed=123)
        s = np.arange(0, 1000)
        t = np.arange(500, 1500)  # true J = 500/1500 = 1/3
        js = float(np.mean(signature(s, fam) == signature(t, fam)))
        assert abs(js - 1 / 3) < 0.15
