"""§3.3's estimator claim: with n = 100 minhash slots, ESTCARD lands
within 10% of the exact union size with 95% probability. The exact
pairwise unions come from the origin masks (one (N×K)·(K×N) product per
partition), the estimates from ``est_card`` over the derived signatures,
for every pair of non-empty cells of fixed-seed initial states."""
import numpy as np
import pytest

from repro.engine.state import Origins, make_state, preaggregate
from repro.experiments.tables import FAMILY
from repro.minhash.estimate import est_card
from repro.minhash.signatures import derive_signatures
from repro.workloads.modis import modis_workload
from repro.workloads.synthetic import overlap_for_jaccard


def relative_errors(origins):
    """``|ESTCARD - |X_s ∪ X_t|| / |X_s ∪ X_t|`` for every pair s < t
    of non-empty cells of each partition."""
    rows, part, _, masks = origins
    n, n_parts = rows.shape
    coord = derive_signatures(origins, FAMILY)
    bits = np.unpackbits(
        masks.astype("<u8").view(np.uint8), axis=1, count=n, bitorder="little"
    ).astype(np.float64)
    s, t = np.triu_indices(n, 1)
    errs = []
    for l in range(n_parts):
        b = bits[part == l]
        inter = b.T @ b  # |X_s ∩ X_t|; the diagonal holds |X_s|
        size = np.diag(inter)
        ok = (size[s] > 0) & (size[t] > 0)
        exact = (size[:, None] + size[None, :] - inter)[s[ok], t[ok]]
        errs.append(np.abs(est_card(coord, s[ok], t[ok], l) - exact) / exact)
    return np.concatenate(errs)


def assert_claim(errs):
    assert errs.size > 0
    assert np.mean(errs <= 0.10) >= 0.95, np.percentile(errs, 95)


@pytest.mark.parametrize("j", [1 / 7, 1 / 3, 0.6])
def test_t1_states(j):
    # T1's construction (similarity_workload): fragment i holds the dense
    # key range [i (D - o), i (D - o) + D), one tuple per key.
    n, d = 8, 20_000
    o = int(round(overlap_for_jaccard(j) * d))
    sets = [[np.arange(i * (d - o), i * (d - o) + d)] for i in range(n)]
    assert_claim(relative_errors(Origins.from_key_sets(sets)))


def test_modis_state(spark):
    wl = modis_workload(spark, n_frags=32)
    st = preaggregate(make_state(wl.df, wl.spec, n_frags=32, mode="all_to_one"))
    assert_claim(relative_errors(st.origins))
