"""Tests that the minhash signatures derived from the state's count job
match two references exactly: the same derivation over the numpy
``Origins.from_key_sets`` (for int64 keys the numpy port of ``xxhash64``
spreads keys as Spark does) and a per-(frag, part) SQL aggregate of
``n`` ``min()`` expressions; that the count job's ``Origins`` equal
``Origins.from_key_sets``; and that a pre-aggregated state's ``Origins``,
counted from the rows it merges, equal the two counts, ``count_rows``
and ``count_keys``, run over its merge."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.engine.aggspec import sum_spec
from repro.engine.state import (
    Origins,
    count_keys,
    count_rows,
    make_state,
    preaggregate,
    scatter_cells,
)
from repro.minhash.estimate import CoordinatorState
from repro.minhash.hashing import EMPTY_SLOT, MERSENNE_P, HashFamily, spread_keys
from repro.minhash.signatures import compute_signatures, derive_signatures

FAM = HashFamily(n=16, seed=4)


def sql_signatures(df, family, *, n_frags, n_parts):
    """Reference: ``Card`` and ``MinH`` as one Spark ``groupBy(frag,
    part)`` with a ``count`` and ``n`` ``min()`` aggregates over each
    row's ``pmod(xxhash64(key), p)``."""
    a, b = family.params
    x = f"pmod(xxhash64(`key`), {MERSENNE_P})"
    slots = ", ".join(f"min(({x} * {aj} + {bj}) % {MERSENNE_P})" for aj, bj in zip(a, b))
    aggs = F.expr("count(1) AS card"), F.expr(f"array({slots}) AS minh")
    pdf = df.groupBy("frag", "part").agg(*aggs).toPandas()
    card = scatter_cells(pdf, pdf["card"].to_numpy(np.float64), 0.0, n_frags, n_parts)
    minh = np.array(pdf["minh"].tolist(), dtype=np.int64).reshape(len(pdf), family.n)
    return CoordinatorState(card, scatter_cells(pdf, minh, EMPTY_SLOT, n_frags, n_parts))


def assert_bit_equal(got, ref):
    assert got.minh.flags.c_contiguous  # the planner's layout
    assert got.card.tobytes() == ref.card.tobytes()
    assert got.minh.tobytes() == ref.minh.tobytes()


def local_key_sets(st):
    """The state's key sets, ``[frag][part]``, read back from Spark."""
    local = st.df.select("frag", "part", "key").toPandas()
    cell = local.groupby(["frag", "part"])["key"]
    sets = [[np.empty(0, dtype=np.int64)] * st.n_parts for _ in range(st.n_frags)]
    for (v, l), keys in cell:
        sets[v][l] = keys.to_numpy()
    return sets


def assert_same_origins(got, ref):
    """Equal ``Origins`` once both are sorted by (part, x, masks): the
    count job returns its per-key rows in no set order."""
    assert got.rows.dtype == ref.rows.dtype and np.array_equal(got.rows, ref.rows)
    for o in (got, ref):
        assert (o.part.dtype, o.x.dtype, o.masks.dtype) == (np.int64, np.int64, np.uint64)
    got_order, ref_order = (np.lexsort((*o.masks.T[::-1], o.x, o.part)) for o in (got, ref))
    for a, b in zip(got[1:], ref[1:]):
        np.testing.assert_array_equal(a[got_order], b[ref_order])


@pytest.fixture(scope="module")
def frame(spark):
    rng = np.random.default_rng(0)
    rows = []
    for frag in range(3):
        for part in range(2):
            # Negative keys and keys with |k| >= 2^31 included.
            keys = np.unique(rng.integers(-(2**40), 2**40, 50))
            rows.append(
                pd.DataFrame(
                    {"frag": frag, "part": part, "key": keys.astype(np.int64)}
                )
            )
    pdf = pd.concat(rows, ignore_index=True)
    return pdf, spark.createDataFrame(pdf)


class TestSparkSignatures:
    def test_spread_keys_matches_spark_xxhash64(self, spark):
        keys = np.concatenate(
            [
                np.array([0, 1, -1, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1], dtype=np.int64),
                np.array([2**62, -(2**63), 2**63 - 1, 123_456_789_012], dtype=np.int64),
                np.random.default_rng(1).integers(-(2**63), 2**63 - 1, 500, dtype=np.int64),
            ]
        )
        df = spark.createDataFrame(pd.DataFrame({"key": keys}))
        assert df.schema["key"].dataType.typeName() == "long"
        got = df.select(F.pmod(F.xxhash64("key"), F.lit(MERSENNE_P)).alias("x")).toPandas()
        np.testing.assert_array_equal(got["x"].to_numpy(), spread_keys(keys))

    def test_matches_numpy_reference(self, frame):
        # n=100, the experiments' family: bit-equal Card and MinH.
        pdf, df = frame
        fam = HashFamily(n=100, seed=7)
        got = compute_signatures(df, fam, n_frags=3, n_parts=2)
        key_sets = [
            [pdf[(pdf.frag == v) & (pdf.part == l)]["key"].to_numpy() for l in range(2)]
            for v in range(3)
        ]
        ref = derive_signatures(Origins.from_key_sets(key_sets), fam)
        assert got.card.tobytes() == ref.card.tobytes()
        assert got.minh.tobytes() == ref.minh.tobytes()

    def test_cardinalities(self, frame):
        pdf, df = frame
        got = compute_signatures(df, FAM, n_frags=3, n_parts=2)
        for v in range(3):
            for l in range(2):
                n = int(((pdf.frag == v) & (pdf.part == l)).sum())
                assert got.card[v, l] == n

    def test_missing_cell_is_empty(self, spark):
        # One row, then no rows at all: every missing cell is Card 0, EMPTY_SLOT.
        for rows in ([(0, 0, 5)], []):
            df = spark.createDataFrame(rows, "frag long, part long, key long")
            got = compute_signatures(df, FAM, n_frags=2, n_parts=1)
            assert got.card[1, 0] == 0
            assert np.all(got.minh[1, 0] == EMPTY_SLOT)
        assert np.all(got.card == 0)
        assert np.all(got.minh == EMPTY_SLOT)

    def test_spread_mode_differs_but_similarity_holds(self, spark):
        keys = np.arange(0, 400, dtype=np.int64)
        pdf = pd.DataFrame(
            {
                "frag": np.repeat([0, 1], 400),
                "part": 0,
                "key": np.concatenate([keys, keys + 200]),  # true J = 1/3
            }
        )
        got = compute_signatures(
            spark.createDataFrame(pdf), HashFamily(n=100, seed=4), n_frags=2, n_parts=1
        )
        j = float(np.mean(got.minh[0, 0] == got.minh[1, 0]))
        assert abs(j - 1 / 3) < 0.2

    def test_out_of_range_frag_rejected(self, spark):
        # Negative and null indices must raise, not wrap around or fail later.
        for frag, part in ((7, 0), (-1, 0), (None, 0), (0, 1), (0, None)):
            df = spark.createDataFrame([(frag, part, 1)], "frag long, part long, key long")
            with pytest.raises(ValueError, match="out of declared range"):
                compute_signatures(df, FAM, n_frags=2, n_parts=1)

    @pytest.mark.parametrize(
        "ddl, keys",
        [
            ("double", [0.5, -0.0, 0.0, 1e300, float("inf"), float("nan"), -3.25]),
            ("string", ["a", "", "\u00fcn\u00efc\u00f8de", "a longer string key", "b"]),
            ("long", [None, 1, -(2**40), 7, 2**62]),
        ],
        ids=["double", "string", "null"],
    )
    def test_non_long_keys_match_spark_hash(self, spark, ddl, keys):
        # Reference: min((x*a + b) mod p) in numpy over Spark's own
        # x = pmod(xxhash64(key), p). Cell (2, 1) stays empty.
        rows = [(v, l, k) for v in range(3) for l in range(2) for k in keys[v + l :]]
        df = spark.createDataFrame(
            [r for r in rows if (r[0], r[1]) != (2, 1)], f"frag int, part int, key {ddl}"
        )
        got = compute_signatures(df, FAM, n_frags=3, n_parts=2)
        pdf = df.select(
            "frag", "part", F.pmod(F.xxhash64("key"), F.lit(MERSENNE_P)).alias("x")
        ).toPandas()
        a, b = FAM.params
        card = np.zeros((3, 2))
        minh = np.full((3, 2, FAM.n), EMPTY_SLOT, dtype=np.int64)
        for (v, l), g in pdf.groupby(["frag", "part"]):
            card[v, l] = len(g)
            minh[v, l] = ((g["x"].to_numpy()[:, None] * a + b) % MERSENNE_P).min(axis=0)
        assert card[2, 1] == 0
        assert got.card.tobytes() == card.tobytes()
        assert got.minh.tobytes() == minh.tobytes()


class TestEqualsSqlAggregate:
    """The driver derivation equals the SQL reference bit for bit."""

    FAM = HashFamily(n=100, seed=7)

    def test_two_mask_words(self, spark):
        # N = 70: fragment 63 is word 0's sign bit, fragment 64 word 1's
        # first bit; both hold keys, some shared with fragments 0 and 69.
        n, rng = 70, np.random.default_rng(11)
        frag = np.concatenate([np.repeat(np.arange(n), 5), [63] * 40, [64] * 40, [0, 69] * 20])
        keys = rng.integers(-(2**40), 2**40, 300)
        pdf = pd.DataFrame({"frag": frag, "k": rng.choice(keys, frag.size), "v": 1.0})
        df = spark.createDataFrame(pdf, "frag int, k long, v double")
        st = preaggregate(
            make_state(df, sum_spec("k", "v"), n_frags=n, mode="all_to_all", n_parts=3)
        )
        got = compute_signatures(st.df, self.FAM, n_frags=n, n_parts=3)
        assert got.card[63].sum() > 0 and got.card[64].sum() > 0
        assert_bit_equal(got, sql_signatures(st.df, self.FAM, n_frags=n, n_parts=3))
        origins = Origins.from_key_sets(local_key_sets(st))
        assert_bit_equal(got, derive_signatures(origins, self.FAM))
        assert_same_origins(st.origins, origins)

    def test_all_to_all_with_empty_fragment_and_partition(self, spark):
        # Fragment 2 holds nothing, and the partitioner never yields part 3.
        rng = np.random.default_rng(12)
        frag = rng.choice([0, 1, 3, 4], 500)
        pdf = pd.DataFrame({"frag": frag, "k": rng.integers(0, 120, frag.size), "v": 1.0})
        df = spark.createDataFrame(pdf, "frag int, k long, v double")
        st = preaggregate(make_state(
            df, sum_spec("k", "v"), n_frags=5, mode="all_to_all", n_parts=4,
            partitioner=F.pmod(F.col("k"), F.lit(3)),
        ))
        got = compute_signatures(st.df, self.FAM, n_frags=5, n_parts=4)
        assert got.card[2].sum() == 0 and got.card[:, 3].sum() == 0
        assert np.all(got.minh[2] == EMPTY_SLOT) and np.all(got.minh[:, 3] == EMPTY_SLOT)
        assert_bit_equal(got, sql_signatures(st.df, self.FAM, n_frags=5, n_parts=4))
        origins = Origins.from_key_sets(local_key_sets(st))
        assert_bit_equal(got, derive_signatures(origins, self.FAM))
        assert_same_origins(st.origins, origins)

    @pytest.mark.parametrize(
        "ddl, keys",
        [
            ("long", [None, 1, -(2**40), 7, 2**62, 3]),
            ("double", [0.5, -0.0, 0.0, float("nan"), float("-inf"), 1e300, -3.25]),
            ("string", ["a", "", "\u00fcn\u00efc\u00f8de", None, "a longer string key", "b"]),
        ],
        ids=["null", "double", "string"],
    )
    def test_key_types_over_preaggregated_state(self, spark, ddl, keys):
        rng = np.random.default_rng(13)
        rows = [(int(v), keys[int(i)], 1.0) for v, i in
                zip(rng.integers(0, 4, 200), rng.integers(0, len(keys), 200))]
        df = spark.createDataFrame(rows, f"frag int, k {ddl}, v double")
        st = preaggregate(
            make_state(df, sum_spec("k", "v"), n_frags=4, mode="all_to_all", n_parts=2)
        )
        got = compute_signatures(st.df, self.FAM, n_frags=4, n_parts=2)
        assert_bit_equal(got, sql_signatures(st.df, self.FAM, n_frags=4, n_parts=2))


class TestPreaggregatedOriginsEqualCountOverMerge:
    """``DistState.origins`` of a pre-aggregated state, one ``groupBy(part,
    key)`` over the rows it merges with ``rows`` from the masks' popcounts,
    equals ``count_rows`` and ``count_keys`` over the merge itself.
    Fragment 2 holds nothing, and the partitioner never yields
    partition 3."""

    @pytest.mark.parametrize(
        "n, ddl, keys",
        [
            (5, "long", [1, -(2**40), 7, 2**62, 3]),
            (5, "double", [-0.0, 0.0, float("nan"), 0.5, float("-inf"), 1e300]),
            (5, "string", ["a", "", "\u00fcn\u00efc\u00f8de", "a longer string key", "b"]),
            (5, "long", [None, 1, -(2**40), 7]),
            (5, "struct<a: int, b: string>", [(1, "x"), (1, None), None, (2, "x"), (-3, "")]),
            (70, "long", list(range(-40, 40))),
        ],
        ids=["long", "double", "string", "null", "struct", "n70"],
    )
    def test_equal(self, spark, n, ddl, keys):
        rng = np.random.default_rng(14)
        frags = [v for v in range(n) if v != 2]
        rows = [(int(rng.choice(frags)), keys[int(i)], 1.0)
                for i in rng.integers(0, len(keys), 40 * len(keys))]
        # -0.0, 0.0 and NaN all in fragment 0, NaN twice; fragments 63
        # and 64 straddle the mask words at N = 70.
        rows += [(0, k, 1.0) for k in keys[:3] + keys[2:3]]
        rows += [(v, keys[0], 1.0) for v in (63, 64, 69) if v < n]
        df = spark.createDataFrame(rows, f"frag int, k {ddl}, v double")
        st = preaggregate(make_state(
            df, sum_spec("k", "v"), n_frags=n, mode="all_to_all", n_parts=4,
            partitioner=F.pmod(F.xxhash64("k"), F.lit(3)),
        ))
        ref = Origins(count_rows(st.df, n, 4), *count_keys(st.df, n, 4))
        assert ref.rows[2].sum() == 0 and ref.rows[:, 3].sum() == 0
        assert_same_origins(st.origins, ref)
