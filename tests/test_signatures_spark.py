"""Tests that the Spark minhash-signature path matches the numpy
reference exactly: for int64 keys the numpy port of ``xxhash64`` spreads
keys as Spark does, so both paths give the same ``Card`` and ``MinH``."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.minhash.estimate import CoordinatorState
from repro.minhash.hashing import EMPTY_SLOT, MERSENNE_P, HashFamily, spread_keys
from repro.minhash.signatures import compute_signatures

FAM = HashFamily(n=16, seed=4)


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
        ref = CoordinatorState.from_key_sets(key_sets, fam)
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
