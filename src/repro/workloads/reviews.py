"""Amazon-like and Yelp-like review workloads (Section 5.1.2, 4 & 5).

Both papers' datasets are timestamp-ordered review logs split into
fragments by file position; the query averages each reviewer's rating:

    SELECT ReviewerID, AVG(OverallRate) FROM Reviews GROUP BY ReviewerID

Key properties we reproduce synthetically: ~4 reviews per user on
average (82 M/21 M Amazon, 5.2 M/1.3 M Yelp), a Zipf-skewed
reviews-per-user distribution, and *temporal locality* — a user's
reviews cluster inside an activity window, so time-contiguous fragments
share many reviewers while distant fragments share few (partial,
distance-decaying cross-fragment similarity).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.aggspec import avg_spec
from repro.workloads.base import Workload

#: Skew of the reviews-per-user distribution.
_ZIPF_ALPHA = 1.2


def reviews_workload(
    spark: SparkSession,
    *,
    name: str,
    n_frags: int,
    n_reviews: int,
    n_users: int,
    activity_window: float = 0.15,
    seed: int = 0,
) -> Workload:
    """Generate a review log and split it into ``n_frags`` time-ordered
    fragments.

    Each user gets a random activity centre in [0, 1]; each review picks
    a Zipf-ranked user and a timestamp ~ centre + U(-window/2, window/2).
    Reviews are sorted by timestamp and chunked contiguously.
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n_users + 1)
    weights = 1.0 / ranks**_ZIPF_ALPHA
    weights /= weights.sum()
    user = g.choice(ranks, size=n_reviews, p=weights)
    centre = g.random(n_users)
    ts = centre[user - 1] + (g.random(n_reviews) - 0.5) * activity_window
    order = np.argsort(ts, kind="stable")
    frag = np.zeros(n_reviews, dtype=np.int32)
    # Contiguous equal-size chunks in timestamp order = the paper's
    # "split this file into plan fragments".
    bounds = np.linspace(0, n_reviews, n_frags + 1).astype(int)
    for i in range(n_frags):
        frag[order[bounds[i] : bounds[i + 1]]] = i
    pdf = pd.DataFrame(
        {
            "frag": frag,
            "reviewer_id": user.astype(np.int64),
            "rating": g.integers(1, 6, n_reviews).astype("float64"),
        }
    )
    return Workload(
        name=name,
        df=spark.createDataFrame(pdf),
        spec=avg_spec("reviewer_id", "rating", key_out="reviewer", out="avg_rating"),
        sql="SELECT reviewer_id AS reviewer, AVG(rating) AS avg_rating "
        "FROM r GROUP BY reviewer_id",
        n_frags=n_frags,
        tuple_bytes=16.0,
    )


def amazon_workload(spark: SparkSession, *, n_frags: int, scale: float = 1e-3, seed: int = 0) -> Workload:
    """Amazon reviews scaled down from 82 M reviews / 21 M users."""
    return reviews_workload(
        spark,
        name="amazon",
        n_frags=n_frags,
        n_reviews=max(n_frags * 100, int(82e6 * scale)),
        n_users=max(n_frags * 25, int(21e6 * scale)),
        seed=seed,
    )


def yelp_workload(spark: SparkSession, *, n_frags: int, scale: float = 1e-2, seed: int = 1) -> Workload:
    """Yelp reviews scaled down from 5.2 M reviews / 1.3 M users."""
    return reviews_workload(
        spark,
        name="yelp",
        n_frags=n_frags,
        n_reviews=max(n_frags * 100, int(5.2e6 * scale)),
        n_users=max(n_frags * 25, int(1.3e6 * scale)),
        seed=seed,
    )
