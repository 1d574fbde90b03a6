"""MODIS-like surface-reflectance workload (Section 5.1.2, workload 3).

The paper aggregates MOD09 satellite swaths:

    SELECT ROUND(Latitude,2), ROUND(Longitude,2), MIN(Band3)
    FROM ReflectTable GROUP BY ROUND(Latitude,2), ROUND(Longitude,2)

with ~1200 timestamp-ordered files assigned round-robin to fragments;
3 B tuples reduce to 648 M distinct cells (≈ 4.6 tuples/cell). We have
no NASA download, so we synthesise the structure GRASP exploits: the
satellite revisits a fixed set of spatial *tiles*, each file samples
cells (0.01°-rounded lat/lon grid points) of one tile, and round-robin
file placement gives fragments heavily-overlapping cell sets.

The composite GROUP BY key is encoded as a single int64
``cell = lat_cents * 360_000 + lon_cents`` at generation time (the
engine groups on one column; the encoding is bijective so the aggregate
is identical).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.engine.aggspec import min_spec
from repro.workloads.base import Workload


def modis_workload(
    spark: SparkSession,
    *,
    n_frags: int,
    n_files: int = 120,
    tuples_per_file: int = 4_000,
    n_tiles: int = 12,
    seed: int = 0,
) -> Workload:
    """Generate the synthetic MOD09-like relation.

    Each file observes one (seeded-random) tile of the revisit cycle and
    samples ``tuples_per_file`` of its cells with replacement (revisited
    cells → both local duplicates and cross-file overlap). Files are
    assigned to fragments round-robin, exactly as the paper assigns
    downloads. Each tile has the number of cells that reproduces the
    paper's ~4.6 tuples-per-cell reduction (3 B tuples / 648 M cells) at
    any scale: with ``x = draws_per_tile / tile_cells`` the expected
    duplication is ``x / (1 - e^-x)``, and x ≈ 4.55 gives 4.6.
    """
    g = np.random.default_rng(seed)
    draws_per_tile = n_files * tuples_per_file / n_tiles
    tile_cells = max(16, int(draws_per_tile / 4.55))
    # Tile origins on the 0.01-degree grid: tile t covers a square of
    # tile_cells cells starting at a distinct lat/lon corner.
    side = int(np.ceil(np.sqrt(tile_cells)))
    tile_lat0 = g.integers(0, 17000, n_tiles)  # lat cents in [-85, 85] shifted
    tile_lon0 = g.integers(0, 35000, n_tiles)
    tile_of_file = g.integers(0, n_tiles, n_files)
    frames = []
    for f in range(n_files):
        t = int(tile_of_file[f])
        lat = tile_lat0[t] + g.integers(0, side, tuples_per_file)
        lon = tile_lon0[t] + g.integers(0, side, tuples_per_file)
        frames.append(
            pd.DataFrame(
                {
                    "frag": np.full(tuples_per_file, f % n_frags, dtype=np.int32),
                    "cell": (lat.astype(np.int64) * 360_000 + lon).astype(np.int64),
                    "band3": (g.random(tuples_per_file) * 10_000).round(1),
                }
            )
        )
    pdf = pd.concat(frames, ignore_index=True)
    return Workload(
        name="modis",
        df=spark.createDataFrame(pdf),
        spec=min_spec("cell", "band3", key_out="cell", out="min_band3"),
        sql="SELECT cell, MIN(band3) AS min_band3 FROM r GROUP BY cell",
        n_frags=n_frags,
        tuple_bytes=24.0,  # lat, lon, band value on the wire
    )
