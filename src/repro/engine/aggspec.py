"""Algebraic aggregate specifications.

GRASP applies to *algebraic* aggregations — those whose partial states
can be merged associatively (Section 1). An :class:`AggSpec` describes
one GROUP BY query as:

- ``partials``: how each partial-state column is initialised from the
  input and merged when fragments combine (``sum`` / ``min`` / ``max``);
- ``finals``: SQL expressions over the partial columns producing the
  output columns (e.g. AVG = sum / count).

The engine carries partial columns through every transfer phase and
finalizes once all data reaches its destination fragment.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import Column
from pyspark.sql import functions as F

_MERGES = {"sum": F.sum, "min": F.min, "max": F.max}


@dataclass(frozen=True)
class PartialAgg:
    """One partial-state column: initialised as ``source`` (a SQL
    expression over the input), merged with ``merge``."""

    name: str
    source: str
    merge: str

    def __post_init__(self) -> None:
        if self.merge not in _MERGES:
            raise ValueError(f"merge must be one of {sorted(_MERGES)}: {self.merge}")

    def init_col(self) -> Column:
        return F.expr(self.source).alias(self.name)

    def merge_col(self) -> Column:
        return _MERGES[self.merge](F.col(self.name)).alias(self.name)


@dataclass(frozen=True)
class AggSpec:
    """A complete algebraic GROUP BY: key column, partials, final exprs.

    ``key`` names the single grouping column in the input, of any type
    Spark can group and hash; ``key_out`` is its name in the final
    result; ``finals`` maps output column names to SQL expressions over
    the partial columns.
    """

    key: str
    partials: tuple[PartialAgg, ...]
    finals: tuple[tuple[str, str], ...]
    key_out: str = "key"

    def __post_init__(self) -> None:
        names = [p.name for p in self.partials]
        if len(set(names)) != len(names):
            raise ValueError("duplicate partial column names")
        if not self.partials or not self.finals:
            raise ValueError("need at least one partial and one final")

    def final_cols(self) -> list[Column]:
        return [F.col("key").alias(self.key_out)] + [
            F.expr(expr).alias(name) for name, expr in self.finals
        ]


def sum_spec(key: str, value: str, *, key_out: str = "key", out: str = "sum_v") -> AggSpec:
    """``SELECT key, SUM(value) FROM r GROUP BY key``."""
    return AggSpec(
        key=key,
        partials=(PartialAgg("p_sum", value, "sum"),),
        finals=((out, "p_sum"),),
        key_out=key_out,
    )


def avg_spec(key: str, value: str, *, key_out: str = "key", out: str = "avg_v") -> AggSpec:
    """``SELECT key, AVG(value) FROM r GROUP BY key`` — decomposed into
    sum and count partials. Only non-null values count, and a key whose
    values are all NULL averages to NULL (``try_divide`` by a zero count
    is NULL, not an error, under ANSI mode)."""
    return AggSpec(
        key=key,
        partials=(
            PartialAgg("p_sum", value, "sum"),
            PartialAgg("p_cnt", f"CAST({value} IS NOT NULL AS BIGINT)", "sum"),
        ),
        finals=((out, "try_divide(p_sum, p_cnt)"),),
        key_out=key_out,
    )


def min_spec(key: str, value: str, *, key_out: str = "key", out: str = "min_v") -> AggSpec:
    """``SELECT key, MIN(value) FROM r GROUP BY key``."""
    return AggSpec(
        key=key,
        partials=(PartialAgg("p_min", value, "min"),),
        finals=((out, "p_min"),),
        key_out=key_out,
    )


def max_spec(key: str, value: str, *, key_out: str = "key", out: str = "max_v") -> AggSpec:
    """``SELECT key, MAX(value) FROM r GROUP BY key`` — NULL for a key
    whose values are all NULL."""
    return AggSpec(
        key=key,
        partials=(PartialAgg("p_max", value, "max"),),
        finals=((out, "p_max"),),
        key_out=key_out,
    )


def count_spec(key: str, *, key_out: str = "key", out: str = "cnt") -> AggSpec:
    """``SELECT key, COUNT(*) FROM r GROUP BY key``."""
    return AggSpec(
        key=key,
        partials=(PartialAgg("p_cnt", "CAST(1 AS BIGINT)", "sum"),),
        finals=((out, "p_cnt"),),
        key_out=key_out,
    )


def count_value_spec(
    key: str, value: str, *, key_out: str = "key", out: str = "cnt_v"
) -> AggSpec:
    """``SELECT key, COUNT(value) FROM r GROUP BY key`` — NULL values are
    not counted, so a key whose values are all NULL counts 0."""
    return AggSpec(
        key=key,
        partials=(PartialAgg("p_cnt", f"CAST({value} IS NOT NULL AS BIGINT)", "sum"),),
        finals=((out, "p_cnt"),),
        key_out=key_out,
    )
