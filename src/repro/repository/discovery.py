"""Join-discovery simulator — the Aurum / NYU Auctus stand-in (DESIGN.md §2).

Given a base table, the base columns to probe and a repository (a dict
of named Spark tables), scan every (base column, candidate column) pair
of compatible type family and score it with the paper's own fallback
metric, the *intersection score*:

    |distinct(base key) ∩ distinct(foreign key)| / |distinct(base key)|

computed with a distributed distinct-inner-join per pair — "DataFrame
joins across a data repository to search candidate tables". Pairs above
``min_score`` become ``CandidateJoin``s; timestamp pairs get a soft
two-way match (the paper auto-soft-joins time keys). Like the real
systems, the output is noisy: any table sharing a key domain scores high
whether or not its features carry signal — pruning those is the feature
selector's job.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.joins.plan import CandidateJoin, order_candidates

__all__ = ["intersection_score", "discover_joins"]

_INT_FAMILY = (T.IntegerType, T.LongType, T.ShortType, T.ByteType)
_TIME_FAMILY = (T.TimestampType, T.DateType)
_TIME_SOFT_MODE = "two_way"  # soft-join mode of every discovered time key


def _family(dtype) -> str | None:
    if isinstance(dtype, _INT_FAMILY):
        return "int"
    if isinstance(dtype, _TIME_FAMILY):
        return "time"
    if isinstance(dtype, T.StringType):
        return "str"
    return None  # floats/doubles make poor equi-join keys; skip


def intersection_score(base: DataFrame, base_col: str,
                       foreign: DataFrame, foreign_col: str) -> float:
    b = base.select(F.col(base_col).alias("k")).where(F.col(base_col).isNotNull()).distinct()
    f = foreign.select(F.col(foreign_col).alias("k")).where(F.col(foreign_col).isNotNull()).distinct()
    nb = b.count()
    if nb == 0:
        return 0.0
    inter = b.join(f, "k", "inner").count()
    return inter / nb


def discover_joins(base: DataFrame, repo: dict[str, DataFrame],
                   probe_cols: list[str],
                   min_score: float = 0.05) -> list[CandidateJoin]:
    """Emit one best-scoring CandidateJoin per (table, base column) pair.

    ``probe_cols`` are the base columns probed as foreign keys (a
    discovery system knows the base schema). A table joinable through
    several base columns yields one candidate per base column — the
    paper's "multiple-option key join", each joined separately.
    """
    out: list[CandidateJoin] = []
    for tname in sorted(repo):
        ft = repo[tname]
        for bcol in probe_cols:
            fam = _family(base.schema[bcol].dataType)
            if fam is None:
                continue
            best: CandidateJoin | None = None
            for fcol in ft.columns:
                if _family(ft.schema[fcol].dataType) != fam:
                    continue
                if fam == "time":
                    # Time keys are declared soft (§4) — overlap of exact
                    # timestamps is meaningless across granularities; use a
                    # coarse day-level overlap as the relevance proxy.
                    s = intersection_score(
                        base.select(F.date_trunc("day", F.col(bcol).cast("timestamp")).alias(bcol)),
                        bcol,
                        ft.select(F.date_trunc("day", F.col(fcol).cast("timestamp")).alias(fcol)),
                        fcol)
                    soft = _TIME_SOFT_MODE
                else:
                    s = intersection_score(base, bcol, ft, fcol)
                    soft = None
                if s >= min_score and (best is None or s > best.score):
                    best = CandidateJoin(
                        table=tname, base_keys=[bcol], foreign_keys=[fcol],
                        score=s, soft=soft, n_features=len(ft.columns) - 1)
            if best is not None:
                out.append(best)
    return order_candidates(out)
