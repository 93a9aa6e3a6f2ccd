"""Data repository and augmentation scenarios.

``DataRepository`` is the paper's "(potentially large) data repository":
a bag of named Spark tables the discovery system searches. ``Scenario``
bundles everything one end-to-end experiment needs — base table, target,
task type, the repository, the discovered candidate joins, and (because
our repositories are synthetic, DESIGN.md §2) the planted ground truth of
which tables/features actually carry signal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.joins.plan import CandidateJoin

__all__ = ["DataRepository", "Scenario"]


@dataclass
class DataRepository:
    tables: dict[str, DataFrame] = field(default_factory=dict)

    def add(self, name: str, df: DataFrame) -> None:
        if name in self.tables:
            raise KeyError(f"table {name!r} already registered")
        self.tables[name] = df

    def __getitem__(self, name: str) -> DataFrame:
        return self.tables[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tables

    def names(self) -> list[str]:
        return sorted(self.tables)


@dataclass
class Scenario:
    name: str
    task: str  # "reg" | "cls"
    base: DataFrame
    target: str
    repo: DataRepository
    candidates: list[CandidateJoin]
    signal_tables: set[str] = field(default_factory=set)
    # columns of the base table that identify rows / act as keys (never
    # treated as features by the encoder — they are dropped before ML)
    key_cols: list[str] = field(default_factory=list)
    # Micro-benchmark scenarios (no repository): the "user's base table" is
    # this column subset; every other column in ``base`` (remaining original
    # features + planted noise) counts as augmentation to be selected over.
    base_feature_cols: list[str] | None = None
    # Micro-benchmark scenarios: the generator's real feature columns; the
    # rest of ``base`` (besides the target) is planted noise.
    original_features: list[str] = field(default_factory=list)
    # The base table with every candidate joined so far, built and reused
    # by ``repro.core.arda`` (an ``AugmentedTable``). A cache, not a
    # setting: ``dataclasses.replace`` starts the copy without one.
    augmented: object = field(default=None, init=False, repr=False, compare=False)
