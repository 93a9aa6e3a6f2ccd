"""Augmentation scenarios: ARDA's three inputs plus the planted truth.

A ``Scenario`` is what paper §3 gives ARDA — a base table with a target
and task type, the "(potentially large) data repository" as a plain
``dict`` of named Spark tables, and the candidate joins a discovery
system emitted over it — plus, because our repositories are synthetic
(DESIGN.md §2), the ground truth of which tables/features carry signal.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.joins.plan import CandidateJoin

__all__ = ["Scenario"]


@dataclass
class Scenario:
    name: str
    task: str  # "reg" | "cls"
    base: DataFrame
    target: str
    repo: dict[str, DataFrame]
    candidates: list[CandidateJoin]
    signal_tables: set[str] = field(default_factory=set)
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

    def __post_init__(self):
        missing = [c.table for c in self.candidates if c.table not in self.repo]
        if missing:
            raise ValueError(f"scenario {self.name!r}: candidate tables "
                             f"{missing} are not in its repository")

    @property
    def key_cols(self) -> list[str]:
        """Base columns some candidate joins on, in first-seen order. They
        identify rows, so the encoder never treats them as features."""
        return list(dict.fromkeys(k for c in self.candidates for k in c.base_keys))
