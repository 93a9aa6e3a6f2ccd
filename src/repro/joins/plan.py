"""Join plans: candidate ordering, table grouping, budgets (paper §4).

A ``CandidateJoin`` is what the discovery system emits: which base
column(s) join which foreign column(s) of which table, a relevance score,
and how its key matches (``soft``: ``None`` joins on equal keys,
``"nearest"`` or ``"two_way"`` on the closest values). ``make_plan``
turns a scored candidate list into batches:

* ``table``  — one table per batch, in priority order;
* ``budget`` — as many tables per batch as fit a feature budget
  (default = coreset size), with the paper's exception that a single
  table wider than the budget still ships whole to feature selection;
* ``full``   — every table in one batch (full materialization).
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CandidateJoin", "make_plan", "order_candidates"]


@dataclass
class CandidateJoin:
    """One discovered join opportunity (one batch element)."""

    table: str
    base_keys: list[str]
    foreign_keys: list[str]
    score: float = 0.0  # discovery relevance (intersection score)
    soft: str | None = None  # None (equal keys) | "nearest" | "two_way"
    n_features: int = 0  # feature columns the join would add

    def __post_init__(self):
        n = len(self.base_keys)
        if n != len(self.foreign_keys) or not n or (self.soft and n > 1):
            raise ValueError(f"candidate {self.table!r}: base and foreign keys must "
                             "be equal-length and non-empty, one key if soft")
        if self.soft not in (None, "nearest", "two_way"):
            raise ValueError(f"candidate {self.table!r}: unknown soft mode {self.soft!r}")


def order_candidates(candidates: list[CandidateJoin]) -> list[CandidateJoin]:
    """Priority order: discovery score desc, then name for determinism."""
    return sorted(candidates, key=lambda c: (-c.score, c.table))


def make_plan(candidates: list[CandidateJoin], strategy: str = "budget",
              budget: int | None = None) -> list[list[CandidateJoin]]:
    cands = order_candidates(candidates)
    if strategy == "table":
        return [[c] for c in cands]
    if strategy == "full":
        return [list(cands)] if cands else []
    if strategy != "budget":
        raise ValueError(f"unknown join strategy {strategy!r}")
    if budget is None or budget <= 0:
        raise ValueError("budget strategy needs a positive feature budget")
    batches: list[list[CandidateJoin]] = []
    cur: list[CandidateJoin] = []
    used = 0
    for c in cands:
        width = max(1, c.n_features)
        if used + width > budget and cur:
            batches.append(cur)
            cur, used = [], 0
        if width >= budget:
            # Wider-than-budget table: ships alone, whole (paper §4).
            batches.append([c])
        else:
            cur.append(c)
            used += width
    if cur:
        batches.append(cur)
    return batches
