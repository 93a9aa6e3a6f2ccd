"""Output checks on one pipeline row, and planted-signal counts.

The counts map a kept feature name to the table it came from by matching
``<table>__<column>`` against the table's real columns, so a datetime
expansion of a base column (``date__epoch``) never counts for a table
that happens to be named ``date``.
"""
from __future__ import annotations

import math

__all__ = ["table_of", "recovery", "check_batches", "check_kept",
           "check_final", "check_score"]


def table_of(name: str, table_cols: dict[str, list[str]]) -> str | None:
    """The table whose column ``name`` encodes: plain, one-hot
    ``<col>==<v>`` or datetime ``<col>__<part>``; None for base features."""
    for table in sorted(table_cols, key=len, reverse=True):
        head = table + "__"
        if not name.startswith(head):
            continue
        rest = name[len(head):]
        for col in table_cols[table]:
            if rest == col or rest.startswith(col + "==") or rest.startswith(col + "__"):
                return table
    return None


def recovery(kept: list[str], table_cols: dict[str, list[str]],
             signal_tables: set[str], signal_features: set[str]
             ) -> tuple[float, int]:
    """(share of planted signal kept, noise kept).

    With a repository both count tables. Without one (Kraken, Digits) the
    signal is the original features outside the user's base columns and
    the noise is the injected ``noise_*`` columns.
    """
    if table_cols:
        tables = {t for t in (table_of(n, table_cols) for n in kept) if t}
        signal = signal_tables & set(table_cols)
        hit = len(tables & signal)
        return (hit / len(signal) if signal else 0.0), len(tables - signal)
    hit = len(set(kept) & signal_features)
    noise = sum(1 for n in kept if n.startswith("noise_"))
    return (hit / len(signal_features) if signal_features else 0.0), noise


def check_batches(shapes: list[tuple[int, int]], coreset_size: int,
                  n_base: int) -> list[str]:
    want = min(coreset_size, n_base)
    return [f"batch {i} has {r} rows, want {want}"
            for i, (r, _) in enumerate(shapes) if r != want]


def check_kept(kept: list[str], aug_names: set[str]) -> list[str]:
    bad = [n for n in kept if n not in aug_names]
    return [f"{len(bad)} kept names are not augmented batch columns: {bad[:3]}"] if bad else []


def check_final(rows: list[int], n_base: int) -> list[str]:
    """The final matrix keeps every base row (LEFT-join invariant)."""
    if not rows:
        return ["final_estimate encoded no matrix"]
    return [] if rows[-1] == n_base else [f"final matrix has {rows[-1]} rows, base has {n_base}"]


def check_score(score: float) -> list[str]:
    return [] if math.isfinite(score) else [f"score {score} is not finite"]
