"""The benchmark's workloads. Why each one is here: see README.md."""
from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Workload", "WORKLOADS", "ROWS"]

# Pipeline rows of one sweep, in order. ``rifs`` is the default ARDA row.
ROWS = ("baseline", "rifs", "all_features")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str  # repro.repository.datasets scenario
    why: str
    sizes: dict = field(default_factory=dict)  # generator size arguments


WORKLOADS = {w.name: w for w in [
    Workload("taxi-soft", "taxi",
             "29 joins incl. a resampled two-way soft join; all_features "
             "crosses the pandas wide-fan threshold, rifs stays on Spark",
             {"n_days": 300, "n_zones": 3}),
    Workload("kraken-noise", "kraken",
             "no repository, 10x planted noise: selection and forest work "
             "only, the control for join changes"),
]}
