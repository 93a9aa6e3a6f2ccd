"""Feature selectors: rankers, wrappers and the Tuple-Ratio table filter."""
from repro.selectors.base import RANKERS, applicable, rank_scores  # noqa: F401
