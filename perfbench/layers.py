"""Which public functions of the pipeline count as which layer, and how a
run's spans become per-layer metrics.

Wrappers are installed from outside the program: ``install`` replaces
each listed function (and every ``from x import f`` copy of it inside
``repro``) with a timed one. A listed function that no longer exists is
skipped and reported, so the benchmark keeps running when the program is
refactored; that layer then reads 0.
"""
from __future__ import annotations

import importlib

from spans import Tracer, patch_everywhere, percentile, self_times

__all__ = ["LAYERS", "install", "summarise", "stage_balance_ms", "unit_of"]

# pyspark 4 serves ``pyspark.sql.DataFrame`` as a facade; the methods that
# run jobs live on the classic class.
_SPARK_DF = "pyspark.sql.classic.dataframe"


def _soft(args, kwargs, out):
    cand = args[1] if len(args) > 1 else kwargs.get("cand")
    return {"soft": bool(getattr(cand, "soft", False))}


def _trees(args, kwargs, out):
    return {"trees": int(getattr(args[0], "n_trees", 0))}


def _features(args, kwargs, out):
    return {"features": int(out[0].shape[1])}


# (module, attribute, span name, attributes from the call)
LAYERS = [
    ("repro.repository.datasets", "load_scenario", "repository.load", None),
    ("repro.coreset.sampling", "build_coreset", "coreset.build", None),
    ("repro.core.arda", "join_candidate", "joins.plan", _soft),
    ("repro.core.arda", "_merge_hard_pandas", "joins.pandas_merge", None),
    ("repro.joins.impute", "impute", "joins.impute", None),
    ("repro.core.arda", "_impute_pandas", "joins.impute", None),
    ("repro.ml.encode", "assemble", "encode.assemble", _features),
    ("repro.ml.forest", "RandomForest.fit", "forest.fit", _trees),
    ("repro.ml.forest", "RandomForest.predict", "forest.predict", None),
    ("repro.ml.evaluate", "Evaluator.score", "evaluate.score", None),
    ("repro.core.ranking", "ensemble_scores", "ranking.ensemble", None),
    ("repro.core.rifs", "rifs_fractions", "rifs.fractions", None),
    ("repro.core.rifs", "inject_random_features", "rifs.inject", None),
    ("repro.selectors.sparse_regression", "l21_solve", "sparse_regression.l21", None),
    (_SPARK_DF, "DataFrame.localCheckpoint", "spark.checkpoint", None),
    (_SPARK_DF, "DataFrame.toPandas", "spark.collect", None),
    (_SPARK_DF, "DataFrame.collect", "spark.collect", None),
    (_SPARK_DF, "DataFrame.count", "spark.collect", None),
]


def unit_of(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_pct", "%"), ("_mb", "MB"),
                         ("_ratio", "fraction"), ("_recall", "fraction"),
                         ("_frac", "fraction")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _resolve(module: str, attr: str):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for p in path:
        owner = getattr(owner, p, None)
        if owner is None:
            return None, None
    return owner, leaf


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function; returns the ``module:attr`` it skipped."""
    skipped = []
    for module, attr, name, attrs_fn in LAYERS:
        owner, leaf = _resolve(module, attr)
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            skipped.append(f"{module}:{attr}")
            continue
        wrapped = tracer.wrap(original, name, attrs_fn)
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
        else:
            patch_everywhere(original, wrapped)
    return skipped


def _per_name(spans: list[dict], selfs: dict[int, float], root: str):
    by: dict[str, list[dict]] = {}
    for s in spans:
        if s["root"] == root:
            by.setdefault(s["name"], []).append(s)
    calls = {k: len(v) for k, v in by.items()}
    self_s = {k: sum(selfs[s["id"]] for s in v) for k, v in by.items()}
    wall = {k: sum(s["end"] - s["start"] for s in v) for k, v in by.items()}
    return by, calls, self_s, wall


def summarise(spans: list[dict], n_sweeps: int, n_setups: int,
              spark_counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics: sweep layers per sweep, set-up layers per set-up.

    Stage spans (``arda.*``) report wall time as ``<stage>_s`` and their
    own share as ``<stage>_self_s``. The three forest uses of RIFS
    (``rifs.fractions``, ``ranking.ensemble``, ``evaluate.score``) report
    wall time, so each includes its model fits; every other layer reports
    self time.
    """
    selfs = self_times(spans)
    by, calls, self_s, wall = _per_name(spans, selfs, "sweep")
    per = max(1, n_sweeps)
    m: dict[str, float] = {}

    def c(name):
        return calls.get(name, 0) / per

    def s(name):
        return self_s.get(name, 0.0) / per

    def w(name):
        return wall.get(name, 0.0) / per

    stage = {"arda.prepare": ["arda.prepare"],
             "arda.select": ["arda.select.rifs", "arda.select.all_features"],
             "arda.final": ["arda.final.baseline", "arda.final.rifs",
                            "arda.final.all_features"]}
    for key, names in stage.items():
        m[f"{key}_s"] = sum(wall.get(n, 0.0) for n in names) / per
        m[f"{key}_self_s"] = sum(self_s.get(n, 0.0) for n in names) / per
    for row in ("baseline", "rifs", "all_features"):
        m[f"arda.final_{row}_s"] = wall.get(f"arda.final.{row}", 0.0) / per

    _, _, setup_self, _ = _per_name(spans, selfs, "setup")
    m["repository.load_s"] = setup_self.get("repository.load", 0.0) / max(1, n_setups)
    m["coreset.build_s"] = s("coreset.build")
    m["joins.plan_s"] = s("joins.plan")
    m["joins.calls"] = c("joins.plan")
    m["joins.soft_calls"] = sum(1 for x in by.get("joins.plan", [])
                                if x["attrs"].get("soft")) / per
    m["joins.impute_s"] = s("joins.impute")
    m["joins.impute_calls"] = c("joins.impute")
    m["joins.pandas_merge_s"] = s("joins.pandas_merge")
    m["joins.pandas_merges"] = c("joins.pandas_merge")
    m["spark.checkpoint_s"] = s("spark.checkpoint")
    m["spark.checkpoints"] = c("spark.checkpoint")
    m["spark.collect_s"] = s("spark.collect")
    m["spark.collects"] = c("spark.collect")
    m["spark.jobs"] = spark_counts.get("jobs", 0) / per
    m["spark.stages"] = spark_counts.get("stages", 0) / per
    m["spark.tasks_failed"] = spark_counts.get("tasks_failed", 0) / per
    m["spark.jobs_per_join"] = (spark_counts.get("jobs", 0) / calls["joins.plan"]
                                if calls.get("joins.plan") else 0.0)
    m["encode.assemble_s"] = s("encode.assemble")
    m["encode.assemble_calls"] = c("encode.assemble")
    m["encode.features"] = sum(x["attrs"].get("features", 0)
                               for x in by.get("encode.assemble", [])) / per
    fits = by.get("forest.fit", [])
    m["forest.fit_s"] = s("forest.fit")
    m["forest.fits"] = c("forest.fit")
    m["forest.trees"] = sum(x["attrs"].get("trees", 0) for x in fits) / per
    fit_ms = [1e3 * selfs[x["id"]] for x in fits]
    m["forest.fit_p50_ms"] = percentile(fit_ms, 50) if fit_ms else 0.0
    m["forest.fit_p90_ms"] = percentile(fit_ms, 90) if fit_ms else 0.0
    m["forest.predict_s"] = s("forest.predict")
    m["forest.predicts"] = c("forest.predict")
    m["ranking.ensemble_s"] = w("ranking.ensemble")
    m["ranking.ensemble_calls"] = c("ranking.ensemble")
    m["evaluate.score_s"] = w("evaluate.score")
    m["evaluate.score_calls"] = c("evaluate.score")
    m["rifs.fractions_s"] = w("rifs.fractions")
    m["rifs.inject_s"] = s("rifs.inject")
    m["sparse_regression.l21_s"] = s("sparse_regression.l21")
    m["sparse_regression.l21_calls"] = c("sparse_regression.l21")
    return m


def stage_balance_ms(spans: list[dict]) -> float:
    """Largest |wall - (self + child time)| over stage spans, in ms: 0 up
    to rounding when the children tile the stage without overlap."""
    selfs = self_times(spans)
    kids: dict[int, float] = {}
    for x in spans:
        if x["parent"] is not None:
            kids[x["parent"]] = kids.get(x["parent"], 0.0) + x["end"] - x["start"]
    worst = 0.0
    for x in spans:
        if x["name"].startswith("arda."):
            gap = (x["end"] - x["start"]) - selfs[x["id"]] - kids.get(x["id"], 0.0)
            worst = max(worst, abs(gap))
    return 1e3 * worst
