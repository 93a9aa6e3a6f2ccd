"""ARDA pipeline benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload taxi-soft --seed 0 --seconds 15 --trace 0

Starts one local Spark session, generates the workload's scenario from
``--seed`` and drives the public stages of ``repro.core.arda`` the way
the Table 1 job does: ``prepare_batches`` once, then ``run_selector`` and
``final_estimate`` for the rows baseline, rifs and all_features, with
``make_cfg(quick=False)`` inside ``broadcast_joins``. One such pass is a
sweep; sweeps repeat while another fits in ``--seconds`` (at least one).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` wraps the
layers' public functions (perfbench/layers.py), reports per-layer
metrics and writes the spans to ``.perfbench/trace-<workload>-<seed>.json``.
Human-readable lines come first; the last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

SETUP_REPS = 5
WARMUP_TABLES = 4
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 8  # the jobs' default (jobs/_session.py)
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Reported in the JSON line with --trace 0: name -> unit.
END_TO_END = {"setup_s": "s", "arda_s": "s", "sweep_s": "s",
              "driver_peak_rss_mb": "MB"}
# Printed by every run, but too unsteady across seeds for a bound: the
# quality figures repeat for a seed and move across seeds, and the JVM's
# peak follows its GC's timing. Traced runs report them under these names.
UNGATED = {"rifs_gain_pct": ("%", "rifs.gain_pct"),
           "signal_recall": ("fraction", "rifs.signal_recall"),
           "noise_kept": ("count", "rifs.noise_kept"),
           "rows_failed_frac": ("fraction", "arda.rows_failed_frac"),
           "jvm_peak_rss_mb": ("MB", "spark.jvm_peak_rss_mb")}
# Traced runs add these to the layer summary (perfbench/layers.py).
TRACE_EXTRA = ("rifs.kept_ratio", "tracing.spans", "tracing.overhead_pct",
               "tracing.stage_gap_ms")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> dict:
    """Fix everything that moves timings, before numpy or the JVM load."""
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    for k in BLAS_VARS:
        os.environ[k] = str(BLAS_THREADS)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = os.path.join(OUT, "spark-local")
    master = f"local[{nproc()}]"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master", master, "--driver-memory", DRIVER_MEMORY,
        "--driver-java-options", shlex.quote(f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"),
        "--conf", "spark.driver.host=127.0.0.1",
        "--conf", "spark.ui.enabled=false",
        "--conf", "spark.ui.showConsoleProgress=false",
        "pyspark-shell"])
    return {"master": master, "shuffle_partitions": SHUFFLE_PARTITIONS,
            "driver_memory": DRIVER_MEMORY,
            "blas_threads": {k: os.environ[k] for k in BLAS_VARS}}


def vm_hwm_mb(pid: int | str = "self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return float("nan")


def cpu_ticks() -> tuple[int, int]:
    """(all, steal) jiffies of the machine: steal is time the hypervisor
    gave this machine's CPUs to someone else."""
    with open("/proc/stat") as fh:
        vals = [int(v) for v in fh.readline().split()[1:]]
    return sum(vals), (vals[7] if len(vals) > 7 else 0)


def mem_total_kb() -> int:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    return 0


def start_session():
    from pyspark.sql import SparkSession
    spark = (SparkSession.builder.appName("perfbench")
             .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm(spark) -> None:
    """Stop the session and wait for the JVM child to exit."""
    from pyspark import SparkContext
    if spark is not None:
        spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway server exits on stdin EOF
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Stages:
    """Stage spans; traced runs also tag each stage's Spark jobs."""

    def __init__(self, spark, tracer):
        self.spark, self.tracer, self.groups = spark, tracer, []

    def __call__(self, name: str):
        if self.tracer is None:
            return nullcontext()
        group = f"perfbench-{len(self.groups)}"
        self.groups.append(group)
        self.spark.sparkContext.setJobGroup(group, name)
        return self.tracer.span(name)

    def spark_counts(self) -> dict[str, int]:
        st = self.spark.sparkContext.statusTracker()
        out = {"jobs": 0, "stages": 0, "tasks_failed": 0}
        for g in self.groups:
            for job in st.getJobIdsForGroup(g):
                info = st.getJobInfo(job)
                out["jobs"] += 1
                for sid in (list(info.stageIds) if info else []):
                    out["stages"] += 1
                    stage = st.getStageInfo(sid)
                    out["tasks_failed"] += stage.numFailedTasks if stage else 0
        return out


def sweep(spark, scenario, cfg, stage, final_rows: list[int]) -> dict:
    """prepare once, then every row; exceptions fail rows, not the run."""
    from repro.core.arda import final_estimate, prepare_batches, run_selector
    from repro.experiments.common import broadcast_joins
    from workloads import ROWS

    clock = time.perf_counter
    out: dict = {"rows": {}, "batches": []}
    with broadcast_joins(spark):
        out["broadcast_threshold"] = spark.conf.get("spark.sql.autoBroadcastJoinThreshold")
        t0 = clock()
        try:
            with stage("arda.prepare"):
                batches, _ = prepare_batches(spark, scenario, cfg)
        except Exception as exc:  # every row depends on prepare
            traceback.print_exc()
            out["rows"] = {r: {"error": f"prepare: {exc!r}"} for r in ROWS}
            out["sweep_s"] = clock() - t0
            return out
        out["prepare_s"] = clock() - t0
        out["batches"] = batches
        for row in ROWS:
            try:
                t = clock()
                kept: list[str] = []
                if row != "baseline":
                    with stage(f"arda.select.{row}"):
                        kept, _, _ = run_selector(batches, row, scenario.task, cfg)
                t_sel = clock() - t
                final_rows.clear()
                with stage(f"arda.final.{row}"):
                    score, n_tables = final_estimate(spark, scenario, kept, cfg)
                out["rows"][row] = {"kept": kept, "score": score, "n_tables": n_tables,
                                    "select_s": t_sel, "final_s": clock() - t - t_sel,
                                    "final_rows": list(final_rows)}
            except Exception as exc:
                traceback.print_exc()
                out["rows"][row] = {"error": repr(exc)}
        out["sweep_s"] = clock() - t0
    return out


def judge(res: dict, scenario, cfg, n_base: int, table_cols, signal_features) -> dict:
    """Output checks per row, then the quality figures of the rifs row."""
    from checks import (check_batches, check_final, check_kept, check_score,
                        recovery)
    from repro.experiments.common import pct_change_score

    shapes = [b.X.shape for b in res["batches"]]
    aug = {b.names[j] for b in res["batches"] for j in b.aug_idx}
    n_aug = sum(len(b.aug_idx) for b in res["batches"])
    problems = {}
    for row, r in res["rows"].items():
        if "error" in r:
            problems[row] = [r["error"]]
            continue
        problems[row] = (check_batches(shapes, cfg.coreset_size, n_base)
                         + check_kept(r["kept"], aug)
                         + check_final(r["final_rows"], n_base)
                         + check_score(r["score"]))
    q = {"problems": problems}
    rifs, base = res["rows"].get("rifs", {}), res["rows"].get("baseline", {})
    if "score" in rifs and "score" in base:
        q["rifs_gain_pct"] = pct_change_score(scenario.task, rifs["score"], base["score"])
        q["signal_recall"], q["noise_kept"] = recovery(
            rifs["kept"], table_cols, scenario.signal_tables, signal_features)
        q["rifs.kept_ratio"] = len(rifs["kept"]) / n_aug if n_aug else 0.0
        q["arda_s"] = res["prepare_s"] + rifs["select_s"] + rifs["final_s"]
    return q


def span_cost_s(n: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on a no-op."""
    from spans import Tracer

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        traced()
    return max(0.0, (time.perf_counter() - t0 - bare) / n)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = pin_environment()
    sys.path.insert(0, SRC)

    import numpy as np
    import pyspark
    from pyspark import SparkContext

    from repro.core.arda import prepare_batches
    from repro.experiments.common import broadcast_joins, make_cfg
    from repro.joins.plan import order_candidates
    from repro.ml import encode
    from repro.repository import datasets
    from spans import Tracer, patch_everywhere

    env.update({"pyspark": pyspark.__version__, "numpy": np.__version__,
                "python": sys.version.split()[0], "nproc": nproc(),
                "mem_total_kb": mem_total_kb()})
    # The final matrix is only visible inside final_estimate: count the
    # rows of every matrix the encoder returns (needed for the LEFT-join check).
    final_rows: list[int] = []
    assemble = encode.assemble

    def counted(*a, **kw):
        out = assemble(*a, **kw)
        final_rows.append(int(out[0].shape[0]))
        return out
    patch_everywhere(assemble, counted)

    tracer = Tracer() if args.trace else None

    def span(name: str):
        return tracer.span(name) if tracer else nullcontext()

    skipped: list[str] = []
    if tracer is not None:
        from layers import install
        skipped = install(tracer)

    clock = time.perf_counter
    ticks0 = cpu_ticks()
    spark = None
    try:
        setups = []
        for _ in range(SETUP_REPS):
            if spark is not None:
                spark.stop()
            with span("setup"):
                t0 = clock()
                spark = start_session()
                scenario = datasets.load_scenario(spark, wl.scenario, seed=args.seed,
                                                  **wl.sizes)
                setups.append(clock() - t0)
        cfg = make_cfg(quick=False, seed=args.seed)
        stage = Stages(spark, tracer)
        table_cols = {c.table: [col for col in scenario.repo[c.table].columns
                                if col not in c.foreign_keys]
                      for c in scenario.candidates}
        originals = scenario.__dict__.get("original_features", [])
        signal_features = set(originals) - set(scenario.base_feature_cols or [])

        # Warm-up: one untimed prepare over the first WARMUP_TABLES
        # candidates, so the JVM's JIT is warm when the timed sweeps start,
        # as it is for every Table 1 row after the job's own prepare.
        t0 = clock()
        first = order_candidates(scenario.candidates)[:WARMUP_TABLES]
        try:
            with span("warmup"), broadcast_joins(spark):
                prepare_batches(spark, dataclasses.replace(scenario, candidates=first), cfg)
        except Exception:  # the timed sweep fails the rows
            traceback.print_exc()
        warmup_s = clock() - t0

        sweeps = []
        t_start = clock()
        while True:
            t = clock()
            with span("sweep"):
                res = sweep(spark, scenario, cfg, stage, final_rows)
            sweeps.append(res)
            last = clock() - t
            if clock() - t_start + last > args.seconds:
                break
        n_base = scenario.base.count()
        judged = [judge(r, scenario, cfg, n_base, table_cols, signal_features)
                  for r in sweeps]
        spark_counts = stage.spark_counts() if tracer else {}
        jvm_pid = SparkContext._gateway.proc.pid
        jvm_mb = vm_hwm_mb(jvm_pid)
    except Exception:
        traceback.print_exc()
        print("perfbench: set-up failed", file=sys.stderr)
        stop_jvm(spark)
        return 1
    stop_jvm(spark)
    env["broadcast_threshold"] = sweeps[0].get("broadcast_threshold")
    ticks1 = cpu_ticks()
    env["cpu_steal_pct"] = round(100.0 * (ticks1[1] - ticks0[1])
                                 / max(1, ticks1[0] - ticks0[0]), 2)

    attempted = sum(len(r["rows"]) for r in sweeps)
    failed = sum(1 for q in judged for p in q["problems"].values() if p)
    med = statistics.median

    def med_of(key):
        vals = [q[key] for q in judged if key in q]
        return med(vals) if vals else float("nan")

    e2e = {"setup_s": med(setups), "arda_s": med_of("arda_s"),
           "sweep_s": med([r["sweep_s"] for r in sweeps]),
           "rifs_gain_pct": med_of("rifs_gain_pct"),
           "signal_recall": med_of("signal_recall"),
           "noise_kept": med_of("noise_kept"),
           "rows_failed_frac": failed / attempted if attempted else 1.0,
           "driver_peak_rss_mb": vm_hwm_mb(), "jvm_peak_rss_mb": jvm_mb}
    units = {**END_TO_END, **{k: u for k, (u, _) in UNGATED.items()}}
    print(f"# workload {wl.name} seed {args.seed} sweeps {len(sweeps)} "
          f"setups {[round(s, 3) for s in setups]} warmup_s {warmup_s:.3f}")
    print("# env " + json.dumps(env, sort_keys=True))
    for i, res in enumerate(sweeps):
        print(f"# sweep {i}: prepare_s={res.get('prepare_s', float('nan')):.3f} "
              f"sweep_s={res['sweep_s']:.3f}")
        for row, r in res["rows"].items():
            if "score" in r:
                print(f"#   {row}: score={r['score']:.6g} kept={len(r['kept'])} "
                      f"tables={r['n_tables']} select_s={r['select_s']:.3f} "
                      f"final_s={r['final_s']:.3f}")
    for q in judged:
        for row, p in q["problems"].items():
            for msg in p:
                print(f"# FAILED {row}: {msg}")
    for k, unit in units.items():
        print(f"{k} = {e2e[k]:.6g} {unit}")

    if tracer is None:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        from layers import stage_balance_ms, summarise, unit_of
        from spans import tail_percentile
        layer = summarise(tracer.spans, len(sweeps), len(setups), spark_counts)
        layer["rifs.kept_ratio"] = med_of("rifs.kept_ratio")
        layer.update({name: e2e[k] for k, (_, name) in UNGATED.items()})
        spans_arda = sum(1 for s in tracer.spans if s["root"] == "sweep") / len(sweeps)
        layer["tracing.spans"] = spans_arda
        layer["tracing.overhead_pct"] = 100.0 * spans_arda * span_cost_s() / e2e["sweep_s"]
        layer["tracing.stage_gap_ms"] = stage_balance_ms(tracer.spans)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{wl.name}-{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"env": env, "skipped": skipped, "metrics": layer,
                       "spans": tracer.spans}, fh)
        for k, v in layer.items():
            print(f"{k} = {v:.6g}")
        fits = int(layer["forest.fits"] * len(sweeps))
        print(f"# {fits} forest fits support percentiles up to p{tail_percentile(fits)}")
        if skipped:
            print(f"# layers not found: {skipped}")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layer.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
