"""Time quick School (L) ``_augment`` and ``tuple_ratios``, warm, on one or
more source trees.

Usage:
    python scripts/bench_augment.py [--runs 3] [--out FILE] [NAME=TREE ...]

Each ``NAME=TREE`` is a checkout whose ``src`` is benchmarked (default:
``this=<this checkout>``). Every tree runs in its own Python process and
Spark session (``local[nproc]``, driver memory ``SPARK_DRIVER_MEM`` or 3g,
8 shuffle partitions, one BLAS thread): it loads quick School (L) at
seed 0 (350 candidate tables), runs one untimed ``_augment`` and
``tuple_ratios`` to warm the JVM, then times ``--runs`` of each, every
``_augment`` on a fresh copy of the scenario. The script prints (and with
``--out`` writes) one JSON object: machine info, every run's seconds, the
medians, and a digest of the joined frame and of the TR ratios, which
must agree across trees that claim identical outputs.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _child(runs: int) -> dict:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.setdefault("PYSPARK_SUBMIT_ARGS", (
        f"--master local[{os.cpu_count()}] "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '3g')} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"))
    import dataclasses
    import hashlib
    import time

    import pandas as pd
    import pyspark
    from pyspark.sql import SparkSession

    from repro.core import arda
    from repro.experiments.common import load
    from repro.selectors.tuple_ratio import tuple_ratios

    spark = (SparkSession.builder.appName("bench_augment")
             .config("spark.sql.shuffle.partitions", "8")
             .config("spark.sql.execution.arrow.pyspark.enabled", "true")
             .getOrCreate())
    spark.sparkContext.setLogLevel("ERROR")
    try:
        sc = load(spark, "school_l", quick=True)
        n_base = sc.base.count()

        def timed(fn):
            t0 = time.perf_counter()
            out = fn()
            return out, time.perf_counter() - t0

        aug = arda._augment(dataclasses.replace(sc), sc.candidates, 0)
        ratios = tuple_ratios(n_base, sc.candidates, sc.repo)
        augment_s, ratios_s = [], []
        for _ in range(runs):
            aug, s = timed(lambda: arda._augment(dataclasses.replace(sc), sc.candidates, 0))
            augment_s.append(s)
            ratios, s = timed(lambda: tuple_ratios(n_base, sc.candidates, sc.repo))
            ratios_s.append(s)
        frame_digest = hashlib.sha256(
            pd.util.hash_pandas_object(aug.frame).to_numpy().tobytes()
            + str(list(aug.frame.dtypes.astype(str))).encode()).hexdigest()[:16]
        return {"augment_s": augment_s, "tuple_ratios_s": ratios_s,
                "median": {"augment_s": statistics.median(augment_s),
                           "tuple_ratios_s": statistics.median(ratios_s)},
                "candidates": len(sc.candidates), "frame_shape": list(aug.frame.shape),
                "frame_digest": frame_digest,
                "tr_digest": hashlib.sha256(json.dumps(ratios).encode()).hexdigest()[:16],
                "default_parallelism": spark.sparkContext.defaultParallelism,
                "pyspark": pyspark.__version__}
    finally:
        spark.stop()


def _machine() -> dict:
    mem_kb = next((int(line.split()[1]) for line in open("/proc/meminfo")
                   if line.startswith("MemTotal:")), 0)
    return {"nproc": os.cpu_count(), "mem_total_mb": mem_kb // 1024,
            "python": sys.version.split()[0]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", help="NAME=TREE checkouts to benchmark")
    ap.add_argument("--runs", type=int, default=3, help="timed runs per tree")
    ap.add_argument("--out", help="also write the JSON here")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(_child(args.runs)))
        return 0
    trees = dict(t.split("=", 1) for t in args.trees) or {"this": str(ROOT)}
    result = {"workload": "quick School (L), seed 0: _augment and tuple_ratios",
              "runs": args.runs, "machine": _machine(), "trees": {}}
    for name, tree in trees.items():
        env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
        out = subprocess.run([sys.executable, __file__, "--child", "--runs", str(args.runs)],
                             cwd=tree, env=env, check=True, capture_output=True, text=True)
        result["trees"][name] = json.loads(out.stdout.strip().splitlines()[-1])
    text = json.dumps(result, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
