"""spark-submit entrypoint reproducing one paper table (1-6).

Usage: python jobs/run_table.py N [--quick] [--only DATASET ...]
Writes results/tableN_*.csv and prints the rows. ``--quick`` shrinks
every scenario, ``--only`` restricts the run to the named datasets.
Tests and benchmarks use the conftest ``spark`` fixture instead.
"""
import argparse
import importlib
import os
import sys

import pandas as pd


def get_spark(app: str):
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ.get('SPARK_DRIVER_MEM', '8g')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    s = (SparkSession.builder.appName(app)
         .config("spark.sql.shuffle.partitions",
                 os.environ.get("SPARK_SHUFFLE_PARTITIONS", "8"))
         .config("spark.sql.execution.arrow.pyspark.enabled", "true")
         .getOrCreate())
    s.sparkContext.setLogLevel("ERROR")
    return s


def main() -> int:
    ap = argparse.ArgumentParser(description="reproduce one ARDA paper table")
    ap.add_argument("table", type=int, choices=range(1, 7), help="paper table number")
    ap.add_argument("--quick", action="store_true", help="small smoke-scale run")
    ap.add_argument("--only", nargs="*", default=None, help="subset of datasets")
    args = ap.parse_args()
    table = importlib.import_module(f"repro.experiments.table{args.table}")
    spark = get_spark(f"arda-table{args.table}")
    try:
        df = table.run(spark, quick=args.quick, only=args.only)
        with pd.option_context("display.width", 200, "display.max_columns", 50):
            print(df.to_string(index=False))
    finally:
        spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
