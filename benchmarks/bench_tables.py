"""Benchmarks regenerating paper Tables 1-6, one parametrized case per table.

Each case runs one table's experiment at container scale in a single
pytest-benchmark round (group ``table<N>``), checks that table's shape and
prints it; results land in results/table<N>_*.csv. Set REPRO_QUICK=1 to
run the smoke-scale variant.
"""
import importlib
import os

import pytest

QUICK = os.environ.get("REPRO_QUICK", "0") == "1"


def _check_table1(df):
    assert {"baseline", "all_features", "rifs"} <= set(df["method"])
    assert set(df["dataset"]) == {"taxi", "pickup", "poverty", "school_s", "school_l"}


def _check_table2(df):
    assert set(df["dataset"]) == {"school_s", "digits", "kraken"}
    assert {"stratified_delta_pp", "sketch_delta_pp"} <= set(df.columns)


def _check_table3(df):
    assert set(df["dataset"]) == {"taxi", "pickup", "poverty"}


def _check_table4(df):
    assert (df["tables_removed"] > 0).all()
    assert (df["speedup_x"] > 1.0).all()  # filtering must save time


def _check_table5(df):
    assert {"table_delta_pct", "fullmat_delta_pct"} <= set(df.columns)
    # paper's headline: table-join almost always underperforms budget-join
    assert df["table_delta_pct"].mean() < df["fullmat_delta_pct"].mean() + 5


def _check_table6(df):
    assert set(df["dataset"]) == {"kraken", "digits"}
    by = df.set_index(["dataset", "method"])["metric"]
    # headline shape: selection beats blindly taking all features on kraken
    assert by[("kraken", "rifs")] > by[("kraken", "all_features")]


CHECKS = [_check_table1, _check_table2, _check_table3,
          _check_table4, _check_table5, _check_table6]


@pytest.mark.parametrize("n", [
    pytest.param(n, id=f"table{n}", marks=pytest.mark.benchmark(group=f"table{n}"))
    for n in range(1, 7)])
def test_table(spark, benchmark, n):
    table = importlib.import_module(f"repro.experiments.table{n}")
    df = benchmark.pedantic(table.run, args=(spark,),
                            kwargs={"quick": QUICK}, rounds=1, iterations=1)
    CHECKS[n - 1](df)
    print(df.to_string(index=False))
