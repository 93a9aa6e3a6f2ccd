"""DuckDB correctness oracle.

``assert_equivalent(result, sql, **tables)`` runs ``sql`` in DuckDB
over ``tables`` and asserts the sorted rows match ``result`` (a Spark or
pandas DataFrame). This catches wrong results from a rewritten plan or a
custom operator — "it ran" is not "it is correct".

``tables`` may be Spark or pandas DataFrames too; Spark ones are
collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    for c in pdf.select_dtypes(include="object").columns:
        pdf[c] = pdf[c].where(pdf[c].notna(), None)  # pandas NaN, SQL None
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def assert_equivalent(result, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, t.toPandas() if isinstance(t, DataFrame) else t)
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = result.toPandas() if isinstance(result, DataFrame) else result
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        _canon(got), _canon(expected), check_dtype=False
    )
