"""Tests for feature-matrix assembly (binarization, datetime expansion)."""
import numpy as np
import pandas as pd
import pytest

from repro.ml.encode import assemble


@pytest.fixture()
def mixed_pdf():
    return pd.DataFrame({
        "num": [1.0, 2.0, np.nan, 4.0],
        "cat": ["a", "b", "a", None],
        "flag": [True, False, True, True],
        "when": pd.to_datetime(["2020-01-01 00:00", "2020-06-15 12:00",
                                "2021-03-03 00:00", "2020-01-01 00:00"]),
        "target": [0.0, 1.0, 2.0, 3.0],
    })


class TestEncoder:
    def test_feature_names(self, mixed_pdf):
        _, _, names, _ = assemble(mixed_pdf, "target", "reg")
        assert "num" in names and "flag" in names
        assert "cat==a" in names and "cat==b" in names
        assert {"when__epoch", "when__month", "when__dow", "when__hour"} <= set(names)

    def test_sources_name_each_features_raw_column(self, mixed_pdf):
        _, _, names, sources = assemble(mixed_pdf, "target", "reg")
        src = dict(zip(names, sources))
        assert len(sources) == len(names)
        assert src["num"] == "num" and src["cat==a"] == src["cat==b"] == "cat"
        assert {src[f"when__{p}"] for p in ("epoch", "month", "dow", "hour")} == {"when"}

    def test_transform_shape_matches_names(self, mixed_pdf):
        X, _, names, _ = assemble(mixed_pdf, "target", "reg")
        assert X.shape == (4, len(names))

    def test_numeric_nan_imputed_with_median(self, mixed_pdf):
        X, _, names, _ = assemble(mixed_pdf, "target", "reg")
        j = names.index("num")
        assert X[2, j] == pytest.approx(2.0)  # median of 1,2,4

    def test_onehot_null_category_is_all_zero(self, mixed_pdf):
        X, _, names, _ = assemble(mixed_pdf, "target", "reg")
        ja = names.index("cat==a")
        jb = names.index("cat==b")
        assert X[3, ja] == 0 and X[3, jb] == 0

    def test_datetime_hour_component(self, mixed_pdf):
        X, _, names, _ = assemble(mixed_pdf, "target", "reg")
        j = names.index("when__hour")
        assert X[1, j] == 12.0

    def test_target_excluded(self, mixed_pdf):
        _, _, names, _ = assemble(mixed_pdf, "target", "reg")
        assert "target" not in names

    def test_max_onehot_cap(self):
        pdf = pd.DataFrame({"c": [f"v{i}" for i in range(50)], "target": range(50)})
        _, _, names, _ = assemble(pdf, "target", "reg")
        assert len(names) == 20

    def test_target_values_reg_and_cls(self, mixed_pdf):
        _, yr, _, _ = assemble(mixed_pdf, "target", "reg")
        assert yr.dtype == float
        _, yc, _, _ = assemble(mixed_pdf.assign(target=["x", "y", "x", "y"]),
                               "target", "cls")
        assert set(yc) == {"x", "y"}


class TestAssemble:
    def test_pandas_input(self, mixed_pdf):
        X, y, names, _ = assemble(mixed_pdf, "target", "reg")
        assert X.shape[0] == 4 and list(y) == [0, 1, 2, 3]

    def test_empty_features(self):
        pdf = pd.DataFrame({"target": [1.0, 2.0]})
        X, y, names, _ = assemble(pdf, "target", "reg")
        assert X.shape == (2, 0) and names == []
