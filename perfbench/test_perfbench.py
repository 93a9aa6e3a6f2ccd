"""Tests of the benchmark's own helpers (no Spark needed).

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
import json
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import check_batches, check_final, check_kept, recovery, table_of  # noqa: E402
from layers import stage_balance_ms, summarise, unit_of  # noqa: E402
from spans import (Tracer, patch_everywhere, percentile,  # noqa: E402
                   percentile_supported, self_times, tail_percentile)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _nested():
    """stage [0,10] > join [1,4] > collect [2,3]; stage > fit [5,9]."""
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("stage"):
        clock.t = 1
        with tr.span("join"):
            clock.t = 2
            with tr.span("collect"):
                clock.t = 3
            clock.t = 4
        clock.t = 5
        with tr.span("fit"):
            clock.t = 9
        clock.t = 10
    return tr


def test_self_time_subtracts_direct_children_only():
    tr = _nested()
    by = {s["name"]: s for s in tr.spans}
    st = self_times(tr.spans)
    assert st[by["stage"]["id"]] == pytest.approx(10 - 3 - 4)
    assert st[by["join"]["id"]] == pytest.approx(3 - 1)
    assert st[by["collect"]["id"]] == pytest.approx(1)
    assert st[by["fit"]["id"]] == pytest.approx(4)
    assert by["collect"]["parent"] == by["join"]["id"]
    assert {s["root"] for s in tr.spans} == {"stage"}


def test_self_time_counts_overlapping_children_once():
    spans = [{"id": 0, "parent": None, "start": 0.0, "end": 10.0},
             {"id": 1, "parent": 0, "start": 1.0, "end": 5.0},
             {"id": 2, "parent": 0, "start": 3.0, "end": 6.0},
             {"id": 3, "parent": 0, "start": 9.0, "end": 12.0}]  # clipped at 10
    assert self_times(spans)[0] == pytest.approx(10 - 5 - 1)


def test_same_name_nesting_folds_into_one_span():
    clock = FakeClock()
    tr = Tracer(clock)
    with tr.span("spark.collect"):
        with tr.span("spark.collect"):
            clock.t = 2
    assert len(tr.spans) == 1 and tr.spans[0]["end"] == 2


def test_stage_children_plus_self_equal_wall():
    tr = _nested()
    for s in tr.spans:
        s["name"] = "arda." + s["name"]
    assert stage_balance_ms(tr.spans) == pytest.approx(0.0, abs=1e-9)


def test_percentile_is_nearest_rank():
    v = list(range(1, 101))
    assert percentile(v, 50) == 50
    assert percentile(v, 90) == 90
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2


def test_percentile_needs_ten_samples_beyond():
    assert not percentile_supported(19, 50)
    assert percentile_supported(20, 50)
    assert not percentile_supported(99, 90)
    assert percentile_supported(100, 90)
    assert tail_percentile(5) is None
    assert tail_percentile(24) == 50.0
    assert tail_percentile(150) == 90.0
    assert tail_percentile(1000) == 99.0


TABLES = {"date": ["temp", "rain"], "weather": ["temperature", "obs_time"],
          "taxi_noise_00": ["tn0_f1", "tn0_f2"]}


def test_table_of_ignores_datetime_expansions_of_base_columns():
    assert table_of("date__epoch", TABLES) is None
    assert table_of("date__month", TABLES) is None
    assert table_of("date__temp", TABLES) == "date"
    assert table_of("weather__obs_time__dow", TABLES) == "weather"
    assert table_of("taxi_noise_00__tn0_f2==c1", TABLES) == "taxi_noise_00"
    assert table_of("zone_id", TABLES) is None


def test_recovery_counts_tables_not_features():
    kept = ["date__epoch", "weather__temperature", "weather__obs_time__hour",
            "taxi_noise_00__tn0_f1", "taxi_noise_00__tn0_f2"]
    recall, noise = recovery(kept, TABLES, {"weather", "date"}, set())
    assert recall == pytest.approx(0.5)  # weather kept, date not
    assert noise == 1


def test_recovery_without_repository_counts_features():
    signal = {"sensor_00", "sensor_01", "sensor_02", "sensor_03"}
    recall, noise = recovery(["sensor_00", "noise_003", "noise_104", "sensor_17"],
                             {}, set(), signal)
    assert recall == pytest.approx(0.25)
    assert noise == 2


def test_checks():
    assert check_batches([(768, 200), (768, 5)], 768, 1500) == []
    assert check_batches([(700, 200)], 768, 700) == []
    assert check_batches([(768, 200)], 768, 700)
    assert check_kept(["a__x"], {"a__x", "b__y"}) == []
    assert check_kept(["zone_id"], {"a__x"})
    assert check_final([768, 1500], 1500) == []
    assert check_final([1499], 1500)
    assert check_final([], 1500)


def test_patch_everywhere_reaches_imported_names_and_defaults():
    def original():
        return "orig"

    def replacement():
        return "new"

    def user(fn=original):
        return fn()

    mod = types.ModuleType("pbfake.mod")
    mod.original, mod.user = original, user
    sys.modules["pbfake.mod"] = mod
    try:
        assert patch_everywhere(original, replacement, prefix="pbfake") == 2
        assert mod.original is replacement
        assert mod.user() == "new"
    finally:
        del sys.modules["pbfake.mod"]


def test_metric_names_match_benchmark_json():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    traced = set(summarise([], 1, 1, {})) | set(run.TRACE_EXTRA)
    traced |= {name for _, name in run.UNGATED.values()}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert all(m["unit"] == unit_of(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(__import__("workloads").WORKLOADS)
