"""Synthetic augmentation scenarios with planted ground truth (DESIGN.md §2).

The paper's five real-world scenarios (Taxi, Pickup, Poverty, School S/L)
are D3M/Socrata base tables plus 16–350 tables crawled via NYU Auctus.
We rebuild each as a generator that plants known signal:

* a base table whose own features explain the target only weakly
  (baseline model is beatable),
* a few *signal tables*, joinable by hard keys or soft time keys, whose
  features enter the label-generating process — including one
  *co-predictor pair split across two tables* (an interaction term whose
  halves are individually useless, the paper's Table-5 phenomenon),
* many *noise tables* that join perfectly (same key domain) but carry
  zero signal — the "majority of joins are semantically meaningless"
  regime ARDA is designed for.

Each generator returns a ``Scenario``: the base table, its tables as a
``dict`` of Spark DataFrames, and the declared candidate joins. No key
column is declared apart from them: the base columns the candidates join
on are the scenario's keys (``Scenario.key_cols``), never encoded as
features. The one soft candidate per time-keyed scenario names its match
(``soft="two_way"`` for Taxi's hourly weather, ``"nearest"`` for
Pickup's); every other key joins on equality. Both soft tables are finer
than their base key, so once resampled to its granularity
(``joins.executor.align_time_tables``) they hold every base key value:
their soft match is an equality match, and only the unit tests reach
the floor/ceil arithmetic of ``joins.soft``.

Each candidate join carries a declared ``score``, and the scores set the
join-plan order (``joins.plan.order_candidates``). They are not the
intersection scores the discovery simulator (``repository/discovery.py``)
would compute from the data:

* every signal table covers the whole key domain (score 1.0) but is
  declared 0.93–0.99;
* the Taxi noise tables also cover the whole key domain but are declared
  uniform(0.3, 0.92), so they rank below every signal table;
* only the partial-coverage noise tables of Pickup, Poverty and School
  declare their coverage, the share of base keys they hold, which is what
  discovery measures.

A test checks that discovery finds the declared table *set* on School (S);
the scores are not compared.

Micro-benchmark datasets (Kraken, Digits, §7.2) have no repository: noise
features 10x the original count are appended directly to the base table.
Table counts per scenario match the paper (29/23/39/16/350).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.joins.plan import CandidateJoin
from repro.repository.repo import Scenario

__all__ = ["taxi", "pickup", "poverty", "school_s", "school_l",
           "kraken", "digits", "SCENARIOS", "load_scenario"]


def _noise_pdf(rng: np.random.Generator, keys: np.ndarray, key_name: str,
               n_feats: int, tag: str) -> pd.DataFrame:
    """A perfectly-joinable table of pure noise features."""
    n = len(keys)
    cols = {key_name: keys}
    for i in range(n_feats):
        kind = rng.integers(0, 3)
        if kind == 0:
            cols[f"{tag}_f{i}"] = rng.normal(rng.normal(0, 2), abs(rng.normal(1, 0.5)) + 0.1, n)
        elif kind == 1:
            cols[f"{tag}_f{i}"] = rng.uniform(-1, 1, n) * rng.integers(1, 20)
        else:
            cols[f"{tag}_f{i}"] = rng.choice([f"c{j}" for j in range(rng.integers(2, 6))], n)
    return pd.DataFrame(cols)


def _signal_cols(rng: np.random.Generator, z: np.ndarray, n_extra: int,
                 tag: str) -> dict[str, np.ndarray]:
    """One clean signal column + distractor columns in the same table."""
    cols = {f"{tag}_sig": z + 0.1 * rng.normal(size=len(z))}
    for i in range(n_extra):
        cols[f"{tag}_x{i}"] = rng.normal(size=len(z))
    return cols


def _finish(spark: SparkSession, name: str, task: str, base_pdf: pd.DataFrame,
            target: str, tables: dict[str, pd.DataFrame],
            cands: list[CandidateJoin], signal_tables: set[str]) -> Scenario:
    repo = {tname: spark.createDataFrame(pdf) for tname, pdf in tables.items()}
    return Scenario(name=name, task=task,
                    base=spark.createDataFrame(base_pdf), target=target,
                    repo=repo, candidates=cands, signal_tables=signal_tables)


def _hard_cand(table: str, key: str, score: float, n_features: int) -> CandidateJoin:
    return CandidateJoin(table=table, base_keys=[key], foreign_keys=[key],
                         score=score, n_features=n_features)


# --------------------------------------------------------------------- taxi
def taxi(spark: SparkSession, seed: int = 0, n_days: int = 375,
         n_zones: int = 4) -> Scenario:
    """Regression: predict daily taxi trips per zone. 29 candidate tables.

    Signal: hourly weather (soft time key, resampled to days),
    a daily events table (hard date key), a zone-attributes table, and a
    co-predictor pair split across fuel_price / traffic_idx.
    """
    rng = np.random.default_rng(seed)
    dates = pd.date_range("2018-01-01", periods=n_days, freq="D")
    zones = np.arange(1, n_zones + 1)
    base = pd.DataFrame([(d, z) for d in dates for z in zones],
                        columns=["date", "zone_id"])
    n = len(base)
    day_of_row = np.repeat(np.arange(n_days), n_zones)  # row -> day index

    # Latent daily signals (length n_days), mapped to rows via day_of_row
    temp_day = (10 + 12 * np.sin(2 * np.pi * dates.dayofyear.to_numpy() / 365)
                + 0.3 * np.cumsum(rng.normal(0, 1, n_days)) / np.sqrt(n_days))
    event_day = (rng.random(n_days) < 0.15).astype(float)
    fuel_day = rng.normal(0, 1, n_days)
    traffic_day = rng.normal(0, 1, n_days)
    zone_pop = rng.uniform(1, 5, n_zones)

    temp = temp_day[day_of_row]
    ev = event_day[day_of_row]
    zp = zone_pop[base["zone_id"].to_numpy() - 1]

    base["weekday"] = base["date"].dt.dayofweek
    base["reported_collisions"] = rng.poisson(5, n)
    base["borough_code"] = rng.integers(100, 105, n)
    base["trips"] = (40 * zp + 3.0 * temp + 25 * ev
                     + 18 * fuel_day[day_of_row] * traffic_day[day_of_row]
                     + 2.5 * base["weekday"].to_numpy() + 6 * rng.normal(size=n))

    tables: dict[str, pd.DataFrame] = {}
    cands: list[CandidateJoin] = []
    # Weather: hourly, soft time key
    hours = pd.date_range(dates[0], dates[-1] + pd.Timedelta(hours=23), freq="h")
    hod = hours.hour.to_numpy()
    wtemp = np.repeat(temp_day, 24)[: len(hours)] + 3 * np.sin(2 * np.pi * hod / 24) + rng.normal(0, .5, len(hours))
    tables["weather"] = pd.DataFrame({
        "obs_time": hours, "temperature": wtemp,
        "humidity": rng.uniform(20, 90, len(hours)),
        "wind": np.abs(rng.normal(8, 4, len(hours)))})
    cands.append(CandidateJoin(table="weather", base_keys=["date"],
                               foreign_keys=["obs_time"], score=0.98,
                               soft="two_way", n_features=3))
    # Events: daily hard key
    tables["events"] = pd.DataFrame({
        "date": dates, "is_event": event_day,
        **_signal_cols(rng, event_day * 0, 2, "ev")})
    cands.append(_hard_cand("events", "date", 0.97, 4))
    # Zone attributes
    tables["zone_info"] = pd.DataFrame({
        "zone_id": zones, **_signal_cols(rng, zone_pop, 2, "zone")})
    cands.append(_hard_cand("zone_info", "zone_id", 0.95, 3))
    # Co-predictor pair split across two daily tables
    tables["fuel_price"] = pd.DataFrame({
        "date": dates, **_signal_cols(rng, fuel_day, 2, "fuel")})
    cands.append(_hard_cand("fuel_price", "date", 0.94, 3))
    tables["traffic_idx"] = pd.DataFrame({
        "date": dates, **_signal_cols(rng, traffic_day, 2, "traffic")})
    cands.append(_hard_cand("traffic_idx", "date", 0.93, 3))

    for i in range(24):  # 24 noise tables -> 29 total
        key = "date" if i % 2 == 0 else "zone_id"
        keys = dates.to_numpy() if key == "date" else zones
        nf = int(rng.integers(3, 8))
        tname = f"taxi_noise_{i:02d}"
        tables[tname] = _noise_pdf(rng, keys, key, nf, f"tn{i}")
        cands.append(_hard_cand(tname, key, float(rng.uniform(0.3, 0.92)), nf))
    return _finish(spark, "taxi", "reg", base, "trips", tables, cands,
                   {"weather", "events", "zone_info", "fuel_price", "traffic_idx"})


# ------------------------------------------------------------------- pickup
def pickup(spark: SparkSession, seed: int = 1, n_hours: int = 2000) -> Scenario:
    """Regression: hourly LGA passenger pickups. 23 candidate tables.

    Signal: minute-offset weather (soft NN join; no raw observation time
    is a base hour, but resampled to hours it holds every one),
    hourly flight arrivals (hard), and a split co-predictor pair
    (security_wait x cab_supply).
    """
    rng = np.random.default_rng(seed)
    hours = pd.date_range("2018-01-01", periods=n_hours, freq="h")
    n = n_hours
    hod = hours.hour.to_numpy()
    arrivals = rng.poisson(20 + 15 * np.exp(-((hod - 17) % 24 - 0) ** 2 / 18.0), n).astype(float)
    wtemp = 5 + 10 * np.sin(2 * np.pi * hours.dayofyear / 365) + rng.normal(0, 1.5, n)
    wait = rng.normal(0, 1, n)
    supply = rng.normal(0, 1, n)
    base = pd.DataFrame({
        "pickup_hour": hours,
        "dow": hours.dayofweek,
        "is_holiday": (rng.random(n) < 0.03).astype(int),
    })
    base["pickups"] = (2.0 * arrivals + 2.5 * wtemp + 12 * wait * supply
                       - 8 * base["is_holiday"].to_numpy() + 4 * rng.normal(size=n))

    tables: dict[str, pd.DataFrame] = {}
    cands: list[CandidateJoin] = []
    # Weather observed at :17 past the hour: an exact match on the raw
    # times finds nothing; resampling truncates each to its hour
    tables["lga_weather"] = pd.DataFrame({
        "obs_time": hours + pd.Timedelta(minutes=17),
        "temperature": wtemp + rng.normal(0, .3, n),
        "precip": np.abs(rng.normal(0, 1, n))})
    cands.append(CandidateJoin(table="lga_weather", base_keys=["pickup_hour"],
                               foreign_keys=["obs_time"], score=0.98,
                               soft="nearest", n_features=2))
    tables["flights"] = pd.DataFrame({
        "pickup_hour": hours, "n_arrivals": arrivals + rng.normal(0, 1, n),
        **{f"fl_x{i}": rng.normal(size=n) for i in range(2)}})
    cands.append(_hard_cand("flights", "pickup_hour", 0.97, 3))
    tables["security_wait"] = pd.DataFrame({
        "pickup_hour": hours, **_signal_cols(rng, wait, 2, "sec")})
    cands.append(_hard_cand("security_wait", "pickup_hour", 0.96, 3))
    tables["cab_supply"] = pd.DataFrame({
        "pickup_hour": hours, **_signal_cols(rng, supply, 2, "cab")})
    cands.append(_hard_cand("cab_supply", "pickup_hour", 0.95, 3))
    for i in range(19):  # 19 noise tables -> 23 total
        nf = int(rng.integers(3, 8))
        tname = f"pickup_noise_{i:02d}"
        # noise tables cover part of the hours, so their Tuple Ratios differ
        cov = rng.uniform(0.4, 1.0)
        keys = rng.choice(hours.to_numpy(), size=int(cov * n), replace=False)
        tables[tname] = _noise_pdf(rng, np.sort(keys), "pickup_hour", nf, f"pn{i}")
        cands.append(_hard_cand(tname, "pickup_hour", float(cov), nf))
    return _finish(spark, "pickup", "reg", base, "pickups", tables, cands,
                   {"lga_weather", "flights", "security_wait", "cab_supply"})


# ------------------------------------------------------------------ poverty
def poverty(spark: SparkSession, seed: int = 2, n_counties: int = 3000) -> Scenario:
    """Regression: county poverty rate. 39 candidate tables, all hard keys."""
    rng = np.random.default_rng(seed)
    fips = np.arange(1001, 1001 + n_counties)
    unemp = rng.normal(5, 2, n_counties)
    edu = rng.normal(0, 1, n_counties)
    popchg = rng.normal(0, 1, n_counties)
    medinc = rng.normal(0, 1, n_counties)
    rural = rng.normal(0, 1, n_counties)
    base = pd.DataFrame({
        "fips": fips,
        "state_code": rng.integers(1, 51, n_counties),
        "land_area": np.abs(rng.normal(500, 300, n_counties)),
        "pct_over_65": rng.uniform(8, 25, n_counties),
    })
    base["poverty_rate"] = (12 + 1.8 * unemp - 3.0 * edu - 1.5 * popchg
                            + 4.0 * medinc * rural
                            + 0.08 * base["pct_over_65"].to_numpy()
                            + 1.0 * rng.normal(size=n_counties))
    tables: dict[str, pd.DataFrame] = {}
    cands: list[CandidateJoin] = []
    for tname, z, extra in [("unemployment", unemp, 3), ("education", edu, 3),
                            ("pop_change", popchg, 2),
                            ("median_income", medinc, 2), ("rurality", rural, 2)]:
        tables[tname] = pd.DataFrame({"fips": fips, **_signal_cols(rng, z, extra, tname[:4])})
        cands.append(_hard_cand(tname, "fips", float(rng.uniform(0.93, 0.99)), extra + 1))
    for i in range(34):  # 34 noise -> 39 total
        nf = int(rng.integers(3, 9))
        tname = f"county_noise_{i:02d}"
        # some noise tables only cover part of the key domain (partial overlap)
        cov = rng.uniform(0.4, 1.0)
        keys = rng.choice(fips, size=int(cov * n_counties), replace=False)
        tables[tname] = _noise_pdf(rng, np.sort(keys), "fips", nf, f"cn{i}")
        cands.append(_hard_cand(tname, "fips", float(cov), nf))
    return _finish(spark, "poverty", "reg", base, "poverty_rate", tables, cands,
                   {"unemployment", "education", "pop_change",
                    "median_income", "rurality"})


# ------------------------------------------------------------------- school
def _school(spark: SparkSession, seed: int, n_schools: int,
            n_noise_tables: int, name: str, extended: bool = False) -> Scenario:
    """Classification: school performance on a standardized test.

    The label depends on eight latent factors; School (S) exposes four of
    them as joinable tables, School (L) exposes all eight — the larger
    crawl genuinely contains more recoverable signal, which is why the
    paper's School (L) scores far above School (S).
    """
    rng = np.random.default_rng(seed)
    sid = np.arange(10_000, 10_000 + n_schools)
    factors = {nm: rng.normal(0, 1, n_schools)
               for nm in ["funding", "staffing", "attendance", "district_quality",
                          "library", "counselors", "sports", "parental"]}
    base = pd.DataFrame({
        "school_id": sid,
        "enrollment": rng.integers(100, 3000, n_schools),
        "charter": rng.choice(["Y", "N"], n_schools, p=[0.2, 0.8]),
        "grade_span": rng.choice(["K5", "K8", "912"], n_schools),
        "base_score_hint": 0.4 * factors["funding"] + rng.normal(0, 1, n_schools),
    })
    logit = (0.4 * base["base_score_hint"].to_numpy()
             + 1.3 * factors["funding"] - 1.1 * factors["staffing"]
             + 0.9 * factors["attendance"]
             + 1.5 * factors["district_quality"] * factors["attendance"]
             + 0.9 * factors["library"] + 0.8 * factors["counselors"]
             - 0.7 * factors["sports"] + 0.9 * factors["parental"]
             + 0.9 * rng.normal(size=n_schools))
    base["performance"] = np.where(logit > np.quantile(logit, 0.55), "pass", "fail")
    tables: dict[str, pd.DataFrame] = {}
    cands: list[CandidateJoin] = []
    exposed = list(factors)[: 8 if extended else 4]
    for tname in exposed:
        extra = int(rng.integers(2, 4))
        tables[tname] = pd.DataFrame({"school_id": sid,
                                      **_signal_cols(rng, factors[tname], extra, tname[:4])})
        cands.append(_hard_cand(tname, "school_id", float(rng.uniform(0.94, 0.99)), extra + 1))
    for i in range(n_noise_tables):
        nf = int(rng.integers(3, 7))
        tname = f"school_noise_{i:03d}"
        cov = rng.uniform(0.5, 1.0)
        keys = np.sort(rng.choice(sid, size=int(cov * n_schools), replace=False))
        tables[tname] = _noise_pdf(rng, keys, "school_id", nf, f"sn{i}")
        cands.append(_hard_cand(tname, "school_id", float(cov), nf))
    return _finish(spark, name, "cls", base, "performance", tables, cands,
                   set(exposed))


def school_s(spark: SparkSession, seed: int = 3, n_schools: int = 2000) -> Scenario:
    """School (S): 16 candidate tables (4 signal + 12 noise)."""
    return _school(spark, seed, n_schools, 12, "school_s")


def school_l(spark: SparkSession, seed: int = 3, n_schools: int = 2000) -> Scenario:
    """School (L): 350 candidate tables (8 signal + 342 noise)."""
    return _school(spark, seed, n_schools, 342, "school_l", extended=True)


# ---------------------------------------------------------------- micro sets
def _append_noise(rng: np.random.Generator, pdf: pd.DataFrame) -> pd.DataFrame:
    """Append 10x as many random features as ``pdf`` has, drawn from
    uniform / Gaussian / Bernoulli with random parameters (paper §7.2)."""
    n = len(pdf)
    t = 10 * pdf.shape[1]
    cols = {}
    for i in range(t):
        kind = rng.integers(0, 3)
        if kind == 0:
            cols[f"noise_{i:03d}"] = rng.normal(rng.normal(0, 1), abs(rng.normal(1, .5)) + .1, n)
        elif kind == 1:
            lo = rng.normal(0, 2)
            cols[f"noise_{i:03d}"] = rng.uniform(lo, lo + abs(rng.normal(2, 1)) + .1, n)
        else:
            cols[f"noise_{i:03d}"] = rng.binomial(1, rng.uniform(.1, .9), n).astype(float)
    return pd.concat([pdf, pd.DataFrame(cols, index=pdf.index)], axis=1)


def kraken(spark: SparkSession, seed: int = 4) -> Scenario:
    """Kraken: binary machine-failure classification, 1000 samples with the
    paper's 568/432 label split, 20 sensor features (a minority informative)
    + 10x appended noise."""
    rng = np.random.default_rng(seed)
    n, d = 1000, 20
    X = rng.normal(size=(n, d))
    # temperature/load/voltage-style latent failure process on 6 sensors,
    # with substantial label noise (failure prediction is genuinely hard —
    # the paper's best method reaches ~74%)
    score = (1.3 * X[:, 0] - 1.0 * X[:, 1] + 1.1 * X[:, 2] * X[:, 3]
             + 0.8 * np.abs(X[:, 4]) - 0.7 * X[:, 5] + 1.8 * rng.normal(size=n))
    thr = np.quantile(score, 0.568)  # exactly 568 zeros / 432 ones
    y = (score > thr).astype(int)
    pdf = pd.DataFrame(X, columns=[f"sensor_{i:02d}" for i in range(d)])
    feat_cols = list(pdf.columns)
    pdf = _append_noise(rng, pdf)
    pdf["failure"] = y
    # the "user's base table" is four uninformative housekeeping sensors —
    # baseline accuracy sits near the majority-class rate, as in the paper
    return Scenario(name="kraken", task="cls", base=spark.createDataFrame(pdf),
                    target="failure", repo={}, candidates=[],
                    base_feature_cols=feat_cols[16:20],
                    original_features=feat_cols)


def digits(spark: SparkSession, seed: int = 5) -> Scenario:
    """Digits stand-in: 10 classes x ~180 samples x 64 pixel features from
    blurred class prototypes (sklearn is absent; DESIGN.md §2) + 10x noise."""
    rng = np.random.default_rng(seed)
    n_per, n_cls, d = 180, 10, 64
    # overlapping prototypes: a shared stroke pattern plus a weak
    # class-specific deviation, heavy pixel noise -> single pixels are
    # weak, the full image is strong (paper: baseline ~40%, all ~91%)
    shared = rng.uniform(2, 10, d)
    protos = shared + (rng.random((n_cls, d)) < 0.3) * rng.uniform(1.5, 4.5, (n_cls, d))
    rows, labels = [], []
    for c in range(n_cls):
        m = n_per + int(rng.integers(-6, 7))
        base = protos[c] + rng.normal(0, 2.6, (m, d))
        # blur: average neighbouring "pixels" like low-res handwriting
        blur = (base + np.roll(base, 1, axis=1) + np.roll(base, -1, axis=1)) / 3
        rows.append(np.clip(blur, 0, 16))
        labels.append(np.full(m, c))
    X = np.vstack(rows)
    y = np.concatenate(labels)
    perm = rng.permutation(len(y))
    pdf = pd.DataFrame(X[perm], columns=[f"px_{i:02d}" for i in range(d)])
    feat_cols = list(pdf.columns)
    pdf = _append_noise(rng, pdf)
    pdf["digit"] = y[perm]
    # base table = the 6 pixels whose prototypes vary least across classes
    weak = np.argsort(protos.std(axis=0))[:6]
    return Scenario(name="digits", task="cls", base=spark.createDataFrame(pdf),
                    target="digit", repo={}, candidates=[],
                    base_feature_cols=[feat_cols[i] for i in sorted(weak)],
                    original_features=feat_cols)


SCENARIOS = {"taxi": taxi, "pickup": pickup, "poverty": poverty,
             "school_s": school_s, "school_l": school_l,
             "kraken": kraken, "digits": digits}


def load_scenario(spark: SparkSession, name: str, **kw) -> Scenario:
    if name not in SCENARIOS:
        raise KeyError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    return SCENARIOS[name](spark, **kw)
