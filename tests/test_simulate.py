"""Monte Carlo estimators against their analytic targets, plus the agent-based mode."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from extrisk import (
    DEFAULT_TOLERANCE,
    DYNASTY,
    DYNASTY_THETA,
    INDIVIDUAL,
    LINEAGE,
    SOCIAL_WELFARE,
    VERIFY_GRID,
    VERIFY_PATH,
    VERIFY_UTILITY,
    ConsumptionPath,
    DegenerateHazardError,
    DivergenceError,
    HazardParams,
    NoExtinctionError,
    Scenario,
    SimEstimate,
    SimulationConfig,
    SmoothingGapRow,
    UtilitySpec,
    abm_smoothing_study,
    default_horizon_cap,
    eg_lineage,
    eu_individual,
    evaluate,
    ev_dynasty_theta,
    ew_social,
    mc_compare,
    mc_eg_lineage,
    mc_eu_individual,
    mc_ev_dynasty,
    mc_ew_social,
    reproducibility_selfcheck,
    sample_date_counts,
    verify_oracle_grid,
    welfare_window_terms,
)
from extrisk.model import _CHUNK
from extrisk.series import _batch, _columns, _welfare_prefactor, _window_terms
from extrisk.simulate import (
    _TAG_ABM, _TAG_ABM_T, _TAG_EU, _TAG_EV, _check_u_to_cap, _date, _date_counts, _estimates,
    _mc_one, _offspring, _verdict,
)

ONE = ConsumptionPath.constant(1.0)
LINEAR = UtilitySpec.linear()
CFG = SimulationConfig(replications=200_000, seed=20240915)


def within_3se(est, target):
    return abs(est.mean - target) <= 3.0 * est.standard_error + 1e-12


# --- exact degenerate cases ------------------------------------------------------


def test_mc_eu_certain_immediate_death_is_exact():
    est = mc_eu_individual(
        HazardParams(m=1.0, M=0.0), ONE, LINEAR,
        SimulationConfig(replications=10_000, seed=1),
    )
    assert est.mean == 1.0
    assert est.standard_error == 0.0
    assert est.truncated_mass == 0.0


def test_mc_dynasty_certain_immediate_extinction_is_exact():
    p = HazardParams(m=0.1, M=1.0, b=0.2)
    path = ConsumptionPath.constant(2.0)
    est = mc_ev_dynasty(p, path, LINEAR, 1.0, SimulationConfig(replications=5_000, seed=2))
    assert est.mean == 2.0 and est.standard_error == 0.0


def test_mc_lineage_certain_immediate_extinction():
    p = HazardParams(m=0.1, M=1.0, b=0.2, alpha=0.4)
    est = mc_eg_lineage(p, ONE, LINEAR, SimulationConfig(replications=5_000, seed=3))
    assert est.mean == 1.0 and est.standard_error == 0.0


def test_mc_ew_certain_immediate_extinction_is_initial_welfare():
    p = HazardParams(m=0.1, M=1.0, b=0.2, N0=7.0)
    est = mc_ew_social(p, ONE, LINEAR, SimulationConfig(replications=5_000, seed=4))
    assert est.mean == pytest.approx(7.0, rel=1e-12)
    assert est.standard_error == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("reps", [3, 2 * _CHUNK + 3])
def test_constant_outcome_over_many_dates_has_zero_se(reps):
    # u(c_0) = log 2 and u(c_t) = 0 afterwards: every date realizes log 2
    path = ConsumptionPath(prefix=(2.0, 1.0))
    cfg = SimulationConfig(replications=reps, seed=6)
    p = HazardParams(m=0.3, M=0.2, b=0.1)
    for est in (mc_eu_individual(p, path, VERIFY_UTILITY, cfg),
                mc_eg_lineage(p, path, VERIFY_UTILITY, cfg)):
        assert est.mean == math.log(2.0)
        assert est.standard_error == 0.0


# --- agreement with the analytic engine ---------------------------------------------


def test_mc_eu_geometric_lifetime():
    est = mc_eu_individual(HazardParams(m=0.0, M=0.5), ONE, LINEAR, CFG)
    assert within_3se(est, 2.0)


def test_mc_eu_matches_analytic():
    p = HazardParams(m=0.02, M=0.01)
    est = mc_eu_individual(p, VERIFY_PATH, VERIFY_UTILITY, CFG)
    assert within_3se(est, eu_individual(p, VERIFY_PATH, VERIFY_UTILITY).value)


def test_mc_dynasty_constant_population():
    p = HazardParams(m=0.02, M=0.01).with_n_zero()
    est = mc_ev_dynasty(p, ONE, LINEAR, 1.0, CFG)
    assert within_3se(est, 100.0)


def test_mc_dynasty_theta_case():
    p = HazardParams(m=0.01, M=0.02, b=1.0201 / 0.99 - 1.0, theta=0.5)
    est = mc_ev_dynasty(p, ONE, LINEAR, None, CFG)
    assert within_3se(est, 1.0 / 0.0102)
    target = ev_dynasty_theta(p, ONE, LINEAR).value
    assert within_3se(est, target)


def test_mc_lineage_matches_analytic():
    p = HazardParams(m=0.02, M=0.01, b=0.03, alpha=0.5)
    est = mc_eg_lineage(p, VERIFY_PATH, VERIFY_UTILITY, CFG)
    assert within_3se(est, eg_lineage(p, VERIFY_PATH, VERIFY_UTILITY).value)


def test_mc_lineage_without_births_targets_individual():
    p = HazardParams(m=0.05, M=0.02, b=0.0, alpha=0.5)
    est = mc_eg_lineage(p, VERIFY_PATH, VERIFY_UTILITY, CFG)
    assert within_3se(est, eu_individual(p, VERIFY_PATH, VERIFY_UTILITY).value)


def test_mc_ew_constant_population_benchmark():
    p = HazardParams(m=0.02, M=0.01).with_n_zero()
    est = mc_ew_social(p, ONE, LINEAR, CFG)
    assert within_3se(est, 3355.7046979865804)


def test_mc_ew_general_point():
    p = HazardParams(m=0.1, M=0.05, b=0.05, N0=2.0)
    est = mc_ew_social(p, VERIFY_PATH, VERIFY_UTILITY, CFG)
    assert within_3se(est, ew_social(p, VERIFY_PATH, VERIFY_UTILITY).value)


# --- rejections ------------------------------------------------------------------------


def core_rejection(case, params):
    """The type and message of the exception the closed form raises at one row."""
    with pytest.raises((ValueError, DivergenceError)) as exc:
        evaluate(case, params, ONE, LINEAR)
    return type(exc.value), str(exc.value)


def test_mc_rejections():
    with pytest.raises(DegenerateHazardError):
        mc_eu_individual(HazardParams(m=0.0, M=0.0), ONE, LINEAR, CFG)
    with pytest.raises(NoExtinctionError) as no_date:
        mc_ev_dynasty(HazardParams(m=0.1, M=0.0, b=0.1), ONE, LINEAR, 1.0, CFG)
    with pytest.raises(DivergenceError) as dynasty:
        mc_ev_dynasty(HazardParams(m=0.0, M=0.005, b=0.01), ONE, LINEAR, 1.0, CFG)
    with pytest.raises(DivergenceError) as social:
        mc_ew_social(HazardParams(m=0.02, M=0.004, b=0.05), ONE, LINEAR, CFG)
    with pytest.raises(ValueError) as no_births:
        mc_ew_social(HazardParams(m=0.02, M=0.01, b=0.0), ONE, LINEAR, CFG)
    with pytest.raises(ValueError):
        mc_ev_dynasty(HazardParams(m=0.1, M=0.1, b=0.1), ONE, LINEAR, 1.5, CFG)
    # each wrapper's rejection is the array core's, type and message
    for exc, case, params in [
        (no_date, DYNASTY_THETA, HazardParams(m=0.1, M=0.0, b=0.1)),
        (dynasty, DYNASTY_THETA, HazardParams(m=0.0, M=0.005, b=0.01)),
        (social, SOCIAL_WELFARE, HazardParams(m=0.02, M=0.004, b=0.05)),
        (no_births, SOCIAL_WELFARE, HazardParams(m=0.02, M=0.01, b=0.0)),
    ]:
        assert (type(exc.value), str(exc.value)) == core_rejection(case, params)
    assert str(no_date.value) == ("M = 0: the extinction-date mixture is defective and the "
                                  "functional undefined")
    assert str(dynasty.value) == ("dynasty_theta: finiteness requires the weight product < 1, "
                                  "got 1.00495 (margin -0.00495)")
    assert str(no_births.value) == "social welfare needs b > 0: its closed form divides by b"


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(replications=0)
    with pytest.raises(ValueError):
        SimulationConfig(seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(mode="hybrid")
    with pytest.raises(ValueError):
        SimulationConfig(offspring_law="fibonacci")
    with pytest.raises(ValueError):
        SimulationConfig(horizon_cap=0)


# numpy takes seeds below 2**64 and counts draws in int64; the largest counts still construct
@pytest.mark.parametrize("kwargs, message", [
    (dict(seed=2**64), "seed must be an unsigned 64-bit integer"),
    (dict(replications=2**63), f"replications must be at most 2**63 - 1, got {2**63}"),
], ids=["seed", "replications"])
def test_simulation_config_rejects_counts_past_64_bits(kwargs, message):
    with pytest.raises(ValueError) as exc:
        SimulationConfig(**kwargs)
    assert str(exc.value) == message
    config = SimulationConfig(replications=2**63 - 1, seed=2**64 - 1)  # constructed, never run
    assert (config.replications, config.seed) == (2**63 - 1, 2**64 - 1)


# --- reproducibility --------------------------------------------------------------------


def test_estimates_are_bit_identical_for_same_seed():
    p = HazardParams(m=0.02, M=0.01)
    cfg = SimulationConfig(replications=150_000, seed=77)
    a = mc_eu_individual(p, VERIFY_PATH, VERIFY_UTILITY, cfg)
    b = mc_eu_individual(p, VERIFY_PATH, VERIFY_UTILITY, cfg)
    assert a == b


def test_different_seeds_differ():
    p = HazardParams(m=0.02, M=0.01)
    a = mc_eu_individual(p, ONE, LINEAR, SimulationConfig(replications=50_000, seed=1))
    b = mc_eu_individual(p, ONE, LINEAR, SimulationConfig(replications=50_000, seed=2))
    assert a.mean != b.mean


def test_chunk_boundary_replication_counts():
    p = HazardParams(m=0.3, M=0.2)
    for reps in (1, 131072, 131072 + 17):
        est = mc_eu_individual(p, ONE, LINEAR, SimulationConfig(replications=reps, seed=5))
        assert est.replications == reps


def test_reproducibility_selfcheck_passes():
    assert reproducibility_selfcheck()


def _stream_dates(hazard, reps, cap, seed, tag):
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    return np.repeat(np.arange(cap + 2), sample_date_counts(hazard, reps, cap, rng))


def _tables(params, growths, cfg, monkeypatch):
    """Each case's cumulative table cum[0..cap], read off ``_estimates`` bit for bit.

    With every draw pinned at one date t, t is the median date the estimate
    centers on, so its mean is cum[t] plus an exact 0.
    """
    tables = {case: [] for case in growths}
    with monkeypatch.context() as patch:
        for t in range(cfg.horizon_cap + 1):
            patch.setattr("extrisk.simulate.sample_date_counts", lambda hazard, total, cap, rng:
                          np.bincount([t], minlength=cap + 2) * total)
            for case, est in _estimates(params, growths, VERIFY_PATH, VERIFY_UTILITY, cfg).items():
                tables[case].append(est.mean)
    return {case: np.array(cum) for case, cum in tables.items()}


def test_individual_table_does_not_read_the_growth(monkeypatch):
    p = HazardParams(m=0.05, M=0.1, b=0.02)
    cfg = SimulationConfig(replications=10, seed=0, horizon_cap=40)
    unweighted = _tables(p, {INDIVIDUAL: 1.0}, cfg, monkeypatch)[INDIVIDUAL]
    assert unweighted.tobytes() == np.cumsum(
        VERIFY_UTILITY(VERIFY_PATH.values(0, 41))).tobytes()
    for g in (0.0, 0.5, 1.03, 7.0, math.inf, math.nan):
        assert _tables(p, {INDIVIDUAL: g}, cfg, monkeypatch)[INDIVIDUAL].tobytes() \
            == unweighted.tobytes()


def test_social_welfare_table_keeps_the_bits_of_the_window_terms(monkeypatch):
    # the table is built from the u(c_t) its stream shares, not from a second u(c_t)
    p = HazardParams(m=0.05, M=0.1, b=0.02, theta=0.5, N0=3.0)
    cfg = SimulationConfig(replications=10, seed=0, horizon_cap=40)
    cases = (DYNASTY_THETA, SOCIAL_WELFARE)
    growths = dict(zip(cases, _batch(_columns([p]), cases).growth.tolist()))
    table = _tables(p, growths, cfg, monkeypatch)[SOCIAL_WELFARE]
    assert table.tobytes() == np.cumsum(
        welfare_window_terms(p, VERIFY_PATH, VERIFY_UTILITY, 41)).tobytes()


def test_each_case_is_estimated_over_the_stream_of_its_date(monkeypatch):
    p = HazardParams(m=0.05, M=0.1, b=0.02, theta=0.5, alpha=0.3)
    cfg = SimulationConfig(replications=1_000, seed=8, horizon_cap=12)
    cases = (INDIVIDUAL, DYNASTY, DYNASTY_THETA, LINEAGE, SOCIAL_WELFARE)
    growth = _batch(_columns([p]), cases).growth.tolist()
    drawn = []

    def recording(hazard, total, cap, rng):
        drawn.append((int(rng.bit_generator.seed_seq.entropy[1]), hazard))
        return sample_date_counts(hazard, total, cap, rng)

    monkeypatch.setattr("extrisk.simulate.sample_date_counts", recording)
    for case, g in zip(cases, growth):
        drawn.clear()
        _estimates(p, {case: g}, VERIFY_PATH, VERIFY_UTILITY, cfg)
        assert drawn == [_date(case, p, g)[:2]]
    drawn.clear()
    growths = dict(zip(cases, growth))
    _estimates(p, growths, VERIFY_PATH, VERIFY_UTILITY, cfg)  # one stream per tag
    assert drawn == [(_TAG_EU, p.death_hazard), (_TAG_EV, p.M)]
    assert _date(INDIVIDUAL, p, growth[0]) == (_TAG_EU, p.death_hazard, p.joint_survival, 1.0)
    for case, g in zip(cases[1:], growth[1:]):
        assert _date(case, p, g) == (_TAG_EV, p.M, 1.0 - p.M, g)


def test_histogram_estimate_matches_direct_mean_over_the_same_streams(monkeypatch):
    p = HazardParams(m=0.05, M=0.1, b=0.02, theta=0.5, alpha=0.3)
    reps, cap = _CHUNK + 5_000, 12
    cfg = SimulationConfig(replications=reps, seed=8, horizon_cap=cap)
    cases = (INDIVIDUAL, DYNASTY, DYNASTY_THETA, LINEAGE, SOCIAL_WELFARE)
    growths = dict(zip(cases, _batch(_columns([p]), cases).growth.tolist()))
    ests = _estimates(p, growths, VERIFY_PATH, VERIFY_UTILITY, cfg)
    tables = _tables(p, growths, cfg, monkeypatch)
    lifetimes = _stream_dates(p.death_hazard, reps, cap, 8, _TAG_EU)
    extinctions = _stream_dates(p.M, reps, cap, 8, _TAG_EV)
    for case in cases:
        dates = lifetimes if case == INDIVIDUAL else extinctions
        vals = tables[case][np.minimum(dates, cap)]
        est = ests[case]
        assert est.truncated_mass == np.count_nonzero(dates > cap) / reps
        assert est.truncated_mass > 0.0
        assert est.mean == pytest.approx(math.fsum(vals) / reps, rel=1e-12, abs=0.0)
        direct_se = np.std(vals, ddof=1) / math.sqrt(reps)
        assert est.standard_error == pytest.approx(direct_se, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("hazard, cap", [(0.002, None), (0.05, 30), (1.0, None)],
                         ids=["drawn", "clipped", "hazard-1"])
def test_date_counts_end_at_the_last_drawn_date(hazard, cap):
    # the clipped histogram sample_date_counts draws on the stream, cut after its last
    # non-zero bin: the cap bin when a date was clipped, bin 0 alone at hazard 1
    reps = 100_000
    cfg = SimulationConfig(replications=reps, seed=41, horizon_cap=cap)
    counts, clipped = _date_counts(_TAG_EV, hazard, 1.0 - hazard, cfg)
    full = sample_date_counts(hazard, reps, cfg.cap(1.0 - hazard),
                              np.random.default_rng(np.random.SeedSequence([41, _TAG_EV])))
    beyond = int(full[-1])
    full = full[:-1]
    full[-1] += beyond
    assert counts.sum() == reps and counts[-1] > 0
    assert counts.tolist() == full[:len(counts)].tolist() and not full[len(counts):].any()
    assert clipped == beyond / reps
    if cap is not None:
        assert len(counts) == cap + 1 and clipped > 0
    elif hazard == 1.0:
        assert counts.tolist() == [reps]
    else:  # 1e5 dates at 0.002 reach about 7,000 of the 13,803 dates to the cap
        assert len(counts) < cfg.cap(1.0 - hazard)


@pytest.mark.parametrize("params", [VERIFY_GRID[3], HazardParams(m=0.02, M=0.05, b=0.03, N0=2.0)],
                         ids=["M=0.002", "M=0.05"])
def test_estimates_match_tables_over_every_date_to_the_cap(params):
    # the sums over the drawn dates are the sums over 0..cap less terms of count 0, so
    # only their order moves: 1e-12 relative is some 4,500 ulps of float64
    reps = 200_000
    cfg = SimulationConfig(replications=reps, seed=17)
    cases = (INDIVIDUAL, DYNASTY, DYNASTY_THETA, LINEAGE, SOCIAL_WELFARE)
    growths = dict(zip(cases, _batch(_columns([params]), cases).growth.tolist()))
    ests = _estimates(params, growths, VERIFY_PATH, VERIFY_UTILITY, cfg)
    for case, g in growths.items():
        tag, hazard, survival, g = _date(case, params, g)
        cap = cfg.cap(survival)
        counts = sample_date_counts(hazard, reps, cap,
                                    np.random.default_rng(np.random.SeedSequence([17, tag])))
        counts[-2] += counts[-1]
        counts = counts[:-1]
        assert np.flatnonzero(counts)[-1] < cap  # the estimate reads only part of the table
        if case == SOCIAL_WELFARE:
            cum = np.cumsum(welfare_window_terms(params, VERIFY_PATH, VERIFY_UTILITY, cap + 1))
        else:
            uu = VERIFY_UTILITY(VERIFY_PATH.values(0, cap + 1))
            cum = np.cumsum(g ** np.arange(cap + 1.0) * uu)
        mean = math.fsum(counts * cum) / reps
        se = math.sqrt(math.fsum(counts * (cum - mean) ** 2) / (reps - 1) / reps)
        assert ests[case].mean == pytest.approx(mean, rel=1e-12, abs=0.0), case
        assert ests[case].standard_error == pytest.approx(se, rel=1e-12, abs=0.0), case


def test_verify_rows_equal_single_estimator_calls():
    reps, seed = 3_000, 11
    singles = {
        "eu_individual": lambda p, cfg: mc_eu_individual(p, VERIFY_PATH, VERIFY_UTILITY, cfg),
        "ev_dynasty": lambda p, cfg: mc_ev_dynasty(p, VERIFY_PATH, VERIFY_UTILITY, 1.0, cfg),
        "ev_dynasty_theta": lambda p, cfg: mc_ev_dynasty(p, VERIFY_PATH, VERIFY_UTILITY,
                                                         None, cfg),
        "eg_lineage": lambda p, cfg: mc_eg_lineage(p, VERIFY_PATH, VERIFY_UTILITY, cfg),
        "ew_social": lambda p, cfg: mc_ew_social(p, VERIFY_PATH, VERIFY_UTILITY, cfg),
    }
    rows = verify_oracle_grid(replications=reps, seed=seed)
    assert len(rows) == 5 * len(VERIFY_GRID)
    for r in rows:
        cfg = SimulationConfig(replications=reps, seed=seed + 1_000_003 * r["point"])
        est = singles[r["functional"]](VERIFY_GRID[r["point"]], cfg)
        assert (r["mc_mean"], r["mc_se"], r["truncated_mass"]) == (
            est.mean, est.standard_error, est.truncated_mass), (r["functional"], r["point"])


# every row status: ok, infinite variance and deterministic (point 0), not sampled (point 1,
# c_t = 0.5**t underflows inside the cap), divergent (point 2), rejected at M = 0 (point 3)
# and at b = 0 (point 4), and the individual case divergent at m = M = 0 (point 5)
MIXED_POINTS = [
    HazardParams(m=0.02, M=0.05, b=0.06, theta=0.5, alpha=0.5),
    HazardParams(m=0.02, M=0.001, b=0.01),
    HazardParams(m=0.0, M=0.01, b=0.03),
    HazardParams(m=0.02, M=0.0, b=0.03),
    HazardParams(m=0.02, M=0.05, b=0.0),
    HazardParams(m=0.0, M=0.0, b=0.0),
]
MIXED_CASES = [INDIVIDUAL, DYNASTY, DYNASTY_THETA, LINEAGE, SOCIAL_WELFARE,
               Scenario("known_extinction", T=3)]
HALVING = ConsumptionPath(prefix=(1.0,), tail="geometric", ratio=0.5)


def test_mc_compare_rows_do_not_depend_on_their_batch():
    configs = [SimulationConfig(replications=2_000, seed=5 + i) for i in range(len(MIXED_POINTS))]
    args = (MIXED_CASES, HALVING, VERIFY_UTILITY, 1e-10)
    grid = mc_compare(MIXED_POINTS, *args, configs)
    singles = [row for p, cfg in zip(MIXED_POINTS, configs) for row in mc_compare([p], *args, [cfg])]
    assert len(grid) == len(MIXED_POINTS) * len(MIXED_CASES)
    assert [{k: repr(v) for k, v in row.items()} for row in grid] == [
        {k: repr(v) for k, v in row.items()} for row in singles]
    assert {row["status"].split(":")[0] for row in grid} == {
        "ok", "deterministic (no sampling)", "divergent", "rejected"}
    assert {row["status"] for row in grid if row["status"].startswith("ok:")} == {
        "ok: infinite variance, mc_se is not an error bar",
        "ok: not sampled: log utility needs consumption > 0"}
    reasons = {row["status"] for row in grid if row["status"].startswith("rejected")}
    assert any("M = 0" in r for r in reasons) and any("b > 0" in r for r in reasons)


@pytest.mark.parametrize("case, estimate", [
    (INDIVIDUAL, lambda p, cfg: mc_eu_individual(p, HALVING, VERIFY_UTILITY, cfg)),
    (DYNASTY_THETA, lambda p, cfg: mc_ev_dynasty(p, HALVING, VERIFY_UTILITY, None, cfg)),
    (LINEAGE, lambda p, cfg: mc_eg_lineage(p, HALVING, VERIFY_UTILITY, cfg)),
    (SOCIAL_WELFARE, lambda p, cfg: mc_ew_social(p, HALVING, VERIFY_UTILITY, cfg)),
], ids=["eu_individual", "ev_dynasty", "eg_lineage", "ew_social"])
def test_a_row_mc_compare_does_not_sample_is_a_one_case_value_error(case, estimate):
    # c_t = 0.5**t underflows inside the cap of either date at point 1
    cfg = SimulationConfig(replications=2_000, seed=6)
    (row,) = mc_compare(MIXED_POINTS[1:2], [case], HALVING, VERIFY_UTILITY, 1e-10, [cfg])
    assert row["status"] == "ok: not sampled: log utility needs consumption > 0"
    with pytest.raises(ValueError) as exc:
        estimate(MIXED_POINTS[1], cfg)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "log utility needs consumption > 0"


def test_not_sampled_is_decided_over_every_date_to_the_cap_whatever_the_draws():
    # c_t = 0.5**t is 0.0 from t = 1075: past every date 2,000 draws reach at these hazards,
    # so past the tables, but inside both caps (1,615 and 1,829 dates)
    p = HazardParams(m=0.002, M=0.015, b=0.01)
    configs = [SimulationConfig(replications=2_000, seed=seed) for seed in range(20)]
    for cfg in configs:
        for tag, hazard, survival in ((_TAG_EU, p.death_hazard, p.joint_survival),
                                      (_TAG_EV, p.M, 1.0 - p.M)):
            assert len(_date_counts(tag, hazard, survival, cfg)[0]) < 1075 <= cfg.cap(survival)
    rows = mc_compare([p] * 20, [INDIVIDUAL, DYNASTY, LINEAGE, SOCIAL_WELFARE], HALVING,
                      VERIFY_UTILITY, 1e-10, configs)
    assert len(rows) == 80
    for row in rows:
        assert row["status"] == "ok: not sampled: log utility needs consumption > 0"
        assert row["mc_mean"] is None and math.isfinite(row["analytic"])


def _u_finite_at_every_date(path, u, cap):
    """The rule written out: u(c_t) at every date 0..cap, raising u's own error."""
    with np.errstate(over="ignore"):
        return bool(np.all(np.isfinite(u(path.values(0, cap + 1)))))


def _agree(path, u, cap):
    """_check_u_to_cap passes where the rule written out does, else raises the same error."""
    try:
        finite, reason = _u_finite_at_every_date(path, u, cap), None
    except ValueError as exc:
        finite, reason = False, str(exc)
    if finite:
        _check_u_to_cap(path, u, cap)
    else:
        with pytest.raises(ValueError) as exc:
            _check_u_to_cap(path, u, cap)
        assert str(exc.value) == (
            reason or f"{u.family} utility leaves float range by the horizon cap {cap}"), cap
    return finite


@pytest.mark.parametrize("u", [UtilitySpec.log(), LINEAR, UtilitySpec.crra(0.5),
                               UtilitySpec.crra(3.0), UtilitySpec.crra(5.0)],
                         ids=["log", "linear", "crra0.5", "crra3", "crra5"])
@pytest.mark.parametrize("prefix", [(1.0,), (0.8, 1.1, 1.25, 1.18, 1.3), (1.0, 1.0, 1e-200, 1.0)],
                         ids=["one", "five", "tiny-at-2"])
@pytest.mark.parametrize("ratio", [None, 0.5, 0.8, 0.99, 0.9999])
def test_check_u_to_cap_agrees_with_every_date_to_the_cap(ratio, prefix, u):
    # caps inside and past the prefix, on each side of the first bad dates of
    # test_check_u_to_cap_at_the_measured_first_bad_dates, and the prefix date 2
    # (1e-200 under CRRA 3 and 5)
    path = ConsumptionPath(prefix, "constant") if ratio is None else ConsumptionPath(
        prefix, "geometric", ratio)
    for cap in (1, 2, 3, 1074, 1075, 1590, 1591, 4096):
        _agree(path, u, cap)


@pytest.mark.parametrize("ratio, u, first_bad", [
    (0.5, UtilitySpec.log(), 1075),  # c_t = 0.5**t is 0.0
    (0.8, UtilitySpec.crra(3.0), 1591),  # expm1(-2 log c_t) passes float range
    (0.9999, UtilitySpec.crra(5.0), 1_774_369),  # expm1(-4 log c_t), near the largest cap
], ids=["halving-log", "0.8-crra3", "0.9999-crra5"])
def test_check_u_to_cap_at_the_measured_first_bad_dates(ratio, u, first_bad):
    path = ConsumptionPath((1.0,), "geometric", ratio)
    assert _agree(path, u, first_bad - 1)
    assert not _agree(path, u, first_bad)


def test_estimates_ask_for_the_prefix_the_cap_date_and_the_drawn_dates_only(monkeypatch):
    asked, values = [], ConsumptionPath.values

    def spy(self, start, stop):
        asked.append(stop - start)
        return values(self, start, stop)

    monkeypatch.setattr(ConsumptionPath, "values", spy)
    p, cfg = VERIFY_GRID[3], SimulationConfig(replications=2_000, seed=4)
    growths = {INDIVIDUAL: 1.0, DYNASTY: 1.0}
    _estimates(p, growths, VERIFY_PATH, VERIFY_UTILITY, cfg)
    drawn = [len(_date_counts(tag, h, s, cfg)[0])
             for tag, h, s in ((_TAG_EU, p.death_hazard, p.joint_survival),
                               (_TAG_EV, p.M, 1.0 - p.M))]
    assert asked == [5, 1, drawn[0], 5, 1, drawn[1]]


@pytest.mark.parametrize("seed", range(1, 21))
def test_agent_mode_rejects_underflow_past_its_drawn_dates_at_every_seed(seed):
    # c_t = 0.5**t is 0 from date 1,075, inside the cap (5,513); the last of 200 drawn dates
    # falls on either side of it by seed, but the point is rejected before any draw
    with pytest.raises(ValueError) as exc:
        abm_smoothing_study(HazardParams(m=0.02, M=0.005, b=0.01), HALVING, VERIFY_UTILITY,
                            [1, 10], SimulationConfig(replications=200, seed=seed, mode="agent"))
    assert type(exc.value) is ValueError
    assert str(exc.value) == "log utility needs consumption > 0"


def test_crra_overflow_inside_the_cap_is_not_sampled_without_a_warning():
    # u(c_t) = expm1(-2 log c_t) / -2 on c_t = 0.8**t passes float range at date 1,591, inside
    # the cap of T (2,750) but past the dates 20,000 draws reach; the cap of D is 53
    p, path, crra3 = HazardParams(m=0.4, M=0.01, b=0.001), ConsumptionPath(
        (1.0,), "geometric", 0.8), UtilitySpec.crra(3.0)
    reason = "ok: not sampled: crra utility leaves float range by the horizon cap 2750"
    configs = [SimulationConfig(replications=20_000, seed=seed) for seed in range(5)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = mc_compare([p] * 5, [INDIVIDUAL, DYNASTY, LINEAGE, SOCIAL_WELFARE], path, crra3,
                          1e-10, configs)
    for i in range(0, 20, 4):
        assert rows[i]["mc_mean"] is not None and math.isfinite(rows[i]["mc_mean"])
        assert [r["status"] for r in rows[i + 1 : i + 4]] == [reason] * 3
        assert all(math.isfinite(r["analytic"]) for r in rows[i + 1 : i + 4])


def test_mc_compare_needs_one_config_per_point():
    cfg = SimulationConfig(replications=100, seed=1)
    for configs in ([cfg], [cfg] * 3):
        with pytest.raises(ValueError, match=f"per point: {len(configs)} for 2 points"):
            mc_compare(VERIFY_GRID[:2], [INDIVIDUAL], VERIFY_PATH, VERIFY_UTILITY, 1e-10, configs)


def test_verify_point_rows_equal_a_one_point_mc_compare():
    reps, seed = 3_000, 11
    rows = verify_oracle_grid(replications=reps, seed=seed)
    cases = [INDIVIDUAL, DYNASTY, DYNASTY_THETA, LINEAGE, SOCIAL_WELFARE]
    for i, params in enumerate(VERIFY_GRID):
        cfg = SimulationConfig(replications=reps, seed=seed + 1_000_003 * i)
        single = mc_compare([params], cases, VERIFY_PATH, VERIFY_UTILITY, DEFAULT_TOLERANCE, [cfg])
        point = [r for r in rows if r["point"] == i]
        assert len(point) == len(single) == 5
        for r, s in zip(point, single):
            keys = ("analytic", "mc_mean", "mc_se", "abs_error", "truncated_mass")
            assert [repr(r[k]) for k in keys] == [repr(s[k]) for k in keys]
            assert r["ok"] == (s["status"] == "ok" and s["within_3se"])


def test_mc_table_rejects_deterministic_case():
    with pytest.raises(ValueError):
        _mc_one(Scenario("known_extinction", T=3), VERIFY_GRID[0], ONE, LINEAR, CFG)


# --- horizon cap -----------------------------------------------------------------------


def test_default_horizon_cap():
    assert default_horizon_cap(0.0) == 1
    cap = default_horizon_cap(0.99)
    assert 0.99**cap < 1e-12 <= 0.99 ** (cap - 1)


def test_a_cap_past_2_21_is_refused_and_one_method_picks_the_cap():
    # a 2**21-date table is 16 MB; a given cap of 1e15 would ask numpy for petabytes
    limit = 2**21
    assert default_horizon_cap(1.0) == default_horizon_cap(1.0 - 1e-15) == limit
    assert SimulationConfig().cap(0.99) == default_horizon_cap(0.99)
    assert SimulationConfig(horizon_cap=limit).cap(0.5) == limit
    for cap in (limit + 1, 10**15):
        with pytest.raises(ValueError) as exc:
            SimulationConfig(horizon_cap=cap)
        assert str(exc.value) == f"horizon_cap must be at most 2**21 = {limit}, got {cap}"


def test_truncated_mass_reported():
    p = HazardParams(m=0.1, M=0.1, b=0.0)
    cfg = SimulationConfig(replications=20_000, seed=9, horizon_cap=5)
    est = mc_ev_dynasty(p, ONE, LINEAR, 1.0, cfg)
    expected = 0.9**6  # P(T > 5)
    se = (expected * (1 - expected) / 20_000) ** 0.5
    assert abs(est.truncated_mass - expected) < 4 * se


# --- offspring laws ----------------------------------------------------------------------


@pytest.mark.parametrize("law", ["poisson", "bernoulli-pair"])
def test_offspring_mean_preserved(law):
    rng = np.random.default_rng(42)
    survivors = np.full(50_000, 40, dtype=np.int64)
    births = _offspring(rng, survivors, 0.03, law)
    mean_per_survivor = births.sum() / survivors.sum()
    assert mean_per_survivor == pytest.approx(0.03, abs=0.002)


# at M = 1 every run ends at date 0 and draws no births, so only a check before the draws sees b
@pytest.mark.parametrize("M", [0.5, 1.0])
def test_bernoulli_pair_rejects_large_birth_rate(M):
    cfg = SimulationConfig(replications=50, seed=1, mode="agent", offspring_law="bernoulli-pair")
    with pytest.raises(ValueError) as exc:
        abm_smoothing_study(HazardParams(m=0.1, M=M, b=3.0), ONE, LINEAR, [1, 10], cfg)
    assert str(exc.value) == "bernoulli-pair needs b <= 2 (pair probability b/2)"


# --- agent-based runs ---------------------------------------------------------------------


# the study compares the smoothed welfare window over extinction dates (its b > 0 rule, which
# the window's division by b sets, is tested in test_social_welfare.py, its head counts in
# test_cli.py)
@pytest.mark.parametrize("params, error, message", [
    (HazardParams(m=0.1, M=0.0, b=0.1), NoExtinctionError,
     "the study mixes over extinction dates; needs M > 0"),
], ids=["M=0"])
def test_abm_study_rejects_points_outside_its_comparison(params, error, message):
    cfg = SimulationConfig(replications=10, seed=0, mode="agent")
    with pytest.raises(error) as exc:
        abm_smoothing_study(params, ONE, LINEAR, [1], cfg)
    assert type(exc.value) is error and str(exc.value) == message


def test_abm_study_reads_its_dates_from_the_date_histogram():
    # reps * M = 200 >= 64: the early bins are one multinomial draw, not one geometric per run
    p = HazardParams(m=0.02, M=0.2).with_n_zero()
    cfg = SimulationConfig(replications=1_000, seed=29, mode="agent", horizon_cap=10)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _TAG_ABM_T]))
    counts = sample_date_counts(p.M, cfg.replications, 10, rng)
    clipped = counts[:-1]
    clipped[-1] += counts[-1]
    windows = np.cumsum(welfare_window_terms(replace(p, N0=1.0), ONE, LINEAR, 11))
    rows = abm_smoothing_study(p, ONE, LINEAR, [1, 4], cfg)
    assert abm_smoothing_study(p, ONE, LINEAR, np.array([1, 4]), cfg) == rows  # numpy head counts
    assert 0 < counts[-1] < cfg.replications
    for row in rows:
        assert row.cap_hit_fraction == counts[-1] / cfg.replications
        assert row.smoothed_mean_per_capita == pytest.approx(
            clipped @ windows / cfg.replications, rel=1e-14)


def test_abm_welfare_matches_smoothed_window_in_expectation():
    # with n = 0 the per-capita realized welfare is unbiased for W(0,T)/N0
    p = HazardParams(m=0.02, M=0.05).with_n_zero()
    cfg = SimulationConfig(replications=4_000, seed=13, mode="agent")
    rows = abm_smoothing_study(p, ONE, LINEAR, [50], cfg)
    row = rows[0]
    assert row.welfare_gap_se > 0.0
    assert abs(row.mean_welfare_per_capita - row.smoothed_mean_per_capita) <= 3 * row.welfare_gap_se


def test_abm_study_gap_shrinks_with_head_count():
    p = HazardParams(m=0.02, M=0.01).with_n_zero()
    cfg = SimulationConfig(replications=2_000, seed=7, mode="agent")
    rows = abm_smoothing_study(p, ONE, LINEAR, [1, 10, 100], cfg)
    gaps = [r.mean_abs_gap for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    die_offs = [r.die_off_frequency for r in rows]
    assert die_offs[0] > 0.0
    assert die_offs[0] >= die_offs[1] >= die_offs[2]


def test_abm_study_is_reproducible():
    p = HazardParams(m=0.02, M=0.02).with_n_zero()
    cfg = SimulationConfig(replications=500, seed=123, mode="agent")
    a = abm_smoothing_study(p, ONE, LINEAR, [1, 10], cfg)
    b = abm_smoothing_study(p, ONE, LINEAR, [1, 10], cfg)
    assert a == b


def test_abm_bernoulli_pair_law_runs():
    p = HazardParams(m=0.02, M=0.05).with_n_zero()
    cfg = SimulationConfig(replications=300, seed=5, mode="agent", offspring_law="bernoulli-pair")
    rows = abm_smoothing_study(p, ONE, LINEAR, [20], cfg)
    assert rows[0].runs == 300
    assert rows[0].mean_welfare_per_capita > 0.0


@pytest.mark.parametrize("law", ["poisson", "bernoulli-pair"])
def test_abm_head_count_past_int64_at_period_one_raises(law):
    # b = 2 about triples 0.92 * 2**63 heads: bernoulli-pair's 2 * pairs used to wrap to a
    # positive count and the study to return a gap; the Poisson mean is past numpy's largest
    p = HazardParams(m=0.02, M=0.5, b=2.0)
    cfg = SimulationConfig(replications=20, seed=3, mode="agent", offspring_law=law)
    n0 = int(0.92 * 2**63)
    with pytest.raises(ValueError, match=f"n0={n0} outgrows int64 at period 1$"):
        abm_smoothing_study(p, ONE, LINEAR, [1, n0], cfg)


@pytest.mark.parametrize("law", ["poisson", "bernoulli-pair"])
def test_abm_population_grown_past_int64_raises_naming_head_count_and_period(law):
    # (1+b)(1-m) = 1.47 per period from one head: past 2**63 - 1 long before the cap
    p = HazardParams(m=0.02, M=0.005, b=0.5)
    cfg = SimulationConfig(replications=50, seed=1, mode="agent", offspring_law=law)
    with pytest.raises(ValueError, match=r"n0=1 outgrows int64 at period \d+$"):
        abm_smoothing_study(p, ONE, LINEAR, [1], cfg)


def test_abm_deterministic_populations_match_the_smoothed_path():
    # m = 0 and two births per head for sure: N_t = N0 3**t on every run, whatever
    # the stream, so the realized welfare of each run is its smoothed window W(0, T)
    p = HazardParams(m=0.0, M=0.2, b=2.0)
    cfg = SimulationConfig(replications=300, seed=11, mode="agent", horizon_cap=8,
                           offspring_law="bernoulli-pair")
    rows = abm_smoothing_study(p, ONE, LINEAR, [1, 3], cfg)
    assert 0.0 < rows[0].cap_hit_fraction < 1.0  # dates both below and at the cap
    for row in rows:
        assert row.mean_abs_gap <= 1e-12 * row.smoothed_mean_per_capita
        assert row.welfare_gap_se <= 1e-12 * row.smoothed_mean_per_capita
        assert row.die_off_frequency == 0.0


def test_abm_total_mortality_dies_off_on_every_run_that_sees_period_one():
    p = HazardParams(m=1.0, M=0.2, b=0.5)
    cfg = SimulationConfig(replications=300, seed=11, mode="agent")
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _TAG_ABM_T]))
    counts = sample_date_counts(p.M, cfg.replications, default_horizon_cap(1.0 - p.M), rng)
    share = (cfg.replications - counts[0]) / cfg.replications
    assert 0.0 < share < 1.0
    for row in abm_smoothing_study(p, ONE, LINEAR, [1, 7], cfg):
        assert row.die_off_frequency == share
        assert row.mean_welfare_per_capita == 1.0  # u(c_0), the founders only


def _study_drawing_every_period(p, path, u, n0_values, cfg):
    """``abm_smoothing_study``'s rows from a loop that draws deaths and births in every period
    up to the last date, even once every population has died out."""
    reps = cfg.replications
    counts, hit_frac = _date_counts(_TAG_ABM_T, p.M, 1.0 - p.M, cfg)
    live = reps - np.concatenate(([0], np.cumsum(counts)))
    uu = u(path.values(0, len(counts)))
    smooth_cum = np.cumsum(_window_terms(_welfare_prefactor(1.0, p.b), p, uu))
    n0s = np.array(n0_values, dtype=np.int64)
    n = np.repeat(n0s[:, None], reps, axis=1)
    f, welfare = np.zeros(n.shape), np.zeros(n.shape)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _TAG_ABM]))
    for t in range(len(counts)):
        alive, moving = live[t], live[t + 1]
        f[:, :alive] = f[:, :alive] * (1.0 - p.m) + n[:, :alive]
        welfare[:, :alive] += uu[t] * f[:, :alive]
        survivors = rng.binomial(n[:, :moving], 1.0 - p.m)
        n[:, :moving] = survivors + _offspring(rng, survivors, p.b, cfg.offspring_law)
    percap = welfare / n0s[:, None]
    gap = percap - np.repeat(smooth_cum[::-1], counts[::-1])
    smooth_mean = counts @ smooth_cum / reps
    gap_se = np.std(gap, axis=1, ddof=1) / math.sqrt(reps)
    return [SmoothingGapRow(n0=int(n0), runs=reps, mean_abs_gap=float(np.mean(np.abs(gap[i]))),
                            die_off_frequency=float(np.mean(n[i] == 0)),
                            mean_welfare_per_capita=float(np.mean(percap[i])),
                            smoothed_mean_per_capita=float(smooth_mean),
                            cap_hit_fraction=hit_frac, welfare_gap_se=float(gap_se[i]))
            for i, n0 in enumerate(n0s)]


@pytest.mark.parametrize("law", ["poisson", "bernoulli-pair"])
@pytest.mark.parametrize("m, dies_off", [(0.3, True), (0.02, False)], ids=["die-off", "survive"])
def test_abm_study_that_stops_drawing_at_die_off_equals_the_loop_that_never_stops(
        law, m, dies_off, monkeypatch):
    p = HazardParams(m=m, M=0.02, b=0.05)
    cfg = SimulationConfig(replications=400, seed=31, mode="agent", offspring_law=law)
    n0_values = [1, 5, 40]
    periods = []

    def counting(rng, survivors, b, law):
        periods.append(len(survivors))
        return _offspring(rng, survivors, b, law)

    monkeypatch.setattr("extrisk.simulate._offspring", counting)
    rows = abm_smoothing_study(p, VERIFY_PATH, VERIFY_UTILITY, n0_values, cfg)
    assert rows == _study_drawing_every_period(p, VERIFY_PATH, VERIFY_UTILITY, n0_values, cfg)
    # (1-m)(1+b) is 0.735 at m = 0.3: every population dies out long before the last date and
    # the draws stop there; at m = 0.02 some survive, so every period but the last draws
    last = len(_date_counts(_TAG_ABM_T, p.M, 1.0 - p.M, cfg)[0]) - 1
    assert len(periods) < last / 2 if dies_off else len(periods) == last
    assert 0.0 < rows[0].die_off_frequency < 1.0


# --- verification grid -------------------------------------------------------------------


def test_verify_grid_satisfies_preconditions():
    for p in VERIFY_GRID:
        assert p.M > 0.0 and p.b > 0.0
        assert (1.0 - p.M) * p.gross_growth < 1.0
        assert (1.0 - p.M) * p.gross_growth**2 < 1.0  # finite MC variance


def test_verify_oracle_grid_smoke():
    rows = verify_oracle_grid(replications=60_000, seed=20240613, points=VERIFY_GRID[:2])
    assert len(rows) == 10
    assert sum(not r["ok"] for r in rows) <= 1
    assert all(r["mc_se"] > 0 for r in rows)


def test_mc_verdict_error_bar_and_growing_crra_tail():
    params = HazardParams(m=0.02, M=0.01, b=0.03)
    est = SimEstimate(mean=1.0, standard_error=0.1, replications=10, truncated_mass=0.0)
    flat = ConsumptionPath(prefix=(1.0,))
    decaying = ConsumptionPath(prefix=(1.0,), tail="geometric", ratio=0.99)
    crra = UtilitySpec.crra(3.0)

    def mc_verdict(case, *rest):  # at the growth of the case's row
        return _verdict(case, params, _batch(_columns([params]), [case]).growth[0], *rest)

    err, within, finite_variance = mc_verdict(INDIVIDUAL, flat, crra, est, 1.3)
    assert err == pytest.approx(0.3) and within and finite_variance
    assert not mc_verdict(INDIVIDUAL, flat, crra, est, 1.31)[1]
    # s = (1-m)(1-M) = 0.9702 and u(c_t) grows like 0.99**-2: 0.9702 * 1.0203**2 = 1.0100
    assert not mc_verdict(INDIVIDUAL, decaying, crra, est, 1.3)[2]
    # sigma < 1: u(c_t) decays with c_t, so only the weights count
    assert mc_verdict(INDIVIDUAL, decaying, UtilitySpec.crra(0.5), est, 1.3)[2]
    # linear u(c_t) decays with c_t and log u(c_t) grows only linearly in t
    assert mc_verdict(INDIVIDUAL, decaying, UtilitySpec.linear(), est, 1.3)[2]
    assert mc_verdict(INDIVIDUAL, decaying, UtilitySpec.log(), est, 1.3)[2]
    # (1-M)(1+n)**2 = 1.0087 for the dynasty; (1-M)(1+n) = 0.9993 keeps its mean finite
    assert not mc_verdict(DYNASTY, flat, crra, est, 1.3)[2]
