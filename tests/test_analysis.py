"""Discount factor table, profile, and comparative-statics checks."""

import math

from decimal import Decimal

import numpy as np
import pytest

import decimal_oracle
from extrisk import (
    DYNASTY,
    DYNASTY_THETA,
    INDIVIDUAL,
    LINEAGE,
    SOCIAL_WELFARE,
    VERIFY_GRID,
    ConsumptionPath,
    HazardParams,
    UtilitySpec,
    belief_update_response,
    discount_factor,
    discount_profile,
    known_extinction,
    scenario_sweep,
)

CONSTANT_CASES = (INDIVIDUAL, DYNASTY, DYNASTY_THETA, LINEAGE)
ALL_TABLE_CASES = CONSTANT_CASES + (SOCIAL_WELFARE,)
ONE = ConsumptionPath.constant(1.0)
LINEAR = UtilitySpec.linear()


# --- closed-form factors -----------------------------------------------------


def test_dynasty_factor_constant_population():
    p = HazardParams(m=0.02, M=0.01).with_n_zero()
    rep = discount_factor(DYNASTY, p)
    assert rep.factor == pytest.approx(0.99, abs=1e-14)
    assert rep.factor_n0 == pytest.approx(0.99, abs=1e-15)
    assert rep.rate_simple == pytest.approx(0.01, abs=1e-14)
    assert rep.rate_log == pytest.approx(-math.log(0.99), abs=1e-14)


def test_lineage_constant_population_factor():
    p = HazardParams(m=0.02, M=0.01, alpha=0.5)
    rep = discount_factor(LINEAGE, p)
    assert rep.factor_n0 == pytest.approx(0.99 * 0.98**0.5, abs=1e-14)


def test_individual_factor_without_risk_is_one():
    rep = discount_factor(INDIVIDUAL, HazardParams(m=0.0, M=0.0))
    assert rep.factor == 1.0
    assert rep.rate_simple == 0.0 and rep.rate_log == 0.0


def test_known_extinction_factor_ignores_M():
    a = discount_factor(known_extinction(5), HazardParams(m=0.1, M=0.01))
    b = discount_factor(known_extinction(5), HazardParams(m=0.1, M=0.5))
    assert a.factor == b.factor == pytest.approx(0.9, abs=1e-15)
    assert a.note is not None


def test_social_welfare_factor_flagged_non_constant():
    rep = discount_factor(SOCIAL_WELFARE, HazardParams(m=0.02, M=0.01, b=0.03))
    assert not rep.constant
    assert rep.factor == pytest.approx(0.999306, abs=1e-12)


def test_rates_are_derived_from_factor():
    for case in ALL_TABLE_CASES:
        rep = discount_factor(case, HazardParams(m=0.07, M=0.02, b=0.05, theta=0.4, alpha=0.3))
        assert rep.rate_simple == 1.0 - rep.factor
        assert rep.rate_log == pytest.approx(-math.log(rep.factor), rel=1e-14)


# --- factors against the ratios of exact series weights --------------------------


def test_individual_factor_hand_value():
    p = HazardParams(m=0.02, M=0.01)
    assert discount_factor(INDIVIDUAL, p).factor == pytest.approx(0.9702, abs=1e-12)


def test_dynasty_theta_zero_factor_hand_value():
    p = HazardParams(m=0.3, M=0.04, b=0.6, theta=0.0)
    assert discount_factor(DYNASTY_THETA, p).factor == pytest.approx(0.96, abs=1e-12)


def test_lineage_factor_hand_value():
    p = HazardParams(m=0.02, M=0.01, b=0.03, alpha=0.5)
    assert discount_factor(LINEAGE, p).factor == pytest.approx(
        0.99 * 0.98 * 1.03**0.5, abs=1e-12
    )


@pytest.mark.parametrize("case", CONSTANT_CASES)
@pytest.mark.parametrize("params", VERIFY_GRID)
def test_weights_reproduce_closed_form_factor(case, params):
    factor = Decimal(discount_factor(case, params).factor)
    ratios = decimal_oracle.exact_weight_ratios(case.kind, params, 51)
    assert max(abs(r - factor) for r in ratios) < Decimal("1e-12")


@pytest.mark.parametrize("case", ALL_TABLE_CASES)
@pytest.mark.parametrize("params", [p for p in VERIFY_GRID if p.m < 1.0])
def test_n0_column_equals_substitution(case, params):
    """The n=0 column is the general formula at b = m/(1-m)."""
    direct = discount_factor(case, params).factor_n0
    substituted = discount_factor(case, params.with_n_zero()).factor
    assert direct == pytest.approx(substituted, abs=1e-12)


# --- profile ---------------------------------------------------------------------


def test_profile_monotone_convergence():
    p = HazardParams(m=0.02, M=0.01, b=0.03)
    prof = discount_profile(p, 2001)
    assert prof.long_run == pytest.approx(0.999306, abs=1e-12)
    # strictly decreasing until the gap to the limit drops below float
    # resolution; past that the computed ratios may jitter by one ulp
    diffs = np.diff(prof.ratios)
    resolvable = (prof.ratios[:-1] - prof.long_run) > 1e-13
    assert np.all(diffs[resolvable] < 0.0)
    assert np.all(diffs <= 4.0 * np.finfo(float).eps)
    assert np.all(prof.ratios >= prof.long_run)
    assert np.all(prof.ratios[:100] > prof.long_run)
    assert abs(prof.ratios[2000] - prof.long_run) < 1e-10


def test_profile_first_ratio():
    p = HazardParams(m=0.02, M=0.01, b=0.03)
    prof = discount_profile(p, 3)
    q = 1.0 / 1.03
    assert prof.ratios[0] == pytest.approx(prof.long_run * (1.0 + q), rel=1e-14)


def test_profile_long_run_equals_dynasty_factor():
    p = HazardParams(m=0.07, M=0.02, b=0.04)
    prof = discount_profile(p, 10)
    assert prof.long_run == discount_factor(DYNASTY, p).factor


def test_profile_matches_series_weight_ratios():
    p = HazardParams(m=0.02, M=0.01, b=0.03, N0=3.0)
    ratios = [float(r) for r in decimal_oracle.exact_weight_ratios("social_welfare", p, 41)]
    prof = discount_profile(p, 40)
    np.testing.assert_allclose(ratios, prof.ratios, rtol=1e-12)


def test_profile_needs_births():
    with pytest.raises(ValueError):
        discount_profile(HazardParams(m=0.1, M=0.1, b=0.0), 10)


# --- belief updates ----------------------------------------------------------------


def test_dynasty_n_fixed_is_insensitive_to_mortality():
    p = HazardParams(m=0.02, M=0.01).with_n_zero()
    rep = belief_update_response(DYNASTY, p)
    assert rep.n_fixed.d_factor_d_m == 0.0
    assert rep.n_fixed.fd_d_factor_d_m == 0.0
    assert rep.n_fixed.d_factor_d_M == pytest.approx(-1.0, abs=1e-14)
    assert rep.n_fixed.fd_d_factor_d_M == pytest.approx(-1.0, rel=1e-9)


def test_individual_symmetry_at_equal_hazards():
    p = HazardParams(m=0.02, M=0.02)
    rep = belief_update_response(INDIVIDUAL, p)
    for reg in (rep.b_fixed, rep.n_fixed):
        assert abs(reg.d_factor_d_M) == abs(reg.d_factor_d_m) == pytest.approx(0.98, abs=1e-15)


def test_lineage_n_fixed_closed_form():
    p = HazardParams(m=0.02, M=0.01, alpha=0.5).with_n_zero()
    rep = belief_update_response(LINEAGE, p)
    expected = -(1.0 - 0.5) * 0.99 * 0.98 ** (-0.5)  # times (1+n)**alpha = 1
    assert rep.n_fixed.d_factor_d_m == pytest.approx(expected, rel=1e-12)
    assert rep.n_fixed.fd_d_factor_d_m == pytest.approx(expected, rel=1e-6)


INTERIOR_POINTS = [
    HazardParams(m=0.02, M=0.01, b=0.03, theta=0.5, alpha=0.5),
    HazardParams(m=0.10, M=0.05, b=0.05, theta=0.3, alpha=0.25),
    HazardParams(m=0.30, M=0.20, b=0.5, theta=0.8, alpha=0.75),
    HazardParams(m=0.08, M=0.008, b=0.04, theta=0.7, alpha=0.45),
]


@pytest.mark.parametrize("params", INTERIOR_POINTS)
@pytest.mark.parametrize("case", ALL_TABLE_CASES + (known_extinction(7),))
def test_finite_differences_agree_with_closed_forms(params, case):
    rep = belief_update_response(case, params)
    for reg in (rep.b_fixed, rep.n_fixed):
        for closed, fd in (
            (reg.d_factor_d_M, reg.fd_d_factor_d_M),
            (reg.d_factor_d_m, reg.fd_d_factor_d_m),
        ):
            if closed == 0.0:
                assert abs(fd) < 1e-6
            else:
                assert fd == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("params", VERIFY_GRID)
@pytest.mark.parametrize("case", ALL_TABLE_CASES + (known_extinction(7),), ids=lambda c: c.label())
def test_closed_form_slopes_match_exact_slopes(params, case):
    """Each closed-form slope against 50-digit central differences of the exact weight ratio."""
    rep = belief_update_response(case, params)
    for reg in (rep.b_fixed, rep.n_fixed):
        exact = decimal_oracle.exact_slopes(case.kind, params, reg.regime)
        for closed, slope in zip((reg.d_factor_d_M, reg.d_factor_d_m), exact):
            if closed == 0.0:
                assert abs(slope) < Decimal("1e-25"), (reg.regime, slope)
            else:
                assert abs(Decimal(closed) - slope) <= Decimal("1e-13") * abs(slope), reg.regime


@pytest.mark.parametrize("params", INTERIOR_POINTS)
@pytest.mark.parametrize("case", ALL_TABLE_CASES)
def test_extinction_risk_always_raises_impatience(params, case):
    rep = belief_update_response(case, params)
    assert rep.b_fixed.d_factor_d_M < 0.0
    assert rep.n_fixed.d_factor_d_M < 0.0


def test_step_crossing_boundary_is_flagged():
    p = HazardParams(m=5e-7, M=0.01)
    with pytest.raises(ValueError):
        belief_update_response(INDIVIDUAL, p, dm=1e-6)
    with pytest.raises(ValueError):
        belief_update_response(INDIVIDUAL, HazardParams(m=0.1, M=0.1), dM=0.0)


@pytest.mark.parametrize("step", [math.nan, math.inf, "1e-6", None, True])
def test_non_finite_step_is_rejected(step):
    # a string, None or a bool is no step, as "finite and > 0" reads it everywhere
    with pytest.raises(ValueError, match=r"^dM must be finite and > 0, got "):
        belief_update_response(INDIVIDUAL, HazardParams(m=0.1, M=0.1), dM=step)


# --- sweeps -----------------------------------------------------------------------


def test_sweep_single_point():
    rows = scenario_sweep([HazardParams(m=0.02, M=0.01)], [INDIVIDUAL], ONE, LINEAR)
    assert len(rows) == 1
    row = rows[0]
    assert row.status == "ok"
    assert row.report.factor == pytest.approx(0.9702, abs=1e-14)
    assert row.series.value == pytest.approx(1.0 / 0.0298, abs=1e-8)


def test_sweep_empty_cases():
    assert scenario_sweep([HazardParams(m=0.1, M=0.1)], [], ONE, LINEAR) == []


def test_sweep_flags_divergent_points():
    divergent = HazardParams(m=0.0, M=0.005, b=0.01)
    ok = HazardParams(m=0.02, M=0.01, b=0.01)
    rows = scenario_sweep([divergent, ok], [DYNASTY], ONE, LINEAR)
    assert rows[0].status == "divergent"
    assert rows[0].series is None
    assert not rows[0].finite
    assert rows[1].status == "ok" and rows[1].series is not None


def test_sweep_flags_rejected_points():
    no_ext = HazardParams(m=0.02, M=0.0, b=0.01)
    rows = scenario_sweep([no_ext], [DYNASTY], ONE, LINEAR)
    assert rows[0].status.startswith("rejected")
    assert rows[0].series is None


def test_sweep_row_to_dict_roundtrip_fields():
    rows = scenario_sweep([HazardParams(m=0.02, M=0.01)], [INDIVIDUAL, known_extinction(4)], ONE, LINEAR)
    d = rows[0].to_dict()
    assert d["case"] == "individual" and d["value"] is not None
    d2 = rows[1].to_dict()
    assert d2["case"] == "known_extinction(T=4)"
    assert d2["value"] == pytest.approx(sum(0.98**t for t in range(5)), rel=1e-12)
