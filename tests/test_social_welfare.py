"""Welfare-window and expected-social-welfare cross-checks.

The window terms are checked against the decimal oracle's windows W(0, T),
built from their definition, and ew_social against the oracle's mixture of
those windows over the extinction date, and that mixture against the
oracle's own closed form.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decimal_oracle
from extrisk import (
    ConsumptionPath,
    DivergenceError,
    HazardParams,
    NoExtinctionError,
    SOCIAL_WELFARE,
    SimulationConfig,
    VERIFY_GRID,
    VERIFY_PATH,
    VERIFY_UTILITY,
    UtilitySpec,
    abm_smoothing_study,
    discount_profile,
    evaluate,
    mc_compare,
    mc_ew_social,
    ew_social,
    ew_social_n0_form,
    scenario_sweep,
    welfare_window_terms,
)
from extrisk.analysis import _sweep_columns
from extrisk.series import _columns

ONE = ConsumptionPath.constant(1.0)
LINEAR = UtilitySpec.linear()
LOG = UtilitySpec.log()
BUMPY = ConsumptionPath(prefix=(0.9, 1.4, 1.1, 2.0, 1.7))


# --- welfare window -----------------------------------------------------------


def window(params, T, path, u):
    """W(0, T) in floats: the sum of the first T + 1 window terms."""
    return math.fsum(welfare_window_terms(params, path, u, T + 1))


def test_window_at_date_zero_is_initial_population_utility():
    p = HazardParams(m=0.02, M=0.01, b=0.03, N0=5.0)
    path = ConsumptionPath.constant(2.0)
    assert window(p, 0, path, LINEAR) == pytest.approx(10.0, rel=1e-14)


def test_exact_window_at_b_zero_is_the_hand_double_sum():
    # t=0 cohort: 1 + 0.9; t=1 cohort of size 0.9: 0.9 -> total 2.8
    p = HazardParams(m=0.1, M=0.05, b=0.0, N0=1.0)
    assert float(decimal_oracle.exact_window(p, 1, ONE, LINEAR)) == pytest.approx(2.8, abs=1e-12)


@pytest.mark.parametrize(
    "params,path,u,T",
    [
        (HazardParams(m=0.02, M=0.01, b=0.03), ONE, LINEAR, 3),
        (HazardParams(m=0.02, M=0.01, b=0.03, N0=4.0), BUMPY, LOG, 25),
        (HazardParams(m=0.3, M=0.1, b=0.5, N0=0.5), BUMPY, UtilitySpec.crra(2.0), 40),
        (HazardParams(m=0.005, M=0.002, b=0.004), ONE, LINEAR, 200),
        (HazardParams(m=0.1, M=0.05, b=0.2),
         ConsumptionPath(prefix=(1.0, 2.0), tail="geometric", ratio=0.95), LOG, 60),
    ],
)
def test_window_closed_form_equals_double_sum(params, path, u, T):
    direct = decimal_oracle.exact_window(params, T, path, u)
    assert window(params, T, path, u) == pytest.approx(float(direct), rel=1e-10)


@given(
    m=st.floats(min_value=0.001, max_value=0.9),
    b=st.floats(min_value=0.001, max_value=1.0),
    T=st.integers(min_value=0, max_value=80),
)
@settings(max_examples=80, deadline=None)
def test_window_identity_random_params(m, b, T):
    params = HazardParams(m=m, M=0.01, b=b, N0=2.0)
    closed = window(params, T, BUMPY, LOG)
    direct = float(decimal_oracle.exact_window(params, T, BUMPY, LOG))
    scale = max(abs(closed), abs(direct), 1.0)
    assert abs(closed - direct) <= 1e-10 * scale


def test_window_terms_cumulate_to_windows():
    p = HazardParams(m=0.05, M=0.02, b=0.07, N0=3.0)
    terms = welfare_window_terms(p, BUMPY, LOG, 31)
    acc = 0.0
    for T in (0, 7, 30):
        acc = math.fsum(terms[: T + 1])
        assert acc == pytest.approx(float(decimal_oracle.exact_window(p, T, BUMPY, LOG)),
                                    rel=1e-12)


# --- expected social welfare ----------------------------------------------------


def test_ew_constant_population_benchmark():
    # two-geometric-series closed form:
    # (1/m) * (1/M - (1-m) / (1 - (1-M)(1-m)))
    m, M = 0.02, 0.01
    p = HazardParams(m=m, M=M).with_n_zero()
    oracle = (1.0 / m) * (1.0 / M - (1.0 - m) / (1.0 - (1.0 - M) * (1.0 - m)))
    res = ew_social(p, ONE, LINEAR)
    assert res.converged
    assert res.value == pytest.approx(oracle, abs=1e-8)
    assert res.value == pytest.approx(3355.7046979865804, abs=1e-8)


def test_ew_zero_utility_path():
    p = HazardParams(m=0.02, M=0.01, b=0.03)
    res = ew_social(p, ConsumptionPath.constant(1.0), LOG)  # log(1) = 0 every period
    assert res.value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("m", [0.01, 0.02, 0.05, 0.1, 0.3])
def test_ew_n0_simplification_agrees(m):
    p = HazardParams(m=m, M=0.008).with_n_zero()
    a = ew_social(p, BUMPY, LOG)
    b = ew_social_n0_form(p, BUMPY, LOG)
    scale = max(abs(a.value), abs(b.value), 1.0)
    assert abs(a.value - b.value) <= 1e-10 * scale + a.tail_bound + b.tail_bound


MIXTURE_PARAMS = [
    HazardParams(m=0.02, M=0.01, b=0.025),
    HazardParams(m=0.10, M=0.05, b=0.05),
    HazardParams(m=0.30, M=0.20, b=0.5, N0=2.0),
    HazardParams(m=0.25, M=0.004, b=0.2),
    HazardParams(m=0.50, M=0.30, b=0.8),
]


@pytest.mark.parametrize("params", MIXTURE_PARAMS)
def test_ew_matches_mixture_definition(params):
    a = ew_social(params, BUMPY, LOG)
    mixture = decimal_oracle.exact_mixture(params, BUMPY, LOG)
    assert a.converged
    assert abs(Decimal(a.value) - mixture.value) <= Decimal(a.tail_bound) + mixture.bound


# acceptance 3's points, then the five above
@pytest.mark.parametrize(
    "params,path,u",
    [(p, VERIFY_PATH, VERIFY_UTILITY) for p in VERIFY_GRID[:6]]
    + [(p, BUMPY, LOG) for p in MIXTURE_PARAMS],
)
def test_exact_mixture_agrees_with_the_exact_closed_form(params, path, u):
    """Two exact routes to EW that share no algebra, within the mixture's truncation bound."""
    mixture = decimal_oracle.exact_mixture(params, path, u)
    closed = decimal_oracle.exact("social_welfare", params, path, u)
    # the bound can be tight to 1e-17 of itself, so 1e-40 relative covers the 50-digit rounding
    with localcontext(decimal_oracle.CTX):
        slack = mixture.bound + Decimal("1e-40") * abs(closed)
        assert mixture.bound <= decimal_oracle.MIXTURE_TOLERANCE * 2 * abs(closed)
        assert abs(mixture.value - closed) <= slack
        # the dates past the stop move the sum by no more than the bound says
        doubled = decimal_oracle.exact_mixture(params, path, u, 2 * mixture.last)
        assert abs(doubled.value - mixture.value) <= slack


def test_ew_rejections():
    with pytest.raises(NoExtinctionError):
        ew_social(HazardParams(m=0.02, M=0.0, b=0.01), ONE, LINEAR)
    with pytest.raises(ValueError):
        ew_social(HazardParams(m=0.02, M=0.01, b=0.0), ONE, LINEAR)
    # (1-M)(1+n) = 0.996 * 1.029 >= 1
    with pytest.raises(DivergenceError):
        ew_social(HazardParams(m=0.02, M=0.004, b=0.05), ONE, LINEAR)


def _rejection(call):
    """The message of the ValueError the call raises."""
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    return str(exc.value)


def _reason(status):
    """The reason of a rejected row's status cell."""
    assert status.startswith("rejected: ")
    return status.removeprefix("rejected: ")


def _sweep_reason(params):
    """The reason in the status cell that sweep writes for social welfare at the point."""
    (status,) = next(_sweep_columns(_columns([params]), [SOCIAL_WELFARE], ONE, LOG,
                                    1e-10))["status"]
    return _reason(status)


def _row_reasons(params):
    """The reasons in the status of social welfare's scenario_sweep row and mc_compare row."""
    (row,) = scenario_sweep([params], [SOCIAL_WELFARE], ONE, LOG)
    (mc_row,) = mc_compare([params], [SOCIAL_WELFARE], ONE, LINEAR, 1e-10,
                           [SimulationConfig(replications=10, seed=0)])
    return _reason(row.status), _reason(mc_row["status"])


NO_BIRTHS = HazardParams(m=0.02, M=0.01)  # b = 0
# the text each entry point of social welfare's b > 0 rule shows at b = 0: a call's message,
# or the status cell sweep writes after "rejected: "
NO_BIRTHS_TEXTS = {
    "ew_social": lambda: _rejection(lambda: ew_social(NO_BIRTHS, ONE, LOG)),
    "welfare_window_terms": lambda: _rejection(
        lambda: welfare_window_terms(NO_BIRTHS, ONE, LOG, 5)),
    "discount_profile": lambda: _rejection(lambda: discount_profile(NO_BIRTHS, 10)),
    "abm_smoothing_study": lambda: _rejection(lambda: abm_smoothing_study(
        NO_BIRTHS, ONE, LINEAR, [1], SimulationConfig(replications=10, seed=0, mode="agent"))),
    "sweep status": lambda: _sweep_reason(NO_BIRTHS),
    "evaluate": lambda: _rejection(lambda: evaluate(SOCIAL_WELFARE, NO_BIRTHS, ONE, LOG)),
    "mc_ew_social": lambda: _rejection(lambda: mc_ew_social(
        NO_BIRTHS, ONE, LINEAR, SimulationConfig(replications=10, seed=0))),
    "scenario_sweep status": lambda: _row_reasons(NO_BIRTHS)[0],
    "mc_compare status": lambda: _row_reasons(NO_BIRTHS)[1],
}


@pytest.mark.parametrize("name", NO_BIRTHS_TEXTS)
def test_every_social_welfare_entry_point_gives_the_one_message_at_b_zero(name):
    assert NO_BIRTHS_TEXTS[name]() == "social welfare needs b > 0: its closed form divides by b"


TINY_BIRTHS = HazardParams(m=0.02, M=0.01, b=1e-309)  # N0 (1+b)/b = 1e309 is past float range
# every entry point that reads the prefactor, as a call's message or sweep's status cell
TINY_BIRTHS_TEXTS = {
    "ew_social": lambda: _rejection(lambda: ew_social(TINY_BIRTHS, ONE, LINEAR)),
    "welfare_window_terms": lambda: _rejection(
        lambda: welfare_window_terms(TINY_BIRTHS, ONE, LINEAR, 5)),
    "mc_ew_social": lambda: _rejection(lambda: mc_ew_social(
        TINY_BIRTHS, ONE, LINEAR, SimulationConfig(replications=10, seed=0))),
    "abm_smoothing_study": lambda: _rejection(lambda: abm_smoothing_study(
        TINY_BIRTHS, ONE, LINEAR, [1], SimulationConfig(replications=10, seed=0, mode="agent"))),
    "sweep status": lambda: _sweep_reason(TINY_BIRTHS),
    "evaluate": lambda: _rejection(lambda: evaluate(SOCIAL_WELFARE, TINY_BIRTHS, ONE, LINEAR)),
    "scenario_sweep status": lambda: _row_reasons(TINY_BIRTHS)[0],
    "mc_compare status": lambda: _row_reasons(TINY_BIRTHS)[1],
}


@pytest.mark.parametrize("name", TINY_BIRTHS_TEXTS)
def test_every_social_welfare_entry_point_rejects_a_prefactor_past_float_range(name):
    assert TINY_BIRTHS_TEXTS[name]() == "the prefactor inf leaves float range"


def test_ew_tail_bound_honest_against_longer_sum():
    # the longest sum is the whole series, taken exactly at 50 digits
    params = HazardParams(m=0.05, M=0.03, b=0.06, N0=2.0)
    res = ew_social(params, BUMPY, LOG)
    exact = decimal_oracle.exact("social_welfare", params, BUMPY, LOG)
    assert abs(Decimal(res.value) - exact) <= Decimal(res.tail_bound)


# --- time-varying weight ratios ---------------------------------------------------


@pytest.mark.parametrize("b", [1e-2, 1e-4, 1e-8, 1e-11])
def test_social_welfare_ratios_keep_their_digits(b):
    """1 - (1+b)**-(t+1) loses no digits at small b in the profile or the window terms."""
    params = HazardParams(m=0.02, M=0.01, b=b)
    horizon = 60
    D, D1 = decimal_oracle._d, decimal_oracle.ONE
    with localcontext(decimal_oracle.CTX):
        q = D1 / (D1 + D(b))
        long_run = (D1 - D(params.M)) * (D1 + D(b)) * (D1 - D(params.m))
        a = [D1 - q ** (k + 1) for k in range(horizon + 1)]
        ratios = [long_run * a[t + 1] / a[t] for t in range(horizon)]
        pref = (D1 + D(b)) / D(b)
        growth = (D1 + D(b)) * (D1 - D(params.m))
        window = [pref * growth**t * a[t] for t in range(horizon + 1)]
    prof = discount_profile(params, horizon).ratios
    np.testing.assert_allclose(prof, [float(r) for r in ratios], rtol=4e-15, atol=0.0)
    terms = welfare_window_terms(params, ONE, LINEAR, horizon + 1)
    np.testing.assert_allclose(terms, [float(x) for x in window], rtol=1e-13, atol=0.0)
