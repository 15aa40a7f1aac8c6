"""Welfare-window and expected-social-welfare cross-checks."""

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
    UtilitySpec,
    discount_profile,
    ew_social,
    ew_social_mixture,
    ew_social_n0_form,
    welfare_window,
    welfare_window_direct,
    welfare_window_terms,
    weight_sequence,
)

ONE = ConsumptionPath.constant(1.0)
LINEAR = UtilitySpec.linear()
LOG = UtilitySpec.log()
BUMPY = ConsumptionPath(prefix=(0.9, 1.4, 1.1, 2.0, 1.7))


# --- welfare window -----------------------------------------------------------


def test_window_at_date_zero_is_initial_population_utility():
    p = HazardParams(m=0.02, M=0.01, b=0.03, N0=5.0)
    path = ConsumptionPath.constant(2.0)
    assert welfare_window(p, 0, path, LINEAR) == pytest.approx(10.0, rel=1e-14)


def test_window_b_zero_falls_back_to_double_sum():
    # t=0 cohort: 1 + 0.9; t=1 cohort of size 0.9: 0.9 -> total 2.8
    p = HazardParams(m=0.1, M=0.05, b=0.0, N0=1.0)
    assert welfare_window(p, 1, ONE, LINEAR) == pytest.approx(2.8, abs=1e-12)


def test_window_rejects_negative_T():
    p = HazardParams(m=0.1, M=0.05, b=0.01)
    with pytest.raises(ValueError):
        welfare_window(p, -1, ONE, LINEAR)


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
    closed = welfare_window(params, T, path, u)
    direct = welfare_window_direct(params, T, path, u)
    assert closed == pytest.approx(direct, rel=1e-10)


@given(
    m=st.floats(min_value=0.001, max_value=0.9),
    b=st.floats(min_value=0.001, max_value=1.0),
    T=st.integers(min_value=0, max_value=80),
)
@settings(max_examples=80, deadline=None)
def test_window_identity_random_params(m, b, T):
    params = HazardParams(m=m, M=0.01, b=b, N0=2.0)
    closed = welfare_window(params, T, BUMPY, LOG)
    direct = welfare_window_direct(params, T, BUMPY, LOG)
    scale = max(abs(closed), abs(direct), 1.0)
    assert abs(closed - direct) <= 1e-10 * scale


def test_window_terms_cumulate_to_windows():
    p = HazardParams(m=0.05, M=0.02, b=0.07, N0=3.0)
    terms = welfare_window_terms(p, BUMPY, LOG, 31)
    acc = 0.0
    for T in (0, 7, 30):
        acc = math.fsum(terms[: T + 1])
        assert acc == pytest.approx(welfare_window(p, T, BUMPY, LOG), rel=1e-12)


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


@pytest.mark.parametrize(
    "params",
    [
        HazardParams(m=0.02, M=0.01, b=0.025),
        HazardParams(m=0.10, M=0.05, b=0.05),
        HazardParams(m=0.30, M=0.20, b=0.5, N0=2.0),
        HazardParams(m=0.25, M=0.004, b=0.2),
        HazardParams(m=0.50, M=0.30, b=0.8),
    ],
)
def test_ew_matches_mixture_definition(params):
    a = ew_social(params, BUMPY, LOG)
    b = ew_social_mixture(params, BUMPY, LOG)
    assert a.converged and b.converged
    assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound


def test_ew_rejections():
    with pytest.raises(NoExtinctionError):
        ew_social(HazardParams(m=0.02, M=0.0, b=0.01), ONE, LINEAR)
    with pytest.raises(ValueError):
        ew_social(HazardParams(m=0.02, M=0.01, b=0.0), ONE, LINEAR)
    # (1-M)(1+n) = 0.996 * 1.029 >= 1
    with pytest.raises(DivergenceError):
        ew_social(HazardParams(m=0.02, M=0.004, b=0.05), ONE, LINEAR)
    with pytest.raises(DivergenceError):
        ew_social_mixture(HazardParams(m=0.02, M=0.004, b=0.05), ONE, LINEAR)
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            ew_social_mixture(HazardParams(m=0.02, M=0.01, b=0.03), ONE, LINEAR, tol)


def test_ew_tail_bound_honest_against_longer_sum():
    # the longest sum is the whole series, taken exactly at 50 digits
    params = HazardParams(m=0.05, M=0.03, b=0.06, N0=2.0)
    res = ew_social(params, BUMPY, LOG)
    exact = decimal_oracle.exact("social_welfare", params, BUMPY, LOG)
    assert abs(Decimal(res.value) - exact) <= Decimal(res.tail_bound)


# --- time-varying weight ratios ---------------------------------------------------


@pytest.mark.parametrize("b", [1e-2, 1e-4, 1e-8, 1e-11])
def test_social_welfare_ratios_keep_their_digits(b):
    """1 - (1+b)**-(t+1) loses no digits at small b in the profile, weights or window terms."""
    params = HazardParams(m=0.02, M=0.01, b=b)
    horizon = 60
    D, D1 = decimal_oracle._d, decimal_oracle.ONE
    with localcontext(decimal_oracle.CTX):
        q = D1 / (D1 + D(b))
        long_run = (D1 - D(params.M)) * (D1 + D(b)) * (D1 - D(params.m))
        a = [D1 - q ** (k + 1) for k in range(horizon + 1)]
        ratios = [long_run * a[t + 1] / a[t] for t in range(horizon)]
        pref = (D1 + D(b)) / D(b)
        weights = [pref * long_run**t * a[t] for t in range(horizon + 1)]
        growth = (D1 + D(b)) * (D1 - D(params.m))
        window = [pref * growth**t * a[t] for t in range(horizon + 1)]
    prof = discount_profile(params, horizon).ratios
    np.testing.assert_allclose(prof, [float(r) for r in ratios], rtol=4e-15, atol=0.0)
    w = weight_sequence(SOCIAL_WELFARE, params, horizon + 1)
    np.testing.assert_allclose(w, [float(x) for x in weights], rtol=1e-13, atol=0.0)
    terms = welfare_window_terms(params, ONE, LINEAR, horizon + 1)
    np.testing.assert_allclose(terms, [float(x) for x in window], rtol=1e-13, atol=0.0)
