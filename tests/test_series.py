"""Oracle checks for the discounted-series functionals and their tail bounds."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decimal_oracle
from extrisk import (
    DYNASTY,
    DYNASTY_THETA,
    INDIVIDUAL,
    LINEAGE,
    ConsumptionPath,
    DivergenceError,
    HazardParams,
    NoExtinctionError,
    Scenario,
    SimulationConfig,
    UtilitySpec,
    discount_factor,
    discount_profile,
    eg_lineage,
    eu_individual,
    ev_dynasty,
    ev_dynasty_theta,
    evaluate,
    ew_social_n0_form,
    finiteness_check,
    known_extinction,
    scenario_sweep,
    welfare_window_terms,
)
from extrisk.series import _LIBM, _U, _rigorous, _tail_terms

ONE = ConsumptionPath.constant(1.0)  # with linear utility, u(c_t) = 1 for all t
LINEAR = UtilitySpec.linear()
LOG = UtilitySpec.log()


def brute_force_sum(rho, path, u, terms):
    """Independent plain-python oracle: sum_t rho**t u(c_t)."""
    total = 0.0
    w = 1.0
    for t in range(terms):
        total += w * float(u(path.value(t)))
        w *= rho
    return total


# --- individual expected utility ------------------------------------------------


def test_eu_individual_unit_utility():
    # geometric closed form 1/(1 - (1-m)(1-M)) = 1/0.0298
    res = eu_individual(HazardParams(m=0.02, M=0.01), ONE, LINEAR)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 0.0298, abs=1e-9)


def test_eu_individual_half_survival():
    res = eu_individual(HazardParams(m=0.0, M=0.5), ONE, LINEAR)
    assert res.value == pytest.approx(2.0, abs=1e-10)


def test_eu_individual_log_utility_matches_brute_force():
    # growing consumption encoded in the prefix, then a constant tail
    path = ConsumptionPath(prefix=tuple(100.0 * 1.01**t for t in range(64)))
    p = HazardParams(m=0.02, M=0.01)
    res = eu_individual(p, path, LOG)
    oracle = brute_force_sum(p.joint_survival, path, LOG, 10_000)
    assert res.value == pytest.approx(oracle, abs=1e-9)


def test_eu_individual_rejects_degenerate():
    with pytest.raises(DivergenceError):
        eu_individual(HazardParams(m=0.0, M=0.0), ONE, LINEAR)


# --- dynasty -----------------------------------------------------------------------


def test_ev_dynasty_constant_population():
    # n = 0 collapses the weights to (1-M)**t, so the unit-utility sum is 1/M
    p = HazardParams(m=0.02, M=0.01).with_n_zero()
    res = ev_dynasty(p, ONE, LINEAR)
    assert res.value == pytest.approx(100.0, abs=1e-8)


def test_ev_dynasty_without_births_reduces_to_individual():
    p = HazardParams(m=0.02, M=0.01, b=0.0)
    assert ev_dynasty(p, ONE, LINEAR).value == eu_individual(p, ONE, LINEAR).value


def test_ev_dynasty_divergence():
    # (1-M)(1+n) = 0.995 * 1.01 = 1.00495 >= 1
    p = HazardParams(m=0.0, M=0.005, b=0.01)
    assert not finiteness_check(DYNASTY, p).finite
    with pytest.raises(DivergenceError):
        ev_dynasty(p, ONE, LINEAR)


def test_ev_dynasty_rejects_no_extinction():
    with pytest.raises(NoExtinctionError):
        ev_dynasty(HazardParams(m=0.02, M=0.0, b=0.01), ONE, LINEAR)


# --- dynasty with population weighting ------------------------------------------------


def test_theta_one_reproduces_dynasty():
    p = HazardParams(m=0.03, M=0.02, b=0.04, theta=1.0)
    a = ev_dynasty_theta(p, ONE, LINEAR).value
    b = ev_dynasty(p, ONE, LINEAR).value
    assert a == pytest.approx(b, abs=1e-10)


def test_theta_zero_collapses_to_extinction_weighting():
    p = HazardParams(m=0.11, M=0.01, b=0.2, theta=0.0)
    res = ev_dynasty_theta(p, ONE, LINEAR)
    assert res.value == pytest.approx(100.0, abs=1e-8)


def test_theta_half_square_root_case():
    # b engineered so (1+n) = 1.0201, whose square root is exactly 1.01
    p = HazardParams(m=0.01, M=0.02, b=1.0201 / 0.99 - 1.0, theta=0.5)
    res = ev_dynasty_theta(p, ONE, LINEAR)
    assert res.value == pytest.approx(1.0 / 0.0102, rel=1e-9)


def test_theta_divergence():
    p = HazardParams(m=0.0, M=0.004, b=0.0102, theta=0.9)
    with pytest.raises(DivergenceError):
        ev_dynasty_theta(p, ONE, LINEAR)


# --- lineage ------------------------------------------------------------------------


def test_lineage_closed_form():
    p = HazardParams(m=0.02, M=0.01, b=0.03, alpha=0.5)
    rho = 0.99 * 0.98 * 1.03**0.5
    res = eg_lineage(p, ONE, LINEAR)
    assert res.value == pytest.approx(1.0 / (1.0 - rho), abs=1e-9)


def test_lineage_without_births_reduces_to_individual():
    p = HazardParams(m=0.02, M=0.01, b=0.0, alpha=0.3)
    assert eg_lineage(p, ONE, LINEAR).value == eu_individual(p, ONE, LINEAR).value


def test_lineage_alpha_near_one_approaches_dynasty():
    base = dict(m=0.02, M=0.01, b=0.03)
    a = eg_lineage(HazardParams(**base, alpha=1.0 - 1e-12), ONE, LINEAR).value
    b = ev_dynasty(HazardParams(**base), ONE, LINEAR).value
    assert a == pytest.approx(b, rel=1e-6)


def test_lineage_monotone_in_alpha():
    base = dict(m=0.02, M=0.01, b=0.02)
    values = [
        eg_lineage(HazardParams(**base, alpha=a), ONE, LINEAR).value
        for a in (0.1, 0.3, 0.5, 0.7, 0.9)
    ]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_lineage_divergence():
    p = HazardParams(m=0.0, M=0.002, b=0.05, alpha=0.9)
    with pytest.raises(DivergenceError):
        eg_lineage(p, ONE, LINEAR)


# --- known extinction date ------------------------------------------------------------


def known_value(m, T, path, u, M=0.05):
    """The value at the known extinction date T; M is any hazard, as the sum ignores it."""
    return evaluate(known_extinction(T), HazardParams(m=m, M=M), path, u).value


def test_known_date_single_period():
    path = ConsumptionPath.constant(2.5)
    assert known_value(0.3, 0, path, LINEAR) == 2.5


def test_known_date_undiscounted_count():
    assert known_value(0.0, 3, ONE, LINEAR) == pytest.approx(4.0, abs=1e-12)


def test_known_date_hand_sum():
    # 1 + 0.9 + 0.81 = 2.71
    assert known_value(0.1, 2, ONE, LINEAR) == pytest.approx(2.71, abs=1e-12)


def test_known_date_ignores_M():
    # same m, any M: the finite sum never reads the extinction hazard
    path = ConsumptionPath(prefix=(1.0, 2.0, 1.5))
    assert {known_value(0.2, 10, path, LOG, M) for M in (0.0, 0.05, 1.0)} == {
        known_value(0.2, 10, path, LOG)}
    with pytest.raises(ValueError):
        known_value(0.2, -1, path, LOG)


@pytest.mark.parametrize("m, T, expected", [
    (0.5, 1, 1.5),  # 1 + 0.5
    (0.1, 3, 3.439),  # 1 + 0.9 + 0.81 + 0.729
    (1.0, 5, 1.0),  # certain death at date 0: only u(c_0) counts
], ids=["two-point", "four-dates", "certain-death"])
def test_known_date_hand_values(m, T, expected):
    assert known_value(m, T, ONE, LINEAR) == pytest.approx(expected, abs=1e-12)


def test_known_extinction_weights_stop_at_T():
    # consumption jumps to 5 at date 4, past T = 3: the sum never reads it
    path = ConsumptionPath(prefix=(1.0, 1.0, 1.0, 1.0, 5.0))
    assert known_value(0.2, 3, path, LINEAR) == pytest.approx(2.952, abs=1e-12)  # 1+.8+.64+.512


@given(m=st.floats(min_value=0.0, max_value=1.0), T=st.integers(min_value=0, max_value=200))
@settings(max_examples=100, deadline=None)
def test_known_date_unit_utility_counts_the_dates_alive(m, T):
    """At u = 1 the known-date value is sum_{t <= T} (1-m)**t, the expected dates alive."""
    expected = math.fsum((1.0 - m) ** t for t in range(T + 1))
    assert known_value(m, T, ONE, LINEAR) == pytest.approx(expected, rel=1e-12)


# --- law of total expectation -----------------------------------------------------------

TOTAL_EXPECTATION_COMBOS = [
    (HazardParams(m=0.02, M=0.01), ONE, LINEAR),
    (HazardParams(m=0.10, M=0.05), ConsumptionPath(prefix=(0.8, 1.3, 1.1, 2.0)), LOG),
    (HazardParams(m=0.30, M=0.20), ConsumptionPath(prefix=(1.0, 1.5), tail="geometric", ratio=0.9), UtilitySpec.crra(2.0)),
    (HazardParams(m=0.05, M=0.04), ConsumptionPath(prefix=(2.0, 2.2, 2.5)), UtilitySpec.crra(0.5)),
    (HazardParams(m=0.50, M=0.30), ConsumptionPath.constant(3.0), LOG),
    (HazardParams(m=0.02, M=0.20), ConsumptionPath(prefix=(1.2, 0.9, 1.4)), LINEAR),
]


@pytest.mark.parametrize("params,path,u", TOTAL_EXPECTATION_COMBOS)
def test_total_expectation_links_known_T_to_unconditional(params, path, u):
    """sum_T P_X(T) EU|T equals the unconditional individual expected utility."""
    horizon = int(math.ceil(math.log(1e-14) / math.log(1.0 - params.M))) + 1
    rows = scenario_sweep([params], [known_extinction(T) for T in range(horizon)], path, u)
    # P_X(T) = (1-M)**T M
    mixture = math.fsum((1.0 - params.M) ** T * params.M * row.series.value
                        for T, row in enumerate(rows))
    target = eu_individual(params, path, u).value
    assert mixture == pytest.approx(target, abs=1e-9)


@pytest.mark.parametrize("params,path,u", TOTAL_EXPECTATION_COMBOS)
def test_known_date_sweep_is_bit_identical_to_per_date_evaluate(params, path, u):
    rows = scenario_sweep([params], [known_extinction(T) for T in range(120)], path, u)
    for T, row in enumerate(rows):
        assert row.series == evaluate(known_extinction(T), params, path, u), T


# --- tail bound honesty -------------------------------------------------------------------

HONESTY_CONFIGS = [
    (HazardParams(m=0.02, M=0.01), ONE, LINEAR),
    (HazardParams(m=0.02, M=0.01), ConsumptionPath(prefix=(100.0, 105.0), tail="geometric", ratio=0.97), LOG),
    (HazardParams(m=0.1, M=0.002), ConsumptionPath(prefix=(2.0, 1.5, 1.8), tail="geometric", ratio=0.99), UtilitySpec.crra(2.0)),
    (HazardParams(m=0.005, M=0.002), ConsumptionPath(prefix=(0.5, 0.7)), UtilitySpec.crra(0.5)),
]


@pytest.mark.parametrize("params,path,u", HONESTY_CONFIGS)
def test_value_within_tail_bound_of_longer_sum(params, path, u):
    # the longest sum is the whole series, taken exactly at 50 digits
    res = eu_individual(params, path, u)
    assert res.converged
    exact = decimal_oracle.exact("individual", params, path, u)
    assert abs(Decimal(res.value) - exact) <= Decimal(res.tail_bound)


def test_unbounded_crra_tail_diverges():
    # consumption decays at ratio g while weights shrink slower than g**(sigma-1) grows
    p = HazardParams(m=0.0, M=0.01)
    path = ConsumptionPath(prefix=(1.0,), tail="geometric", ratio=0.5)
    with pytest.raises(DivergenceError):
        eu_individual(p, path, UtilitySpec.crra(3.0))


def test_non_convergence_reported_not_looped():
    # the value is 5e5, so 1e-10 is below its rounding resolution: the result
    # comes back unconverged after the one explicit term, with an honest bound
    p = HazardParams(m=1e-6, M=1e-6)
    res = eu_individual(p, ONE, LINEAR, tol=1e-10)
    assert not res.converged
    assert res.truncation_index == 0
    assert res.tail_bound > 1e-10
    exact = decimal_oracle.exact("individual", p, ONE, LINEAR)
    assert abs(Decimal(res.value) - exact) <= Decimal(res.tail_bound)


def test_ratio_zero_tail_with_linear_utility():
    path = ConsumptionPath(prefix=(1.0, 2.0), tail="geometric", ratio=0.0)
    res = eu_individual(HazardParams(m=0.5, M=0.5), path, LINEAR)
    # only t=0 and t=1 contribute: 1 + 0.25*2
    assert res.value == pytest.approx(1.0 + 0.25 * 2.0, abs=1e-12)


# --- the tail table ------------------------------------------------------------------------


@pytest.mark.parametrize("u", [LINEAR, LOG, UtilitySpec.crra(3.0), UtilitySpec.crra(0.5)],
                         ids=["linear", "log", "crra3", "crra0.5"])
@pytest.mark.parametrize("path", [ConsumptionPath(prefix=(0.8, 1.3))] + [
    ConsumptionPath(prefix=(0.8, 1.3), tail="geometric", ratio=g) for g in (0.0, 0.5, 0.99)
], ids=["constant", "g0", "g0.5", "g0.99"])
def test_tail_terms_sum_to_the_utility_past_the_prefix(path, u):
    # u(c_{p+k}) at the exact c_{p-1} g**(k+1), of which path.values is the rounding
    if path.ratio == 0.0 and u.family != "linear":
        with pytest.raises(ValueError, match="ratio-0 tail"):
            _tail_terms(path, u)
        return
    terms = _tail_terms(path, u)
    c = Decimal(path.prefix[-1])
    g = Decimal(1) if path.ratio is None else Decimal(path.ratio)
    with localcontext(decimal_oracle.CTX):
        for k in range(41):
            exact = decimal_oracle._utility(u, c * g ** (k + 1)) if g else Decimal(0)
            total, allowed = Decimal(0), Decimal("1e-40")
            for coef, rel_err, log_growth, arith in terms:
                term = Decimal(coef) * (Decimal(log_growth) * k).exp() * (k + 1 if arith else 1)
                total += term
                # log_growth is a log part of the kernel: off by _LIBM + 2u relative
                e = rel_err + k * abs(log_growth) * (_LIBM + 2.0 * _U)
                allowed += abs(term) * Decimal(_rigorous(e))
            assert abs(total - exact) <= allowed, (k, total, exact)
            assert float(total) == pytest.approx(float(u(path.value(path.prefix_len + k))),
                                                 rel=1e-12, abs=1e-12)


# --- weights and finiteness -----------------------------------------------------------------


FACTOR_POINTS = [
    HazardParams(m=0.07, M=0.03, b=0.06, theta=0.4, alpha=0.6),
    HazardParams(m=0.07, M=0.03, b=0.06, theta=0.4, alpha=0.6).with_n_zero(),
    HazardParams(m=0.02, M=0.01, b=0.025, theta=0.0, alpha=0.5),
]


@pytest.mark.parametrize("params", FACTOR_POINTS, ids=["growing", "n-zero", "theta-zero"])
@pytest.mark.parametrize("case", [INDIVIDUAL, DYNASTY, DYNASTY_THETA, LINEAGE],
                         ids=lambda c: c.kind)
def test_unit_utility_value_is_the_geometric_sum_of_the_factor(case, params):
    """The weights are factor**t: at u = 1 the series sums to 1 / (1 - factor)."""
    factor = discount_factor(case, params).factor
    assert evaluate(case, params, ONE, LINEAR).value == pytest.approx(1.0 / (1.0 - factor),
                                                                    rel=1e-12)


def test_finiteness_check_examples():
    chk = finiteness_check(DYNASTY, HazardParams(m=0.02, M=0.01).with_n_zero())
    assert chk.finite and chk.margin == pytest.approx(0.01, abs=1e-12)
    chk = finiteness_check(DYNASTY, HazardParams(m=0.0, M=0.005, b=0.01))
    assert not chk.finite
    chk = finiteness_check(INDIVIDUAL, HazardParams(m=0.02, M=0.01))
    assert chk.finite and chk.product == pytest.approx(0.9702, abs=1e-15)
    chk = finiteness_check(known_extinction(5), HazardParams(m=0.3, M=0.9))
    assert chk.finite


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario("individual", T=3)
    with pytest.raises(ValueError):
        known_extinction(-1)
    with pytest.raises(ValueError):
        Scenario("unknown_case")


GROWING = HazardParams(m=0.1, M=0.05, b=0.2)
# each call takes its integer argument k = 2 in one place
INTEGER_ARGUMENTS = {
    "known_extinction T": lambda k: known_extinction(k),
    "discount_profile horizon": lambda k: discount_profile(GROWING, k),
    "welfare_window_terms length": lambda k: welfare_window_terms(GROWING, ONE, LINEAR, k),
    "SimulationConfig replications": lambda k: SimulationConfig(replications=k),
    "SimulationConfig seed": lambda k: SimulationConfig(seed=k),
    "SimulationConfig horizon_cap": lambda k: SimulationConfig(horizon_cap=k),
}


@pytest.mark.parametrize("bad", [2.7, 2.0, np.float64(2.0), True, np.True_, "2", -1], ids=repr)
@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_integer_arguments_reject_floats_bools_and_negatives(name, bad):
    call = INTEGER_ARGUMENTS[name]
    with pytest.raises(ValueError, match="must be an integer"):
        call(bad)
    a, b = call(np.int64(2)), call(2)  # numpy integers stay accepted
    np.testing.assert_equal(getattr(a, "__dict__", a), getattr(b, "__dict__", b))


# each call is outside the domain of its formula: the n = 0 form divides by m and mixes over
# extinction dates (social welfare's b > 0 is tested in test_social_welfare.py)
REJECTIONS = {
    "n0 form at m = 0": (lambda: ew_social_n0_form(HazardParams(m=0.0, M=0.01), ONE, LOG),
                         ValueError, "the n = 0 simplification divides by m; needs m > 0"),
    "n0 form at M = 0": (lambda: ew_social_n0_form(HazardParams(m=0.02, M=0.0).with_n_zero(),
                                                   ONE, LOG),
                         NoExtinctionError, "M = 0: the extinction-date mixture is defective "
                                            "and the functional undefined"),
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_calls_outside_their_formula_raise_its_message(name):
    call, error, message = REJECTIONS[name]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def test_evaluate_dispatch_known_extinction():
    p = HazardParams(m=0.1, M=0.9)
    res = evaluate(known_extinction(2), p, ONE, LINEAR)
    assert res.value == pytest.approx(2.71, abs=1e-12)
    # 0.9 and 0.81 are rounded, so the bound is a few ulp, not zero
    assert 0.0 < res.tail_bound < 1e-14 and res.converged


def test_evaluate_dispatch_matches_direct_calls():
    p = HazardParams(m=0.02, M=0.01, b=0.03, theta=0.5, alpha=0.5)
    assert evaluate(INDIVIDUAL, p, ONE, LINEAR).value == eu_individual(p, ONE, LINEAR).value
    assert evaluate(DYNASTY, p, ONE, LINEAR).value == ev_dynasty(p, ONE, LINEAR).value
    assert evaluate(LINEAGE, p, ONE, LINEAR).value == eg_lineage(p, ONE, LINEAR).value
