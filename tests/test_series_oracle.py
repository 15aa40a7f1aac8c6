"""Every series functional against a 50-digit decimal oracle.

The property: |value - exact| <= tail_bound, and the program calls a sum
divergent exactly when the oracle does. Hazards run down to 1e-6 and birth
rates down to 1e-12, over constant and geometric tails under log, CRRA and
linear utility; the known-date sum with dates up to 3,000, and two up to
60,000. At exact n = 0 points both forms of social welfare are held to it.
"""

import math
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decimal_oracle import FUNCTIONALS, exact, exact_known, margin
from extrisk import (
    ConsumptionPath,
    DivergenceError,
    HazardParams,
    UtilitySpec,
    eg_lineage,
    eu_individual,
    ev_dynasty,
    ev_dynasty_theta,
    ew_social,
    ew_social_n0_form,
    evaluate,
    known_extinction,
)

CALL = dict(zip(FUNCTIONALS, (eu_individual, ev_dynasty, ev_dynasty_theta, eg_lineage,
                              ew_social, ew_social_n0_form)))
BUMPY = ConsumptionPath(prefix=(0.8, 1.1, 1.25, 1.18, 1.3))
# The float verdict cannot resolve ratios within rounding distance of 1.
VERDICT_MARGIN = Decimal("1e-9")


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


hazard = log_uniform(1e-6, 0.5)
birth = log_uniform(1e-12, 0.5)
level = st.floats(0.2, 5.0)


@st.composite
def economies(draw):
    params = HazardParams(
        m=draw(hazard), M=draw(hazard), b=draw(birth),
        theta=draw(st.floats(0.0, 1.0)), alpha=draw(st.floats(0.05, 0.95)),
        N0=draw(st.floats(0.5, 1000.0)),
    )
    family = draw(st.sampled_from(("log", "crra", "linear")))
    if family == "crra":
        sigma = draw(st.floats(0.2, 5.0).filter(lambda s: abs(s - 1.0) > 1e-3))
        u = UtilitySpec.crra(sigma)
    else:
        u = UtilitySpec(family=family)
    prefix = tuple(draw(st.lists(level, min_size=1, max_size=6)))
    tail = draw(st.sampled_from(("constant", "geometric")))
    if tail == "constant":
        path = ConsumptionPath(prefix=prefix)
    else:
        ratios = st.floats(1e-3, 0.9999)
        if family == "linear":
            ratios = st.one_of(st.just(0.0), ratios)
        path = ConsumptionPath(prefix=prefix, tail="geometric", ratio=draw(ratios))
    return params, path, u


def check_against_oracle(kind, params, path, u):
    call, tol = CALL[kind], 1e-10
    truth = exact(kind, params, path, u)
    if truth is None:
        with pytest.raises(DivergenceError):
            call(params, path, u, tol)
        return None
    res = call(params, path, u, tol)
    assert type(res.value) is float and type(res.tail_bound) is float
    assert math.isfinite(res.value) and math.isfinite(res.tail_bound)
    assert res.converged == (res.tail_bound <= tol)
    assert abs(Decimal(res.value) - truth) <= Decimal(res.tail_bound), (
        f"{kind}: value {res.value!r}, exact {truth:.20e}, bound {res.tail_bound!r}")
    return res


@pytest.mark.parametrize("kind", FUNCTIONALS)
@given(economy=economies())
@example(economy=(HazardParams(m=0.02, M=0.01, b=1e-8), BUMPY, UtilitySpec.log()))
@example(economy=(HazardParams(m=0.02, M=0.01, b=1e-12), BUMPY, UtilitySpec.log()))
@example(economy=(HazardParams(m=1e-6, M=1e-6, b=1e-12), BUMPY, UtilitySpec.log()))
@example(economy=(HazardParams(m=5e-4, M=2e-4, b=1e-4),
                  ConsumptionPath(prefix=(1.3,), tail="geometric", ratio=0.9999),
                  UtilitySpec.crra(3.0)))
# n = -1e-14 is not n = 0: the general and n = 0 forms of EW differ by 1.5e-10
@example(economy=(HazardParams(m=1e-7, M=1e-4, b=1e-7),
                  ConsumptionPath(prefix=(1.0,), tail="geometric", ratio=0.1),
                  UtilitySpec.log()))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_value_within_bound_of_exact(kind, economy):
    assume(abs(margin(kind, *economy)) > VERDICT_MARGIN)
    check_against_oracle(kind, *economy)


N_ZERO_HAZARDS = [(m, M) for m in (1e-6, 1e-3, 0.02, 0.3) for M in (1e-6, 1e-3, 0.05)]
N_ZERO_UTILITIES = {"log": UtilitySpec.log(), "linear": UtilitySpec.linear(),
                    "crra-0.5": UtilitySpec.crra(0.5), "crra-3": UtilitySpec.crra(3.0)}
N_ZERO_PATHS = {"constant": BUMPY,
                "geometric": ConsumptionPath(prefix=BUMPY.prefix, tail="geometric", ratio=0.9999)}


# at n = 0 social welfare has two forms, the general one and
# (N0/m) sum_t (1-M)**t (1-(1-m)**(t+1)); each is held to its own exact value at the same floats
@pytest.mark.parametrize("path", N_ZERO_PATHS)
@pytest.mark.parametrize("u", N_ZERO_UTILITIES)
@pytest.mark.parametrize("kind", ("social_welfare", "n0_form"))
def test_both_social_welfare_forms_within_bound_of_exact_at_n_zero(kind, u, path):
    for m, M in N_ZERO_HAZARDS:
        economy = (HazardParams(m=m, M=M).with_n_zero(), N_ZERO_PATHS[path], N_ZERO_UTILITIES[u])
        assert abs(margin(kind, *economy)) > VERDICT_MARGIN
        check_against_oracle(kind, *economy)


@pytest.mark.parametrize("b", [1e-4, 1e-8, 1e-12, 1e-45, 1e-300])
def test_social_welfare_keeps_its_digits_at_small_birth_rates(b):
    res = check_against_oracle("social_welfare", HazardParams(m=0.02, M=0.01, b=b), BUMPY,
                               UtilitySpec.log())
    assert res.converged


@given(economy=economies(), T=st.integers(0, 3000))
# the rounding of 1-m, raised to t = 20000, moves the sum by about 1e-7
@example(economy=(HazardParams(m=1e-6, M=0.01),
                  ConsumptionPath(prefix=BUMPY.prefix, tail="geometric", ratio=0.999),
                  UtilitySpec.log()), T=20000)
# here that rounding, not the dot products, sets the error (4.4e-8)
@example(economy=(HazardParams(m=1.3e-5, M=0.1), ConsumptionPath.constant(1.0),
                  UtilitySpec.linear()), T=60000)
@example(economy=(HazardParams(m=0.1, M=0.1), ConsumptionPath(prefix=(5e-324, 1.0)),
                  UtilitySpec.log()), T=0)
@example(economy=(HazardParams(m=0.1, M=0.1), ConsumptionPath.constant(5e-324),
                  UtilitySpec.log()), T=5)
# past t = 25 the computed c_t is subnormal and carries an underflow error
@example(economy=(HazardParams(m=0.1, M=0.1),
                  ConsumptionPath(prefix=(1e-300,), tail="geometric", ratio=0.5),
                  UtilitySpec.crra(0.5)), T=40)
@example(economy=(HazardParams(m=0.1, M=0.1),
                  ConsumptionPath(prefix=(1e-300,), tail="geometric", ratio=0.5),
                  UtilitySpec.log()), T=72)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_known_date_within_bound_of_exact(economy, T):
    params, path, u = economy
    try:
        res = evaluate(known_extinction(T), params, path, u)
    except ValueError as exc:  # a computed c_t reached 0, or a u(c_t) left float range
        assert "consumption > 0" in str(exc) or "float range" in str(exc)
        return
    truth = exact_known(params, T, path, u)
    assert math.isfinite(res.value) and math.isfinite(res.tail_bound)
    assert res.converged == (res.tail_bound <= 1e-10)
    assert abs(Decimal(res.value) - truth) <= Decimal(res.tail_bound), (
        f"value {res.value!r}, exact {truth:.20e}, bound {res.tail_bound!r}")
