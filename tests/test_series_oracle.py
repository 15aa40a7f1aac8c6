"""Every series functional against a 50-digit decimal oracle.

The property: |value - exact| <= tail_bound, and the program calls a sum
divergent exactly when the oracle does. Hazards run down to 1e-6 and birth
rates down to 1e-12, over constant and geometric tails under log, CRRA and
linear utility. The extinction-date mixture, which sums one term per date,
is checked with extinction hazards of 1e-3 and up so that a run stays short.
"""

import math
from decimal import Decimal

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from decimal_oracle import FUNCTIONALS, exact, margin
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
    ew_social_mixture,
    ew_social_n0_form,
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
def economies(draw, extinction=hazard):
    params = HazardParams(
        m=draw(hazard), M=draw(extinction), b=draw(birth),
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


def check_against_oracle(kind, params, path, u, tol=1e-10, functional=None):
    call = functional or CALL[kind]
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


@given(economy=economies(extinction=log_uniform(1e-3, 0.5)))
# the Stern Review's 0.1 %/yr: the rounding of (1+n)**t costs about 3e-8, above tol
@example(economy=(HazardParams(m=1e-3, M=1e-3, b=1e-3), BUMPY, UtilitySpec.log()))
# a growing population that cannot meet tol: the sum must stop with (1+n)**t in float range
@example(economy=(HazardParams(m=1e-3, M=3e-3, b=3e-3), ConsumptionPath.constant(1.0),
                  UtilitySpec.linear()))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_mixture_within_bound_of_exact(economy):
    assume(abs(margin("social_welfare", *economy)) > VERDICT_MARGIN)
    check_against_oracle("social_welfare", *economy, tol=1e-8, functional=ew_social_mixture)


@pytest.mark.parametrize("b", [1e-4, 1e-8, 1e-12])
def test_social_welfare_keeps_its_digits_at_small_birth_rates(b):
    res = check_against_oracle("social_welfare", HazardParams(m=0.02, M=0.01, b=b), BUMPY,
                               UtilitySpec.log())
    assert res.converged
