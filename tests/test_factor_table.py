"""The per-case exponent table against independent references.

Every factor is (1-M)**eM (1+b)**eb (1-m)**em with exponents read from one
table, and every growth (1+b)**eb (1-m)**em. A wrong exponent would move the
float factor or growth away from the 50-digit oracle, split the log-parts from
the factor, or break the n = 0, regime and derivative identities checked here.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decimal_oracle import CTX, ONE, _d, _pow, _ratios
from extrisk import (
    HazardParams,
    Scenario,
    belief_update_response,
    discount_factor,
    known_extinction,
)
from extrisk.series import _batch, _columns, _log_parts, factor_exponents

CASES = tuple(Scenario(k) for k in ("individual", "dynasty", "dynasty_theta", "lineage",
                                    "social_welfare")) + (known_extinction(5),)
ULP = 2.0**-52


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def points(draw):
    return HazardParams(
        m=draw(log_uniform(1e-9, 0.5)), M=draw(log_uniform(1e-9, 0.5)),
        b=draw(st.one_of(st.just(0.0), log_uniform(1e-12, 2.0))),
        theta=draw(st.floats(0.0, 1.0)), alpha=draw(st.floats(0.01, 0.99)),
    )


@pytest.mark.parametrize("case", CASES, ids=Scenario.label)
@given(params=points())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_factor_table(case, params):
    factor = discount_factor(case, params).factor
    # social welfare's factor is its long-run limit, the dynasty ratio
    kind = "dynasty" if case.kind == "social_welfare" else case.kind
    with localcontext(CTX):
        exact, _ = _ratios(kind, params)
        assert abs(Decimal(factor) - exact) <= 4 * _d(ULP) * exact
        # the weights' growth given survival, which the Monte Carlo tables raise to t
        _, eb, em = factor_exponents(case, params)
        growth = _batch(_columns([params]), [case]).growth[0]
        exact = _pow(ONE + _d(params.b), eb) * _pow(ONE - _d(params.m), em)
        assert abs(Decimal(growth) - exact) <= 4 * _d(ULP) * exact
    (parts,) = _log_parts(*(np.array([x]) for x in (params.M, params.b, params.m)),
                          np.array(factor_exponents(case, params)))
    assert math.exp(math.fsum(parts[0])) == pytest.approx(factor, rel=1e-13)

    n0 = params.with_n_zero()
    assert discount_factor(case, params).factor_n0 == pytest.approx(
        discount_factor(case, n0).factor, rel=1e-12, abs=1e-12)

    # the n-fixed regime's factor at the point's own 1+n is the factor
    n_fixed = _batch(_columns([params]), [case]).factor_n(np.array([params.gross_growth]))[0]
    assert n_fixed == pytest.approx(factor, rel=1e-13)

    # central differences with steps inside the hazards; rounding costs about eps/h
    dM, dm = min(1e-6, params.M / 2), min(1e-6, params.m / 2)
    rep = belief_update_response(case, params, dM=dM, dm=dm)
    for reg in (rep.b_fixed, rep.n_fixed):
        for closed, fd, h in ((reg.d_factor_d_M, reg.fd_d_factor_d_M, dM),
                              (reg.d_factor_d_m, reg.fd_d_factor_d_m, dm)):
            assert fd == pytest.approx(closed, rel=1e-5, abs=4 * ULP * (1.0 + factor) / h)


def test_the_case_kinds_are_the_factor_table_s_keys():
    with pytest.raises(ValueError) as exc:
        Scenario("x")
    assert str(exc.value) == ("kind must be one of ('individual', 'dynasty', 'dynasty_theta', "
                              "'lineage', 'social_welfare', 'known_extinction'), got 'x'")
