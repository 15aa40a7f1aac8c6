"""The closed form's array core: rows independent of their batch, every row
within its bound of the decimal oracle, and numpy's libm inside _LIBM.

scenario_sweep evaluates a grid's (point, case) rows in one pass; evaluate
and the functionals are one-row passes of the same code. eval, sweep and
verify build different batches, so a row's cells must not depend on the rows
beside it.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from decimal_oracle import CTX, exact, exact_known, margin
from extrisk import (
    ConsumptionPath,
    DivergenceError,
    HazardParams,
    Scenario,
    UtilitySpec,
    evaluate,
    ew_social,
    known_extinction,
    scenario_sweep,
)
from extrisk.analysis import _sweep_columns
from extrisk.series import _CHUNK_T, _LIBM, _U

CASES = [Scenario(k) for k in ("individual", "dynasty", "dynasty_theta", "lineage",
                               "social_welfare")] + [known_extinction(7)]
PREFIX = (0.8, 1.1, 1.25, 1.18, 1.3)
LONG = ConsumptionPath(prefix=tuple(1.0 + 0.25 * math.sin(t) for t in range(_CHUNK_T + 904)),
                       tail="geometric", ratio=0.99)


def mixed_grid():
    """Points that give every row status, with hazards down to 1e-7."""
    points = [
        HazardParams(m=0.02, M=0.01, b=0.03, theta=0.5, alpha=0.4),
        HazardParams(m=0.02, M=0.01, b=0.5),  # the dynasty diverges
        HazardParams(m=0.02, M=0.0, b=0.03),  # M = 0: the mixtures are rejected
        HazardParams(m=0.0, M=0.0),  # the individual diverges too
        HazardParams(m=0.05, M=0.02, b=0.0),  # social welfare needs b > 0
        HazardParams(m=0.02, M=0.01, theta=0.3).with_n_zero(),  # n = 0: the two EW forms agree
        HazardParams(m=0.05, M=0.02, b=1e-300, N0=1e10),  # N0 (1+b)/b leaves float range
        HazardParams(m=1e-7, M=1e-7, b=1e-12),
        HazardParams(m=1.0, M=0.3, b=0.2),  # r = 0 for most cases
    ]
    # enough points that scenario_sweep splits the grid into several passes
    lattice = [HazardParams(m=m, M=M, b=b, theta=0.7, alpha=0.6)
               for m in np.geomspace(1e-4, 0.3, 6) for M in np.geomspace(1e-4, 0.3, 6)
               for b in (1e-9, 0.01, 0.2, 0.45)]
    return points + lattice


COMBOS = [
    (ConsumptionPath(prefix=PREFIX), UtilitySpec.linear()),
    (ConsumptionPath(prefix=PREFIX), UtilitySpec.log()),
    (ConsumptionPath(prefix=PREFIX), UtilitySpec.crra(3.0)),
    (ConsumptionPath(prefix=PREFIX, tail="geometric", ratio=0.9), UtilitySpec.linear()),
    (ConsumptionPath(prefix=PREFIX, tail="geometric", ratio=0.9), UtilitySpec.log()),
    (ConsumptionPath(prefix=PREFIX, tail="geometric", ratio=0.9999), UtilitySpec.crra(3.0)),
    (ConsumptionPath(prefix=PREFIX, tail="geometric", ratio=0.5), UtilitySpec.crra(0.5)),
]


def cells(row):
    """Every output cell of a sweep row, floats by repr so that -0.0 and nan compare too."""
    return [repr(v) for v in row.to_dict().values()]


def check_rows_equal_one_row_calls(grid, path, u, tol=1e-10):
    rows = scenario_sweep(grid, CASES, path, u, tol)
    assert len(rows) == len(grid) * len(CASES)
    statuses = set()
    for k, row in enumerate(rows):
        params, case = grid[k // len(CASES)], CASES[k % len(CASES)]
        assert (row.params, row.case) == (params, case)
        (single,) = scenario_sweep([params], [case], path, u, tol)
        assert cells(row) == cells(single), (params, case)
        statuses.add(row.status.split(":")[0])
        if row.status == "ok":
            res = evaluate(case, params, path, u, tol)
            assert res == row.series
            assert (repr(res.value), repr(res.tail_bound)) == \
                (repr(row.series.value), repr(row.series.tail_bound))
        else:
            error = DivergenceError if row.status == "divergent" else ValueError
            with pytest.raises(error) as info:
                evaluate(case, params, path, u, tol)
            if error is ValueError:
                assert row.status == f"rejected: {info.value}"
    return statuses


@pytest.mark.parametrize("path,u", COMBOS, ids=[f"{p.tail}{p.ratio or ''}-{u.family}{u.sigma or ''}"
                                               for p, u in COMBOS])
def test_grid_rows_equal_one_row_calls(path, u):
    statuses = check_rows_equal_one_row_calls(mixed_grid(), path, u)
    assert statuses == {"ok", "divergent", "rejected"}


def test_a_long_prefix_runs_in_blocks_and_equals_one_row_calls():
    assert LONG.prefix_len > _CHUNK_T  # two blocks of dates
    grid = mixed_grid()[:9]
    statuses = check_rows_equal_one_row_calls(grid, LONG, UtilitySpec.log())
    assert statuses == {"ok", "divergent", "rejected"}


def test_every_rejection_message_is_the_functional_s():
    rows = scenario_sweep(mixed_grid()[:9], CASES, ConsumptionPath(prefix=PREFIX),
                          UtilitySpec.log())
    rejected = {r.status for r in rows if r.status.startswith("rejected")}
    assert rejected == {
        "rejected: M = 0: the extinction-date mixture is defective and the functional undefined",
        "rejected: social welfare needs b > 0; use welfare_window at b = 0",
        "rejected: the prefactor inf leaves float range",
    }


def test_social_welfare_at_m_one_and_a_huge_birth_rate_is_not_its_n0_form():
    # n = (1+b)(1-m) - 1 = -1, not 0: the cohort dies in its first period, w_0 = N0 = 1
    res = ew_social(HazardParams(m=1.0, M=0.02, b=1e300), ConsumptionPath.constant(1.0),
                    UtilitySpec.linear())
    assert abs(res.value - 1.0) <= res.tail_bound and res.converged


# --- adversarial grids: every row present, the CLI's columns equal to the rows ---

ADVERSARIAL_HAZARDS = (0.0, 5e-324, 1e-300, 1e-17, 1e-7, 0.02, 0.5, 1.0 - 1e-16, 1.0)
ADVERSARIAL_BIRTHS = (0.0, 5e-324, 1e-300, 1e-17, 1e-7, 0.02, 0.5, 1.0, 1e10, 1e300)
ADVERSARIAL_ECONOMIES = [
    (ConsumptionPath(prefix=(5e-324, 1.0)), UtilitySpec.log()),  # a subnormal c_t
    (ConsumptionPath(prefix=(5e-324, 1.0)), UtilitySpec.crra(3.0)),  # u(c_t) overflows
    (ConsumptionPath(prefix=(1e300, 2.0)), UtilitySpec.linear()),  # a huge c_t
    (ConsumptionPath.constant(1e300), UtilitySpec.crra(0.5)),
    (ConsumptionPath(prefix=PREFIX, tail="geometric", ratio=0.0), UtilitySpec.linear()),
    (ConsumptionPath(prefix=PREFIX, tail="geometric", ratio=0.0), UtilitySpec.log()),
]


@st.composite
def adversarial_grids(draw):
    def some(values):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True))

    theta = draw(st.sampled_from((0.0, 0.5, 1.0)))
    points = [HazardParams(m=m, M=M, b=b, theta=theta, N0=N0)
              for m in some(ADVERSARIAL_HAZARDS) for M in some(ADVERSARIAL_HAZARDS)
              for b in some(ADVERSARIAL_BIRTHS) for N0 in some((1.0, 1e300))]
    return (points, *draw(st.sampled_from(ADVERSARIAL_ECONOMIES)))


@given(grid=adversarial_grids())
@example(grid=([HazardParams(m=1.0, M=0.02, b=1e300)], ConsumptionPath.constant(1.0),
               UtilitySpec.linear()))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_adversarial_grids_give_every_row_and_the_cli_columns_hold_its_cells(grid):
    points, path, u = grid
    rows = scenario_sweep(points, CASES, path, u)
    assert [(r.params, r.case) for r in rows] == [(p, c) for p in points for c in CASES]
    expected = {}
    for row in rows:
        for col, v in row.to_dict().items():
            expected.setdefault(col, []).append(repr(v))
    blocks = list(_sweep_columns(points, CASES, path, u, 1e-10))
    assert {col: [repr(v) for block in blocks for v in block[col]] for col in blocks[0]} \
        == expected


# --- every row of a random grid within its bound of the 50-digit oracle -------


def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


hazards = st.lists(log_uniform(1e-7, 0.5), min_size=1, max_size=2, unique=True)
births = st.lists(log_uniform(1e-12, 0.5), min_size=1, max_size=2, unique=True)


@st.composite
def grids(draw):
    theta, alpha = draw(st.floats(0.0, 1.0)), draw(st.floats(0.05, 0.95))
    N0 = draw(st.floats(0.5, 1000.0))
    points = [HazardParams(m=m, M=M, b=b, theta=theta, alpha=alpha, N0=N0)
              for m in draw(hazards) for M in draw(hazards) for b in draw(births)]
    family = draw(st.sampled_from(("log", "crra", "linear")))
    u = UtilitySpec.crra(draw(st.floats(0.2, 5.0).filter(lambda s: abs(s - 1.0) > 1e-3))) \
        if family == "crra" else UtilitySpec(family=family)
    prefix = tuple(draw(st.lists(st.floats(0.2, 5.0), min_size=1, max_size=40)))
    if draw(st.booleans()):
        path = ConsumptionPath(prefix=prefix)
    else:
        ratio = draw(st.floats(1e-3, 0.9999))
        path = ConsumptionPath(prefix=prefix, tail="geometric", ratio=ratio)
    return points, path, u


@given(grid=grids())
@example(grid=([HazardParams(m=1e-7, M=1e-7, b=1e-12), HazardParams(m=1e-7, M=2e-3, b=1e-7)],
               LONG, UtilitySpec.log()))
@example(grid=([HazardParams(m=1e-6, M=3e-7, b=2e-6, theta=0.4, alpha=0.3, N0=50.0)],
               ConsumptionPath(prefix=tuple(1.0 + 0.01 * t for t in range(300)),
                               tail="geometric", ratio=0.999),
               UtilitySpec.crra(2.5)))
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_every_grid_row_within_its_bound_of_the_oracle(grid):
    points, path, u = grid
    for row in scenario_sweep(points, CASES, path, u):
        kind = row.case.kind
        if kind == "known_extinction":
            truth = exact_known(row.params, row.case.T, path, u)
        else:
            if abs(margin(kind, row.params, path, u)) <= Decimal("1e-9"):
                continue  # a float verdict cannot resolve ratios this close to 1
            truth = exact(kind, row.params, path, u)
            assert (truth is None) == (row.status == "divergent"), row
        if row.status == "ok":
            res = row.series
            assert abs(Decimal(res.value) - truth) <= Decimal(res.tail_bound), (
                f"{kind} at {row.params}: value {res.value!r}, exact {truth:.20e}, "
                f"bound {res.tail_bound!r}")


# --- numpy's libm within the bound's premise -----------------------------------


def _fixed(lo: float, hi: float, n: int, seed: int) -> np.ndarray:
    """n fixed points log-uniform in [lo, hi], the same on every run."""
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _ln1p(x: Decimal) -> Decimal:
    return (1 + x).ln()


def _expm1(x: Decimal) -> Decimal:
    return x.exp() - 1


# (function, decimal reference, arguments): the ranges the closed form and the
# known-date sum feed numpy, each a few hundred fixed points
LIBM_CASES = [
    ("exp", np.exp, Decimal.exp, -_fixed(1e-12, 700.0, 600, 1)),  # r**t = exp(t log r)
    ("expm1", np.expm1, _expm1, np.concatenate([  # 1 - R, CRRA's u(c), _rigorous
        -_fixed(1e-300, 700.0, 500, 2), _fixed(1e-300, 700.0, 500, 3)])),
    ("log", np.log, Decimal.ln, _fixed(1e-300, 1e300, 600, 4)),  # log c
    ("log1p", np.log1p, _ln1p, np.concatenate([  # log(1-M), log(1-m), log1p(b)
        -_fixed(1e-300, 0.999, 500, 5), _fixed(1e-300, 1e10, 500, 6)])),
]


@pytest.mark.parametrize("name,f,reference,xs", LIBM_CASES, ids=[c[0] for c in LIBM_CASES])
def test_numpy_libm_within_its_assumed_error(name, f, reference, xs):
    got = f(xs)
    worst = 0.0
    for x, y in zip(xs.tolist(), got.tolist()):
        with localcontext(CTX) as ctx:
            ctx.prec = 60 + max(0, -Decimal(x).adjusted())  # 60 digits of expm1 and log1p at tiny x
            truth = reference(Decimal(x))
            worst = max(worst, float(abs(Decimal(y) - truth) / abs(truth)))
    assert worst <= _LIBM, f"np.{name}: relative error {worst / _U:.2f} u"


def test_numpy_power_within_its_assumed_error():
    # (1-m)**t and ratio**t: bases below 1, integer powers, results in the normal range
    rng = np.random.default_rng(7)
    bases = 1.0 - _fixed(1e-9, 0.5, 1000, 8)
    powers = rng.integers(0, 1 << 20, 1000).astype(float)
    keep = powers * np.log(bases) > -700.0
    got = np.power(bases[keep], powers[keep])
    worst = 0.0
    for x, k, y in zip(bases[keep].tolist(), powers[keep].tolist(), got.tolist()):
        with localcontext(CTX):
            truth = Decimal(x) ** int(k)
            worst = max(worst, float(abs(Decimal(y) - truth) / truth))
    assert keep.sum() > 300
    assert worst <= _LIBM, f"np.power: relative error {worst / _U:.2f} u"
