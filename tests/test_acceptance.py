"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from decimal_oracle import exact_mixture, exact_weight_ratios
from extrisk import (
    DYNASTY,
    DYNASTY_THETA,
    INDIVIDUAL,
    LINEAGE,
    SOCIAL_WELFARE,
    VERIFY_GRID,
    VERIFY_PATH,
    VERIFY_UTILITY,
    ConsumptionPath,
    DivergenceError,
    HazardParams,
    UtilitySpec,
    belief_update_response,
    discount_factor,
    discount_profile,
    eu_individual,
    evaluate,
    ew_social,
    ew_social_n0_form,
    finiteness_check,
    known_extinction,
    mc_ev_dynasty,
    scenario_sweep,
    verify_oracle_grid,
)
from extrisk.simulate import SimulationConfig, abm_smoothing_study

ONE = ConsumptionPath.constant(1.0)
LINEAR = UtilitySpec.linear()
LOG = UtilitySpec.log()
BUMPY = ConsumptionPath(prefix=(0.9, 1.4, 1.1, 2.0, 1.7))

CONSTANT_CASES = (INDIVIDUAL, DYNASTY, DYNASTY_THETA, LINEAGE)
TABLE_CASES = CONSTANT_CASES + (SOCIAL_WELFARE,)


def report(number, elapsed, limit, description):
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    for params in VERIFY_GRID:
        for case in CONSTANT_CASES:
            # exact weights r**t, t <= 50, from the decimal oracle's own formula for r
            ratios = exact_weight_ratios(case.kind, params, 51)
            closed = Decimal(discount_factor(case, params).factor)
            assert max(abs(r - closed) for r in ratios) < Decimal("1e-12")
            # n = 0 column reproduced by substituting (1+b)(1-m) = 1
            substituted = discount_factor(case, params.with_n_zero()).factor
            assert abs(discount_factor(case, params).factor_n0 - substituted) < 1e-12
        lineage_n0 = discount_factor(LINEAGE, params).factor_n0
        expected = (1.0 - params.M) * (1.0 - params.m) ** (1.0 - params.alpha)
        assert abs(lineage_n0 - expected) < 1e-12
        prof = discount_profile(params, 8)
        assert prof.long_run == discount_factor(DYNASTY, params).factor
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(1, elapsed, 1.0, "exact series weights reproduce every closed-form factor "
                                "and the n=0 column on the 12-point grid (1e-12)")


TOTAL_EXPECTATION_COMBOS = [
    (HazardParams(m=0.02, M=0.01), ONE, LINEAR),
    (HazardParams(m=0.10, M=0.05), BUMPY, LOG),
    (HazardParams(m=0.30, M=0.20),
     ConsumptionPath(prefix=(1.0, 1.5), tail="geometric", ratio=0.9), UtilitySpec.crra(2.0)),
    (HazardParams(m=0.05, M=0.04), ConsumptionPath(prefix=(2.0, 2.2, 2.5)), UtilitySpec.crra(0.5)),
    (HazardParams(m=0.50, M=0.30), ConsumptionPath.constant(3.0), LOG),
    (HazardParams(m=0.02, M=0.20), BUMPY, LINEAR),
]


def test_criterion_2_total_expectation(capsys):
    start = time.perf_counter()
    for params, path, u in TOTAL_EXPECTATION_COMBOS:
        horizon = int(math.ceil(math.log(1e-14) / math.log(1.0 - params.M))) + 1
        rows = scenario_sweep([params], [known_extinction(T) for T in range(horizon)], path, u)
        # P_X(T) = (1-M)**T M
        mixture = math.fsum((1.0 - params.M) ** T * params.M * row.series.value
                            for T, row in enumerate(rows))
        assert abs(mixture - eu_individual(params, path, u).value) < 1e-9
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(2, elapsed, 1.0, f"extinction-date mixture of known-date utilities matches "
                                f"the unconditional value on {len(TOTAL_EXPECTATION_COMBOS)} "
                                f"combinations (1e-9)")


def test_criterion_3_ew_dual_formulas(capsys):
    start = time.perf_counter()
    n0_points = [
        (HazardParams(m=m, M=M).with_n_zero(), path, u)
        for (m, M, path, u) in [
            (0.01, 0.008, BUMPY, LOG),
            (0.02, 0.01, ONE, LINEAR),
            (0.05, 0.02, BUMPY, UtilitySpec.crra(2.0)),
            (0.10, 0.05, ONE, LINEAR),
            (0.30, 0.02, BUMPY, LOG),
        ]
    ]
    for params, path, u in n0_points:
        a = ew_social(params, path, u)
        b = ew_social_n0_form(params, path, u)
        scale = max(abs(a.value), abs(b.value), 1.0)
        assert abs(a.value - b.value) <= 1e-10 * scale + a.tail_bound + b.tail_bound
    general_points = VERIFY_GRID[:6]
    for params in general_points:
        a = ew_social(params, VERIFY_PATH, VERIFY_UTILITY)
        mixture = exact_mixture(params, VERIFY_PATH, VERIFY_UTILITY)
        assert abs(Decimal(a.value) - mixture.value) <= Decimal(a.tail_bound) + mixture.bound
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(3, elapsed, 5.0, f"social welfare: general form vs n=0 simplification "
                                f"({len(n0_points)} points, 1e-10 relative) and vs the exact "
                                f"extinction-date mixture ({len(general_points)} points, "
                                f"tail bound plus truncation bound)")


def test_criterion_4_monte_carlo_oracles(capsys):
    start = time.perf_counter()
    rows = verify_oracle_grid(replications=1_000_000, seed=20240613)
    failures = [r for r in rows if not r["ok"]]
    assert len(rows) == 60
    assert len(failures) <= 1, [
        (r["functional"], r["point"], r["analytic"], r["mc_mean"], r["mc_se"]) for r in failures
    ]
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(4, elapsed, 60.0, f"all five functionals within 3 SE of Monte Carlo at "
                                 f"1e6 replications on the 12-point grid "
                                 f"({len(failures)} allowed failure(s) used of 1)")


def test_criterion_5_profile_convergence(capsys):
    start = time.perf_counter()
    params = HazardParams(m=0.02, M=0.01, b=0.03)
    prof = discount_profile(params, 2001)
    long_run = (1.0 - 0.01) * (1.0 - 0.02) * (1.0 + 0.03)
    assert prof.long_run == pytest.approx(long_run, abs=1e-15)
    diffs = np.diff(prof.ratios)
    resolvable = (prof.ratios[:-1] - prof.long_run) > 1e-13
    assert np.all(diffs[resolvable] < 0.0)
    assert np.all(diffs <= 4.0 * np.finfo(float).eps)
    assert abs(prof.ratios[2000] - prof.long_run) < 1e-10
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(5, elapsed, 1.0, "social-welfare ratios fall monotonically and reach "
                                "(1-M)(1-m)(1+b) within 1e-10 by t=2000")


def test_criterion_6_sensitivity_facts(capsys):
    start = time.perf_counter()
    bump = 1e-3
    for params in VERIFY_GRID:
        for case in TABLE_CASES:
            rep = discount_factor(case, params)
            bumped = discount_factor(case, replace(params, M=params.M + bump))
            assert bumped.factor < rep.factor  # (a) more extinction risk, more impatience
            assert bumped.factor_n0 < rep.factor_n0
            sens = belief_update_response(case, params)
            for reg in (sens.b_fixed, sens.n_fixed):
                assert reg.d_factor_d_M < 0.0
                for closed, fd in (
                    (reg.d_factor_d_M, reg.fd_d_factor_d_M),
                    (reg.d_factor_d_m, reg.fd_d_factor_d_m),
                ):
                    if closed == 0.0:
                        assert abs(fd) < 1e-6  # (c), zero-derivative branch
                    else:
                        assert abs(fd - closed) <= 1e-6 * abs(closed)  # (c)
        dyn = belief_update_response(DYNASTY, params).n_fixed
        assert dyn.d_factor_d_m == 0.0  # (b) exact zero mortality sensitivity
        assert dyn.fd_d_factor_d_m == 0.0
        assert dyn.d_factor_d_M == -params.gross_growth  # (b) -(1+n)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(6, elapsed, 1.0, "factors strictly decrease in M; n-fixed dynasty has "
                                "zero m-sensitivity and M-sensitivity -(1+n); closed "
                                "forms match finite differences to 1e-6")


def test_criterion_7_divergence_handling(capsys):
    start = time.perf_counter()
    divergent = [
        (DYNASTY, HazardParams(m=0.0, M=0.005, b=0.01)),          # (1-M)(1+n) >= 1
        (DYNASTY_THETA, HazardParams(m=0.0, M=0.004, b=0.0102, theta=0.9)),
        (LINEAGE, HazardParams(m=0.0, M=0.002, b=0.05, alpha=0.9)),
        (SOCIAL_WELFARE, HazardParams(m=0.02, M=0.004, b=0.05)),
    ]
    for case, params in divergent:
        assert not finiteness_check(case, params).finite
        with pytest.raises(DivergenceError):
            evaluate(case, params, ONE, LINEAR)
        rows = scenario_sweep([params], [case], ONE, LINEAR)
        assert rows[0].status == "divergent"
        assert rows[0].series is None  # flagged, never numeric
    with pytest.raises(DivergenceError):
        mc_ev_dynasty(divergent[0][1], ONE, LINEAR, 1.0,
                      SimulationConfig(replications=10, seed=0))
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(7, elapsed, 1.0, "points violating the finiteness conditions are flagged "
                                "divergent everywhere, never evaluated numerically")


def test_criterion_8_agent_based_smoothing(capsys):
    start = time.perf_counter()
    params = VERIFY_GRID[0]  # the n = 0 benchmark parameterization
    cfg = SimulationConfig(replications=10_000, seed=20240815, mode="agent")
    rows = abm_smoothing_study(params, ONE, LINEAR, [1, 10, 100, 1000], cfg)
    gaps = [r.mean_abs_gap for r in rows]
    assert all(a >= b for a, b in zip(gaps, gaps[1:])), gaps
    die_offs = {r.n0: r.die_off_frequency for r in rows}
    assert die_offs[1] > 0.0
    assert die_offs[1000] < 0.01
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(8, elapsed, 120.0, f"per-capita smoothing gap non-increasing in head count "
                                  f"{[round(g, 2) for g in gaps]}; die-off frequency "
                                  f"{die_offs[1]:.3f} at 1 vs {die_offs[1000]:.5f} at 1000")


def test_criterion_9_verify_reruns_byte_identical(tmp_path, capsys):
    start = time.perf_counter()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outputs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "extrisk.cli", "verify",
             "--reps", "20000", "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    for name in ("verify.csv", "verify.json"):
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(9, elapsed, 300.0, "verify subcommand run twice with the same seed "
                                  "produces byte-identical outputs")
