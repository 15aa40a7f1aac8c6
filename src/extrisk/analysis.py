"""Discount factors, time profiles, and belief-update comparative statics.

The per-period discount factor of each aggregation perspective is the ratio of
consecutive series weights. It is constant for every case except social
welfare, whose ratio starts higher and falls geometrically to the long-run
value (1-M)(1-m)(1+b), the dynasty factor.

Sensitivities of the factor to the perceived hazards are computed in two
regimes: b-fixed (the birth rate stays put when m moves, so n moves) and
n-fixed (b is adjusted to hold the population growth rate constant). Closed
forms are primary; central finite differences are reported alongside as a
cross-check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import ConsumptionPath, DivergenceError, HazardParams, UtilitySpec
from .series import (
    DEFAULT_TOLERANCE,
    Scenario,
    SeriesResult,
    _batch,
    _Batch,
    _Results,
    _evaluate_grid,
    _finite,
    _pow,
    factor_exponents,
    factor_pieces,
    one_minus_q_power,
    weight_sequence,
)

__all__ = [
    "DiscountReport",
    "DiscountProfile",
    "RegimeSensitivity",
    "SensitivityReport",
    "SweepRow",
    "discount_factor",
    "factor_from_weights",
    "discount_profile",
    "belief_update_response",
    "scenario_sweep",
]


@dataclass(frozen=True)
class DiscountReport:
    """Per-period discount factor of a case, with both rate conventions.

    For social welfare the per-period ratio is not constant; factor is then
    the long-run limit and constant is False. rate_simple = 1 - factor and
    rate_log = -ln(factor) are always derived from factor.
    """

    case: Scenario
    factor: float
    rate_simple: float
    rate_log: float
    factor_n0: float
    constant: bool
    note: Optional[str] = None


@dataclass(frozen=True)
class DiscountProfile:
    """Consecutive weight ratios r_t of the social welfare series.

    r_t = (1-M)(1-m)(1+b) * (1 - q**(t+2)) / (1 - q**(t+1)) with q = 1/(1+b):
    strictly decreasing, always above the long-run limit (1-M)(1-m)(1+b),
    which it approaches at geometric speed q**t. In float64 the ratios merge
    with the limit once q**t drops below machine resolution.
    """

    ratios: np.ndarray
    long_run: float


def _factor_n(exps: np.ndarray, sM: np.ndarray, sm: np.ndarray, g: np.ndarray) -> np.ndarray:
    """(1-M)**eM (1-m)**(em-eb) (1+n)**eb per row: the factor with g = 1+n in place of b."""
    eM, eb, em = exps.T
    return _pow(sM, eM) * _pow(sm, em - eb) * _pow(g, eb)


_NOTES = {
    "known_extinction": ("fixed extinction date: only individual mortality discounts; "
                         "extinction prospects carry no weight"),
    "social_welfare": "per-period ratio varies with t; factor is the long-run limit",
}


def _report_cells(rows: _Batch) -> Dict[str, list]:
    """The DiscountReport fields of every row of a batch, each a list over the rows."""
    factor = rows.factor.tolist()
    factor_n0 = _factor_n(rows.exps, 1.0 - rows.M, 1.0 - rows.m, np.ones(len(rows.M)))  # n = 0
    return {"factor": factor, "rate_simple": (1.0 - rows.factor).tolist(),
            "rate_log": [-math.log(f) if f > 0.0 else math.inf for f in factor],
            "factor_n0": factor_n0.tolist(),
            "constant": [c.kind != "social_welfare" for c in rows.cases] * len(rows.points)}


def _reports(rows: _Batch) -> List[DiscountReport]:
    """discount_factor of every row of a batch, from the batch's factors."""
    cells = _report_cells(rows)
    cases = rows.cases * len(rows.points)
    # positional: case, factor, rate_simple, rate_log, factor_n0, constant, note
    return [DiscountReport(case, *fields, _NOTES.get(case.kind)) for case, *fields in zip(
        cases, *map(cells.get, ("factor", "rate_simple", "rate_log", "factor_n0", "constant")))]


def discount_factor(case: Scenario, params: HazardParams) -> DiscountReport:
    """Closed-form discount factor of the case plus its n = 0 restriction.

    known_extinction carries a note: with the extinction date fixed, only the
    individual death hazard discounts and the factor ignores M entirely.
    """
    return _reports(_batch([params], [case]))[0]


def factor_from_weights(case: Scenario, params: HazardParams) -> float:
    """Per-period factor recovered as w_{t+1}/w_t from the series weights.

    Constant-factor cases only; the ratios over t < 51 must be constant to
    1e-12, which ties the series engine back to the closed-form factor.
    """
    if case.kind == "social_welfare":
        raise ValueError("social welfare has no constant factor; use discount_profile")
    horizon = min(51, case.T + 1) if case.kind == "known_extinction" else 51
    if horizon < 2:
        raise ValueError("known_extinction with T = 0 has no consecutive weights")
    w = weight_sequence(case, params, horizon)
    ratios = w[1:] / w[:-1]
    if np.ptp(ratios) > 1e-12:
        raise AssertionError(f"weight ratios are not constant: spread {np.ptp(ratios):.3g}")
    return float(ratios[0])


def discount_profile(params: HazardParams, horizon: int) -> DiscountProfile:
    """Social-welfare weight-ratio profile r_0, ..., r_{horizon-1}. Needs b > 0."""
    if params.b <= 0.0:
        raise ValueError("the social-welfare profile is undefined at b = 0")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    long_run = (1.0 - params.M) * params.gross_growth
    a = one_minus_q_power(params.b, np.arange(1, horizon + 2))  # a[k] = 1 - q**(k+1)
    return DiscountProfile(ratios=long_run * a[1:] / a[:-1], long_run=long_run)


# --- belief-update comparative statics --------------------------------------


@dataclass(frozen=True)
class RegimeSensitivity:
    """Factor derivatives wrt the perceived hazards under one adjustment regime."""

    regime: str
    d_factor_d_M: float
    d_factor_d_m: float
    fd_d_factor_d_M: float
    fd_d_factor_d_m: float


@dataclass(frozen=True)
class SensitivityReport:
    case: Scenario
    b_fixed: RegimeSensitivity
    n_fixed: RegimeSensitivity


def _closed_derivatives(case: Scenario, params: HazardParams, regime: str):
    """(d factor / dM, d factor / dm) from the case's exponents, a zero exponent giving +0."""
    eM, eb, em = factor_exponents(case, params)
    sM, sm, g = 1.0 - params.M, 1.0 - params.m, params.gross_growth
    if regime == "n-fixed":  # sM**eM sm**(em-eb) g**eb with g held
        rest = sm ** (em - eb) * g**eb
        # (em - 1) - eb keeps the lineage exponent -alpha exact
        d_m = 0.0 if em == eb else -(em - eb) * sM**eM * sm ** (em - 1.0 - eb) * g**eb
    elif eb == em:  # sM**eM g**e
        rest = g**eb
        d_m = -em * sM**eM * (1.0 + params.b) * g ** (em - 1.0)
    else:  # sM**eM (1+b)**eb sm**em
        rest = (1.0 + params.b) ** eb * sm**em
        d_m = -em * sM**eM * (1.0 + params.b) ** eb * sm ** (em - 1.0)
    d_M = 0.0 if eM == 0.0 else -eM * sM ** (eM - 1.0) * rest
    return d_M, d_m


def _factor_in_regime(
    case: Scenario, m: float, M: float, base: HazardParams, regime: str
) -> float:
    """Factor as a function of the perceived hazards, holding b or n at its base value."""
    if regime == "b-fixed":
        return math.prod(factor_pieces(case, replace(base, m=m, M=M)))
    row = [np.array([x]) for x in (1.0 - M, 1.0 - m, base.gross_growth)]
    return float(_factor_n(np.array([factor_exponents(case, base)]), *row)[0])


def belief_update_response(
    case: Scenario,
    params: HazardParams,
    dM: float = 1e-6,
    dm: float = 1e-6,
) -> SensitivityReport:
    """How the discount factor responds to belief updates about M and about m.

    Reports closed-form derivatives and central finite differences (steps dM,
    dm) under both regimes. Perturbed hazards must stay inside [0, 1); steps
    that cross a boundary are rejected.
    """
    for name, x, h in (("M", params.M, dM), ("m", params.m, dm)):
        if not (h > 0.0 and math.isfinite(h)):
            raise ValueError(f"d{name} must be finite and > 0, got {h!r}")
        if x - h < 0.0 or x + h >= 1.0:
            raise ValueError(
                f"finite-difference step d{name}={h!r} crosses the boundary at {name}={x!r}"
            )
    regimes = []
    for regime in ("b-fixed", "n-fixed"):
        cd_M, cd_m = _closed_derivatives(case, params, regime)
        f = lambda m, M: _factor_in_regime(case, m, M, params, regime)
        fd_M = (f(params.m, params.M + dM) - f(params.m, params.M - dM)) / (2.0 * dM)
        fd_m = (f(params.m + dm, params.M) - f(params.m - dm, params.M)) / (2.0 * dm)
        regimes.append(
            RegimeSensitivity(
                regime=regime,
                d_factor_d_M=cd_M,
                d_factor_d_m=cd_m,
                fd_d_factor_d_M=fd_M,
                fd_d_factor_d_m=fd_m,
            )
        )
    return SensitivityReport(case=case, b_fixed=regimes[0], n_fixed=regimes[1])


# --- scenario sweeps ---------------------------------------------------------


# each sweep cell after the grid parameters and the case, as the DiscountReport,
# SweepRow or SeriesResult field it shows
_SWEEP_CELLS = {
    "factor": "factor", "rate_simple": "rate_simple", "rate_log": "rate_log",
    "factor_n0": "factor_n0", "constant_factor": "constant", "finite": "finite",
    "finiteness_product": "factor", "finiteness_margin": "rate_simple", "status": "status",
    "value": "value", "tail_bound": "tail_bound", "truncation_index": "truncation_index",
    "converged": "converged",
}
_SERIES_FIELDS = ("value", "tail_bound", "truncation_index", "converged")


@dataclass(frozen=True)
class SweepRow:
    """One (parameter point, case) evaluation; divergent points are flagged, kept."""

    params: HazardParams
    case: Scenario
    report: DiscountReport
    series: Optional[SeriesResult]
    status: str  # "ok" | "divergent" | "rejected: <reason>"

    @property
    def finite(self) -> bool:
        """finiteness_check's verdict on the report's factor."""
        return _finite(self.case.kind, self.report.factor)

    def to_dict(self) -> dict:
        """The row's cells: the grid parameters, the case, then the cells of _SWEEP_CELLS."""
        series = dict.fromkeys(_SERIES_FIELDS) if self.series is None else vars(self.series)
        fields = {**vars(self.report), **series, "finite": self.finite, "status": self.status}
        return {**self.params.cells(), "case": self.case.label(),
                **{col: fields[name] for col, name in _SWEEP_CELLS.items()}}


def _sweep_batches(
    points: Sequence[HazardParams], cases: Sequence[Scenario], path: ConsumptionPath,
    u: UtilitySpec, tol: float,
) -> Iterator[Tuple[_Batch, _Results, List[str]]]:
    """Each pass of the array core over points x cases, with the status of each of its rows.

    This is the one place a failed evaluation becomes a row status, so every
    caller reports the same verdict: a row failing with DivergenceError
    gives "divergent", with ValueError "rejected: <reason>".
    """
    for rows, results in _evaluate_grid(points, cases, path, u, tol):
        status = ["ok"] * len(rows.kinds)
        for i, exc in results.failed.items():
            if isinstance(exc, DivergenceError):
                status[i] = "divergent"
            elif isinstance(exc, ValueError):
                status[i] = f"rejected: {exc}"
            else:
                raise exc
        yield rows, results, status


def scenario_sweep(
    points: Iterable[HazardParams],
    cases: Sequence[Scenario],
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = DEFAULT_TOLERANCE,
) -> List[SweepRow]:
    """Evaluate every case at every parameter point; one row per (point, case).

    The rows go through the array core a few thousand at a time, and a row's
    result does not depend on the rows beside it. A row failing with
    DivergenceError has status "divergent", with ValueError "rejected:
    <reason>", and no series.
    """
    points, cases = list(points), list(cases)
    out: List[SweepRow] = []
    if not cases:
        return out
    for rows, results, status in _sweep_batches(points, cases, path, u, tol):
        for i, report in enumerate(_reports(rows)):
            series = None if i in results.failed else results.result(i)
            # positional: params, case, report, series, status
            out.append(SweepRow(rows.points[i // len(cases)], report.case, report, series,
                                status[i]))
    return out


def _sweep_columns(
    points: Sequence[HazardParams], cases: Sequence[Scenario], path: ConsumptionPath,
    u: UtilitySpec, tol: float,
) -> Iterator[Dict[str, list]]:
    """scenario_sweep's rows as columns, one block per pass of the array core.

    A block maps each SweepRow.to_dict key to the list of its cells in row
    order; the cells are those to_dict gives, built from the pass's arrays
    without a SweepRow. Columns showing the same field are the same list.
    """
    if not cases:
        return
    for rows, results, status in _sweep_batches(points, cases, path, u, tol):
        fields = {**_report_cells(rows), **results._asdict(), "status": status,
                  "finite": _finite(rows.kinds, rows.factor).tolist()}
        params = [p.cells() for p in rows.points]
        block = {key: _repeat_each([c[key] for c in params], len(cases)) for key in params[0]}
        block["case"] = [c.label() for c in cases] * len(rows.points)
        yield {**block, **{col: fields[name] for col, name in _SWEEP_CELLS.items()}}


def _repeat_each(values: list, k: int) -> list:
    """Each value k times in a row: [a, b] -> [a, a, b, b] for k = 2."""
    return list(itertools.chain.from_iterable(zip(*[values] * k)))
