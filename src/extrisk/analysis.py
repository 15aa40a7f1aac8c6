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

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .model import ConsumptionPath, HazardParams, UtilitySpec, _check_int
from .series import (
    DEFAULT_TOLERANCE,
    DYNASTY,
    Scenario,
    SeriesResult,
    _batch,
    _Batch,
    _check_births,
    _columns,
    _evaluate_rows,
    _finite,
    _passes,
    _points,
    factor_exponents,
    one_minus_q_power,
)

__all__ = [
    "DiscountReport",
    "DiscountProfile",
    "RegimeSensitivity",
    "SensitivityReport",
    "SweepRow",
    "discount_factor",
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


_NOTES = {
    "known_extinction": ("fixed extinction date: only individual mortality discounts; "
                         "extinction prospects carry no weight"),
    "social_welfare": "per-period ratio varies with t; factor is the long-run limit",
}


def _report_cells(rows: _Batch) -> Dict[str, Sequence]:
    """The DiscountReport fields after case, in field order, over a batch's rows: the factors
    and rate_simple as float arrays, rate_log and constant as lists.
    """
    return {"factor": rows.factor, "rate_simple": 1.0 - rows.factor,
            "rate_log": [-math.log(f) if f > 0.0 else math.inf for f in rows.factor.tolist()],
            "factor_n0": rows.factor_n(np.ones(len(rows.M))),  # n = 0
            "constant": [c.kind != "social_welfare" for c in rows.cases] * len(rows.points)}


def _reports(rows: _Batch) -> List[DiscountReport]:
    """discount_factor of every row of a batch, from the batch's factors."""
    cells = [c.tolist() if isinstance(c, np.ndarray) else c for c in _report_cells(rows).values()]
    # positional: case, then _report_cells in field order, then the note
    return [DiscountReport(case, *fields, _NOTES.get(case.kind))
            for case, *fields in zip(rows.cases * len(rows.points), *cells)]


def discount_factor(case: Scenario, params: HazardParams) -> DiscountReport:
    """Closed-form discount factor of the case plus its n = 0 restriction.

    known_extinction carries a note: with the extinction date fixed, only the
    individual death hazard discounts and the factor ignores M entirely.
    """
    return _reports(_batch(_columns([params]), [case]))[0]


def discount_profile(params: HazardParams, horizon: int) -> DiscountProfile:
    """Social-welfare weight-ratio profile r_0, ..., r_{horizon-1}. Needs b > 0."""
    _check_births(params.b)
    _check_int("horizon", horizon, 1)
    long_run = (1.0 - params.M) * params.gross_growth
    a = one_minus_q_power(params.b, np.arange(1, horizon + 2))  # a[k] = 1 - q**(k+1)
    return DiscountProfile(ratios=long_run * a[1:] / a[:-1], long_run=long_run)


def _profile_columns(points: np.ndarray, horizon: int) -> Iterator[Dict[str, Sequence]]:
    """discount_profile at every point of parameter columns with b > 0 as columns, a block per
    point: its weight ratios r_t (t < horizon) and long-run factor, then its dynasty factor,
    from one batch. Every block gives the same case, parameter and t lists.
    """
    points = [p for p in _points(points) if p.b > 0.0]
    cells = {"case": ["social_welfare"] * (horizon + 1) + ["dynasty"],
             "parameter": ["weight_ratio"] * horizon + ["long_run_factor", "factor"],
             "t": [*range(horizon), None, None]}
    for params, factor in zip(points, _batch(_columns(points), [DYNASTY]).factor.tolist()):
        prof = discount_profile(params, horizon)
        yield {**{k: np.full(horizon + 2, v) for k, v in params.cells(population=False).items()},
               **cells, "value": np.append(prof.ratios, (prof.long_run, factor))}


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


def _step_error(params: HazardParams, dM: float, dm: float) -> Optional[str]:
    """Why the steps dM, dm are rejected at params, or None: not finite and > 0, or crossing."""
    for name, x, h in (("M", params.M, dM), ("m", params.m, dm)):
        if not (h > 0.0 and math.isfinite(h)):
            return f"d{name} must be finite and > 0, got {h!r}"
        if x - h < 0.0 or x + h >= 1.0:
            return f"finite-difference step d{name}={h!r} crosses the boundary at {name}={x!r}"


_REGIME_FIELDS = [f.name for f in fields(RegimeSensitivity)]
_PARAMS = [f.name for f in fields(HazardParams)]  # the columns of series._columns
_SENSITIVITY_CELLS = [*_PARAMS[:5], "case", *_REGIME_FIELDS, "status"]  # a block's keys in order


def _sensitivity_columns(points: np.ndarray, cases: Sequence[Scenario], dM: float,
                         dm: float, prefix_len: int) -> Iterator[Dict[str, Sequence]]:
    """belief_update_response at every (point, case) of parameter columns as columns: a b-fixed
    row, then n-fixed.

    A pass's points perturbed by +-dM and +-dm are one batch, whose factors are
    the b-fixed ones and whose factor_n at each point's own 1+n the n-fixed
    ones. A point _step_error rejects reads "rejected: <reason>" in both rows.
    """
    for columns in _passes(points, len(cases), prefix_len):
        run = _points(columns)
        errors = [_step_error(p, dM, dm) for p in run]
        ok = [p for p, error in zip(run, errors) if error is None]
        batch = _batch(_columns([replace(p, m=m, M=M) for p in ok for m, M in (
            (p.m, p.M + dM), (p.m, p.M - dM), (p.m + dm, p.M), (p.m - dm, p.M))]), cases)
        g = np.repeat([p.gross_growth for p in ok], 4 * len(cases))
        # f[regime, point, (M + dM, M - dM, m + dm, m - dm), case]
        f = np.stack([batch.factor, batch.factor_n(g)]).reshape(2, len(ok), 4, len(cases))
        fd = (f[:, :, 0::2] - f[:, :, 1::2]) / np.array([[2.0 * dM], [2.0 * dm]])
        fd = iter(fd.transpose(1, 3, 0, 2).reshape(-1, 2).tolist())  # per point, case, regime
        rows = [[case.label(), regime,
                 *([None] * 4 if error else [*_closed_derivatives(case, p, regime), *next(fd)]),
                 f"rejected: {error}" if error else "ok"]
                for p, error in zip(run, errors) for case in cases
                for regime in ("b-fixed", "n-fixed")]
        yield dict(zip(_SENSITIVITY_CELLS, [*np.repeat(columns[:, :5], 2 * len(cases), axis=0).T,
                                            *map(list, zip(*rows))]))


def belief_update_response(case: Scenario, params: HazardParams, dM: float = 1e-6,
                           dm: float = 1e-6) -> SensitivityReport:
    """How the discount factor responds to belief updates about M and about m.

    Reports closed-form derivatives and central finite differences (steps dM,
    dm) under both regimes: the one-point case of _sensitivity_columns.
    Perturbed hazards must stay inside [0, 1); steps that cross a boundary
    are rejected.
    """
    block = next(_sensitivity_columns(_columns([params]), [case], dM, dm, 1))
    if block["status"][0] != "ok":
        raise ValueError(block["status"][0].removeprefix("rejected: "))
    b_fixed, n_fixed = (RegimeSensitivity(*cells)
                        for cells in zip(*map(block.get, _REGIME_FIELDS)))
    return SensitivityReport(case=case, b_fixed=b_fixed, n_fixed=n_fixed)


# --- scenario sweeps ---------------------------------------------------------


# each sweep cell as the grid parameter, the case, or the DiscountReport, SweepRow
# or SeriesResult field it shows
_SWEEP_CELLS = {
    **{key: key for key in ("m", "M", "b", "theta", "alpha", "N0", "n", "case")},
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
        """The row's cells, keyed as _SWEEP_CELLS."""
        series = dict.fromkeys(_SERIES_FIELDS) if self.series is None else vars(self.series)
        cells = {**vars(self.report), **series, **self.params.cells(), "case": self.case.label(),
                 "finite": self.finite, "status": self.status}
        return {col: cells[name] for col, name in _SWEEP_CELLS.items()}


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
    for run in _passes(points, len(cases), path.prefix_len):
        rows = _batch(_columns(run), cases)
        results = _evaluate_rows(rows, path, u, tol)
        for i, report in enumerate(_reports(rows)):
            series = None if i in results.failed.exc else results.result(i)
            # positional: params, case, report, series, status
            out.append(SweepRow(run[i // len(cases)], report.case, report, series,
                                results.status[i]))
    return out


def _factor_columns(
    points: np.ndarray, cases: Sequence[Scenario], prefix_len: int,
) -> Iterator[Tuple[_Batch, Dict[str, Sequence]]]:
    """The batch of each pass over parameter columns x cases, with its rows' cells in row order.

    The cells are each HazardParams.cells key, as float arrays from the
    columns (n by HazardParams.n's operations), "case", and the DiscountReport
    fields that discount_factor gives each row.
    """
    labels: Dict[int, list] = {}  # one list per pass size, which the writer formats once
    for run in _passes(points, len(cases), prefix_len):
        rows = _batch(run, cases)
        cells = dict(zip(_PARAMS, np.repeat(run, len(cases), axis=0).T))
        cells["n"] = (1.0 + cells["b"]) * (1.0 - cells["m"]) - 1.0
        cells["case"] = labels.setdefault(len(run), [c.label() for c in cases] * len(run))
        yield rows, {**cells, **_report_cells(rows)}


def _sweep_columns(
    points: np.ndarray, cases: Sequence[Scenario], path: ConsumptionPath,
    u: UtilitySpec, tol: float,
) -> Iterator[Dict[str, Sequence]]:
    """scenario_sweep's rows at parameter columns as columns, one block per pass of the core.

    A block maps each SweepRow.to_dict key to its cells in row order, a list
    or a float array; the cells are those to_dict gives, built from the pass's
    arrays without a SweepRow. Columns showing the same field are one object.
    """
    for rows, cells in _factor_columns(points, cases, path.prefix_len):
        fields = {**cells, **_evaluate_rows(rows, path, u, tol)._asdict(),
                  "finite": _finite(rows.kinds, rows.factor).tolist()}
        yield {col: fields[name] for col, name in _SWEEP_CELLS.items()}
