"""Row checks behind `fail_frac`, with an exact reference independent of extrisk.

`sweep` rows are compared with a 50-digit stdlib `decimal` evaluation of the
closed forms, built from the exact float inputs:

    S(r)  = sum_{t < p} r**t u(c_t) + (geometric tail in closed form)
    EW    = N0 (1+b)/b * (S(rho) - q S(rho q)),   q = 1/(1+b)

A case diverges when its weight ratio rho >= 1, or, for CRRA utility on a
geometric tail of ratio g, when rho * g**(1-sigma) >= 1. A row fails when it
is unconverged, when its status disagrees with the reference's finite /
divergent verdict, or when |value - ref| > tail_bound + 8 eps |ref| (1 +
1/(1-rho)); the second term only covers rounding rho to a float.

`verify` rows fail when |mc - analytic| > 5 SE. `abm` rows fail when a
number is not finite, when smoothed_mean_per_capita differs across head
counts at one grid point (the common-random-numbers contract), or when
mean_abs_gap grows from one head count to the next.

Everything here reads only the generated configs and the CSV files written
by the program; it never imports extrisk.
"""

from __future__ import annotations

import csv
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import CASES, Invocation

CTX = Context(prec=50, Emin=-999999, Emax=999999)
ONE = Decimal(1)
EPS = Decimal(2) ** -52
SE_MULTIPLE = 5.0
GRID_DEFAULTS = {"b": [0.0], "theta": [1.0], "alpha": [0.5], "N0": [1.0]}


class IntegrityError(Exception):
    """Output that cannot be checked: missing file, wrong rows, unparsable cells."""


@dataclass
class CheckResult:
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)  # (reason, case) -> rows
    verify_fail_3se: int = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failures.update(other.failures)
        self.verify_fail_3se += other.verify_fail_3se


# --- exact reference --------------------------------------------------------


# Every function below runs under localcontext(CTX), so plain operators
# round to 50 digits.


def _pow(x: Decimal, e: float) -> Decimal:
    if e == 1.0:
        return x
    if e == 0.5:
        return x.sqrt()
    return x ** Decimal(e)


def _utility(family: str, sigma: Optional[float], c: Decimal) -> Decimal:
    if family == "log":
        return c.ln()
    if family == "linear":
        return c
    s = Decimal(sigma)
    return (c ** (ONE - s) - ONE) / (ONE - s)


class PathSum:
    """S(r) = sum_t r**t u(c_t) for one consumption path and utility, exactly."""

    def __init__(self, path: Dict, utility: Dict) -> None:
        self.family = utility.get("family", "log")
        self.sigma = utility.get("sigma")
        self.prefix = [Decimal(float(c)) for c in path["prefix"]]
        self.u = [_utility(self.family, self.sigma, c) for c in self.prefix]
        self.tail = path.get("tail", "constant")
        self.gamma: Optional[Decimal] = None  # growth of |u| along a geometric tail
        if self.tail == "geometric":
            if self.family != "crra":
                raise ValueError("the reference covers geometric tails under CRRA only")
            self.g = Decimal(float(path["ratio"]))
            self.gamma = self.g ** (ONE - Decimal(self.sigma))

    def finite(self, r: Decimal) -> bool:
        return r < ONE and (self.gamma is None or r * self.gamma < ONE)

    def __call__(self, r: Decimal) -> Decimal:
        total = Decimal(0)
        rt = ONE
        for ut in self.u:
            total += rt * ut
            rt *= r  # ends as r**p, p the prefix length
        if self.tail == "constant":
            return total + rt * self.u[-1] / (ONE - r)
        # c_t = c_{p-1} g**(t-p+1): sum_{t>=p} r**t (c_{p-1}**(1-s) gamma**(t-p+1) - 1) / (1-s)
        one_minus_s = ONE - Decimal(self.sigma)
        grow = self.prefix[-1] ** one_minus_s * self.gamma * rt / (ONE - r * self.gamma)
        flat = rt / (ONE - r)
        return total + (grow - flat) / one_minus_s


def _rho(case: str, m: Decimal, M: Decimal, b: Decimal, theta: float, alpha: float) -> Decimal:
    sm, sM, gb = ONE - m, ONE - M, ONE + b
    if case == "individual":
        return sM * sm
    if case in ("dynasty", "social_welfare"):
        return sM * gb * sm
    if case == "dynasty_theta":
        return sM * _pow(gb * sm, theta)
    if case == "lineage":
        return sM * _pow(gb, alpha) * sm
    raise ValueError(f"no reference for case {case!r}")


def reference_rows(config: Dict) -> List[Tuple[Tuple[float, ...], str, Optional[Decimal], Decimal]]:
    """Per expected sweep row: (m, M, b, theta, alpha, N0), case, exact value or None, rho.

    Row order is the CLI's: the cartesian product of the grid axes in the
    order m, M, b, theta, alpha, N0, then the cases.
    """
    with localcontext(CTX):
        return _reference_rows(config)


def _reference_rows(config: Dict):
    grid = {**GRID_DEFAULTS, **config["grid"]}
    cases = config.get("cases", list(CASES))
    path_sum = PathSum(config["path"], config["utility"])
    rows = []
    for point in itertools.product(*(grid[k] for k in ("m", "M", "b", "theta", "alpha", "N0"))):
        m, M, b, theta, alpha, n0 = (float(x) for x in point)
        dm, dM, db = Decimal(m), Decimal(M), Decimal(b)
        for case in cases:
            rho = _rho(case, dm, dM, db, theta, alpha)
            value = None
            if path_sum.finite(rho):
                if case == "social_welfare":
                    q = ONE / (ONE + db)
                    pref = Decimal(n0) * (ONE + db) / db
                    value = pref * (path_sum(rho) - q * path_sum(rho * q))
                else:
                    value = path_sum(rho)
            rows.append(((m, M, b, theta, alpha, n0), case, value, rho))
    return rows


# --- row checks -------------------------------------------------------------


def _read_csv(path: Path) -> List[Dict[str, str]]:
    if not path.is_file():
        raise IntegrityError(f"missing output {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def expected_rows(inv: Invocation) -> int:
    """Rows the invocation must write; all of them fail when the CLI call fails."""
    if inv.argv[0] == "verify":
        return 60  # 12 VERIFY_GRID points x 5 functionals
    grid = {**GRID_DEFAULTS, **inv.config["grid"]}
    points = math.prod(len(grid[k]) for k in ("m", "M", "b", "theta", "alpha", "N0"))
    if inv.argv[0] == "sweep":
        return points * len(inv.config.get("cases", CASES))
    return points * len(inv.config["simulation"]["n0_values"])


def check_sweep(rows: List[Dict[str, str]], ref) -> CheckResult:
    with localcontext(CTX):
        return _check_sweep(rows, ref)


def _check_sweep(rows: List[Dict[str, str]], ref) -> CheckResult:
    res = CheckResult(attempted=len(rows))
    for row, (point, case, value, rho) in zip(rows, ref):
        got = tuple(float(row[k]) for k in ("m", "M", "b", "theta", "alpha", "N0"))
        if got != point or row["case"] != case:
            raise IntegrityError(f"sweep row {row['case']} {got} out of order, expected {case} {point}")
        status = row["status"]
        if value is None:
            if status != "divergent":
                res.failures[("status", case)] += 1
        elif status != "ok":
            res.failures[("status", case)] += 1
        elif row["converged"] != "True":
            res.failures[("unconverged", case)] += 1
        else:
            err = abs(Decimal(float(row["value"])) - value)
            allowance = Decimal(float(row["tail_bound"])) + 8 * EPS * abs(value) * (ONE + ONE / (ONE - rho))
            if not err <= allowance:
                res.failures[("bound_miss", case)] += 1
    return res


def check_verify(rows: List[Dict[str, str]]) -> CheckResult:
    if len({(r["functional"], r["point"]) for r in rows}) != len(rows):
        raise IntegrityError("verify wrote duplicate (functional, point) rows")
    res = CheckResult(attempted=len(rows))
    for row in rows:
        analytic, mc, se = (float(row[k]) for k in ("analytic", "mc_mean", "mc_se"))
        if not all(map(math.isfinite, (analytic, mc, se))):
            res.failures[("non_finite", row["functional"])] += 1
        elif abs(mc - analytic) > SE_MULTIPLE * se:
            res.failures[("mc_bias_5se", row["functional"])] += 1
        res.verify_fail_3se += row["ok"] != "True"
    return res


def check_abm(rows: List[Dict[str, str]], config: Dict) -> CheckResult:
    n0_values = config["simulation"]["n0_values"]
    res = CheckResult(attempted=len(rows))
    for start in range(0, len(rows), len(n0_values)):
        block = rows[start:start + len(n0_values)]
        if [int(r["n0"]) for r in block] != n0_values:
            raise IntegrityError(f"simulate rows {start}.. do not list head counts {n0_values}")
        smoothed = block[0]["smoothed_mean_per_capita"]
        prev_gap = math.inf
        for r in block:
            nums = [float(r[k]) for k in ("mean_abs_gap", "die_off_frequency",
                                           "mean_welfare_per_capita", "smoothed_mean_per_capita",
                                           "cap_hit_fraction")]
            gap = nums[0]
            if not all(map(math.isfinite, nums)):
                res.failures[("non_finite", "abm")] += 1
            elif r["smoothed_mean_per_capita"] != smoothed:
                res.failures[("crn_broken", "abm")] += 1
            elif gap > prev_gap:
                res.failures[("gap_grows", "abm")] += 1
            prev_gap = gap
    return res


def check_invocation(inv: Invocation, out_dir: Path, ref) -> CheckResult:
    """Check one invocation's output files; ref is reference_rows(config) for sweeps."""
    command = inv.argv[0]
    rows = _read_csv(out_dir / f"{command}.csv")
    if len(rows) != expected_rows(inv):
        raise IntegrityError(f"{command}.csv has {len(rows)} rows, expected {expected_rows(inv)}")
    if command == "sweep":
        return check_sweep(rows, ref)
    if command == "verify":
        return check_verify(rows)
    return check_abm(rows, inv.config)


def failed_invocation(inv: Invocation) -> CheckResult:
    """A CLI call that exited non-zero fails every row it should have written."""
    n = expected_rows(inv)
    return CheckResult(attempted=n, failures=Counter({("cli_exit", inv.name): n}))
