"""Expected-utility functionals as closed-form series with rigorous rounding bounds.

Every functional here has the shape  sum_t w_t u(c_t)  where the weights w_t
encode survival odds and population weighting. Each case discounts at one
per-period factor f = (1-M)**eM (1+b)**eb (1-m)**em, and the exponent table
``_EXPONENTS`` (read through factor_exponents) is the only place the cases'
formulas are written, and ``_batch`` and its methods the only code that
multiplies them out; every factor, log-ratio, regime factor and derivative
elsewhere is derived from them. With (1+n) = (1+b)(1-m):

    case              (eM, eb, em)            weights
    individual        (1, 0, 1)               w_t = ((1-M)(1-m))**t
    dynasty           (1, 1, 1)               w_t = ((1-M)(1+n))**t
    dynasty, theta    (1, theta, theta)       w_t = ((1-M)(1+n)**theta)**t
    lineage           (1, alpha, 1)           w_t = ((1-M)(1+b)**alpha (1-m))**t
    social welfare    (1, 1, 1), long run     w_t = N0 (1+b)/b f**t (1 - (1+b)**-(t+1))
    known date T      (0, 0, 1)               w_t = (1-m)**t  for t <= T, finite sum

The infinite ones are all  pref * sum_t r**t (1 - q**(t+1)) u(c_t):  the
modifier is 1 except for social welfare (q = 1/(1+b)) and its n = 0 form
(q = 1-m). Past the explicit prefix of p periods the consumption path is
constant or geometric, and the tail table ``_tail_terms`` writes u(c_t) there
as a few geometric or arithmetico-geometric terms, each summed in closed form,
so an evaluation costs O(p) whatever the hazards. The same terms give the
Monte Carlo variance check (simulate._verdict) its growth. The modifier's tail
  sum_{t>=p} R**t (1 - q**(t+1)) = R**p [(1-R) a_p + R (1-q)] / ((1-R)(1-Rq)),
with a_p = 1 - q**(p+1) = -expm1((p+1) log q), has no subtraction, so small
birth rates lose no digits. Every 1-R is computed as -expm1(log R), with
log R summed from log1p of the hazard factors, never by forming R first.

The closed form runs as numpy arrays over rows, one row per (point, case):
scenario_sweep, the columns of sweep and eval, and mc_compare evaluate a grid
in a few passes of ``_evaluate_rows`` over the runs of ``_passes``, and
evaluate and the functionals are its one-row calls. A pass's points enter
``_batch`` as parameter columns (``_columns``), and each case's exponents
are one call of ``_EXPONENTS`` on them. The social-welfare
modifier is a per-row mask. Each row is evaluated once: a known date by its
finite sum, never by the closed form; no pass runs ew_social_n0_form. Failures
are per-row masks too: each row keeps the first exception its own evaluation
meets (a failed precondition, divergence, a float-range exit), so no row
depends on the rows beside it. The prefix goes in blocks of at most 4096 dates.

tail_bound is a running rounding-error bound (Higham, Accuracy and Stability
of Numerical Algorithms, ch. 3): each piece of the closed form is a product
of factors with known relative error, the libm functions are taken to be
accurate to 2 ulp, and first-order error counts e are made rigorous as
expm1(e / (1 - e)). A row's at most p + 2 values are summed by a pairwise
tree of TwoSums whose rounding errors are added back: that is off by at most
u |sum| plus a second-order d u gamma_{3d+2} sum |values| for a tree of depth
d, and the bound carries both. The bound's own sum of k terms is widened by
gamma_{k+16}. It bounds |exact - value| for the exact sum at the given float
inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .model import (
    ConsumptionPath,
    DivergenceError,
    HazardParams,
    NoExtinctionError,
    UtilitySpec,
    _check_int,
    _is_positive_finite,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "SeriesResult",
    "Scenario",
    "INDIVIDUAL",
    "DYNASTY",
    "DYNASTY_THETA",
    "LINEAGE",
    "SOCIAL_WELFARE",
    "known_extinction",
    "FinitenessResult",
    "factor_exponents",
    "one_minus_q_power",
    "finiteness_check",
    "eu_individual",
    "ev_dynasty",
    "ev_dynasty_theta",
    "eg_lineage",
    "welfare_window_terms",
    "ew_social",
    "ew_social_n0_form",
    "evaluate",
]

DEFAULT_TOLERANCE = 1e-10
_U = float(np.finfo(float).eps) / 2.0  # unit roundoff
_LIBM = 4.0 * _U  # relative error of one libm call: log, log1p, exp, expm1, pow
_DENORM = 2.0**-1074  # absolute error of a result that underflows

# --- the factor table ----------------------------------------------------------

# Every per-period discount factor is (1-M)**eM (1+b)**eb (1-m)**em. Extinction
# risk enters every case but the known date; births hedge mortality fully,
# partly or not at all. Social welfare's entry is its long-run factor.
# Each entry takes theta and alpha, one point's or a column of them. Its keys
# are the case kinds.
_EXPONENTS = {
    "individual": lambda theta, alpha: (1.0, 0.0, 1.0),
    "dynasty": lambda theta, alpha: (1.0, 1.0, 1.0),
    "dynasty_theta": lambda theta, alpha: (1.0, theta, theta),
    "lineage": lambda theta, alpha: (1.0, alpha, 1.0),
    "social_welfare": lambda theta, alpha: (1.0, 1.0, 1.0),
    "known_extinction": lambda theta, alpha: (0.0, 0.0, 1.0),
}


@dataclass(frozen=True)
class Scenario:
    """One of the aggregation perspectives; known_extinction carries its date."""

    kind: str
    T: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _EXPONENTS:
            raise ValueError(f"kind must be one of {tuple(_EXPONENTS)}, got {self.kind!r}")
        if self.kind == "known_extinction":
            _check_int("the known extinction date T", self.T, 0)
        elif self.T is not None:
            raise ValueError(f"{self.kind} takes no extinction date")

    def label(self) -> str:
        if self.kind == "known_extinction":
            return f"known_extinction(T={self.T})"
        return self.kind


INDIVIDUAL = Scenario("individual")
DYNASTY = Scenario("dynasty")
DYNASTY_THETA = Scenario("dynasty_theta")
LINEAGE = Scenario("lineage")
SOCIAL_WELFARE = Scenario("social_welfare")


def known_extinction(T: int) -> Scenario:
    return Scenario("known_extinction", T=T)


@dataclass(frozen=True)
class SeriesResult:
    """Series value.

    tail_bound is a rigorous upper bound on |true value - value|, the
    rounding error of the closed form or of a known date's finite sum.
    truncation_index is the last summed term: the last explicit prefix
    period of a closed form, the date T of a known date. converged means
    tail_bound <= the requested tolerance.
    """

    value: float
    truncation_index: int
    tail_bound: float
    converged: bool


@dataclass(frozen=True)
class FinitenessResult:
    finite: bool
    product: float
    margin: float  # 1 - product; positive means finite


def factor_exponents(case: Scenario, params: HazardParams) -> Tuple[float, float, float]:
    """Exponents (eM, eb, em) of (1-M), (1+b) and (1-m) in the case's per-period factor."""
    return _EXPONENTS[case.kind](params.theta, params.alpha)


def _pow(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x**e elementwise by Python's float power, which numpy's power does not match in every bit.

    x**0 = 1 and x**1 = x take no call.
    """
    out = np.where(e == 0.0, 1.0, x)
    k = ((e != 0.0) & (e != 1.0)).nonzero()[0]
    if len(k):
        out[k] = [a**c for a, c in zip(x[k].tolist(), e[k].tolist())]
    return out


def _columns(points: Sequence[HazardParams]) -> np.ndarray:
    """Points as parameter columns: a row per point, a column per HazardParams field in order."""
    return np.array([(p.m, p.M, p.b, p.theta, p.alpha, p.N0) for p in points],
                    dtype=float).reshape(-1, 6)


def _points(columns: np.ndarray) -> List[HazardParams]:
    """The HazardParams of each row of parameter columns."""
    return [HazardParams(*row) for row in columns.tolist()]


class _Batch(NamedTuple):
    """Every (point, case) row of a grid as arrays, point-major, with its exponents and factor.

    Row i is (points[i // len(cases)], cases[i % len(cases)]). ``_batch``, factor_n
    and slopes are the only code that multiplies the exponents' pieces.
    """

    points: np.ndarray  # parameter columns, as _columns gives them
    cases: Sequence[Scenario]
    kinds: np.ndarray  # of str
    M: np.ndarray
    b: np.ndarray
    m: np.ndarray
    N0: np.ndarray
    exps: np.ndarray  # (rows, 3): eM, eb, em
    factor: np.ndarray  # (1-M)**eM (1+b)**eb (1-m)**em
    growth: np.ndarray  # (1+b)**eb (1-m)**em: the weights' growth given survival to date

    def factor_n(self, g: np.ndarray) -> np.ndarray:
        """(1-M)**eM (1-m)**(em-eb) g**eb per row: the factor with g = 1+n in place of b."""
        eM, eb, em = self.exps.T
        return _pow(1.0 - self.M, eM) * _pow(1.0 - self.m, em - eb) * _pow(g, eb)

    def slopes(self, g: np.ndarray, rows: slice) -> np.ndarray:
        """(rows, 2, 2): d/dM, d/dm of the factor (b held), then of factor_n(g) (1+n held): each
        -e x**(e-1) times the rest of the product, +0 at eM = 0 and, 1+n held, at em = eb.
        """
        eM, eb, em = self.exps[rows].T
        sM, sm, b, one = 1.0 - self.M[rows], 1.0 - self.m[rows], self.b[rows], eb == em
        dM = [np.where(eM == 0.0, 0.0, -eM * _pow(sM, eM - 1.0) * rest)
              for rest in (self.growth[rows], _pow(sm, em - eb) * _pow(g, eb))]
        dm_b = (-em * _pow(sM, eM) * _pow(1.0 + b, np.where(one, 1.0, eb))  # one piece (1+n)**e
                * _pow(np.where(one, (1.0 + b) * sm, sm), em - 1.0))
        # (em - 1) - eb keeps the lineage exponent -alpha exact
        dm_n = np.where(one, 0.0, -(em - eb) * _pow(sM, eM) * _pow(sm, em - 1.0 - eb) * _pow(g, eb))
        return np.stack([dM[0], dm_b, dM[1], dm_n], axis=1).reshape(-1, 2, 2)


def _batch(points: np.ndarray, cases: Sequence[Scenario]) -> _Batch:
    """The rows of points x cases, with each row's factor and growth; points are _columns.

    Each case's exponents come from one call on the theta and alpha columns.
    Equal exponents eb = em = e make one growth piece (1+n)**e. The factor
    multiplies (1-M)**eM and the growth pieces left to right, so it need not
    equal (1-M)**eM * growth in float.
    """
    _, _, _, theta, alpha, _ = points.T
    exps = np.empty((len(points), len(cases), 3))
    for j, case in enumerate(cases):
        for k, e in enumerate(_EXPONENTS[case.kind](theta, alpha)):
            exps[:, j, k] = e
    m, M, b, _, _, N0 = np.repeat(points, len(cases), axis=0).T
    exps = exps.reshape(-1, 3)
    eM, eb, em = exps.T
    one = eb == em  # one growth piece (1+n)**e
    births = _pow(np.where(one, (1.0 + b) * (1.0 - m), 1.0 + b), eb)
    deaths = _pow(1.0 - m, np.where(one, 0.0, em))
    factor = _pow(1.0 - M, eM) * births * deaths
    kinds = np.tile(np.array([c.kind for c in cases], dtype=str), len(points))
    return _Batch(points, cases, kinds, M, b, m, N0, exps, factor, births * deaths)


def one_minus_q_power(b: float, k: np.ndarray) -> np.ndarray:
    """1 - q**k with q = 1/(1+b), as -expm1(k log q): forming q**k first cancels at small b."""
    return -np.expm1(k * -math.log1p(b))


def finiteness_check(case: Scenario, params: HazardParams) -> FinitenessResult:
    """Convergence product for the case, its distance from 1, and whether its series is finite."""
    product = float(_batch(_columns([params]), [case]).factor[0])
    return FinitenessResult(finite=_finite(case.kind, product), product=product,
                            margin=1.0 - product)


def _finite(kind: Union[str, np.ndarray], product: Union[float, np.ndarray]
            ) -> Union[bool, np.ndarray]:
    """A known date's sum is finite; every other series converges iff its product is < 1.

    kind and product are one row's or arrays over rows.
    """
    return (kind == "known_extinction") | (product < 1.0)


_NO_BIRTHS = "social welfare needs b > 0: its closed form divides by b"
_PREFACTOR_RANGE = "the prefactor {!r} leaves float range"


def _check_births(b: float) -> None:
    """Social welfare's b > 0 rule at one point, with _NO_BIRTHS; _preconditions' is for rows."""
    if not b > 0.0:
        raise ValueError(_NO_BIRTHS)


def _prefactor(N0, b):
    """Social welfare's N0 (1+b)/b of numbers or arrays; this order keeps every finite value."""
    return N0 * (1.0 + b) / b


def _welfare_prefactor(N0: float, b: float) -> float:
    """One point's prefactor, rejected as the core rejects it: b <= 0, then past float range."""
    _check_births(b)
    pref = _prefactor(N0, b)
    if not math.isfinite(pref):
        raise ValueError(_PREFACTOR_RANGE.format(pref))
    return pref


# --- closed-form core ---------------------------------------------------------

_RANGE = "the series leaves float range: math range error"  # an exp or expm1 overflowed
_CHUNK_T = 4096  # dates per block of the prefix and of _known_date_sum
# rows x prefix dates per pass of the core: bounds its arrays and the cell lists a pass hands
# the writer (3,275 rows at a five-date prefix)
_BLOCK = 1 << 14


class _Failures:
    """The first failure of each row, recorded in the order one row's evaluation meets them.

    A failure is (exception type, message, the row it was recorded as), the message a str or
    a function of that row; only ``error`` builds the exception, so a divergent row has none.
    """

    def __init__(self, n: int) -> None:
        self.bad = np.zeros(n, dtype=bool)
        self.exc: Dict[int, Tuple[type, Union[str, Callable[[int], str]], int]] = {}

    def add(self, mask: np.ndarray, kind: type, message: Union[str, Callable[[int], str]]) -> None:
        """Rows i with mask[i] fail as (kind, message, i), unless they failed before."""
        if not mask.any():
            return
        new = mask.nonzero()[0]
        new = new[~self.bad[new]]
        self.bad[new] = True
        for i in new.tolist():
            self.exc[i] = (kind, message, i)

    def error(self, i: int) -> Exception:
        kind, message, row = self.exc[i]
        return kind(message if isinstance(message, str) else message(row))


def _log_parts(
    M: np.ndarray, b: np.ndarray, m: np.ndarray, *exps: np.ndarray
) -> List[np.ndarray]:
    """For each exponent array (rows, 3) or (3,), the log of each row's factor as summands.

    The summands are eM log(1-M), eb log1p(b), em log(1-m), with log(1-x) as
    log1p(-x), -inf at x = 1. A zero exponent gives 0, also against log 0 =
    -inf, as 0.0**0.0 = 1 in the batch's factor.
    """
    logs = np.log1p(np.array([-M, b, -m]).T)
    return [np.where(e == 0.0, 0.0, e * logs) for e in exps]


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sums of x over its last axis by a pairwise tree of elementwise additions.

    Every row is summed in the same order whatever the number of rows, which
    numpy's own reductions do not promise.
    """
    while x.shape[-1] > 1:
        h = x.shape[-1] // 2
        s = x[..., :h] + x[..., h : 2 * h]
        x = np.concatenate([s, x[..., 2 * h :]], axis=-1) if x.shape[-1] % 2 else s
    return x[..., 0]


def _two_sum_tree(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
    """The columns of x (rows, k) summed by a pairwise tree of TwoSums.

    Returns (s, c, depth). TwoSum (Knuth) gives each addition's rounding
    error exactly, and the errors are added up in c, so s + c is the sum of
    x but for the roundings of the additions into c. Each of the depth levels
    makes errors of at most u (1 + gamma_depth) times the summed |x|.
    """
    c, depth = None, 0
    while x.shape[1] > 1:
        h, odd = x.shape[1] // 2, x.shape[1] % 2
        a, b = x[:, :h], x[:, h : 2 * h]
        s = a + b
        bb = s - a
        e = (a - (s - bb)) + (b - bb)
        if c is not None:
            e += c[:, :h] + c[:, h : 2 * h]
        x = np.concatenate([s, x[:, 2 * h :]], axis=1) if odd else s
        rest = np.zeros_like(x[:, -1:]) if c is None else c[:, 2 * h :]
        c = np.concatenate([e, rest], axis=1) if odd else e
        depth += 1
    return x[:, 0], (np.zeros_like(x[:, 0]) if c is None else c[:, 0]), depth


@functools.lru_cache(maxsize=None)
def _gamma(k: int) -> float:
    """A rigorous bound on the relative error of k roundings, k u / (1 - k u) and more."""
    return float(_rigorous(k * _U))


def _sum_error(depth: int) -> float:
    """Coefficient of sum |x| in the error of s + c from TwoSum trees of this total depth.

    Past the u |s + c| of the last rounding: the errors that c gathers add up
    to at most depth u (1 + gamma_depth) sum |x|, and each passes at most
    2 depth additions into c (Ogita, Rump and Oishi, "Accurate sum and dot
    product", SIAM J. Sci. Comput. 26, 2005, for the sequential order).
    """
    return depth * _U * _gamma(3 * depth + 2)


def _log_sum(parts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row sums of log-ratio parts (rows, k) and bounds on their absolute errors.

    Each part is a libm log or log1p, possibly scaled by a float exponent, so
    it is off by at most _LIBM + 2u relative; the sum rounds as _sum_error
    says. A -inf part makes the ratio exactly 0.
    """
    zero = parts == -np.inf
    some = zero.any()
    if some:
        parts = np.where(zero, 0.0, parts)
    s, c, depth = _two_sum_tree(parts)
    total = s + c
    err = (_LIBM + 2.0 * _U + _sum_error(depth)) * _sum_rows(np.abs(parts)) + _U * np.abs(total)
    if some:
        zero = zero.any(axis=1)
        total, err = np.where(zero, -np.inf, total), np.where(zero, 0.0, err)
    return total, err


def _rigorous(e: float | np.ndarray) -> np.floating | np.ndarray:
    """Relative error of products and quotients whose first-order errors add to e; inf from 1."""
    e = np.asarray(e, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(e < 1.0, np.expm1(e / (1.0 - e)), np.inf)[()]


def _utility(u: UtilitySpec, c: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u(c) elementwise (UtilitySpec's values), its relative error, and where it overflows.

    CRRA's u is expm1(x) / s1 with x = s1 log c, s1 = 1-sigma.
    """
    with np.errstate(over="ignore"):
        uc = u(c)
    over = np.isinf(uc)
    if u.family != "crra":
        return uc, np.full_like(c, _LIBM if u.family == "log" else 0.0), over
    x = (1.0 - u.sigma) * np.log(c)
    # expm1 passes a relative error of x on amplified by x e^x / expm1(x) <= 1 + max(x, 0)
    return uc, _LIBM + (1.0 + np.maximum(x, 0.0)) * (_LIBM + 2.0 * _U) + 2.0 * _U, over


class _Term(NamedTuple):
    """coef * exp(k log_growth) * (k+1 if arith else 1): one summand of u(c_{p+k})."""

    coef: float
    rel_err: float  # of coef
    log_growth: float
    arith: bool


@functools.lru_cache(maxsize=128)
def _tail_terms(path: ConsumptionPath, u: UtilitySpec) -> Tuple[_Term, ...]:
    """The tail table: u(c_{p+k}), k >= 0, is the sum of the terms at k.

    With c = c_{p-1} and c_{p+k} = c g**(k+1) on a geometric tail:

        constant tail        u(c)
        linear utility       c g at growth g; no term at g = 0
        log utility          log c, plus log g as the arithmetic term
        CRRA, s1 = 1-sigma   (c g)**s1 / s1 at growth g**s1, plus -1/s1

    At most one term is arithmetic, and it comes last. A ratio-0 tail leaves
    log and CRRA utility undefined. The terms depend on the frozen (path, u)
    pair only, so they are computed once per pair.
    """
    c = path.prefix[-1]
    if path.tail == "constant":
        uc, e_u, over = _utility(u, np.array([c]))
        if over[0]:
            raise OverflowError("math range error")
        return (_Term(float(uc[0]), float(e_u[0]), 0.0, False),)
    g = path.ratio
    if u.family == "linear":
        return (_Term(c * g, _U, math.log(g), False),) if g else ()
    if g == 0.0:
        raise ValueError(f"{u.family} utility is undefined on a ratio-0 tail (c = 0)")
    if u.family == "log":
        return _Term(math.log(c), _LIBM, 0.0, False), _Term(math.log(g), _LIBM, 0.0, True)
    s1 = 1.0 - u.sigma
    x = s1 * math.log(c * g)
    e_x = abs(s1) * _U + abs(x) * (_LIBM + 2.0 * _U)
    return (_Term(math.exp(x) / s1, _LIBM + e_x + 2.0 * _U, s1 * math.log(g), False),
            _Term(-1.0 / s1, 2.0 * _U, 0.0, False))


class _Rows(NamedTuple):
    """Per-row inputs of pref * sum_t r**t (1 - q**(t+1)) u(c_t); the modifier is 1 off mod."""

    parts: np.ndarray  # (rows, 3): summands of log r
    pref: np.ndarray
    e_pref: np.ndarray  # relative error of pref
    mod: np.ndarray  # bool
    log_q: np.ndarray
    one_minus_q: np.ndarray
    one_minus_q_err: np.ndarray  # relative
    rq_parts: np.ndarray  # (rows, 3): summands of log r q


_RQ = np.array([1.0, 0.0, 1.0])  # exponents of r q = (1-M)(1-m), in both social-welfare forms


def _closed_rows(rows: _Batch) -> _Rows:
    """The closed-form inputs of a batch; social welfare's rows carry q = 1/(1+b) and N0 (1+b)/b."""
    b = rows.b
    sw = rows.kinds == "social_welfare"
    parts, rq_parts = _log_parts(rows.M, b, rows.m, rows.exps, _RQ)
    return _Rows(parts=parts, pref=np.where(sw, _prefactor(rows.N0, b), 1.0),
                 e_pref=np.where(sw, 3.0 * _U, 0.0), mod=sw, log_q=-np.log1p(b),
                 one_minus_q=b / (1.0 + b), one_minus_q_err=np.full(len(b), 2.0 * _U),
                 rq_parts=rq_parts)


def _n0_rows(M: np.ndarray, m: np.ndarray, N0: np.ndarray) -> _Rows:
    """ew_social_n0_form's inputs: r = 1-M, q = 1-m and the prefactor N0/m."""
    zero, ones = np.zeros(len(M)), np.ones(len(M))
    parts, rq_parts = _log_parts(M, zero, m, np.array([1.0, 0.0, 0.0]), _RQ)
    return _Rows(parts=parts, pref=N0 / m, e_pref=_U * ones, mod=ones > 0.0,
                 log_q=np.log1p(-m), one_minus_q=m, one_minus_q_err=zero, rq_parts=rq_parts)


def _kernel(
    LR: np.ndarray, dR: np.ndarray, need_h2: bool, rows: _Rows,
    LRq: np.ndarray, dRq: np.ndarray, a_p: np.ndarray, e_a: np.ndarray,
) -> Tuple[np.ndarray, ...]:
    """H1 = sum_j R**j m_j and H2 = sum_j (j+1) R**j m_j per row, their relative errors, and 1 - R.

    log R = LR and log(R q) = LRq, each off by at most dR and dRq; m_j =
    1 - q**(p+1+j) in the rows of ``rows`` with the modifier, else 1, and
    a_p = m_0. The sums hold where 1 - R > 0; 1 - R is -inf where expm1
    overflows. Call it under np.errstate(all="ignore"): rows with 1 - R <= 0
    are failed by the caller.
    """
    om = -np.expm1(LR)
    R = np.exp(LR)
    e_om = _LIBM + R * dR / om
    h1, e1 = 1.0 / om, e_om + _U
    h2, e2 = h1 * h1, 2.0 * e1 + _U
    if not rows.mod.any():
        return h1, e1, h2, e2, om
    mod = rows.mod
    e_R = _LIBM + dR
    omq = -np.expm1(LRq)
    e_omq = _LIBM + R * dRq / omq
    e_b = rows.one_minus_q_err
    Rb = R * rows.one_minus_q
    n1 = om * a_p + Rb
    d1 = om * omq
    e_d1 = e_om + e_omq + _U
    h1 = np.where(mod, n1 / d1, h1)
    e1 = np.where(mod, np.maximum(e_om + e_a, e_R + e_b) + 3.0 * _U + _DENORM / n1 + e_d1, e1)
    if need_h2:
        n2 = a_p * om * om + Rb * (om + omq)
        e_n2 = (np.maximum(e_a + 2.0 * e_om + 2.0 * _U,
                           e_R + e_b + np.maximum(e_om, e_omq) + 3.0 * _U)
                + _U + _DENORM / n2)
        h2 = np.where(mod, n2 / (d1 * d1), h2)
        e2 = np.where(mod, e_n2 + 2.0 * e_d1 + 2.0 * _U, e2)
    return h1, e1, h2, e2, om


def _closed(
    rows: _Rows, path: ConsumptionPath, u: UtilitySpec, fails: _Failures
) -> Tuple[np.ndarray, np.ndarray]:
    """pref * sum_t r**t m_t u(c_t) per row, summed in closed form, and its tail_bound.

    m_t = 1 - q**(t+1) in rows with the modifier, else 1. Each growth of
    _tail_terms takes one kernel. A row whose r >= 1 or whose tail term
    outgrows the weights fails with DivergenceError, one that leaves float
    range with ValueError, recorded in fails; the row's value and bound then
    mean nothing. Call it under np.errstate(all="ignore"): failed rows carry
    inf and nan.
    """
    n, p = len(rows.pref), path.prefix_len
    pref, mod = rows.pref, rows.mod
    fails.add(~np.isfinite(pref), ValueError, lambda i: _PREFACTOR_RANGE.format(float(pref[i])))
    try:
        terms, error = _tail_terms(path, u), None
    except OverflowError as exc:
        terms, error = (), (ValueError, f"the series leaves float range: {exc}")
    except ValueError as exc:
        terms, error = (), (type(exc), str(exc))
    # every log sum in one pass: log r and log r q, each plus each growth of the tail
    growths = list(dict.fromkeys([0.0] + [t.log_growth for t in terms]))
    parts = np.empty((len(growths), 2, n, 4))
    parts[:, 0, :, :3], parts[:, 1, :, :3] = rows.parts, rows.rq_parts
    parts[..., 3] = np.array(growths)[:, None, None]
    LS, dS = (x.reshape(-1, 2, n) for x in _log_sum(parts.reshape(-1, 4)))
    L, dL = LS[0, 0], dS[0, 0]
    fails.add(~(L < 0.0), DivergenceError, lambda i: f"weight ratio {math.exp(L[i]):.6g} >= 1")
    live = L > -np.inf  # else r = 0 and only the date-0 term survives
    step = np.where(live, dL + _U * np.abs(L), 0.0)  # r**t gains this relative error per period
    uc, e_u, over = _utility(u, np.array(path.prefix))
    if over.any():
        fails.add(np.where(live, True, over[0]), ValueError, _RANGE)

    # the tail past the prefix, in rows with r > 0
    if error is not None:
        fails.add(live, *error)
    need_h2 = bool(terms) and terms[-1].arith  # an arithmetic term comes last
    values, errs, tail_under = [], [], []
    kernels: Dict[float, Tuple[np.ndarray, ...]] = {}
    rp = np.exp(p * L)
    e_rp = _LIBM + p * step
    a_p = np.where(mod, -np.expm1((p + 1) * rows.log_q), 1.0)
    e_a = np.where(mod, 2.0 * _LIBM + _U, 0.0)
    for coef, e_coef, log_g, arith in terms:
        if log_g not in kernels:  # terms of one growth share a kernel
            j = growths.index(log_g)
            kernels[log_g] = kernel = _kernel(LS[j, 0], dS[j, 0], need_h2, rows,
                                              LS[j, 1], dS[j, 1], a_p, e_a)
            fails.add(live & (kernel[4] == -np.inf), ValueError, _RANGE)
            fails.add(live & ~(kernel[4] > 0.0), DivergenceError, lambda i, g=log_g: (
                f"utility tail grows at rate exp({g:.6g}) against weight ratio "
                f"{math.exp(L[i]):.6g}: log(rho*gamma) = {L[i] + g:.6g} >= 0, "
                f"the series diverges"))
        h1, e1, h2, e2, _ = kernels[log_g]
        h, e_h = (h2, e2) if arith else (h1, e1)
        tail_under.append(np.where(live, np.abs(coef * h), 0.0))
        values.append(np.where(live, pref * (coef * rp * h), 0.0))
        errs.append(e_coef + e_rp + e_h + 2.0 * _U + rows.e_pref + _U)

    # the prefix in blocks of at most _CHUNK_T dates, the tail terms joining the
    # last; each block sums to s + c, and the blocks' s and c are summed last
    starts = range(0, p, _CHUNK_T)
    S, C, depth = [], [], 0
    # sums of |value| rigorous(error), of |value| and of the terms whose weight underflows
    bound = size = slack = np.zeros(n)
    pos = neg = np.zeros(n, dtype=bool)
    for t0 in starts:
        t = np.arange(t0, min(p, t0 + _CHUNK_T))
        later = t > 0
        term = uc[t] * np.where(mod[:, None], -np.expm1((t + 1) * rows.log_q[:, None]), 1.0)
        e = e_u[t] + np.where(mod, 2.0 * _LIBM + 2.0 * _U, 0.0)[:, None]
        under = np.where(later & live[:, None], np.abs(term), 0.0)  # terms whose weight underflows
        v = pref[:, None] * np.where(later, term * np.exp(t * L[:, None]), term)
        e = np.where(later, e + (_LIBM + t * step[:, None] + _U), e) + rows.e_pref[:, None] + _U
        if t0 == starts[-1]:
            v, e = np.column_stack([v, *values]), np.column_stack([e, *errs])
            under = np.column_stack([under, *tail_under])
        s, c, d = _two_sum_tree(v)
        S.append(s)
        C.append(c)
        depth = max(depth, d)
        av = np.abs(v)
        sums = _sum_rows(np.stack([np.where(v != 0.0, av * _rigorous(e), 0.0), av, under], axis=1))
        bound, size, slack = bound + sums[:, 0], size + sums[:, 1], slack + sums[:, 2]
        pos = pos | (v == np.inf).any(axis=1)
        neg = neg | (v == -np.inf).any(axis=1)
    s, c, d = _two_sum_tree(np.column_stack(S)) if len(S) > 1 else (S[0], 0.0, 0)
    value = s + (c + _sum_rows(np.column_stack(C)))
    # the summation's own error, then the rounding of this bound's sum of p + len(terms) terms
    bound = ((bound + np.abs(pref) * slack * _DENORM
              + (_U * np.abs(value) + _sum_error(depth + d) * size))
             * (1.0 + _gamma(p + len(values) + 16)))
    fails.add(pos & neg, ValueError, "-inf + inf in fsum")
    fails.add(pos | neg | ~np.isfinite(value), ValueError, "the series value leaves float range")
    return value, bound


# --- the functionals ---------------------------------------------------------

_NO_EXTINCTION = "M = 0: the extinction-date mixture is defective and the functional undefined"
_TOLERANCE = "tolerance must be finite and > 0"


def _preconditions(rows: _Batch, fails: _Failures) -> None:
    """Fail each row whose parameters its functional rejects, in the order the functional checks."""
    kinds, M, m, factor = rows.kinds, rows.M, rows.m, rows.factor
    individual = kinds == "individual"
    mixes = ~individual & (kinds != "known_extinction")  # a mixture over extinction dates
    fails.add((kinds == "social_welfare") & ~(rows.b > 0.0), ValueError, _NO_BIRTHS)
    fails.add(individual & (m == 0.0) & (M == 0.0), DivergenceError,
              "m = M = 0: joint survival is 1 and expected lifetime utility diverges")
    fails.add(mixes & (M == 0.0), NoExtinctionError, _NO_EXTINCTION)
    fails.add(mixes & ~_finite(kinds, factor), DivergenceError, lambda i: (
        f"{kinds[i]}: finiteness requires the weight product < 1, got "
        f"{factor[i]:.6g} (margin {1.0 - factor[i]:.3g})"))


class _Results(NamedTuple):
    """A pass's SeriesResult fields and statuses, each a list over its rows, and its failures.

    A failed row's fields are None and ``failed`` holds its failure:
    DivergenceError gives the status "divergent", ValueError "rejected:
    <reason>" (no row fails with anything else), and every other row reads
    "ok". Every sweep and Monte Carlo row takes its status from here.
    """

    value: List[Optional[float]]
    truncation_index: List[Optional[int]]
    tail_bound: List[Optional[float]]
    converged: List[Optional[bool]]
    failed: _Failures
    status: List[str]

    def result(self, i: int) -> Union[SeriesResult, Exception]:
        """Row i's SeriesResult, or the exception its evaluation raises."""
        return self.failed.error(i) if i in self.failed.exc else SeriesResult(
            self.value[i], self.truncation_index[i], self.tail_bound[i], self.converged[i])


@np.errstate(all="ignore")  # rows that fail their preconditions carry inf and nan
def _evaluate_rows(rows: _Batch, path: ConsumptionPath, u: UtilitySpec, tol: float) -> _Results:
    """Each row's SeriesResult fields, or the exception its evaluation raises, in one pass.

    A row's result does not depend on the rows beside it, and each row is
    evaluated once: a known date by its finite sum, every other row by the
    closed form. A tolerance that is not finite and > 0 fails every row first.
    """
    n = len(rows.kinds)
    fails = _Failures(n)
    if not _is_positive_finite(tol):  # a bool or a string is no tolerance, as the CLI says too
        fails.add(np.ones(n, dtype=bool), ValueError, _TOLERANCE)
        tol = math.nan  # every row fails, and a str or None tolerance is not compared
    _preconditions(rows, fails)
    known = rows.kinds == "known_extinction"
    value, bound = np.zeros((2, n))
    if not known.any():
        value, bound = _closed(_closed_rows(rows), path, u, fails)
    elif not known.all():  # the other rows take the closed form alone, numbered from 0
        keep = np.flatnonzero(~known)
        part = _Failures(len(keep))
        part.bad |= fails.bad[keep]
        value[keep], bound[keep] = _closed(_Rows(*(a[keep] for a in _closed_rows(rows))),
                                           path, u, part)
        fails.exc.update(zip(keep[list(part.exc)].tolist(), part.exc.values()))
    values, bounds, index = value.tolist(), bound.tolist(), [path.prefix_len - 1] * n
    for i in np.flatnonzero(known & ~fails.bad).tolist():
        T = rows.cases[i % len(rows.cases)].T
        try:
            values[i], bounds[i] = _known_date_sum(float(rows.m[i]), T, path, u)
            index[i] = T
        except ValueError as exc:
            fails.exc[i] = (type(exc), str(exc), i)
    out = _Results(values, index, bounds, [e <= tol for e in bounds], fails, ["ok"] * n)
    for i, (kind, _, _) in fails.exc.items():
        for cells in out[:4]:
            cells[i] = None
        out.status[i] = ("divergent" if issubclass(kind, DivergenceError)
                         else f"rejected: {fails.error(i)}")
    return out


def _passes(points: Sequence, cases: int, prefix_len: int) -> Iterator[Sequence]:
    """The one cut of a grid into passes: runs of points, each run one _batch of points x cases.

    points are HazardParams or the rows of _columns.

    A run holds one point at least, else at most _BLOCK rows x prefix dates.
    No cases make no rows and no pass.
    """
    if cases:
        size = max(1, _BLOCK // (cases * min(prefix_len, _CHUNK_T)))  # points per pass
        for lo in range(0, len(points), size):
            yield points[lo : lo + size]


def evaluate(
    case: Scenario,
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = DEFAULT_TOLERANCE,
) -> SeriesResult:
    """Evaluate any scenario; a known date's tail_bound is the rounding of its finite sum.

    One row of the array core: raises what that row failed with.
    """
    result = _evaluate_rows(_batch(_columns([params]), [case]), path, u, tol).result(0)
    if isinstance(result, Exception):
        raise result
    return result


def eu_individual(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = DEFAULT_TOLERANCE,
) -> SeriesResult:
    """Expected lifetime utility of a single individual.

    EU = sum_t ((1-m)(1-M))**t u(c_t): the mixture over the random death date
    D of cumulative utility u(c_0) + ... + u(c_D). Rejects the degenerate
    m = M = 0 case, whose lifetime distribution is defective.
    """
    return evaluate(INDIVIDUAL, params, path, u, tol)


def ev_dynasty(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = DEFAULT_TOLERANCE,
) -> SeriesResult:
    """Expected total utility of a dynasty growing at (1+n) = (1+b)(1-m).

    EV = sum_t ((1-M)(1+n))**t u(c_t); finite iff (1-M)(1+n) < 1. With b = 0
    this reduces exactly to the individual functional.
    """
    return evaluate(DYNASTY, params, path, u, tol)


def ev_dynasty_theta(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = DEFAULT_TOLERANCE,
) -> SeriesResult:
    """Dynasty utility with population-size weighting (1+n)**(theta*t).

    theta = 1 is total (Benthamite) weighting and reproduces ev_dynasty;
    theta = 0 is per-capita (Millian) weighting, leaving only (1-M)**t.
    Finite iff (1-M)(1+n)**theta < 1.
    """
    return evaluate(DYNASTY_THETA, params, path, u, tol)


def eg_lineage(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = DEFAULT_TOLERANCE,
) -> SeriesResult:
    """Expected utility accruing to a genetic lineage.

    EG = sum_t ((1-M)(1+b)**alpha (1-m))**t u(c_t): reproduction only passes
    on a fraction alpha of the ancestor's weighting, so mortality is hedged
    only partially. Finite iff (1-M)(1+b)**alpha (1-m) < 1.
    """
    return evaluate(LINEAGE, params, path, u, tol)


def _known_date_sum(
    m: float, T: int, path: ConsumptionPath, u: UtilitySpec
) -> Tuple[float, float]:
    """A known date's value sum_{t<=T} (1-m)**t u(c_t), and a bound on its absolute error.

    evaluate's known-date rows call it at their checked m and T; it raises ValueError
    outside float range. The dates go in blocks of _CHUNK_T, each a dot product of the
    weights (1-m)**t with u(c_t), and fsum adds the blocks. The bound adds, per block,
    gamma_n of the summed |w_t u(c_t)| for the dot product, the weights' error (1-m
    rounded once, raised to t, one libm call), the error of u(c_t) and the underflow of
    a weight or a product; then fsum's rounding.
    """
    vals, errs = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is raised below
        for start in range(0, T + 1, _CHUNK_T):
            t = np.arange(start, min(start + _CHUNK_T, T + 1))
            w = np.power(1.0 - m, t)
            uu, u_err = _utility_values(path, u, start, start + len(t))
            au = np.abs(uu)
            r = _rigorous(_LIBM + _U * (t + 1.0))
            vals.append(float(w @ uu))
            errs.append(_rigorous(len(t) * _U) * float(w @ au) + float((w * r) @ au)
                        + float((w * (1.0 + r)) @ u_err)
                        + _DENORM * (float(np.sum(au + u_err)) + len(t)))
        value = math.fsum(vals)
        # the error terms are themselves sums of up to _CHUNK_T rounded products
        bound = float((math.fsum(errs) + _U * abs(value))
                      * (1.0 + _gamma(4 * (_CHUNK_T + 16))))
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise ValueError("the series value leaves float range")
    return value, bound


def welfare_window_terms(
    params: HazardParams, path: ConsumptionPath, u: UtilitySpec, length: int
) -> np.ndarray:
    """Per-date contributions to W(0, T): W(0, T) = sum of the first T+1 terms.

    term_t = N0 (1+b)/b * u(c_t) (1+n)**t (1 - (1+b)**-(t+1)); needs b > 0, a finite prefactor.
    """
    _check_int("length", length, 0)
    return _window_terms(_welfare_prefactor(params.N0, params.b), params, u(path.values(0, length)))


def _window_terms(pref: float, params: HazardParams, uu: np.ndarray) -> np.ndarray:
    """``welfare_window_terms`` for t < len(uu) from u(c_t) and the checked prefactor N0 (1+b)/b."""
    t = np.arange(len(uu))
    return pref * uu * np.power(params.gross_growth, t) * one_minus_q_power(params.b, t + 1)


def ew_social(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = DEFAULT_TOLERANCE,
) -> SeriesResult:
    """Expected social welfare EW = sum_T P_X(T) W(0, T) in closed series form.

    EW = N0 (1+b)/b sum_t u(c_t) ((1-M)(1+n))**t (1 - (1+b)**-(t+1)); finite
    iff (1-M)(1+n) < 1, and requires b > 0, M > 0. The same form serves every
    b > 0, n = 0 included; ew_social_n0_form is the constant-population form.
    """
    return evaluate(SOCIAL_WELFARE, params, path, u, tol)


def ew_social_n0_form(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = DEFAULT_TOLERANCE,
) -> SeriesResult:
    """Constant-population social welfare, (N0/m) sum_t u(c_t) (1-M)**t (1-(1-m)**(t+1)).

    Matches ew_social when n = 0, i.e. (1+b)(1-m) = 1; evaluated as written
    for any m > 0, M > 0.
    """
    if params.m <= 0.0:
        raise ValueError("the n = 0 simplification divides by m; needs m > 0")
    if params.M == 0.0:
        raise NoExtinctionError(_NO_EXTINCTION)
    if not _is_positive_finite(tol):
        raise ValueError(_TOLERANCE)
    fails = _Failures(1)
    row = [np.array([x]) for x in (params.M, params.m, params.N0)]
    with np.errstate(all="ignore"):  # log1p(-1) = -inf, and a failed row carries inf and nan
        value, bound = _closed(_n0_rows(*row), path, u, fails)
    if fails.exc:
        raise fails.error(0)
    return SeriesResult(value=float(value[0]), truncation_index=path.prefix_len - 1,
                        tail_bound=float(bound[0]), converged=bool(bound[0] <= tol))


def _utility_values(
    path: ConsumptionPath, u: UtilitySpec, start: int, stop: int
) -> Tuple[np.ndarray, np.ndarray]:
    """u(c_t) for t = start..stop-1 and a bound on the absolute error of each value.

    u's own rounding is _utility's. The prefix values are exact inputs. Past
    the prefix of a geometric tail c_t is a libm power times c_{p-1}, off by
    _LIBM + u relative, and either step may underflow (absolute error
    _DENORM (1 + c_{p-1})); that error moves u(c_t) too.
    """
    c = path.values(start, stop)
    uu, e_u, _ = _utility(u, c)
    e_c = d_c = 0.0  # relative and underflow error of c_t
    if path.tail == "geometric":
        tail = np.arange(start, stop) >= path.prefix_len
        e_c = (_LIBM + _U) * tail
        d_c = _DENORM * (1.0 + path.prefix[-1]) * tail
    if u.family == "linear":  # c_t may be subnormal
        return uu, c * e_c + d_c
    # c_t off by a factor 1 + d moves log c_t by |log(1 + d)| <= rigorous(d)
    d = _rigorous(e_c + d_c / c)  # log and CRRA have rejected c_t = 0
    if u.family == "log":
        return uu, e_u * np.abs(uu) + d
    # and CRRA's u by c**s1 |expm1(s1 log(1 + d))| / |s1|; c**s1 = exp(x), x off as in _utility
    s1 = 1.0 - u.sigma
    x = s1 * np.log(c)
    c_s1 = np.exp(x + np.abs(x) * _rigorous(_LIBM + 3.0 * _U))
    return uu, e_u * np.abs(uu) + c_s1 * np.expm1(abs(s1) * d) / abs(s1)
