"""Expected-utility functionals as closed-form series with rigorous rounding bounds.

Every functional here has the shape  sum_t w_t u(c_t)  where the weights w_t
encode survival odds and population weighting. Each case discounts at one
per-period factor f = (1-M)**eM (1+b)**eb (1-m)**em, and the exponent table
``_EXPONENTS`` (read through factor_exponents) is the only place the cases'
formulas are written; every factor, log-ratio, regime factor and derivative
elsewhere is derived from it. With (1+n) = (1+b)(1-m):

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
so an evaluation costs O(p) whatever the hazards. The same terms bound the
extinction-date mixture's tail and give the Monte Carlo variance check
(simulate.mc_verdict) its growth. The modifier's tail
  sum_{t>=p} R**t (1 - q**(t+1)) = R**p [(1-R) a_p + R (1-q)] / ((1-R)(1-Rq)),
with a_p = 1 - q**(p+1) = -expm1((p+1) log q), has no subtraction, so small
birth rates lose no digits. Every 1-R is computed as -expm1(log R), with
log R summed from log1p of the hazard factors, never by forming R first.

The closed form runs as numpy arrays over rows, one row per (point, case):
scenario_sweep and the columns of sweep and eval evaluate a grid in a few
passes of ``_evaluate_rows``, and evaluate and the functionals are its one-row
calls. The social-welfare modifier is a per-row mask, and so is the check of
ew_social against ew_social_n0_form at n = 0, whose rows join the same pass.
Failures are per-row masks too: each row keeps the first exception its own
evaluation meets (a failed precondition, divergence, a float-range exit), so
no row depends on the rows beside it. The prefix goes in blocks of at most
4096 dates.

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
    "factor_pieces",
    "one_minus_q_power",
    "finiteness_check",
    "weight_ratio",
    "weight_sequence",
    "eu_individual",
    "ev_dynasty",
    "ev_dynasty_theta",
    "eg_lineage",
    "eu_known_T",
    "welfare_window",
    "welfare_window_direct",
    "welfare_window_terms",
    "ew_social",
    "ew_social_n0_form",
    "ew_social_mixture",
    "evaluate",
]

DEFAULT_TOLERANCE = 1e-10
_EPS = float(np.finfo(float).eps)
_U = _EPS / 2.0  # unit roundoff
_LIBM = 4.0 * _U  # relative error of one libm call: log, log1p, exp, expm1, pow
_DENORM = 2.0**-1074  # absolute error of a result that underflows

_CASE_KINDS = (
    "individual",
    "dynasty",
    "dynasty_theta",
    "lineage",
    "social_welfare",
    "known_extinction",
)


@dataclass(frozen=True)
class Scenario:
    """One of the aggregation perspectives; known_extinction carries its date."""

    kind: str
    T: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _CASE_KINDS:
            raise ValueError(f"kind must be one of {_CASE_KINDS}, got {self.kind!r}")
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
    return Scenario("known_extinction", T=int(T))


@dataclass(frozen=True)
class SeriesResult:
    """Series value.

    tail_bound is a rigorous upper bound on |true value - value|: for the
    closed forms the rounding error, for the extinction-date mixture the
    omitted dates plus a gamma_k bound on the rounding of its cumulative
    sums. truncation_index is the last summed term; for the closed forms
    that is the last explicit prefix period, for the mixture the last date.
    converged means tail_bound <= the requested tolerance.
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


# --- the factor table ----------------------------------------------------------

# Every per-period discount factor is (1-M)**eM (1+b)**eb (1-m)**em. Extinction
# risk enters every case but the known date; births hedge mortality fully,
# partly or not at all. Social welfare's entry is its long-run factor.
_EXPONENTS = {
    "individual": lambda p: (1.0, 0.0, 1.0),
    "dynasty": lambda p: (1.0, 1.0, 1.0),
    "social_welfare": lambda p: (1.0, 1.0, 1.0),
    "dynasty_theta": lambda p: (1.0, p.theta, p.theta),
    "lineage": lambda p: (1.0, p.alpha, 1.0),
    "known_extinction": lambda p: (0.0, 0.0, 1.0),
}


def factor_exponents(case: Scenario, params: HazardParams) -> Tuple[float, float, float]:
    """Exponents (eM, eb, em) of (1-M), (1+b) and (1-m) in the case's per-period factor."""
    return _EXPONENTS[case.kind](params)


def factor_pieces(case: Scenario, params: HazardParams) -> List[float]:
    """The factor as pieces: (1-M)**eM, then the growth (1+b)**eb (1-m)**em.

    Equal exponents eb = em = e make one growth piece (1+n)**e. The factor is
    math.prod of the pieces, the growth math.prod of all but the first.
    """
    eM, eb, em = factor_exponents(case, params)
    if eb == em:
        return [(1.0 - params.M) ** eM, params.gross_growth**eb]
    return [(1.0 - params.M) ** eM, (1.0 + params.b) ** eb, (1.0 - params.m) ** em]


def _pow(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x**e elementwise by Python's float power, which numpy's power does not match in every bit.

    x**0 = 1 and x**1 = x take no call.
    """
    out = np.where(e == 0.0, 1.0, x)
    k = np.flatnonzero((e != 0.0) & (e != 1.0))
    if len(k):
        out[k] = [a**c for a, c in zip(x[k].tolist(), e[k].tolist())]
    return out


class _Batch(NamedTuple):
    """Every (point, case) row of a grid as arrays, point-major, with its exponents and factor.

    Row i is (points[i // len(cases)], cases[i % len(cases)]).
    """

    points: Sequence[HazardParams]
    cases: Sequence[Scenario]
    kinds: np.ndarray  # of str
    M: np.ndarray
    b: np.ndarray
    m: np.ndarray
    N0: np.ndarray
    exps: np.ndarray  # (rows, 3): eM, eb, em
    factor: np.ndarray


def _batch(points: Sequence[HazardParams], cases: Sequence[Scenario]) -> _Batch:
    """The rows of points x cases; each factor is math.prod(factor_pieces) to the bit."""
    M, b, m, N0 = np.array([(p.M, p.b, p.m, p.N0) for p in points for _ in cases],
                           dtype=float).reshape(-1, 4).T
    exps = np.array([_EXPONENTS[c.kind](p) for p in points for c in cases],
                    dtype=float).reshape(-1, 3)
    eM, eb, em = exps.T
    one = eb == em  # one growth piece (1+n)**e
    factor = (_pow(1.0 - M, eM) * _pow(np.where(one, (1.0 + b) * (1.0 - m), 1.0 + b), eb)
              * _pow(1.0 - m, np.where(one, 0.0, em)))
    kinds = np.tile(np.array([c.kind for c in cases], dtype=str), len(points))
    return _Batch(points, cases, kinds, M, b, m, N0, exps, factor)


def one_minus_q_power(b: float, k: np.ndarray) -> np.ndarray:
    """1 - q**k with q = 1/(1+b), as -expm1(k log q): forming q**k first cancels at small b."""
    return -np.expm1(k * -math.log1p(b))


def weight_ratio(case: Scenario, params: HazardParams) -> float:
    """Constant per-period weight ratio of the case (social welfare excluded)."""
    if case.kind == "social_welfare":
        raise ValueError("social_welfare has no constant weight ratio; see weight_sequence")
    return math.prod(factor_pieces(case, params))


def finiteness_check(case: Scenario, params: HazardParams) -> FinitenessResult:
    """Convergence product for the case, its distance from 1, and whether its series is finite."""
    product = math.prod(factor_pieces(case, params))
    return FinitenessResult(finite=_finite(case.kind, product), product=product,
                            margin=1.0 - product)


def _finite(kind: Union[str, np.ndarray], product: Union[float, np.ndarray]
            ) -> Union[bool, np.ndarray]:
    """A known date's sum is finite; every other series converges iff its product is < 1.

    kind and product are one row's or arrays over rows.
    """
    return (kind == "known_extinction") | (product < 1.0)


def weight_sequence(case: Scenario, params: HazardParams, length: int) -> np.ndarray:
    """First ``length`` series weights w_0, w_1, ... of the case.

    Constant-ratio cases are built by cumulative multiplication so consecutive
    computed ratios equal the per-period factor to machine precision. The
    social-welfare weights include the N0 (1+b)/b prefactor; known_extinction
    weights are zero strictly after T.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    if case.kind == "social_welfare":
        if params.b <= 0.0:
            raise ValueError("social welfare weights need b > 0")
        t = np.arange(length)
        rho = math.prod(factor_pieces(case, params))
        pref = params.N0 * (1.0 + params.b) / params.b
        return pref * np.power(rho, t) * one_minus_q_power(params.b, t + 1)
    w = np.full(length, weight_ratio(case, params))
    w[:1] = 1.0
    np.cumprod(w, out=w)
    if case.kind == "known_extinction":
        w[case.T + 1 :] = 0.0
    return w


# --- closed-form core ---------------------------------------------------------

_RANGE = "the series leaves float range: math range error"  # an exp or expm1 overflowed
_CHUNK_T = 4096  # prefix dates per block, as in _known_date_sum
_BLOCK = 1 << 12  # rows x prefix dates per pass of the core: bounds its memory


class _Failures:
    """The first exception of each row, recorded in the order one row's evaluation meets them."""

    def __init__(self, n: int) -> None:
        self.bad = np.zeros(n, dtype=bool)
        self.exc: Dict[int, Exception] = {}

    def add(self, mask: np.ndarray, make: Callable[[int], Exception]) -> None:
        """Rows i with mask[i] fail with make(i), unless they failed before; mask may be shorter."""
        if not mask.any():
            return
        new = mask.nonzero()[0]
        new = new[~self.bad[new]]
        self.bad[new] = True
        for i in new.tolist():
            self.exc[i] = make(i)


def _log_parts(
    M: np.ndarray, b: np.ndarray, m: np.ndarray, *exps: np.ndarray
) -> List[np.ndarray]:
    """For each exponent array (rows, 3) or (3,), the log of each row's factor as summands.

    The summands are eM log(1-M), eb log1p(b), em log(1-m), with log(1-x) as
    log1p(-x), -inf at x = 1. A zero exponent gives 0, also against log 0 =
    -inf, as 0.0**0.0 = 1 in factor_pieces.
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
    """u(c) elementwise, its relative error, and where CRRA's expm1 overflows.

    CRRA goes through expm1, so c near 1 keeps every digit.
    """
    no = np.zeros(c.shape, dtype=bool)
    if u.family == "linear":
        return c, np.zeros_like(c), no
    if u.family == "log":
        return np.log(c), np.full_like(c, _LIBM), no
    s1 = 1.0 - u.sigma
    x = s1 * np.log(c)
    with np.errstate(over="ignore"):
        em1 = np.expm1(x)
        # expm1 passes a relative error of x on amplified by x e^x / expm1(x) <= 1 + max(x, 0)
        return (em1 / s1, _LIBM + (1.0 + np.maximum(x, 0.0)) * (_LIBM + 2.0 * _U) + 2.0 * _U,
                np.isinf(em1))


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
    return _Rows(parts=parts, pref=np.where(sw, rows.N0 * (1.0 + b) / b, 1.0),
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
    LR: np.ndarray, dR: np.ndarray, need_h2: bool, rows: Optional[_Rows] = None,
    LRq: np.ndarray = None, dRq: np.ndarray = None, a_p: np.ndarray = 1.0, e_a: np.ndarray = 0.0,
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
    if rows is None or not rows.mod.any():
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


@np.errstate(all="ignore")  # failed rows carry inf and nan
def _closed(
    rows: _Rows, path: ConsumptionPath, u: UtilitySpec, tol: float, fails: _Failures
) -> Tuple[np.ndarray, np.ndarray]:
    """pref * sum_t r**t m_t u(c_t) per row, summed in closed form, and its tail_bound.

    m_t = 1 - q**(t+1) in rows with the modifier, else 1. Each growth of
    _tail_terms takes one kernel. A row whose r >= 1 or whose tail term
    outgrows the weights fails with DivergenceError, one that leaves float
    range with ValueError, recorded in fails; the row's value and bound then
    mean nothing.
    """
    n, p = len(rows.pref), path.prefix_len
    pref, mod = rows.pref, rows.mod
    if not tol > 0.0:
        fails.add(np.ones(n, dtype=bool), lambda i: ValueError("tolerance must be > 0"))
    fails.add(~np.isfinite(pref),
              lambda i: ValueError(f"the prefactor {float(pref[i])!r} leaves float range"))
    try:
        terms, error = _tail_terms(path, u), None
    except OverflowError as exc:
        terms, error = (), ValueError(f"the series leaves float range: {exc}")
    except ValueError as exc:
        terms, error = (), exc
    # every log sum in one pass: log r and log r q, each plus each growth of the tail
    growths = list(dict.fromkeys([0.0] + [t.log_growth for t in terms]))
    parts = np.empty((len(growths), 2, n, 4))
    parts[:, 0, :, :3], parts[:, 1, :, :3] = rows.parts, rows.rq_parts
    parts[..., 3] = np.array(growths)[:, None, None]
    LS, dS = (x.reshape(-1, 2, n) for x in _log_sum(parts.reshape(-1, 4)))
    L, dL = LS[0, 0], dS[0, 0]
    fails.add(~(L < 0.0), lambda i: DivergenceError(f"weight ratio {math.exp(L[i]):.6g} >= 1"))
    live = L > -np.inf  # else r = 0 and only the date-0 term survives
    step = np.where(live, dL + _U * np.abs(L), 0.0)  # r**t gains this relative error per period
    uc, e_u, over = _utility(u, np.array(path.prefix))
    if over.any():
        fails.add(np.where(live, True, over[0]), lambda i: ValueError(_RANGE))

    # the tail past the prefix, in rows with r > 0
    if error is not None:
        fails.add(live, lambda i: error)
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
            fails.add(live & (kernel[4] == -np.inf), lambda i: ValueError(_RANGE))
            fails.add(live & ~(kernel[4] > 0.0), lambda i, g=log_g: DivergenceError(
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
    fails.add(pos & neg, lambda i: ValueError("-inf + inf in fsum"))
    fails.add(pos | neg | ~np.isfinite(value),
              lambda i: ValueError("the series value leaves float range"))
    return value, bound


# --- the functionals ---------------------------------------------------------

_NO_EXTINCTION = "M = 0: the extinction-date mixture is defective and the functional undefined"


def _preconditions(rows: _Batch, fails: _Failures) -> None:
    """Fail each row whose parameters its functional rejects, in the order the functional checks."""
    kinds, M, m, factor = rows.kinds, rows.M, rows.m, rows.factor
    individual = kinds == "individual"
    mixes = ~individual & (kinds != "known_extinction")  # a mixture over extinction dates
    fails.add((kinds == "social_welfare") & ~(rows.b > 0.0), lambda i: ValueError(
        "social welfare needs b > 0; use welfare_window at b = 0"))
    fails.add(individual & (m == 0.0) & (M == 0.0), lambda i: DivergenceError(
        "m = M = 0: joint survival is 1 and expected lifetime utility diverges"))
    fails.add(mixes & (M == 0.0), lambda i: NoExtinctionError(_NO_EXTINCTION))
    fails.add(mixes & ~(factor < 1.0), lambda i: DivergenceError(
        f"{kinds[i]}: finiteness requires the weight product < 1, got "
        f"{factor[i]:.6g} (margin {1.0 - factor[i]:.3g})"))


class _Results(NamedTuple):
    """A pass's SeriesResult fields, each a list over its rows, and each failed row's exception.

    A failed row's fields are None.
    """

    value: List[Optional[float]]
    truncation_index: List[Optional[int]]
    tail_bound: List[Optional[float]]
    converged: List[Optional[bool]]
    failed: Dict[int, Exception]

    def result(self, i: int) -> Union[SeriesResult, Exception]:
        """Row i's SeriesResult, or the exception its evaluation raises."""
        return self.failed.get(i) or SeriesResult(
            self.value[i], self.truncation_index[i], self.tail_bound[i], self.converged[i])


@np.errstate(all="ignore")  # rows that fail their preconditions carry inf and nan
def _evaluate_rows(rows: _Batch, path: ConsumptionPath, u: UtilitySpec, tol: float) -> _Results:
    """Each row's SeriesResult fields, or the exception its evaluation raises, in one pass.

    A row's result does not depend on the rows beside it. Social welfare at
    n = 0 is evaluated in its n = 0 form as well, in the same pass, and the
    two must agree to 1e-10 relative (AssertionError otherwise).
    """
    n = len(rows.kinds)
    b, m = rows.b, rows.m
    # b (1-m) - m is n without the cancellation of (1+b)(1-m) - 1; its rounding
    # scales with the two terms, not with b, which may dwarf them at m = 1
    bm = b * (1.0 - m)
    n0 = np.flatnonzero((rows.kinds == "social_welfare")
                        & (np.abs(bm - m) <= 4.0 * _EPS * (bm + m)))
    fails = _Failures(n + len(n0))
    _preconditions(rows, fails)
    known = rows.kinds == "known_extinction"
    fails.bad[:n] |= known  # a finite sum, not a closed form
    inputs = _closed_rows(rows)
    if len(n0):
        n0_rows = _n0_rows(rows.M[n0], m[n0], rows.N0[n0])
        inputs = _Rows(*(np.concatenate([a, z]) for a, z in zip(inputs, n0_rows)))
    value, bound = _closed(inputs, path, u, tol, fails)
    value, bound = value.tolist(), bound.tolist()
    values, bounds, index = value[:n], bound[:n], [path.prefix_len - 1] * n
    failed = {i: e for i, e in fails.exc.items() if i < n}
    for i in np.flatnonzero(known).tolist():
        T = rows.cases[i % len(rows.cases)].T
        try:
            values[i], bounds[i] = _known_date_sum(float(m[i]), T, path, u)
            index[i] = T
        except ValueError as exc:
            failed[i] = exc
    for j, i in enumerate(n0.tolist(), start=n):
        if i in failed:
            continue
        if j in fails.exc:
            failed[i] = fails.exc[j]
        elif abs(value[i] - value[j]) > (1e-10 * max(abs(value[i]), abs(value[j]), 1.0)
                                         + bound[i] + bound[j]):
            raise AssertionError(
                f"general form {value[i]!r} and n=0 simplification "
                f"{value[j]!r} disagree beyond 1e-10 relative")
    out = _Results(values, index, bounds, [e <= tol for e in bounds], failed)
    for i in failed:
        for cells in out[:4]:
            cells[i] = None
    return out


def _evaluate_grid(
    points: Sequence[HazardParams], cases: Sequence[Scenario], path: ConsumptionPath,
    u: UtilitySpec, tol: float,
) -> Iterator[Tuple[_Batch, _Results]]:
    """_evaluate_rows over the rows of points x cases, in passes of a bounded number of rows."""
    size = max(1, _BLOCK // (len(cases) * min(path.prefix_len, _CHUNK_T)))  # points per pass
    for lo in range(0, len(points), size):
        rows = _batch(points[lo : lo + size], cases)
        yield rows, _evaluate_rows(rows, path, u, tol)


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
    result = _evaluate_rows(_batch([params], [case]), path, u, tol).result(0)
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


def eu_known_T(
    m: float, T: int, path: ConsumptionPath, u: UtilitySpec
) -> float:
    """Individual expected utility when the extinction date T is known.

    The finite sum sum_{t=0}^{T} (1-m)**t u(c_t): only the individual death
    hazard discounts, independently of when extinction is scheduled.
    """
    return _known_date_sum(m, T, path, u)[0]


def _known_date_sum(
    m: float, T: int, path: ConsumptionPath, u: UtilitySpec
) -> Tuple[float, float]:
    """eu_known_T's value and a bound on its absolute error; ValueError outside float range.

    The dates go in blocks of 4096, each a dot product of the weights (1-m)**t
    with u(c_t), and fsum adds the blocks. The bound adds, per block, gamma_n of
    the summed |w_t u(c_t)| for the dot product, the weights' error (1-m
    rounded once, raised to t, one libm call), the error of u(c_t) and the
    underflow of a weight or a product; then fsum's rounding.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m must lie in [0, 1], got {m!r}")
    if T < 0:
        raise ValueError("T must be >= 0")
    vals, errs = [], []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is raised below
        for start in range(0, T + 1, 4096):
            t = np.arange(start, min(start + 4096, T + 1))
            w = np.power(1.0 - m, t)
            uu, u_err = _utility_values(path, u, start, start + len(t))
            au = np.abs(uu)
            r = _rigorous(_LIBM + _U * (t + 1.0))
            vals.append(float(w @ uu))
            errs.append(_rigorous(len(t) * _U) * float(w @ au) + float((w * r) @ au)
                        + float((w * (1.0 + r)) @ u_err)
                        + _DENORM * (float(np.sum(au + u_err)) + len(t)))
        value = math.fsum(vals)
        # the error terms are themselves sums of up to 4096 rounded products
        bound = float((math.fsum(errs) + _U * abs(value))
                      * (1.0 + _rigorous(4.0 * (4096 + 16) * _U)))
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise ValueError("the series value leaves float range")
    return value, bound


def welfare_window_terms(
    params: HazardParams, path: ConsumptionPath, u: UtilitySpec, length: int
) -> np.ndarray:
    """Per-date contributions to W(0, T): W(0, T) = sum of the first T+1 terms.

    term_t = N0 (1+b)/b * u(c_t) (1+n)**t (1 - (1+b)**-(t+1)); requires b > 0.
    """
    if params.b <= 0.0:
        raise ValueError("the closed-form window terms need b > 0")
    t = np.arange(length)
    uu = np.asarray(u(path.values(0, length)), dtype=float)
    pref = params.N0 * (1.0 + params.b) / params.b
    return pref * uu * np.power(params.gross_growth, t) * one_minus_q_power(params.b, t + 1)


def welfare_window_direct(
    params: HazardParams, T: int, path: ConsumptionPath, u: UtilitySpec
) -> float:
    """W(0, T) straight from its definition sum_t N_t sum_{tau>=t} (1-m)**(tau-t) u(c_tau).

    The inner remaining-utility sums use the exact backward recurrence
    inner_t = u(c_t) + (1-m) inner_{t+1}. Works for any b >= 0.
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    uu = np.asarray(u(path.values(0, T + 1)), dtype=float)
    inner = np.empty(T + 1)
    inner[T] = uu[T]
    for t in range(T - 1, -1, -1):
        inner[t] = uu[t] + (1.0 - params.m) * inner[t + 1]
    pop = params.N0 * np.power(params.gross_growth, np.arange(T + 1))
    return math.fsum(pop * inner)


def welfare_window(
    params: HazardParams, T: int, path: ConsumptionPath, u: UtilitySpec
) -> float:
    """Total welfare W(0, T) of everyone present between 0 and the extinction date T.

    Uses the closed form for b > 0 and falls back to the direct double sum at
    b = 0 (the closed form divides by b).
    """
    if T < 0:
        raise ValueError("T must be >= 0")
    if params.b <= 0.0:
        return welfare_window_direct(params, T, path, u)
    return math.fsum(welfare_window_terms(params, path, u, T + 1))


def ew_social(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = DEFAULT_TOLERANCE,
) -> SeriesResult:
    """Expected social welfare EW = sum_T P_X(T) W(0, T) in closed series form.

    EW = N0 (1+b)/b sum_t u(c_t) ((1-M)(1+n))**t (1 - (1+b)**-(t+1)); finite
    iff (1-M)(1+n) < 1, and requires b > 0, M > 0. When n = 0 the constant
    population simplification is evaluated as well and must agree to 1e-10
    relative.
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
    fails = _Failures(1)
    row = [np.array([x]) for x in (params.M, params.m, params.N0)]
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf
        inputs = _n0_rows(*row)
    value, bound = _closed(inputs, path, u, tol, fails)
    if fails.exc:
        raise fails.exc[0]
    return SeriesResult(value=float(value[0]), truncation_index=path.prefix_len - 1,
                        tail_bound=float(bound[0]), converged=bool(bound[0] <= tol))


def _utility_values(
    path: ConsumptionPath, u: UtilitySpec, start: int, stop: int
) -> Tuple[np.ndarray, np.ndarray]:
    """u(c_t) for t = start..stop-1 and a bound on the absolute error of each value.

    The prefix values are exact inputs. Past the prefix of a geometric tail
    c_t is a libm power times c_{p-1}, off by _LIBM + u relative, and either
    step may underflow (absolute error _DENORM (1 + c_{p-1})); u then adds
    its own rounding.
    """
    c = path.values(start, stop)
    uu = np.asarray(u(c), dtype=float)
    e_c = d_c = 0.0  # relative and underflow error of c_t
    if path.tail == "geometric":
        tail = np.arange(start, stop) >= path.prefix_len
        e_c = (_LIBM + _U) * tail
        d_c = _DENORM * (1.0 + path.prefix[-1]) * tail
    if u.family == "linear":  # c_t may be subnormal
        return uu, c * e_c + d_c
    e_c = e_c + d_c / c  # log and CRRA have rejected c_t = 0
    if u.family == "log":
        return uu, _LIBM * np.abs(uu) + _rigorous(e_c)
    # (c**s1 - 1) / s1: c**s1 = 1 + s1 u off by libm, the rounded s1 and c's error
    s1 = abs(1.0 - u.sigma)
    return uu, ((1.0 + s1 * np.abs(uu)) / s1
                * _rigorous(_LIBM + _U * np.abs(s1 * np.log(c)) + s1 * e_c)
                + _rigorous(3.0 * _U) * np.abs(uu))


def ew_social_mixture(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = 1e-8,
) -> SeriesResult:
    """EW evaluated from its definition, sum_T P_X(T) W(0, T), in one vectorized pass.

    Independent route used to cross-check ew_social: the windows W(0, T) are
    cumulative sums of welfare_window_terms, and the value is the fsum of
    P_X(T) W(0, T) over T <= T*. What that omits is at most
      (1-M)**(T*+1) sum_{t<=T*} |term_t|  +  sum_{t>T*} |term_t| (1-M)**t,
    the second bounded by an envelope of |u| past the prefix. The rounding
    bound is Higham's (Accuracy and Stability of Numerical Algorithms, ch. 3-4):
    gamma_T = T u / (1 - T u) of the summed |terms| for the T-th cumulative
    sum, and a relative error of term t that grows like 3 t u, since (1+n)**t
    raises a rounded (1+b)(1-m), plus the error of u(c_t). T* is the first
    date whose bound meets tol, else the date with the least bound. The
    number of dates is set up front from the envelope, at most 2**20.

    The default tolerance is looser than the closed form's: the rounding bound
    grows with the number of dates, so 1e-10 absolute is generally out of reach.
    """
    rows = _batch([params], [SOCIAL_WELFARE])
    fails = _Failures(1)
    _preconditions(rows, fails)
    if fails.exc:
        raise fails.exc[0]
    rho = float(rows.factor[0])
    if not tol > 0.0:
        raise ValueError("tolerance must be > 0")
    # |u(c_{p+k})| <= (a + lin k) gamma**k past the prefix, a and lin to relative error e_env
    terms = _tail_terms(path, u)
    a = sum(abs(t.coef) for t in terms)
    lin = sum(abs(t.coef) for t in terms if t.arith)
    log_gamma = max((t.log_growth for t in terms), default=0.0)
    e_env = max((t.rel_err for t in terms), default=0.0) + _U
    with np.errstate(all="ignore"):  # 1 - R <= 0 is raised below
        (parts,) = _log_parts(rows.M, rows.b, rows.m, rows.exps)
        # 1/(1-R), 1/(1-R)**2
        (L, dL), (LR, dLR) = (_log_sum(x) for x in (parts, np.column_stack([parts, [log_gamma]])))
        h1, e1, h2, e2, om = (float(x[0]) for x in _kernel(LR, dLR, True))
    if not om > 0.0:
        raise DivergenceError(f"utility tail grows at rate exp({log_gamma:.6g}) against "
                              f"weight ratio {rho:.6g}: the series diverges")
    # R = rho gamma; rho = 0 (m or M = 1) is floored so exp(-1e3 t) stands for 0**t
    L, dL, LR, dLR = (float(x[0]) for x in (L, dL, LR, dLR))
    L, LR = max(L, -1e3), max(LR, -1e3)
    step = max(dL + _U * abs(L), dLR + _U * abs(LR))  # error of exp(t log R) per period
    p, M, sM = path.prefix_len, params.M, 1.0 - params.M
    pref = params.N0 * (1.0 + params.b) / params.b

    def tail(t0: np.ndarray) -> np.ndarray:
        """Bound on pref * sum_{t >= t0} rho**t |u(c_t)| for dates t0 >= p."""
        k = t0 - p
        e = e_env + max(e1, e2) + 2.0 * _LIBM + 10.0 * _U + 2.0 * t0 * step
        R_t = np.exp(p * L + k * LR) + _DENORM
        return pref * R_t * ((a + lin * k) * h1 + lin * h2) * (1.0 + _rigorous(e))

    # At most 2**20 dates (some 200 MB of arrays), fewer where pref (1+n)**t |u|
    # could leave float range or a geometric c_t the normal range (log, CRRA).
    head = np.abs(np.asarray(u(np.array(path.prefix)), dtype=float))
    J = (1 << 20) - p  # tail dates
    # under e**600, which leaves e**109 for sums of 2**20 terms and 1/(1-R)**2
    room = 600.0 - math.log(pref) - math.log1p(head.sum() + a + lin * J)
    growth = math.log(max(params.gross_growth, 1.0)) + max(log_gamma, 0.0)
    if growth > 0.0:
        J = min(J, int(max(room, -1.0) / growth) - p)
    if path.tail == "geometric" and path.ratio > 0.0 and u.family != "linear":
        J = min(J, int((max(0.0, -math.log(path.prefix[-1])) - 690.0) / math.log(path.ratio)))
    if J < 0 or room == -math.inf:
        raise ValueError("the extinction-date mixture leaves float range within the prefix")
    # The first of 160 log-spaced counts j of tail dates after which the omitted
    # part (the prefix's share, j tail terms at their largest, the tail) is at
    # most tol/8, which leaves the rest of tol to the rounding.
    j = np.unique(np.geomspace(1.0, J + 1.0, 160).astype(np.int64)) - 1
    lam = max(sM, math.exp(LR))
    prior = (pref * (sM ** (j + 1) * float(head @ np.exp(np.arange(p) * L))
                     + sM * math.exp(p * L) * j * (a + lin * j) * lam ** np.maximum(j - 1, 0))
             + tail(p + j))
    n = p + int(j[prior <= tol / 8.0].min(initial=J))

    t = np.arange(n)
    terms = welfare_window_terms(params, path, u, n)
    # |term_t - exact| <= |term_t| r_t + pref (1+n)**t a_t |error of u(c_t)|, the weight
    # pref (1+n)**t a_t being the term at u = 1; r_t covers pref, a_t, (1+n)**t, 3 products
    weight = welfare_window_terms(params, ConsumptionPath.constant(1.0), UtilitySpec.linear(), n)
    r = _rigorous(8.0 * _U + 3.0 * _LIBM + 3.0 * _U * t)
    uu, u_err = _utility_values(path, u, 0, n)
    # a product or libm result that underflows is off by _DENORM times the later factors
    g_max = max(params.gross_growth, 1.0) ** n
    term_err = np.cumsum(np.abs(terms) * r + weight * (1.0 + r) * u_err
                         + _DENORM * g_max * (2.0 * pref + 3.0) * (1.0 + np.abs(uu) + u_err))
    windows = np.cumsum(terms)
    summed = np.cumsum(np.abs(terms))
    win_err = t * _U / (1.0 - t * _U) * summed + term_err  # gamma_T, then the terms' own
    surv = np.power(sM, np.arange(n + 1))  # (1-M)**T
    r_s = _rigorous(_LIBM + _U * (np.arange(n + 1) + 2.0))  # from 1-M, its power and the product
    px = surv[:n] * M
    # per date: errors of P_X(T) and W(0, T), of their product, and of fsum's result
    mix_err = np.cumsum(px * ((1.0 + r_s[:n]) * win_err + (r_s[:n] + 2.0 * _U) * np.abs(windows))
                        + 2.0 * _DENORM * (np.abs(windows) + win_err + 1.0))
    T = t[p - 1:]
    omitted = (surv[T + 1] * (1.0 + r_s[T + 1]) + _DENORM) * (summed[T] + term_err[T]) + tail(T + 1)
    # each bound is a sum of at most 2n + 32 rounded nonnegative products
    bound = (omitted + mix_err[T]) * (1.0 + _rigorous(4.0 * (n + 16) * _U))
    hits = bound <= tol
    i = int(hits.argmax() if hits.any() else bound.argmin())
    return SeriesResult(
        value=math.fsum(px[: p + i] * windows[: p + i]),
        truncation_index=p + i - 1,
        tail_bound=float(bound[i]),
        converged=bool(hits[i]),
    )

