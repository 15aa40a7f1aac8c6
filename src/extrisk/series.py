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
constant or geometric, so the tail is summed exactly:

    constant tail, or linear / CRRA utility on a geometric tail:  geometric
    log utility on a geometric tail:                              arithmetico-geometric

and an evaluation costs O(p) whatever the hazards. The modifier's tail
  sum_{t>=p} R**t (1 - q**(t+1)) = R**p [(1-R) a_p + R (1-q)] / ((1-R)(1-Rq)),
with a_p = 1 - q**(p+1) = -expm1((p+1) log q), has no subtraction, so small
birth rates lose no digits. Every 1-R is computed as -expm1(log R), with
log R summed from log1p of the hazard factors, never by forming R first.

tail_bound is a running rounding-error bound (Higham, Accuracy and Stability
of Numerical Algorithms, ch. 3): each piece of the closed form is a product
of factors with known relative error, the libm functions are taken to be
accurate to 2 ulp, and first-order error counts e are made rigorous as
expm1(e / (1 - e)). It bounds |exact - value| for the exact sum at the given
float inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .model import (
    ConsumptionPath,
    DivergenceError,
    HazardParams,
    NoExtinctionError,
    UtilitySpec,
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
    "utility_tail_growth",
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
            if self.T is None or self.T < 0:
                raise ValueError("known_extinction needs a finite date T >= 0")
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


def one_minus_q_power(b: float, k: np.ndarray) -> np.ndarray:
    """1 - q**k with q = 1/(1+b), as -expm1(k log q): forming q**k first cancels at small b."""
    return -np.expm1(k * -math.log1p(b))


def utility_tail_growth(path: ConsumptionPath, u: UtilitySpec) -> float:
    """Per-period ratio of the geometric part of |u(c_t)| on the tail (0 if none):
    g for linear u, g**(1-sigma) for CRRA; log u and a constant tail have none."""
    g = path.ratio
    if path.tail == "constant" or u.family == "log" or g == 0.0:
        return 0.0
    return g if u.family == "linear" else g ** (1.0 - u.sigma)


def weight_ratio(case: Scenario, params: HazardParams) -> float:
    """Constant per-period weight ratio of the case (social welfare excluded)."""
    if case.kind == "social_welfare":
        raise ValueError("social_welfare has no constant weight ratio; see weight_sequence")
    return math.prod(factor_pieces(case, params))


def finiteness_check(case: Scenario, params: HazardParams) -> FinitenessResult:
    """Convergence product for the case and its distance from 1.

    known_extinction is a finite sum and is always finite; for the other cases
    the series converges iff the product is < 1.
    """
    product = math.prod(factor_pieces(case, params))
    finite = True if case.kind == "known_extinction" else product < 1.0
    return FinitenessResult(finite=finite, product=product, margin=1.0 - product)


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


def _log1m(x: float) -> float:
    """log(1 - x) for x in [0, 1]; -inf at x = 1."""
    return -math.inf if x == 1.0 else math.log1p(-x)


def _scaled(k: float, x: float) -> float:
    """k * x with 0 * -inf = 0, as 0.0**0.0 = 1 in factor_pieces."""
    return 0.0 if k == 0.0 else k * x


def _log_parts(case: Scenario, params: HazardParams) -> List[float]:
    """log of the case's factor as summands: eM log(1-M), eb log1p(b), em log(1-m)."""
    eM, eb, em = factor_exponents(case, params)
    return [_scaled(eM, _log1m(params.M)), _scaled(eb, math.log1p(params.b)),
            _scaled(em, _log1m(params.m))]


def _log_sum(parts: Sequence[float]) -> Tuple[float, float]:
    """fsum of log-ratio parts and a bound on its absolute error.

    Each part is a libm log or log1p, possibly scaled by a float exponent, so
    it is off by at most _LIBM + 2u relative; fsum rounds once. A -inf part
    makes the ratio exactly 0.
    """
    total = math.fsum(parts)
    if total == -math.inf:
        return total, 0.0
    return total, (_LIBM + 2.0 * _U) * math.fsum(map(abs, parts)) + _U * abs(total)


def _rigorous(e: float) -> float:
    """Relative error of a chain of products and quotients whose first-order errors add to e."""
    return math.expm1(e / (1.0 - e)) if e < 1.0 else math.inf


def _utility(u: UtilitySpec, c: float) -> Tuple[float, float]:
    """u(c) and its relative error; CRRA goes through expm1, so c near 1 keeps every digit."""
    if u.family == "linear":
        return c, 0.0
    if u.family == "log":
        return math.log(c), _LIBM
    s1 = 1.0 - u.sigma
    x = s1 * math.log(c)
    # expm1 passes a relative error of x on amplified by x e^x / expm1(x) <= 1 + max(x, 0)
    return math.expm1(x) / s1, _LIBM + (1.0 + max(x, 0.0)) * (_LIBM + 2.0 * _U) + 2.0 * _U


class _Modifier(NamedTuple):
    """The factor 1 - q**(t+1) of the social-welfare series."""

    log_q: float
    one_minus_q: float
    one_minus_q_err: float  # relative
    rq_parts: List[float]  # log-ratio parts of r*q


def _kernel(
    parts: List[float], extra: List[float], mod: Optional[_Modifier],
    a_p: float, e_a: float, need_h2: bool,
) -> Optional[Tuple[float, float, float, float]]:
    """H1 = sum_j R**j m_j and H2 = sum_j (j+1) R**j m_j with their relative errors.

    log R = fsum(parts + extra); m_j = 1 - q**(p+1+j), or 1 without a modifier,
    and a_p = m_0. None when R >= 1.
    """
    LR, dR = _log_sum(parts + extra)
    om = -math.expm1(LR)
    if not om > 0.0:
        return None
    R = math.exp(LR)
    e_om = _LIBM + R * dR / om
    if mod is None:
        h1, e1 = 1.0 / om, e_om + _U
        return h1, e1, h1 * h1, 2.0 * e1 + _U
    e_R = _LIBM + dR
    LRq, dRq = _log_sum(mod.rq_parts + extra)
    omq = -math.expm1(LRq)
    e_omq = _LIBM + R * dRq / omq
    e_b = mod.one_minus_q_err
    Rb = R * mod.one_minus_q
    n1 = om * a_p + Rb
    d1 = om * omq
    e_d1 = e_om + e_omq + _U
    h1 = n1 / d1
    e1 = max(e_om + e_a, e_R + e_b) + 3.0 * _U + _DENORM / n1 + e_d1
    if not need_h2:
        return h1, e1, 0.0, 0.0
    n2 = a_p * om * om + Rb * (om + omq)
    e_n2 = (max(e_a + 2.0 * e_om + 2.0 * _U, e_R + e_b + max(e_om, e_omq) + 3.0 * _U)
            + _U + _DENORM / n2)
    return h1, e1, n2 / (d1 * d1), e_n2 + 2.0 * e_d1 + 2.0 * _U


def _closed_sum(
    parts: List[float],
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float,
    mod: Optional[_Modifier] = None,
    pref: float = 1.0,
    e_pref: float = 0.0,
) -> SeriesResult:
    """pref * sum_t r**t m_t u(c_t) with log r = fsum(parts), summed in closed form.

    m_t = 1 - q**(t+1) under a modifier, else 1; pref carries relative error
    e_pref. Raises DivergenceError when r >= 1 or a CRRA tail outgrows the
    weights.
    """
    if not tol > 0.0:
        raise ValueError("tolerance must be > 0")
    if not math.isfinite(pref):
        raise ValueError(f"the prefactor {pref!r} leaves float range")
    try:
        return _closed_sum_checked(parts, path, u, tol, mod, pref, e_pref)
    except OverflowError as exc:
        raise ValueError(f"the series leaves float range: {exc}") from None


def _closed_sum_checked(
    parts: List[float],
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float,
    mod: Optional[_Modifier],
    pref: float,
    e_pref: float,
) -> SeriesResult:
    L, dL = _log_sum(parts)
    if not L < 0.0:
        raise DivergenceError(f"weight ratio {math.exp(L):.6g} >= 1")
    zero_ratio = L == -math.inf  # only the date-0 term survives
    step = 0.0 if zero_ratio else dL + _U * abs(L)  # r**t gains this relative error per period
    vals: List[float] = []
    errs: List[float] = []
    slack = 0.0  # absolute, from weights that underflow

    def add(value: float, e: float) -> None:
        vals.append(pref * value)
        errs.append(e + e_pref + _U)

    for t, c in enumerate(path.prefix[:1] if zero_ratio else path.prefix):
        term, e = _utility(u, c)
        if mod is not None:
            term *= -math.expm1((t + 1) * mod.log_q)
            e += 2.0 * _LIBM + 2.0 * _U
        if t:
            slack += _DENORM * abs(term)
            term *= math.exp(t * L)
            e += _LIBM + t * step + _U
        add(term, e)

    if not zero_ratio:
        p = path.prefix_len
        rp = math.exp(p * L)
        e_rp = _LIBM + p * step
        a_p, e_a = 1.0, 0.0
        if mod is not None:
            a_p, e_a = -math.expm1((p + 1) * mod.log_q), 2.0 * _LIBM + _U

        def add_tail(coef: float, e_coef: float, h: float, e_h: float) -> None:
            nonlocal slack
            slack += _DENORM * abs(coef * h)
            add(coef * rp * h, e_coef + e_rp + e_h + 2.0 * _U)

        c_last = path.prefix[-1]
        if path.tail == "constant":
            h1, e1, _, _ = _kernel(parts, [], mod, a_p, e_a, False)
            add_tail(*_utility(u, c_last), h1, e1)
        elif path.ratio == 0.0:
            if u.family != "linear":
                raise ValueError(f"{u.family} utility is undefined on a ratio-0 tail (c = 0)")
            # c_t = 0 past the prefix: linear utility adds nothing
        elif u.family == "linear":
            # u(c_t) = c_last g**(t-p+1): one geometric series of ratio r g
            h1, e1, _, _ = _kernel(parts, [math.log(path.ratio)], mod, a_p, e_a, False)
            add_tail(c_last * path.ratio, _U, h1, e1)
        elif u.family == "log":
            # u(c_t) = log c_last + (t-p+1) log g: arithmetico-geometric
            h1, e1, h2, e2 = _kernel(parts, [], mod, a_p, e_a, True)
            add_tail(math.log(c_last), _LIBM, h1, e1)
            add_tail(math.log(path.ratio), _LIBM, h2, e2)
        else:
            # u(c_t) = ((c_last g)**s1 gamma**(t-p) - 1) / s1, gamma = g**s1, s1 = 1-sigma
            s1 = 1.0 - u.sigma
            log_gamma = s1 * math.log(path.ratio)
            grow = _kernel(parts, [log_gamma], mod, a_p, e_a, False)
            if grow is None:
                raise DivergenceError(
                    f"utility tail grows at rate exp({log_gamma:.6g}) against weight ratio "
                    f"{math.exp(L):.6g}: log(rho*gamma) = {L + log_gamma:.6g} >= 0, "
                    f"the series diverges"
                )
            x = s1 * math.log(c_last * path.ratio)
            e_x = abs(s1) * _U + abs(x) * (_LIBM + 2.0 * _U)
            add_tail(math.exp(x) / s1, _LIBM + e_x + 2.0 * _U, grow[0], grow[1])
            h1, e1, _, _ = _kernel(parts, [], mod, a_p, e_a, False)
            add_tail(-1.0 / s1, 2.0 * _U, h1, e1)

    value = math.fsum(vals)
    bound = math.fsum(abs(v) * _rigorous(e) for v, e in zip(vals, errs) if v)
    bound = (bound + abs(pref) * slack + _U * abs(value)) * (1.0 + 16.0 * _U)
    if not math.isfinite(value):
        raise ValueError("the series value leaves float range")
    return SeriesResult(
        value=value,
        truncation_index=path.prefix_len - 1,
        tail_bound=bound,
        converged=bound <= tol,
    )


# --- the functionals ---------------------------------------------------------


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
    if params.is_degenerate:
        raise DivergenceError(
            "m = M = 0: joint survival is 1 and expected lifetime utility diverges"
        )
    return _closed_sum(_log_parts(INDIVIDUAL, params), path, u, tol)


def _require_extinction(params: HazardParams) -> None:
    if params.M == 0.0:
        raise NoExtinctionError(
            "M = 0: the extinction-date mixture is defective and the functional undefined"
        )


def _require_finite(case: Scenario, params: HazardParams) -> float:
    chk = finiteness_check(case, params)
    if not chk.finite:
        raise DivergenceError(
            f"{case.kind}: finiteness requires the weight product < 1, got "
            f"{chk.product:.6g} (margin {chk.margin:.3g})"
        )
    return chk.product


def _extinction_series(
    case: Scenario, params: HazardParams, path: ConsumptionPath, u: UtilitySpec, tol: float
) -> SeriesResult:
    """sum_t factor**t u(c_t) for a case that mixes over extinction dates."""
    _require_extinction(params)
    _require_finite(case, params)
    return _closed_sum(_log_parts(case, params), path, u, tol)


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
    return _extinction_series(DYNASTY, params, path, u, tol)


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
    return _extinction_series(DYNASTY_THETA, params, path, u, tol)


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
    return _extinction_series(LINEAGE, params, path, u, tol)


def eu_known_T(
    m: float, T: int, path: ConsumptionPath, u: UtilitySpec
) -> float:
    """Individual expected utility when the extinction date T is known.

    Exact finite sum sum_{t=0}^{T} (1-m)**t u(c_t): only the individual death
    hazard discounts, independently of when extinction is scheduled.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"m must lie in [0, 1], got {m!r}")
    if T < 0:
        raise ValueError("T must be >= 0")
    pieces = []
    for start in range(0, T + 1, 4096):
        stop = min(start + 4096, T + 1)
        t = np.arange(start, stop)
        uu = np.asarray(u(path.values(start, stop)), dtype=float)
        pieces.append(float(np.dot(np.power(1.0 - m, t), uu)))
    return math.fsum(pieces)


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


def _ew_preconditions(params: HazardParams) -> float:
    if params.b <= 0.0:
        raise ValueError("social welfare needs b > 0; use welfare_window at b = 0")
    _require_extinction(params)
    return _require_finite(SOCIAL_WELFARE, params)


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
    _ew_preconditions(params)
    b = params.b
    mod = _Modifier(log_q=-math.log1p(b), one_minus_q=b / (1.0 + b), one_minus_q_err=2.0 * _U,
                    rq_parts=_log_parts(INDIVIDUAL, params))  # r q = (1-M)(1-m)
    pref = params.N0 * (1.0 + b) / b
    result = _closed_sum(_log_parts(SOCIAL_WELFARE, params), path, u, tol, mod, pref, 3.0 * _U)
    # b (1-m) - m is n without the cancellation of (1+b)(1-m) - 1
    if abs(b * (1.0 - params.m) - params.m) <= 4.0 * _EPS * (b + params.m):
        simplified = ew_social_n0_form(params, path, u, tol)
        scale = max(abs(result.value), abs(simplified.value), 1.0)
        slack = result.tail_bound + simplified.tail_bound
        if abs(result.value - simplified.value) > 1e-10 * scale + slack:
            raise AssertionError(
                f"general form {result.value!r} and n=0 simplification "
                f"{simplified.value!r} disagree beyond 1e-10 relative"
            )
    return result


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
    _require_extinction(params)
    mod = _Modifier(log_q=_log1m(params.m), one_minus_q=params.m, one_minus_q_err=0.0,
                    rq_parts=_log_parts(INDIVIDUAL, params))  # r q = (1-M)(1-m)
    return _closed_sum([_log1m(params.M)], path, u, tol, mod, params.N0 / params.m, _U)


def _tail_envelope(path: ConsumptionPath, u: UtilitySpec) -> Tuple[float, float, float, float]:
    """(a, lin, log_gamma, e): |u(c_{p+k})| <= (a + lin k) gamma**k for k >= 0 past the
    prefix p, with a and lin computed to relative error e."""
    c = path.prefix[-1]
    if path.tail == "constant":
        value, e = _utility(u, c)
        return abs(value), 0.0, 0.0, e
    g = path.ratio
    if u.family == "linear":
        return c * g, 0.0, math.log(g) if g else 0.0, _U
    if g == 0.0:
        raise ValueError(f"{u.family} utility is undefined on a ratio-0 tail (c = 0)")
    if u.family == "log":  # log c_{p+k} = log c + (k+1) log g
        return abs(math.log(c)) + abs(math.log(g)), abs(math.log(g)), 0.0, _LIBM + _U
    # |((c g)**s1 g**(s1 k) - 1) / s1| <= ((c g)**s1 + 1) max(1, g**s1)**k / |s1|
    s1 = 1.0 - u.sigma
    x = s1 * math.log(c * g)
    e_x = abs(s1) * _U + abs(x) * (_LIBM + 2.0 * _U)
    return (math.exp(x) + 1.0) / abs(s1), 0.0, max(s1 * math.log(g), 0.0), _LIBM + e_x + 3.0 * _U


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
    rho = _ew_preconditions(params)
    if not tol > 0.0:
        raise ValueError("tolerance must be > 0")
    a, lin, log_gamma, e_env = _tail_envelope(path, u)
    parts = _log_parts(SOCIAL_WELFARE, params)
    kernel = _kernel(parts, [log_gamma], None, 1.0, 0.0, True)  # 1/(1-R), 1/(1-R)**2
    if kernel is None:
        raise DivergenceError(f"utility tail grows at rate exp({log_gamma:.6g}) against "
                              f"weight ratio {rho:.6g}: the series diverges")
    h1, e1, h2, e2 = kernel
    # R = rho gamma; rho = 0 (m or M = 1) is floored so exp(-1e3 t) stands for 0**t
    (L, dL), (LR, dLR) = _log_sum(parts), _log_sum(parts + [log_gamma])
    L, LR = max(L, -1e3), max(LR, -1e3)
    step = max(dL + _U * abs(L), dLR + _U * abs(LR))  # error of exp(t log R) per period
    p, M, sM = path.prefix_len, params.M, 1.0 - params.M
    pref = params.N0 * (1.0 + params.b) / params.b
    rig = lambda e: np.expm1(e / (1.0 - e))  # _rigorous elementwise; every e here is tiny

    def tail(t0: np.ndarray) -> np.ndarray:
        """Bound on pref * sum_{t >= t0} rho**t |u(c_t)| for dates t0 >= p."""
        k = t0 - p
        e = e_env + max(e1, e2) + 2.0 * _LIBM + 10.0 * _U + 2.0 * t0 * step
        R_t = np.exp(p * L + k * LR) + _DENORM
        return pref * R_t * ((a + lin * k) * h1 + lin * h2) * (1.0 + rig(e))

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
    r = rig(8.0 * _U + 3.0 * _LIBM + 3.0 * _U * t)
    c = path.values(0, n)
    uu = np.asarray(u(c), dtype=float)
    e_c = (_LIBM + _U) * (t >= p) if path.tail == "geometric" else 0.0  # of c_t
    if u.family == "linear":  # c_t may be subnormal
        u_err = c * e_c + _DENORM * (1.0 + path.prefix[-1])
    elif u.family == "log":
        u_err = _LIBM * np.abs(uu) + rig(e_c)
    else:  # (c**s1 - 1) / s1: c**s1 = 1 + s1 u off by libm, the rounded s1 and c's error
        s1 = abs(1.0 - u.sigma)
        u_err = ((1.0 + s1 * np.abs(uu)) / s1 * rig(_LIBM + _U * np.abs(s1 * np.log(c)) + s1 * e_c)
                 + rig(3.0 * _U) * np.abs(uu))
    # a product or libm result that underflows is off by _DENORM times the later factors
    g_max = max(params.gross_growth, 1.0) ** n
    term_err = np.cumsum(np.abs(terms) * r + weight * (1.0 + r) * u_err
                         + _DENORM * g_max * (2.0 * pref + 3.0) * (1.0 + np.abs(uu) + u_err))
    windows = np.cumsum(terms)
    summed = np.cumsum(np.abs(terms))
    win_err = t * _U / (1.0 - t * _U) * summed + term_err  # gamma_T, then the terms' own
    surv = np.power(sM, np.arange(n + 1))  # (1-M)**T
    r_s = rig(_LIBM + _U * (np.arange(n + 1) + 2.0))  # from 1-M, its power and the product
    px = surv[:n] * M
    # per date: errors of P_X(T) and W(0, T), of their product, and of fsum's result
    mix_err = np.cumsum(px * ((1.0 + r_s[:n]) * win_err + (r_s[:n] + 2.0 * _U) * np.abs(windows))
                        + 2.0 * _DENORM * (np.abs(windows) + win_err + 1.0))
    T = t[p - 1:]
    omitted = (surv[T + 1] * (1.0 + r_s[T + 1]) + _DENORM) * (summed[T] + term_err[T]) + tail(T + 1)
    # each bound is a sum of at most 2n + 32 rounded nonnegative products
    bound = (omitted + mix_err[T]) * (1.0 + rig(4.0 * (n + 16) * _U))
    hits = bound <= tol
    i = int(hits.argmax() if hits.any() else bound.argmin())
    return SeriesResult(
        value=math.fsum(px[: p + i] * windows[: p + i]),
        truncation_index=p + i - 1,
        tail_bound=float(bound[i]),
        converged=bool(hits[i]),
    )


def evaluate(
    case: Scenario,
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = DEFAULT_TOLERANCE,
) -> SeriesResult:
    """Evaluate any scenario; finite known-date sums come back exact with zero tail."""
    if case.kind == "individual":
        return eu_individual(params, path, u, tol)
    if case.kind == "dynasty":
        return ev_dynasty(params, path, u, tol)
    if case.kind == "dynasty_theta":
        return ev_dynasty_theta(params, path, u, tol)
    if case.kind == "lineage":
        return eg_lineage(params, path, u, tol)
    if case.kind == "social_welfare":
        return ew_social(params, path, u, tol)
    value = eu_known_T(params.m, case.T, path, u)
    return SeriesResult(value=value, truncation_index=case.T, tail_bound=0.0, converged=True)
