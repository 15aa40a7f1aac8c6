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
    "MAX_TERMS",
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
MAX_TERMS = 1_000_000  # cap of the truncated extinction-date mixture
_BLOCK = 512
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
    closed forms the rounding error, for the truncated mixture the omitted
    terms plus the rounding envelope. truncation_index is the last summed
    term; for the closed forms that is the last explicit prefix period.
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


# --- cross-check machinery: the truncated extinction-date mixture --------------


class _KahanAccumulator:
    """Compensated running sum; per-element error stays ~2 eps of the partial sum."""

    def __init__(self) -> None:
        self.total = 0.0
        self._carry = 0.0

    def extend(self, terms: np.ndarray) -> np.ndarray:
        out = np.empty(len(terms))
        s, c = self.total, self._carry
        for i in range(len(terms)):
            y = float(terms[i]) - c
            t = s + y
            c = (t - s) - y
            s = t
            out[i] = s
        self.total, self._carry = s, c
        return out


class _TailBounder:
    """Rigorous bound on prefactor * sum_{t >= t0} rho**t |u(c_t)|.

    |u| along the tail rule is enveloped at the prefix end by
    a + lin*j + geo*gamma**j (j periods past the anchor). Bounds at later
    truncation points reuse the anchored coefficients, so no intermediate
    quantity is evaluated at a consumption level that has decayed past
    floating-point range.
    """

    def __init__(self, rho: float, path: ConsumptionPath, u: UtilitySpec, prefactor: float):
        self.rho = rho
        self.prefactor = prefactor
        self.anchor = path.prefix_len
        a, lin, geo, gamma = self._envelope(path, u)
        if geo > 0.0 and rho * gamma >= 1.0:
            raise DivergenceError(
                f"utility tail grows at rate {gamma:.6g} against weight ratio "
                f"{rho:.6g}: rho*gamma = {rho * gamma:.6g} >= 1, the series diverges"
            )
        self.a, self.lin, self.geo, self.gamma = a, lin, geo, gamma

    @staticmethod
    def _envelope(path: ConsumptionPath, u: UtilitySpec):
        c0 = path.value(path.prefix_len)
        if path.tail == "constant":
            return abs(float(u(c0))), 0.0, 0.0, 0.0
        g = path.ratio
        if u.family == "linear":
            return 0.0, 0.0, c0, utility_tail_growth(path, u)
        if g == 0.0:
            raise ValueError(f"{u.family} utility is undefined on a ratio-0 tail (c = 0)")
        if u.family == "log":
            return abs(math.log(c0)), abs(math.log(g)), 0.0, 0.0
        s = u.sigma
        return 1.0 / abs(1.0 - s), 0.0, c0 ** (1.0 - s) / abs(1.0 - s), utility_tail_growth(path, u)

    def bound(self, t0: int) -> float:
        if t0 < self.anchor:
            raise ValueError("bound anchor must be at or beyond the prefix end")
        rho = self.rho
        k = t0 - self.anchor
        flat = (self.a + self.lin * k) / (1.0 - rho) + self.lin * rho / (1.0 - rho) ** 2
        total = rho**t0 * flat
        if self.geo > 0.0:
            # geo * gamma**k * rho**t0, regrouped so no factor overflows alone
            total += (
                self.geo * rho**self.anchor * (rho * self.gamma) ** k
                / (1.0 - rho * self.gamma)
            )
        return self.prefactor * total

    @property
    def evaluation_limit(self) -> int:
        """Largest date whose u value provably stays inside float range."""
        if self.geo <= 0.0 or self.gamma <= 1.0:
            return MAX_TERMS
        # geo * gamma**j overflows past j ~ log(huge/geo)/log(gamma)
        j_max = (math.log(1e300) - math.log(max(self.geo, 1e-300))) / math.log(self.gamma)
        return min(MAX_TERMS, self.anchor + max(int(j_max), 1))


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


def _window_terms_range(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    start: int,
    stop: int,
) -> np.ndarray:
    t = np.arange(start, stop)
    uu = np.asarray(u(path.values(start, stop)), dtype=float)
    pref = params.N0 * (1.0 + params.b) / params.b
    return pref * uu * np.power(params.gross_growth, t) * one_minus_q_power(params.b, t + 1)


def welfare_window_terms(
    params: HazardParams, path: ConsumptionPath, u: UtilitySpec, length: int
) -> np.ndarray:
    """Per-date contributions to W(0, T): W(0, T) = sum of the first T+1 terms.

    term_t = N0 (1+b)/b * u(c_t) (1+n)**t (1 - (1+b)**-(t+1)); requires b > 0.
    """
    if params.b <= 0.0:
        raise ValueError("the closed-form window terms need b > 0")
    return _window_terms_range(params, path, u, 0, length)


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


def ew_social_mixture(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float = 1e-8,
) -> SeriesResult:
    """EW evaluated from its definition, sum_T P_X(T) W(0, T).

    Independent route used to cross-check ew_social. The omitted tail after
    truncating at T* splits exactly into
      (1-M)**(T*+1) * sum_{t<=T*} term_t  +  sum_{t>T*} term_t (1-M)**t,
    both of which are bounded rigorously (the second with the same envelope
    machinery as the closed series).

    The default tolerance is looser than the closed form's: this route sums
    P_X(T)-many cumulative windows whose power-function rounding grows with
    the term index, and that rounding envelope is folded into tail_bound, so
    certifying 1e-10 absolute is generally not possible for long mixtures.
    """
    rho = _ew_preconditions(params)
    if tol <= 0.0:
        raise ValueError("tolerance must be > 0")
    pref = params.N0 * (1.0 + params.b) / params.b
    sM = 1.0 - params.M
    bounder = _TailBounder(rho, path, u, pref)
    limit = max(bounder.evaluation_limit, path.prefix_len)
    # pow(base, t) loses about t*|ln base| ulps; tracked per summed index below
    g = params.gross_growth
    q = 1.0 / (1.0 + params.b)
    ln_scale = abs(math.log(q))
    if g > 0.0:
        ln_scale += abs(math.log(g))
    if sM > 0.0:
        ln_scale += abs(math.log(sM))
    block_sums = []
    abs_sum = 0.0
    cum_abs_terms = 0.0
    abs_env = 0.0  # sum of P_X(T) * cumulative |terms|, weights the cumsum rounding
    kahan = _KahanAccumulator()
    t0 = 0
    block = 32
    bound = math.inf
    while True:
        if t0 >= path.prefix_len:
            rounding = 16.0 * _EPS * abs_sum + _EPS * abs_env * (
                4.0 + 2.0 * t0 * ln_scale
            )
            bound = float(sM**t0 * cum_abs_terms + bounder.bound(t0) + rounding)
            if bound <= tol or t0 >= limit:
                break
        stop = min(max(t0 + block, path.prefix_len), limit)
        block = min(2 * block, _BLOCK)
        terms = _window_terms_range(params, path, u, t0, stop)
        windows = kahan.extend(terms)  # W(0, T) for T in [t0, stop)
        cum_abs = cum_abs_terms + np.cumsum(np.abs(terms))
        cum_abs_terms = float(cum_abs[-1])
        px = np.power(sM, np.arange(t0, stop)) * params.M
        block_sums.append(float(np.dot(px, windows)))
        abs_sum += float(np.dot(px, np.abs(windows)))
        abs_env += float(np.dot(px, cum_abs))
        t0 = stop
    return SeriesResult(
        value=math.fsum(block_sums),
        truncation_index=t0 - 1,
        tail_bound=bound,
        converged=bound <= tol,
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
