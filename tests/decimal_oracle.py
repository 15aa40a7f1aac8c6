"""Exact values of the series functionals: stdlib decimal at 50 digits or more.

Every float input is converted to Decimal exactly, so the reference is the
true sum at the given floats, not at nearby values. The infinite sums use
the plain closed forms

    S(r) = sum_{t<p} r**t u(c_t) + (tail summed as a geometric or
           arithmetico-geometric series)
    EW   = N0 (1+b)/b (S(rho) - q S(rho q)),      q = 1/(1+b)
    EW0  = N0/m (S(1-M) - (1-m) S((1-M)(1-m)))

whose subtractions cost at most a dozen of the 50 digits once the context
has been widened by the decimal exponent of 1 - q (b for EW, m for EW0).
A sum diverges when its weight ratio r >= 1, or, for CRRA utility on a
geometric tail of ratio g, when r g**(1-sigma) >= 1. The finite known-date
sum (exact_known) is summed term by term. exact_window builds the welfare
window W(0, T) from its definition, and exact_mixture sums EW as a mixture of
those windows over the extinction date, which shares no algebra with the
closed form above. exact_weight_ratios gives the ratios of the series weights,
exact_slopes the derivatives of their ratio r in M and in m.
"""

import functools
from decimal import Context, Decimal, localcontext
from itertools import count, islice
from types import SimpleNamespace
from typing import Iterator, List, NamedTuple, Optional, Tuple

CTX = Context(prec=50, Emin=-999999, Emax=999999)
ONE = Decimal(1)
FUNCTIONALS = ("individual", "dynasty", "dynasty_theta", "lineage", "social_welfare",
               "n0_form")


def _d(x) -> Decimal:
    """x as a Decimal: a Decimal unrounded, anything else through its exact float."""
    return x if isinstance(x, Decimal) else Decimal(float(x))


def _pow(x: Decimal, e: float) -> Decimal:
    if e == 0.0:
        return ONE
    return x ** _d(e)


def _utility(u, c: Decimal) -> Decimal:
    if u.family == "linear":
        return c
    if u.family == "log":
        return c.ln()
    s1 = ONE - _d(u.sigma)
    return (c ** s1 - ONE) / s1


def _growth(path, u) -> Optional[Decimal]:
    """Per-period growth factor of u's geometric component along the tail, if any."""
    if path.tail == "constant" or u.family == "log":
        return None
    g = _d(path.ratio)
    return g if u.family == "linear" else g ** (ONE - _d(u.sigma))


def _path_sum(r: Decimal, path, u) -> Decimal:
    """S(r) = sum_t r**t u(c_t); the caller has checked convergence."""
    total = Decimal(0)
    rt = ONE
    for c in path.prefix:
        total += rt * _utility(u, _d(c))
        rt *= r  # ends as r**p
    c_last = _d(path.prefix[-1])
    if path.tail == "constant":
        return total + rt * _utility(u, c_last) / (ONE - r)
    g = _d(path.ratio)
    if u.family == "linear":  # c_t = c_last g**(t-p+1)
        return total + rt * c_last * g / (ONE - r * g)
    if u.family == "log":  # u_t = log c_last + (t-p+1) log g
        return total + rt * (c_last.ln() / (ONE - r) + g.ln() / (ONE - r) ** 2)
    s1 = ONE - _d(u.sigma)
    gamma = g ** s1
    return total + rt * ((c_last * g) ** s1 / (ONE - r * gamma) - ONE / (ONE - r)) / s1


def _ratios(kind: str, params) -> Tuple[Decimal, Decimal]:
    """(r, prefactor) of  pref * sum_t r**t (1 - q**(t+1)) u(c_t)."""
    m, M, b = _d(params.m), _d(params.M), _d(params.b)
    sm, sM, gb = ONE - m, ONE - M, ONE + b
    if kind == "individual":
        return sM * sm, ONE
    if kind in ("dynasty", "social_welfare"):
        return sM * gb * sm, _d(params.N0) * gb / b if kind == "social_welfare" else ONE
    if kind == "dynasty_theta":
        return sM * _pow(gb * sm, params.theta), ONE
    if kind == "lineage":
        return sM * _pow(gb, params.alpha) * sm, ONE
    if kind == "n0_form":
        return sM, _d(params.N0) / m
    if kind == "known_extinction":
        return sm, ONE
    raise ValueError(f"unknown functional {kind!r}")


def exact_slopes(kind: str, params, regime: str) -> Tuple[Decimal, Decimal]:
    """(dr/dM, dr/dm) of _ratios' weight ratio r at params, as central differences at 50 digits.

    The step 1e-20 leaves a truncation error near 1e-40 and a rounding error
    near 1e-30 of the slope. Under "n-fixed" b moves with m so that
    (1+b)(1-m) holds to 50 digits; under "b-fixed" b stays put. Like r, the
    slopes share nothing with the package's factor table.
    """
    h = Decimal("1e-20")
    with localcontext(CTX):
        m, M, b = _d(params.m), _d(params.M), _d(params.b)

        def r(dm: Decimal, dM: Decimal) -> Decimal:
            b_new = (ONE + b) * (ONE - m) / (ONE - m - dm) - ONE if regime == "n-fixed" else b
            point = SimpleNamespace(**{**vars(params), "m": m + dm, "M": M + dM, "b": b_new})
            return _ratios(kind, point)[0]

        zero = Decimal(0)
        return (r(zero, h) - r(zero, -h)) / (2 * h), (r(h, zero) - r(-h, zero)) / (2 * h)


def exact_weight_ratios(kind: str, params, length: int) -> List[Decimal]:
    """w_{t+1} / w_t over the first ``length`` weights, skipping the weights that are 0.

    w_t = pref r**t (1 - q**(t+1)) is the weight of u(c_t), with _ratios' r
    and pref; the modifier, q = 1/(1+b), is social welfare's alone. The
    weights share nothing with the package's factor table.
    """
    with localcontext(CTX):
        r, pref = _ratios(kind, params)
        q = ONE / (ONE + _d(params.b)) if kind == "social_welfare" else Decimal(0)
        w = [pref * r**t * (ONE - q ** (t + 1)) for t in range(length)]
        return [b / a for a, b in zip(w, w[1:]) if a]


def margin(kind: str, params, path, u) -> Decimal:
    """Distance of the binding convergence ratio from 1; finite iff positive."""
    with localcontext(CTX):
        r, _ = _ratios(kind, params)
        gamma = _growth(path, u)
        worst = r if gamma is None or gamma <= ONE else r * gamma
        return ONE - worst


def exact(kind: str, params, path, u) -> Optional[Decimal]:
    """The exact value of the functional, or None when it diverges.

    The difference of the two sums cancels to about 1 - q, which is b for
    social welfare and m for the n = 0 form; the context gains that many
    decimal places, so the 50 digits survive a birth rate of 1e-300.
    """
    if margin(kind, params, path, u) <= 0:
        return None
    small = {"social_welfare": params.b, "n0_form": params.m}.get(kind)
    with localcontext(CTX) as ctx:
        if small:
            ctx.prec += max(0, -_d(small).adjusted())
        r, pref = _ratios(kind, params)
        if kind == "social_welfare":
            q = ONE / (ONE + _d(params.b))
        elif kind == "n0_form":
            q = ONE - _d(params.m)
        else:
            return _path_sum(r, path, u)
        return pref * (_path_sum(r, path, u) - q * _path_sum(r * q, path, u))


def _tail_utilities(path, u) -> Iterator[Decimal]:
    """u(c_{p-1+k}) for k = 1, 2, ...: c_{p-1} g**k with g = 1 on a constant tail."""
    c = _d(path.prefix[-1])
    g = ONE if path.tail == "constant" else _d(path.ratio)
    if u.family == "log":
        log_c, log_g = c.ln(), g.ln()
        yield from (log_c + k * log_g for k in count(1))
        return
    s1 = ONE if u.family == "linear" else ONE - _d(u.sigma)
    x, gs = c ** s1, g ** s1
    while True:
        x *= gs
        yield x if u.family == "linear" else (x - ONE) / s1


def _utilities(path, u) -> Iterator[Decimal]:
    """u(c_t) for t = 0, 1, ...: the prefix, then the tail."""
    yield from (_utility(u, _d(c)) for c in path.prefix)
    yield from _tail_utilities(path, u)


def _windows(params, path, u) -> Iterator[Tuple[Decimal, Decimal]]:
    """(W(0, T), the same window of |u(c_t)|) for T = 0, 1, ..., in the caller's context.

    W(0, T) = sum_{t<=T} N_t sum_{t<=tau<=T} (1-m)**(tau-t) u(c_tau) with
    N_t = N0 ((1+b)(1-m))**t. Each window is built from the previous one,
    W(0, T) = W(0, T-1) + u(c_T) F_T, where F_T = (1-m) F_{T-1} + N_T is the
    weight of u(c_T) in every window that reaches T. Any b >= 0.
    """
    m, b, N = _d(params.m), _d(params.b), _d(params.N0)
    growth = (ONE + b) * (ONE - m)
    window = window_size = F = Decimal(0)
    for ut in _utilities(path, u):
        F = (ONE - m) * F + N
        window += ut * F
        window_size += abs(ut) * F
        N *= growth
        yield window, window_size


def exact_window(params, T: int, path, u) -> Decimal:
    """W(0, T) from its definition (_windows), any b >= 0 and either tail rule."""
    with localcontext(CTX):
        return next(islice(_windows(params, path, u), T, None))[0]


def exact_known(params, T: int, path, u) -> Decimal:
    """The known-date sum sum_{t<=T} (1-m)**t u(c_t), one term at a time."""
    with localcontext(CTX):
        r, _ = _ratios("known_extinction", params)
        total, rt = Decimal(0), ONE
        for ut in islice(_utilities(path, u), T + 1):
            total += rt * ut
            rt *= r
        return total


class Mixture(NamedTuple):
    value: Decimal  # sum_{T <= last} P_X(T) W(0, T)
    bound: Decimal  # on |EW - value|: the dates after last
    last: int


MIXTURE_TOLERANCE = Decimal("1e-30")  # truncation bound over the mixture of |u| windows


@functools.lru_cache(maxsize=None)  # the tests ask for each point more than once
def exact_mixture(params, path, u, last: Optional[int] = None) -> Mixture:
    """EW = sum_T P_X(T) W(0, T) from its definition, one extinction date at a time.

    The windows are _windows', with F_T the weight of u(c_T) in each, and
    P_X(T) = M (1-M)**T. The dates after T add at most
      (1-M)**(T+1) sum_{t<=T} |u(c_t)| F_t + N0 (1+b)/b |u(c_last)| rho**(T+1) / (1-rho)
    with rho = (1-M)(1+n), since F_t <= N0 (1+b)/b (1+n)**t and u(c_t) =
    u(c_last) past the prefix of a constant tail. The sum stops at the first
    date past the prefix whose bound is at most MIXTURE_TOLERANCE times the
    mixture of the |u| windows, or at ``last`` when it is given. The sum adds
    no cancellation, so its own rounding stays near 1e-45 relative for the
    tens of thousands of dates it takes at M = 0.002.
    """
    p = path.prefix_len
    if path.tail != "constant":
        raise ValueError("the mixture's tail bound needs a constant tail")
    if last is not None and last < p - 1:
        raise ValueError(f"last must reach the end of the prefix, date {p - 1}")
    with localcontext(CTX):
        m, M, b, N = (_d(x) for x in (params.m, params.M, params.b, params.N0))
        growth, survival = (ONE + b) * (ONE - m), ONE - M
        rho = survival * growth
        if not (M > 0 and b > 0 and rho < ONE):
            raise ValueError("the mixture needs M > 0, b > 0 and (1-M)(1+n) < 1")
        # times N_{T+1} (1-M)**(T+1) = N0 rho**(T+1), the second part of the bound
        tail = (ONE + b) / b * abs(_utility(u, _d(path.prefix[-1]))) / (ONE - rho)
        total = size = Decimal(0)
        S = ONE  # (1-M)**T; N is N0 (1+n)**T
        for T, (window, window_size) in enumerate(_windows(params, path, u)):
            P = M * S
            total += P * window
            size += P * window_size
            N *= growth
            S *= survival
            if T < p - 1:
                continue
            bound = S * (window_size + tail * N)
            if T == last or (last is None and bound <= MIXTURE_TOLERANCE * size):
                return Mixture(total, bound, T)
