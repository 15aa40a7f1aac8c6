"""Monte Carlo verification of the analytic functionals, plus an agent-based mode.

Smoothed-mode estimators average the realized discounted sum over the random
date that ends it, read from a cumulative table per case. ``_date`` is the
one table of that date: the individual case ends at its death date D, every
other case at the extinction date T, and it gives the date's stream tag,
hazard, survival and weight growth; ``_estimates`` and ``_verdict`` (the
variance check) read it. A stream is one ``SeedSequence([seed, stream_tag])``
generator that draws the histogram of its dates up to its horizon cap and
ends it at the last date drawn (``_date_counts``): the well-filled early
dates in one multinomial draw, the sparse tail as shifted geometric dates.
Every extinction-date case of one parameter point shares one stream of T, so
a point costs two streams, each drawn and clipped once, with u(c_t) evaluated
once and its tables built over the drawn dates. Estimates are bit-for-bit
reproducible from (seed, config). ``mc_compare``, the one public spelling of
the comparison, walks the passes of the array core (``series._passes``)
and sets each case's closed form beside its estimate over a grid; smoothed
``simulate`` and ``verify_oracle_grid`` (``verify``) each write one call of
it. The one-case wrappers (``mc_eu_individual`` and its siblings) sample one
row the same way, rejecting as the core does.

The agent-based mode keeps an integer population with Bernoulli deaths and
stochastic births per survivor, and quantifies the error of the smooth
population approximation as a function of the starting head count. All head
counts share one offspring stream and one histogram of extinction dates, drawn
by the sampler of smoothed mode. Both modes draw a stream only once u(c_t) is
finite at every date to its cap (``_check_u_to_cap``, decided before any draw).
"""

from __future__ import annotations

import collections.abc
import math
import numbers
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import (
    ConsumptionPath,
    DegenerateHazardError,
    HazardParams,
    NoExtinctionError,
    UtilitySpec,
    _check_int,
    sample_date_counts,
)
from .series import (
    DEFAULT_TOLERANCE,
    DYNASTY,
    DYNASTY_THETA,
    INDIVIDUAL,
    LINEAGE,
    SOCIAL_WELFARE,
    Scenario,
    _batch,
    _columns,
    _Failures,
    _evaluate_rows,
    _passes,
    _preconditions,
    _tail_terms,
    _welfare_prefactor,
    _window_terms,
)

__all__ = [
    "SimulationConfig",
    "SimEstimate",
    "SmoothingGapRow",
    "VERIFY_GRID",
    "VERIFY_PATH",
    "VERIFY_UTILITY",
    "default_horizon_cap",
    "mc_eu_individual",
    "mc_ev_dynasty",
    "mc_eg_lineage",
    "mc_ew_social",
    "mc_compare",
    "abm_smoothing_study",
    "verify_oracle_grid",
    "reproducibility_selfcheck",
]

_CAP_LIMIT = 1 << 21
_INT64_MAX = 2**63 - 1  # the largest head count agent mode holds, and replication count
# stream tags: death dates, extinction dates (shared by every extinction-date case), then
# agent dates and offspring, one stream each for all head counts; 3, 4 retired, never reused
_TAG_EU, _TAG_EV, _TAG_ABM_T, _TAG_ABM = 1, 2, 5, 6
_VERIFY_SEED_STEP = 1_000_003  # verify_oracle_grid seeds point i with seed + step * i


@dataclass(frozen=True)
class SimulationConfig:
    """Run description: replication count, master seed, horizon cap, mode.

    horizon_cap=None derives the smallest cap H with survival**H < 1e-12 for
    the sampled date (``cap``); draws beyond the cap are clipped and their
    frequency reported as truncated_mass, never silently dropped. A cap,
    given or derived, is at most 2**21 dates: a table or histogram of that
    many dates is 16 MB, and a larger given cap is rejected here, before any
    array is allocated.
    """

    replications: int = 1_000_000
    seed: int = 0
    horizon_cap: Optional[int] = None
    mode: str = "smoothed"
    offspring_law: str = "poisson"

    def __post_init__(self) -> None:
        _check_int("replications", self.replications, 1)
        if self.replications > _INT64_MAX:
            raise ValueError(f"replications must be at most 2**63 - 1, got {self.replications!r}")
        _check_int("seed", self.seed, 0)
        if self.seed >= 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.horizon_cap is not None:
            _check_int("horizon_cap", self.horizon_cap, 1)
            if self.horizon_cap > _CAP_LIMIT:
                raise ValueError(f"horizon_cap must be at most 2**21 = {_CAP_LIMIT}, "
                                 f"got {self.horizon_cap!r}")
        if self.mode not in ("smoothed", "agent"):
            raise ValueError(f"mode must be 'smoothed' or 'agent', got {self.mode!r}")
        if self.offspring_law not in ("poisson", "bernoulli-pair"):
            raise ValueError(f"unknown offspring law {self.offspring_law!r}")

    def cap(self, survival: float) -> int:
        """The horizon cap of a date that survives each period with this probability."""
        return self.horizon_cap or default_horizon_cap(survival)


@dataclass(frozen=True)
class SimEstimate:
    """Estimate with its standard error (sample std / sqrt(replications))."""

    mean: float
    standard_error: float
    replications: int
    truncated_mass: float


def default_horizon_cap(survival: float) -> int:
    """Smallest H with survival**H < 1e-12, clamped to a sane array size."""
    if survival <= 0.0:
        return 1
    if survival >= 1.0:
        return _CAP_LIMIT
    need = int(math.ceil(math.log(1e-12) / math.log(survival)))
    return int(min(max(need, 1), _CAP_LIMIT))


def _date(case: Scenario, params: HazardParams, growth: float) -> Tuple[int, float, float, float]:
    """(stream tag, hazard, survival, G) of the random date that ends the case's realized sum.

    The individual case ends at its death date D, drawn at the joint hazard
    and surviving (1-m)(1-M) per period, with G = 1: it sums u(c_t)
    unweighted. Every other case ends at the extinction date T, drawn at M
    and surviving 1-M, with G the row's ``_Batch.growth``.
    """
    if case.kind == "individual":
        return _TAG_EU, params.death_hazard, params.joint_survival, 1.0
    return _TAG_EV, params.M, 1.0 - params.M, growth


def _date_counts(tag: int, hazard: float, survival: float,
                 config: SimulationConfig) -> Tuple[np.ndarray, float]:
    """The histogram ``sample_date_counts`` draws on ``SeedSequence([seed, tag])`` over dates
    0..cap, cap = ``config.cap(survival)``, the draws past the cap counted at it, and their share;
    it ends at the last date drawn (the cap only when a draw was clipped).
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, tag]))
    counts = sample_date_counts(hazard, config.replications, config.cap(survival), rng)
    clipped = int(counts[-1])
    counts = counts[:-1]
    counts[-1] += clipped
    return counts[:np.flatnonzero(counts)[-1] + 1], clipped / config.replications


def _check_u_to_cap(path: ConsumptionPath, u: UtilitySpec, cap: int) -> None:
    """Raise ValueError unless u(c_t) is finite at every date 0..cap: past the prefix c_t never
    increases and u is increasing, so the prefix dates and the cap date decide it.
    """
    c = np.append(path.values(0, min(path.prefix_len, cap + 1)), path.values(cap, cap + 1))
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(u(c))):
            raise ValueError(f"{u.family} utility leaves float range by the horizon cap {cap}")


def _estimates(
    params: HazardParams, growths: Dict[Scenario, float], path: ConsumptionPath, u: UtilitySpec,
    config: SimulationConfig,
) -> Dict[Scenario, Union[SimEstimate, str]]:
    """Each case's estimate at its row growth, or why its stream could not be sampled.

    Per stream of the cases' ``_date`` that ``_check_u_to_cap`` passes,
    ``_date_counts`` draws the histogram once and u(c_t) is evaluated once over
    its drawn dates; each case then averages its table cum[t], its realized sum
    when the date is t, over them: the cumsum of G**t u(c_t) (social welfare:
    of the window terms of W(0, T)). The extinction-date cases share one stream
    (common random numbers), so their estimates are correlated, each equal to
    the one it gets alone. A stream it rejects draws nothing and gives its
    cases the ValueError's text. The caller has checked each stream's hazard
    and each case's expectation.
    """
    streams: Dict[Tuple[int, float, float], Dict[Scenario, float]] = {}
    for case, growth in growths.items():
        tag, hazard, survival, g = _date(case, params, growth)
        streams.setdefault((tag, hazard, survival), {})[case] = g
    total = config.replications
    out: Dict[Scenario, Union[SimEstimate, str]] = {}
    for (tag, hazard, survival), cases in streams.items():
        try:
            _check_u_to_cap(path, u, config.cap(survival))
        except ValueError as exc:
            out.update(dict.fromkeys(cases, str(exc)))
            continue
        counts, clipped = _date_counts(tag, hazard, survival, config)
        uu = u(path.values(0, len(counts)))
        # center on a drawn value, the median date's, so constant outcomes get SE exactly 0
        median = int(np.searchsorted(np.cumsum(counts), (total + 1) // 2))
        for case, g in cases.items():
            if case.kind == "social_welfare":
                cum = np.cumsum(_window_terms(_welfare_prefactor(params.N0, params.b), params, uu))
            else:
                cum = np.cumsum(np.power(g, np.arange(len(counts))) * uu)
            shift = float(cum[median])
            centered = cum - shift
            weighted = counts * centered
            mean_centered = float(np.sum(weighted)) / total
            if total > 1:
                sumsq = float(np.sum(weighted * centered))
                var = max(sumsq - total * mean_centered * mean_centered, 0.0) / (total - 1)
                se = math.sqrt(var / total)
            else:
                se = 0.0
            out[case] = SimEstimate(mean=shift + mean_centered, standard_error=se,
                                    replications=total, truncated_mass=clipped)
    return out


def _verdict(
    case: Scenario,
    params: HazardParams,
    growth: float,
    path: ConsumptionPath,
    u: UtilitySpec,
    est: SimEstimate,
    analytic: float,
) -> Tuple[float, bool, bool]:
    """(|mc - analytic|, within 3 SE + 1e-12, the SE is an error bar).

    The SE is an error bar only if the table's realized sum has finite variance:
    s (G gamma)**2 < 1, with s and G the survival and growth of the case's
    ``_date`` and gamma the largest growth of a tail term of u(c_t), 0 when
    the tail has none.
    """
    err = abs(est.mean - analytic)
    _, _, s, g = _date(case, params, growth)
    if s * g:  # else the realized sum ends at date 0, and a ratio-0 tail may have no terms
        g *= max((math.exp(t.log_growth) for t in _tail_terms(path, u)), default=0.0)
    return err, err <= 3.0 * est.standard_error + 1e-12, s * g * g < 1.0


def mc_compare(
    points: Sequence[HazardParams],
    cases: Sequence[Scenario],
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float,
    configs: Sequence[SimulationConfig],
) -> List[Dict[str, Any]]:
    """Each case's closed form beside its Monte Carlo estimate: one row per (point, case).

    Point i is sampled under configs[i], whatever points lie beside it. The
    analytic verdict is each row's status in its pass of the array core
    (``series._evaluate_rows``); the ok rows of a point are then sampled in one
    ``_estimates`` call, each at the growth of its own pass, and judged by
    ``_verdict``, unless its date is known ("deterministic (no sampling)") or
    its stream's u(c_t) leaves float range at a date 0..cap: c_t underflowing
    to 0, or a CRRA u(c_t) overflowing ("ok: not sampled: <reason>", decided by
    ``_check_u_to_cap`` before any draw, as in agent mode, so whatever the
    draws). A sampled row without finite variance reads "ok: infinite
    variance, mc_se is not an error bar". No row builds a batch of its own.
    """
    if len(points) != len(configs):
        raise ValueError(f"one SimulationConfig per point: {len(configs)} for {len(points)} points")
    config_of = iter(configs)
    rows: List[Dict[str, Any]] = []
    for run in _passes(points, len(cases), path.prefix_len):
        batch = _batch(_columns(run), cases)
        results = _evaluate_rows(batch, path, u, tol)
        growth, status, k = batch.growth.tolist(), results.status, len(cases)
        for j, params in enumerate(run):
            config = next(config_of)
            sampled = []
            for i, case in enumerate(cases, start=j * k):
                row = {**params.cells(), "case": case.label(), "replications": config.replications,
                       "analytic": results.value[i], "mc_mean": None, "mc_se": None,
                       "abs_error": None, "within_3se": None, "truncated_mass": None,
                       "status": status[i]}
                if status[i] == "ok" and case.kind == "known_extinction":
                    row["status"] = "deterministic (no sampling)"
                elif status[i] == "ok":
                    sampled.append((case, growth[i], row))
                rows.append(row)
            ests = _estimates(params, {case: g for case, g, _ in sampled}, path, u, config)
            for case, g, row in sampled:
                est = ests[case]
                if isinstance(est, str):
                    row["status"] = f"ok: not sampled: {est}"
                    continue
                err, within, finite_variance = _verdict(case, params, g, path, u, est,
                                                        row["analytic"])
                row.update(mc_mean=est.mean, mc_se=est.standard_error, abs_error=err,
                           within_3se=within, truncated_mass=est.truncated_mass)
                if not finite_variance:
                    row["status"] = "ok: infinite variance, mc_se is not an error bar"
    return rows


def _mc_one(
    case: Scenario,
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    config: SimulationConfig,
) -> SimEstimate:
    """One case's estimate at one point; raises on no date to sample, else as _preconditions."""
    if case.kind == "individual" and params.is_degenerate:
        raise DegenerateHazardError("m = M = 0: lifetimes are infinite")
    if case.kind == "known_extinction":
        raise ValueError(f"{case.label()} is deterministic: there is no date to sample")
    rows = _batch(_columns([params]), [case])
    fails = _Failures(1)
    _preconditions(rows, fails)
    if fails.exc:
        raise fails.error(0)
    est = _estimates(params, {case: float(rows.growth[0])}, path, u, config)[case]
    if isinstance(est, str):
        raise ValueError(est)
    return est


def mc_eu_individual(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    config: SimulationConfig,
) -> SimEstimate:
    """Sample the death date D and average u(c_0) + ... + u(c_D).

    Unbiased for eu_individual but for the dates drawn past the horizon cap and
    counted at it; truncated_mass is their share of draws, not the bias.
    """
    return _mc_one(INDIVIDUAL, params, path, u, config)


def mc_ev_dynasty(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    theta: Optional[float],
    config: SimulationConfig,
) -> SimEstimate:
    """Estimate dynasty utility: T ~ extinction law, inner sum weights (1+n)**(theta t).

    theta defaults to params.theta; theta = 1 targets ev_dynasty. Smoothed
    mode: the dynasty path conditional on T is deterministic.
    """
    th = params.theta if theta is None else theta
    return _mc_one(DYNASTY_THETA, replace(params, theta=th), path, u, config)


def mc_eg_lineage(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    config: SimulationConfig,
) -> SimEstimate:
    """Estimate lineage utility: inner sum weights ((1+b)**alpha (1-m))**t."""
    return _mc_one(LINEAGE, params, path, u, config)


def mc_ew_social(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    config: SimulationConfig,
) -> SimEstimate:
    """Estimate social welfare: T ~ extinction law, value W(0, T)."""
    return _mc_one(SOCIAL_WELFARE, params, path, u, config)


# --- agent-based mode --------------------------------------------------------


def _offspring(
    rng: np.random.Generator, survivors: np.ndarray, b: float, law: str
) -> np.ndarray:
    """Births per survivor count, held at 2**63 - 1; the study checked bernoulli-pair's b <= 2."""
    if law == "poisson":
        try:
            return rng.poisson(b * survivors)
        except ValueError:  # numpy draws no mean within 10 sd of 2**63: the largest count passes it
            return np.where(survivors == survivors.max(), _INT64_MAX, 0)
    pairs = rng.binomial(survivors, b / 2.0)
    return np.where(pairs > _INT64_MAX // 2, _INT64_MAX, 2 * pairs)


@dataclass(frozen=True)
class SmoothingGapRow:
    """Smooth-population approximation error at one starting head count.

    A run's realized welfare is its population path weighted by per-capita
    expected remaining utility, sum_t N_t sum_{tau=t..T} (1-m)**(tau-t) u(c_tau):
    the integer-population counterpart of the smoothed window W(0, T).
    mean_abs_gap averages, over runs sharing extinction-date draws across head
    counts, |per-capita realized welfare - per-capita smoothed W(0, T_run)|;
    welfare_gap_se is the standard error of the mean signed gap.
    """

    n0: int
    runs: int
    mean_abs_gap: float
    die_off_frequency: float
    mean_welfare_per_capita: float
    smoothed_mean_per_capita: float
    cap_hit_fraction: float
    welfare_gap_se: float


def _check_head_counts(n0_values: Any) -> None:
    """Agent mode's head counts, which int64 holds: a non-empty sequence or numpy array of
    integers in [1, 2**63 - 1], else ValueError.
    """
    if not (isinstance(n0_values, (collections.abc.Sequence, np.ndarray)) and len(n0_values)
            and all(not isinstance(n0, bool) and isinstance(n0, numbers.Integral)
                    and 1 <= n0 <= _INT64_MAX for n0 in n0_values)):
        raise ValueError("head counts must be a non-empty list of positive integers below 2**63")


def abm_smoothing_study(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    n0_values: Sequence[int],
    config: SimulationConfig,
) -> List[SmoothingGapRow]:
    """Quantify the smooth-population approximation across starting head counts.

    Each run keeps an integer population: per period the survivors are
    Binomial(N_t, 1-m) and births follow the configured offspring law per
    survivor, until the run's extinction date T, so a small population can die
    off before T. The dates are the histogram ``_date_counts`` draws on stream
    tag 5 at survival 1 - M, and cap_hit_fraction is its clipped share. They
    are shared by every head count (common random numbers), so the rows differ
    only through integer-population noise, which shrinks as 1/sqrt(n0). All
    head counts advance together on one offspring stream, so a row depends on
    the whole n0_values list. A population that passes 2**63 - 1, int64's
    largest value, raises ValueError naming its n0 and the period.

    Before any draw the study rejects, in this order: b = 0 or a per-capita
    window prefactor (1+b)/b past float range with social welfare's messages
    (the smoothed window divides by b), b > 2 under bernoulli-pair, head
    counts outside ``_check_head_counts`` (the rule the CLI's config check
    shares), M = 0, and u(c_t) past float range at any date to the cap
    (``_check_u_to_cap``, smoothed mode's not-sampled rule).
    """
    pref = _welfare_prefactor(1.0, params.b)
    if config.offspring_law == "bernoulli-pair" and params.b > 2.0:
        raise ValueError("bernoulli-pair needs b <= 2 (pair probability b/2)")
    _check_head_counts(n0_values)
    if params.M <= 0.0:
        raise NoExtinctionError("the study mixes over extinction dates; needs M > 0")
    _check_u_to_cap(path, u, config.cap(1.0 - params.M))
    reps = config.replications
    counts, hit_frac = _date_counts(_TAG_ABM_T, params.M, 1.0 - params.M, config)
    live = reps - np.concatenate(([0], np.cumsum(counts)))  # runs with T >= t, t = 0..len(counts)
    uu = u(path.values(0, len(counts)))
    smooth_cum = np.cumsum(_window_terms(pref, params, uu))
    n0s = np.array([int(n0) for n0 in n0_values], dtype=np.int64)
    shape = (len(n0s), reps)
    n = np.repeat(n0s[:, None], reps, axis=1)
    f, welfare = np.zeros(shape), np.zeros(shape)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _TAG_ABM]))
    # Runs are sorted by date, latest first, so the runs alive at t are the prefix
    # [:live[t]] and those that see t+1 the prefix [:live[t+1]]. F_t = (1-m) F_{t-1}
    # + N_t and welfare += u_t F_t; then deaths and births, one draw each, until every
    # moving count is 0: zero is absorbing, so later draws could only return 0.
    drawing = True
    for t in range(len(counts)):
        alive, moving = live[t], live[t + 1]
        fv = f[:, :alive]
        fv *= 1.0 - params.m
        fv += n[:, :alive]
        welfare[:, :alive] += uu[t] * fv
        if moving and drawing:
            nv = n[:, :moving]
            survivors = rng.binomial(nv, 1.0 - params.m)
            np.add(survivors, _offspring(rng, survivors, params.b, config.offspring_law), out=nv)
            if nv.min() < 0:  # both terms lie in [0, 2**63 - 1], so a sum past it wraps negative
                n0 = n0s[np.any(nv < 0, axis=1)][0]
                raise ValueError(f"the head count from n0={n0} outgrows int64 at period {t + 1}")
            drawing = np.count_nonzero(nv) > 0
    # zero is absorbing and a count is frozen after its run's date: a run died off iff it ends at 0
    percap = welfare / n0s[:, None]
    gap = percap - np.repeat(smooth_cum[::-1], counts[::-1])
    smooth_mean = counts @ smooth_cum / reps
    gap_se = np.std(gap, axis=1, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros(len(n0s))
    return [
        SmoothingGapRow(
            n0=int(n0),
            runs=reps,
            mean_abs_gap=float(np.mean(np.abs(gap[i]))),
            die_off_frequency=float(np.mean(n[i] == 0)),
            mean_welfare_per_capita=float(np.mean(percap[i])),
            smoothed_mean_per_capita=float(smooth_mean),
            cap_hit_fraction=hit_frac,
            welfare_gap_se=float(gap_se[i]),
        )
        for i, n0 in enumerate(n0s)
    ]


# --- the analytic-vs-Monte-Carlo verification grid ---------------------------

VERIFY_GRID: Tuple[HazardParams, ...] = (
    HazardParams(m=0.02, M=0.01, b=0.02 / 0.98, theta=1.0, alpha=0.5),
    HazardParams(m=0.02, M=0.01, b=0.025, theta=0.5, alpha=0.5),
    HazardParams(m=0.10, M=0.05, b=0.05, theta=0.3, alpha=0.25),
    HazardParams(m=0.005, M=0.002, b=0.004, theta=1.0, alpha=0.9),
    HazardParams(m=0.30, M=0.20, b=0.5, theta=0.8, alpha=0.75),
    HazardParams(m=0.05, M=0.10, b=0.02, theta=0.0, alpha=0.5),
    HazardParams(m=0.02, M=0.20, b=0.1, theta=0.6, alpha=0.33),
    HazardParams(m=0.25, M=0.004, b=0.2, theta=0.9, alpha=0.6),
    HazardParams(m=0.004, M=0.05, b=0.02, theta=0.4, alpha=0.8),
    HazardParams(m=0.12, M=0.03, b=0.12 / 0.88, theta=0.2, alpha=0.15),
    HazardParams(m=0.08, M=0.008, b=0.04, theta=0.7, alpha=0.45),
    HazardParams(m=0.50, M=0.30, b=0.8, theta=1.0, alpha=0.95),
)
# Every point satisfies (1-M)(1+n)**2 < 1 (and the theta/alpha analogues), so the per-draw
# sums have finite variance and +-3 SE comparisons are sound; the dynasty and social-welfare
# rows at points 1 and 6 have no finite third moment (s G**3 = 1.0034 and 1.0022), so their
# normal approximation is skewed there.

VERIFY_PATH = ConsumptionPath(prefix=(0.8, 1.1, 1.25, 1.18, 1.3), tail="constant")
VERIFY_UTILITY = UtilitySpec.log()


_VERIFY_FUNCTIONALS = (
    (INDIVIDUAL, "eu_individual"),
    (DYNASTY, "ev_dynasty"),
    (DYNASTY_THETA, "ev_dynasty_theta"),
    (LINEAGE, "eg_lineage"),
    (SOCIAL_WELFARE, "ew_social"),
)


def verify_oracle_grid(
    replications: int = 1_000_000,
    seed: int = 20240613,
    points: Sequence[HazardParams] = VERIFY_GRID,
) -> List[Dict[str, Any]]:
    """Compare every analytic functional with its Monte Carlo estimate per grid point.

    The rows ``verify`` writes, from one ``mc_compare`` call on VERIFY_PATH and
    VERIFY_UTILITY with seed seed + 1000003 i at point i. A row is ok when its
    status is "ok" (every VERIFY_GRID point has a finite variance) and
    |mc - analytic| <= 3 SE. About 1 in 370 comparisons of a correct program
    lands outside +-3 SE, and the four extinction-date rows of one point
    average over the same draws of T, so their failures come in clusters.
    Two rules read the rows: ``verify --strict`` exits 4 on any row that is
    not ok, and the acceptance suite's Monte Carlo criterion tolerates one.
    Over 2,000 seeds (1000 + 7919 s, s < 2000) at 2e5 replications a correct
    program failed the first at 9.3 % of seeds (95 % interval 8.1-10.7 %)
    and the second at 3.9 % (3.1-4.8 %).
    """
    configs = [SimulationConfig(replications=replications, seed=seed + _VERIFY_SEED_STEP * i)
               for i in range(len(points))]
    k = len(_VERIFY_FUNCTIONALS)
    compared = mc_compare(points, [case for case, _ in _VERIFY_FUNCTIONALS], VERIFY_PATH,
                          VERIFY_UTILITY, DEFAULT_TOLERANCE, configs)
    return [{"functional": name, "point": i, **params.cells(population=False),
             **{key: r[key] for key in ("analytic", "mc_mean", "mc_se", "abs_error")},
             "ok": r["status"] == "ok" and r["within_3se"],
             "truncated_mass": r["truncated_mass"]}
            for i, params in enumerate(points)
            for (_, name), r in zip(_VERIFY_FUNCTIONALS, compared[k * i : k * (i + 1)])]


def reproducibility_selfcheck() -> bool:
    """Run one estimator twice with the same seed; True when bit-identical."""
    args = (VERIFY_GRID[0], VERIFY_PATH, VERIFY_UTILITY,
            SimulationConfig(replications=50_000, seed=97))
    return mc_eu_individual(*args) == mc_eu_individual(*args)
