"""Monte Carlo verification of the analytic functionals, plus an agent-based mode.

Smoothed-mode estimators average the realized discounted sum over the random
date (death date D or extinction date T), read from a cumulative table per
case (``mc_table``). Every extinction-date case of one parameter point shares
one stream of T (``mc_estimates``), so a point costs two streams. A stream is
one ``SeedSequence([seed, stream_tag])`` generator that draws the histogram of
its dates (``sample_date_counts``): each well-filled early date as one binomial
count, the sparse tail as shifted geometric dates. Estimates are bit-for-bit
reproducible from (seed, config). ``mc_compare`` sets each case's closed form
beside its estimate; it is the one comparison that smoothed ``simulate`` and
``verify_oracle_grid`` (``verify``) write.

The agent-based mode keeps an integer population with Bernoulli deaths and
stochastic births per survivor, and quantifies the error of the smooth
population approximation as a function of the starting head count. All head
counts share one offspring stream and one histogram of extinction dates, drawn
by the sampler of smoothed mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    ConsumptionPath,
    DegenerateHazardError,
    DivergenceError,
    HazardParams,
    NoExtinctionError,
    UtilitySpec,
    _check_int,
    sample_date_counts,
)
from .analysis import SweepRow, scenario_sweep
from .series import (
    DEFAULT_TOLERANCE,
    DYNASTY,
    DYNASTY_THETA,
    INDIVIDUAL,
    LINEAGE,
    SOCIAL_WELFARE,
    Scenario,
    _finite,
    _tail_terms,
    factor_pieces,
    welfare_window_terms,
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
    "mc_table",
    "mc_estimates",
    "mc_verdict",
    "mc_compare",
    "abm_smoothing_study",
    "verify_oracle_grid",
    "reproducibility_selfcheck",
]

_CAP_LIMIT = 1 << 21
# stream tags: death dates, extinction dates (shared by every extinction-date case), then
# agent dates and offspring, one stream each for all head counts; 3, 4 retired, never reused
_TAG_EU, _TAG_EV, _TAG_ABM_T, _TAG_ABM = 1, 2, 5, 6
_VERIFY_SEED_STEP = 1_000_003  # verify_oracle_grid seeds point i with seed + step * i


@dataclass(frozen=True)
class SimulationConfig:
    """Run description: replication count, master seed, horizon cap, mode.

    horizon_cap=None derives the smallest cap H with survival**H < 1e-12 for
    the sampled date; draws beyond the cap are clipped and their frequency
    reported as truncated_mass, never silently dropped.
    """

    replications: int = 1_000_000
    seed: int = 0
    horizon_cap: Optional[int] = None
    mode: str = "smoothed"
    offspring_law: str = "poisson"

    def __post_init__(self) -> None:
        _check_int("replications", self.replications, 1)
        _check_int("seed", self.seed, 0)
        if self.seed >= 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.horizon_cap is not None:
            _check_int("horizon_cap", self.horizon_cap, 1)
        if self.mode not in ("smoothed", "agent"):
            raise ValueError(f"mode must be 'smoothed' or 'agent', got {self.mode!r}")
        if self.offspring_law not in ("poisson", "bernoulli-pair"):
            raise ValueError(f"unknown offspring law {self.offspring_law!r}")


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


def _estimate_from_dates(
    config: SimulationConfig,
    tag: int,
    hazard: float,
    tables: Sequence[np.ndarray],
) -> List[SimEstimate]:
    """Average every table's cum[min(date, cap)] over one stream of geometric dates.

    ``sample_date_counts`` on ``SeedSequence([seed, tag])`` draws the counts per
    date 0..cap+1 (dense bins as binomials, the sparse tail as shifted
    geometrics), the last bin holding the dates beyond the cap. All tables
    must share one cap: len(table) = cap + 1.
    """
    cap = len(tables[0]) - 1
    total = config.replications
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, tag]))
    counts = sample_date_counts(hazard, total, cap, rng)
    truncated = int(counts[-1])
    counts = counts[:-1]
    counts[-1] += truncated  # clipped draws take the value at the cap
    weights = counts.astype(float)
    # center on a drawn value, the median date's, so constant outcomes get SE exactly 0
    median = int(np.searchsorted(np.cumsum(counts), (total + 1) // 2))
    estimates = []
    for cum in tables:
        if len(cum) != cap + 1:
            raise ValueError("tables sharing one stream must share one horizon cap")
        shift = float(cum[median])
        centered = cum - shift
        weighted = weights * centered
        mean_centered = float(np.sum(weighted)) / total
        if total > 1:
            sumsq = float(np.sum(weighted * centered))
            var = max(sumsq - total * mean_centered * mean_centered, 0.0) / (total - 1)
            se = math.sqrt(var / total)
        else:
            se = 0.0
        estimates.append(
            SimEstimate(
                mean=shift + mean_centered,
                standard_error=se,
                replications=total,
                truncated_mass=truncated / total,
            )
        )
    return estimates


def mc_table(
    case: Scenario,
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    config: SimulationConfig,
) -> np.ndarray:
    """Cumulative table cum[t], t = 0..cap: the case's realized sum when its date is t.

    The individual case samples the death date D, capped from the joint
    survival; every other case samples the extinction date T, capped from
    1 - M, and sums base**t u(c_t) (social welfare: the window terms of
    W(0, T), which grow like (1+n)**t). Raises when there is nothing to
    sample or the expectation is infinite.
    """
    if case.kind == "individual":
        if params.is_degenerate:
            raise DegenerateHazardError("m = M = 0: lifetimes are infinite")
        cap = config.horizon_cap or default_horizon_cap(params.joint_survival)
        return np.cumsum(np.asarray(u(path.values(0, cap + 1)), dtype=float))
    if case.kind == "social_welfare" and params.b <= 0.0:
        raise ValueError("social welfare needs b > 0")
    if case.kind == "known_extinction":
        raise ValueError(f"{case.label()} is deterministic: there is no date to sample")
    pieces = factor_pieces(case, params)
    base = math.prod(pieces[1:])  # the growth (1+b)**eb (1-m)**em
    if params.M <= 0.0:
        raise NoExtinctionError("M = 0: there is no extinction date to sample")
    if not _finite(case.kind, math.prod(pieces)):  # evaluate passing implies this does
        raise DivergenceError(f"(1-M) * {base:.6g} >= 1: the expectation is infinite")
    cap = config.horizon_cap or default_horizon_cap(1.0 - params.M)
    if case.kind == "social_welfare":
        return np.cumsum(welfare_window_terms(params, path, u, cap + 1))
    uu = np.asarray(u(path.values(0, cap + 1)), dtype=float)
    return np.cumsum(np.power(base, np.arange(cap + 1)) * uu)


def mc_estimates(
    params: HazardParams,
    tables: Dict[Scenario, np.ndarray],
    config: SimulationConfig,
) -> Dict[Scenario, SimEstimate]:
    """Estimate every case from its ``mc_table`` with two streams of draws.

    The individual case averages over death dates; all other cases average
    over one shared stream of extinction dates (common random numbers), so
    their estimates are correlated. Each estimate equals the one a batch of
    that case alone gives.
    """
    deaths = [c for c in tables if c.kind == "individual"]
    extinctions = [c for c in tables if c.kind != "individual"]
    if deaths and params.is_degenerate:
        raise DegenerateHazardError("m = M = 0: lifetimes are infinite")
    if extinctions and params.M <= 0.0:
        raise NoExtinctionError("M = 0: the extinction date is never drawn")
    out: Dict[Scenario, SimEstimate] = {}
    for tag, hazard, cases in ((_TAG_EU, params.death_hazard, deaths),
                               (_TAG_EV, params.M, extinctions)):
        if cases:
            ests = _estimate_from_dates(config, tag, hazard, [tables[c] for c in cases])
            out.update(zip(cases, ests))
    return out


def mc_verdict(
    case: Scenario,
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    est: SimEstimate,
    analytic: float,
) -> Tuple[float, bool, bool]:
    """(|mc - analytic|, within 3 SE + 1e-12, the SE is an error bar).

    The SE is an error bar only if the table's realized sum has finite variance:
    s (G gamma)**2 < 1, with s the survival of the sampled date per period, G
    mc_table's growth of the weights (1 for the individual case) and gamma
    the largest growth of a tail term of u(c_t), 0 when the tail has none.
    """
    err = abs(est.mean - analytic)
    if case.kind == "individual":
        s, g = params.joint_survival, 1.0
    else:
        s, g = 1.0 - params.M, math.prod(factor_pieces(case, params)[1:])
    if s * g:  # else the realized sum ends at date 0, and a ratio-0 tail may have no terms
        g *= max((math.exp(t.log_growth) for t in _tail_terms(path, u)), default=0.0)
    return err, err <= 3.0 * est.standard_error + 1e-12, s * g * g < 1.0


def mc_compare(
    params: HazardParams,
    cases: Sequence[Scenario],
    path: ConsumptionPath,
    u: UtilitySpec,
    tol: float,
    config: SimulationConfig,
) -> List[Dict[str, Any]]:
    """Each case's closed form beside its Monte Carlo estimate: one row per case.

    The rows are those smoothed ``simulate`` writes. The analytic verdict is
    ``scenario_sweep``'s status; an ok row is then sampled with ``mc_table`` and
    ``mc_estimates`` and judged by ``mc_verdict``, unless its date is known
    ("deterministic (no sampling)") or its table cannot be built ("ok: not
    sampled: <reason>": the closed form can hold where the sampled c_t
    underflow). A sampled row without finite variance reads "ok: infinite
    variance, mc_se is not an error bar".
    """
    return _compare(params, scenario_sweep([params], cases, path, u, tol), path, u, config)


def _compare(
    params: HazardParams,
    swept: Sequence[SweepRow],
    path: ConsumptionPath,
    u: UtilitySpec,
    config: SimulationConfig,
) -> List[Dict[str, Any]]:
    """mc_compare's rows from the point's scenario_sweep rows."""
    rows, tables, sampled = [], {}, []
    for sr in swept:
        row = {**params.cells(), "case": sr.case.label(), "replications": config.replications,
               "analytic": None if sr.series is None else sr.series.value,
               "mc_mean": None, "mc_se": None, "abs_error": None, "within_3se": None,
               "truncated_mass": None, "status": sr.status}
        if sr.status == "ok" and sr.case.kind == "known_extinction":
            row["status"] = "deterministic (no sampling)"
        elif sr.status == "ok":
            try:
                tables[sr.case] = mc_table(sr.case, params, path, u, config)
            except ValueError as exc:
                row["status"] = f"ok: not sampled: {exc}"
            else:
                sampled.append((sr.case, row))
        rows.append(row)
    ests = mc_estimates(params, tables, config)
    for case, row in sampled:
        est = ests[case]
        err, within, finite_variance = mc_verdict(case, params, path, u, est, row["analytic"])
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
    return mc_estimates(params, {case: mc_table(case, params, path, u, config)}, config)[case]


def mc_eu_individual(
    params: HazardParams,
    path: ConsumptionPath,
    u: UtilitySpec,
    config: SimulationConfig,
) -> SimEstimate:
    """Sample the death date D and average u(c_0) + ... + u(c_D).

    Unbiased for eu_individual up to the horizon-cap clipping reported in
    truncated_mass.
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
    if law == "poisson":
        return rng.poisson(b * survivors)
    if b > 2.0:
        raise ValueError("bernoulli-pair needs b <= 2 (pair probability b/2)")
    return 2 * rng.binomial(survivors, b / 2.0)


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
    off before T. The dates are the histogram ``sample_date_counts`` draws on
    ``SeedSequence([seed, 5])``, clipped at the horizon cap, and are shared by
    every head count (common random numbers), so the rows differ only through
    integer-population noise, which shrinks as 1/sqrt(n0). All head counts
    advance together on one offspring stream, so a row depends on the whole
    n0_values list.
    """
    if params.b <= 0.0:
        raise ValueError("the smoothed comparison needs b > 0")
    if any(n0 < 1 or n0 != int(n0) for n0 in n0_values):
        raise ValueError("head counts must be positive integers")
    if params.M <= 0.0:
        raise NoExtinctionError("the study mixes over extinction dates; needs M > 0")
    reps = config.replications
    cap = config.horizon_cap or default_horizon_cap(1.0 - params.M)
    rng_T = np.random.default_rng(np.random.SeedSequence([config.seed, _TAG_ABM_T]))
    counts = sample_date_counts(params.M, reps, cap, rng_T)
    hit_frac = counts[-1] / reps
    counts[cap] += counts[-1]  # clipped dates end at the cap
    t_max = int(np.flatnonzero(counts[:-1])[-1])
    counts = counts[:t_max + 1]
    live = reps - np.concatenate(([0], np.cumsum(counts)))  # runs with T >= t, t = 0..t_max+1
    uu = np.asarray(u(path.values(0, t_max + 1)), dtype=float)
    smooth_cum = np.cumsum(
        welfare_window_terms(replace(params, N0=1.0), path, u, t_max + 1)
    )
    n0s = np.array([int(n0) for n0 in n0_values], dtype=np.int64)
    shape = (len(n0s), reps)
    n = np.repeat(n0s[:, None], reps, axis=1)
    f, welfare, died = np.zeros(shape), np.zeros(shape), np.zeros(shape, bool)
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, _TAG_ABM]))
    # Runs are sorted by date, latest first, so the runs alive at t are the prefix
    # [:live[t]] and those that see t+1 the prefix [:live[t+1]]. F_t = (1-m) F_{t-1}
    # + N_t and welfare += u_t F_t; then deaths and births, one draw each.
    for t in range(t_max + 1):
        alive, moving = live[t], live[t + 1]
        fv = f[:, :alive]
        fv *= 1.0 - params.m
        fv += n[:, :alive]
        welfare[:, :alive] += uu[t] * fv
        if moving:
            nv = n[:, :moving]
            survivors = rng.binomial(nv, 1.0 - params.m)
            np.add(survivors, _offspring(rng, survivors, params.b, config.offspring_law), out=nv)
            died[:, :moving] |= nv == 0
    percap = welfare / n0s[:, None]
    gap = percap - np.repeat(smooth_cum[::-1], counts[::-1])
    smooth_mean = counts @ smooth_cum / reps
    gap_se = np.std(gap, axis=1, ddof=1) / math.sqrt(reps) if reps > 1 else np.zeros(len(n0s))
    return [
        SmoothingGapRow(
            n0=int(n0),
            runs=reps,
            mean_abs_gap=float(np.mean(np.abs(gap[i]))),
            die_off_frequency=float(np.mean(died[i])),
            mean_welfare_per_capita=float(np.mean(percap[i])),
            smoothed_mean_per_capita=float(smooth_mean),
            cap_hit_fraction=float(hit_frac),
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
# Every point satisfies (1-M)(1+n)**2 < 1 (and the theta/alpha analogues), so
# the per-draw sums have finite variance and +-3 SE comparisons are sound.

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
    points: Optional[Sequence[HazardParams]] = None,
) -> List[Dict[str, Any]]:
    """Compare every analytic functional with its Monte Carlo estimate per grid point.

    Every point gets ``mc_compare``'s rows on VERIFY_PATH and VERIFY_UTILITY
    with seed seed + 1000003 i for point i, the closed forms of all points
    coming from one scenario_sweep; the rows are the ones ``verify`` writes. A
    row is ok when its status is "ok" (every VERIFY_GRID point has a finite
    variance) and |mc - analytic| <= 3 SE. Statistically about 1 in 370
    honest comparisons lands outside +-3 SE, so a full run tolerates one
    stray failure. The four extinction-date rows of one point average over
    the same draws of T, so their errors are correlated and stray failures can
    come in clusters of one point's rows rather than independently.
    """
    pts = tuple(points) if points is not None else VERIFY_GRID
    cases = [case for case, _ in _VERIFY_FUNCTIONALS]
    swept = scenario_sweep(pts, cases, VERIFY_PATH, VERIFY_UTILITY, DEFAULT_TOLERANCE)
    rows: List[Dict[str, Any]] = []
    for i, params in enumerate(pts):
        cfg = SimulationConfig(replications=replications, seed=seed + _VERIFY_SEED_STEP * i)
        compared = _compare(params, swept[len(cases) * i : len(cases) * (i + 1)], VERIFY_PATH,
                            VERIFY_UTILITY, cfg)
        for (_, name), r in zip(_VERIFY_FUNCTIONALS, compared):
            rows.append({"functional": name, "point": i, **params.cells(population=False),
                         **{k: r[k] for k in ("analytic", "mc_mean", "mc_se", "abs_error")},
                         "ok": r["status"] == "ok" and r["within_3se"],
                         "truncated_mass": r["truncated_mass"]})
    return rows


def reproducibility_selfcheck() -> bool:
    """Run one estimator twice with the same seed; True when bit-identical."""
    cfg = SimulationConfig(replications=50_000, seed=97)
    params = VERIFY_GRID[0]
    a = mc_eu_individual(params, VERIFY_PATH, VERIFY_UTILITY, cfg)
    b = mc_eu_individual(params, VERIFY_PATH, VERIFY_UTILITY, cfg)
    return a == b
