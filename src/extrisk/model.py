"""Hazard parameters, consumption paths, utilities and the date samplers.

Time is discrete, t = 0, 1, 2, ... . Each period an individual alive at t dies
with probability m, and humanity as a whole is wiped out with probability M;
both hazards are constant (no ageing). Births arrive at rate b per survivor,
so the population gross growth factor is (1+n) = (1+b)(1-m).

Everything in this module is a pure function of its inputs. Random sampling
takes an explicitly passed ``numpy.random.Generator``; parameter bundles are
frozen dataclasses and safe to share across threads.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass, replace
from typing import Dict, Optional, Union

import numpy as np

__all__ = [
    "DegenerateHazardError",
    "NoExtinctionError",
    "DivergenceError",
    "HazardParams",
    "ConsumptionPath",
    "UtilitySpec",
    "sample_lifetimes",
    "sample_extinction_times",
    "sample_date_counts",
]

ArrayLike = Union[float, np.ndarray]


class DegenerateHazardError(ValueError):
    """Both hazards are zero: lifetimes are infinite and the pmf is defective."""


class NoExtinctionError(ValueError):
    """M = 0 was passed to a functional that mixes over extinction dates."""


class DivergenceError(ArithmeticError):
    """An infinite series violates its finiteness condition."""


def _is_number(value: object) -> bool:
    """A real number a float can hold; a bool is not one here, nor an integer past float range."""
    if type(value) is float:
        return True
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def _is_positive_finite(value: object) -> bool:
    """A finite number > 0, as _is_number reads a number."""
    return _is_number(value) and value > 0.0 and math.isfinite(value)


def _check_prob(name: str, value: object) -> None:
    """Reject anything but a number in [0, 1]."""
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def _check_int(name: str, value: object, lo: int) -> None:
    """Reject anything but an integer >= lo; a bool is not an integer here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lo:
        raise ValueError(f"{name} must be an integer >= {lo}, got {value!r}")


@dataclass(frozen=True)
class HazardParams:
    """Risk and demography parameters.

    m      per-period individual death hazard, in [0, 1]
    M      per-period extinction hazard, in [0, 1]
    b      per-period birth rate per survivor, >= 0
    theta  population-size weighting exponent (0 = per-capita, 1 = total), in [0, 1]
    alpha  generational transmission exponent of a genetic lineage, in (0, 1)
    N0     initial population size, > 0 (real valued; integer sizes only
           matter in the agent-based simulation mode)

    The net growth rate n is always derived: (1+n) = (1+b)(1-m). It is never
    stored, so b and m remain the single source of truth.
    """

    m: float
    M: float
    b: float = 0.0
    theta: float = 1.0
    alpha: float = 0.5
    N0: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not _is_number(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
        _check_prob("m", self.m)
        _check_prob("M", self.M)
        if not (self.b >= 0.0 and math.isfinite(self.b)):
            raise ValueError(f"b must be finite and >= 0, got {self.b!r}")
        _check_prob("theta", self.theta)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        if not _is_positive_finite(self.N0):
            raise ValueError(f"N0 must be finite and > 0, got {self.N0!r}")

    @property
    def gross_growth(self) -> float:
        """(1+n) = (1+b)(1-m), the per-period population growth factor."""
        return (1.0 + self.b) * (1.0 - self.m)

    @property
    def n(self) -> float:
        return self.gross_growth - 1.0

    @property
    def joint_survival(self) -> float:
        """Per-period probability an individual survives both hazards."""
        return (1.0 - self.m) * (1.0 - self.M)

    @property
    def death_hazard(self) -> float:
        """Per-period probability of dying from either cause, M + m - M*m."""
        return self.M + self.m - self.M * self.m

    @property
    def is_degenerate(self) -> bool:
        """True when m = M = 0: nobody ever dies and the lifetime pmf is defective."""
        return self.m == 0.0 and self.M == 0.0

    def cells(self, population: bool = True) -> Dict[str, float]:
        """The parameters as output cells in column order; N0 and n only with population."""
        cells = {"m": self.m, "M": self.M, "b": self.b, "theta": self.theta, "alpha": self.alpha}
        if population:
            cells.update(N0=self.N0, n=self.n)
        return cells

    def with_n_zero(self) -> "HazardParams":
        """Return a copy with b replaced so that (1+b)(1-m) = 1 exactly."""
        if self.m >= 1.0:
            raise ValueError("n = 0 is unattainable at m = 1 (requires infinite b)")
        return replace(self, b=self.m / (1.0 - self.m))


@dataclass(frozen=True)
class ConsumptionPath:
    """Per-period consumption: an explicit positive prefix plus a tail rule.

    Beyond the prefix the path either stays at the last prefix value
    (tail="constant") or decays geometrically, c_t = c_last * ratio**(t-last),
    with ratio in [0, 1). Either rule gives every implemented utility a
    tail that sums in closed form against geometric survival weights.
    """

    prefix: tuple
    tail: str = "constant"
    ratio: Optional[float] = None

    def __post_init__(self) -> None:
        if not all(map(_is_number, self.prefix)):
            raise ValueError(f"prefix must be a sequence of numbers, got {self.prefix!r}")
        prefix = tuple(float(c) for c in self.prefix)
        object.__setattr__(self, "prefix", prefix)
        if len(prefix) == 0:
            raise ValueError("prefix must contain at least one period")
        if not all(map(_is_positive_finite, prefix)):
            raise ValueError("all prefix consumptions must be finite and strictly positive")
        if self.tail == "constant":
            if self.ratio is not None:
                raise ValueError("constant tail takes no ratio")
        elif self.tail == "geometric":
            if not (_is_number(self.ratio) and 0.0 <= self.ratio < 1.0):
                raise ValueError(f"geometric tail needs a ratio in [0, 1), got {self.ratio!r}")
        else:
            raise ValueError(f"unknown tail rule {self.tail!r}")

    @classmethod
    def constant(cls, level: float) -> "ConsumptionPath":
        return cls(prefix=(level,))

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    def value(self, t: int) -> float:
        if t < 0:
            raise ValueError("t must be >= 0")
        return float(self.values(t, t + 1)[0])

    def values(self, start: int, stop: int) -> np.ndarray:
        """Consumption for t = start, ..., stop-1 as a float64 array: the one formula for c_t."""
        if start < 0 or stop < start:
            raise ValueError("need 0 <= start <= stop")
        out = np.empty(stop - start, dtype=float)
        p = len(self.prefix)
        head = min(max(p - start, 0), stop - start)
        if head > 0:
            out[:head] = self.prefix[start : start + head]
        if stop > max(start, p):
            t = np.arange(max(start, p), stop)
            last = self.prefix[-1]
            if self.tail == "constant":
                out[head:] = last
            else:
                out[head:] = last * np.power(self.ratio, t - (p - 1))
        return out


@dataclass(frozen=True)
class UtilitySpec:
    """Period utility u(c). Families: log, crra (sigma != 1), linear.

    crra is u(c) = expm1((1-sigma) log c) / (1-sigma), so c near 1 keeps every
    digit; log is its sigma -> 1 limit, linear is u(c) = c. log and crra
    require c > 0. Every other module reads u(c) from here.
    """

    family: str = "log"
    sigma: Optional[float] = None

    def __post_init__(self) -> None:
        if self.family not in ("log", "crra", "linear"):
            raise ValueError(f"unknown utility family {self.family!r}")
        if self.family == "crra":
            if not _is_positive_finite(self.sigma):
                raise ValueError("crra needs a finite sigma > 0")
            if self.sigma == 1.0:
                raise ValueError("crra sigma = 1 is the log family; use log")
        elif self.sigma is not None:
            raise ValueError(f"{self.family} utility takes no sigma")

    @classmethod
    def log(cls) -> "UtilitySpec":
        return cls(family="log")

    @classmethod
    def crra(cls, sigma: float) -> "UtilitySpec":
        return cls(family="crra", sigma=sigma)

    @classmethod
    def linear(cls) -> "UtilitySpec":
        return cls(family="linear")

    def __call__(self, c: ArrayLike) -> ArrayLike:
        arr = np.asarray(c, dtype=float)
        if self.family == "linear":
            out = arr
        else:
            if np.any(arr <= 0.0):
                raise ValueError(f"{self.family} utility needs consumption > 0")
            if self.family == "log":
                out = np.log(arr)
            else:
                s1 = 1.0 - self.sigma
                out = np.expm1(s1 * np.log(arr)) / s1
        if np.isscalar(c) or getattr(c, "ndim", 1) == 0:
            return float(out)
        return out


# --- sampling --------------------------------------------------------------

_CHUNK = 1 << 17  # batch and block size of sample_date_counts: bounds its memory


def _geometric_from_zero(rng: np.random.Generator, p: float, size: int) -> np.ndarray:
    """Failure-count geometric: support {0, 1, ...}, P(k) = (1-p)**k p. Needs p > 0."""
    draws = rng.geometric(p, size=size)  # already int64: shift in place, no copy
    draws -= 1
    return draws


def sample_lifetimes(
    params: HazardParams, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw lifetimes D = min(extinction date, natural death date).

    D survives a period with probability (1-m)(1-M), so P(D >= k) =
    ((1-m)(1-M))**k and D is one geometric from 0 with success death_hazard:
    P(D = t) = (1-m)**t (1-M)**t (M+m-Mm). Rejects the degenerate m = M = 0
    case (infinite lifetimes).
    """
    if params.is_degenerate:
        raise DegenerateHazardError("m = M = 0: lifetimes are infinite")
    return _geometric_from_zero(rng, params.death_hazard, size)


def sample_extinction_times(
    M: float, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw extinction dates T with P_X(T) = (1-M)**T M. Requires M > 0."""
    if M <= 0.0:
        raise NoExtinctionError("M = 0: the extinction date is never drawn")
    return _geometric_from_zero(rng, M, size)


def _dense_bins(hazard: float, size: int, cap: int) -> int:
    """How many bins from 0, at most cap + 1, expect at least 64 of ``size`` dates.

    Bin k expects size hazard (1-hazard)**k dates; hazard 1 fills bin 0 alone.
    """
    top = size * hazard / 64.0
    if top < 1.0:
        return 0
    if hazard == 1.0:
        return 1
    return min(cap + 1, math.floor(math.log(top) / -math.log1p(-hazard)) + 1)


def _remainders(hazard: float, length: int) -> np.ndarray:
    """rem[0..length], rem[k] = rem[k-1] - hazard rem[k-1]: P(date >= k) of a geometric date.

    These are the running remainders numpy's multinomial forms in C from pvals
    hazard rem[:k] (1.0 minus pvals[0], pvals[1], ... in turn), so it draws
    each bin as Binomial(left, pvals[k] / rem[k]): hazard to rounding, at most 1.
    """
    return np.fromiter(itertools.accumulate(itertools.repeat(None, length),
                                            lambda r, _: r - hazard * r, initial=1.0),
                       float, length + 1)


def sample_date_counts(hazard: float, size: int, cap: int, rng: np.random.Generator) -> np.ndarray:
    """Histogram int64[cap + 2] of ``size`` geometric dates from 0 with success ``hazard``.

    Bins 0..cap count the dates, the last bin the dates beyond the cap. By
    memorylessness a date not in bins < k is in bin k with probability hazard,
    so the bins that expect at least 64 dates are one multinomial draw, which
    numpy makes in C as the chain of conditional binomials Binomial(left,
    hazard), in blocks of at most _CHUNK bins that share one pvals; the sparse
    tail is k plus one geometric per date, drawn in batches of _CHUNK. Rejects
    a hazard outside (0, 1] and a size or cap that is not an integer >= 0.
    """
    if not (_is_number(hazard) and 0.0 < hazard <= 1.0):
        raise ValueError(f"hazard must lie in (0, 1], got {hazard!r}")
    _check_int("size", size, 0)
    _check_int("cap", cap, 0)
    counts = np.zeros(cap + 2, dtype=np.int64)
    left, k, dense = int(size), 0, _dense_bins(hazard, size, cap)
    rem = _remainders(hazard, min(dense, _CHUNK))
    while left and k < dense:  # each block: its bins, then the dates left past them
        block = min(len(rem) - 1, dense - k)
        drawn = rng.multinomial(left, np.append(hazard * rem[:block], rem[block]))
        counts[k:k + block] = drawn[:-1]
        left, k = int(drawn[-1]), k + block
    while left and k <= cap:
        dates = _geometric_from_zero(rng, hazard, min(left, _CHUNK))
        left -= len(dates)
        dates += k
        counts += np.bincount(np.minimum(dates, cap + 1, out=dates), minlength=cap + 2)
    counts[-1] += left  # dates left once the bins pass the cap: no draws needed
    return counts
