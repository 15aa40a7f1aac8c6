"""Lifetime and extinction-date distributions under constant hazards.

An individual alive at t dies with probability m each period; everyone dies
together with probability M. The resulting lifetime D is the minimum of two
geometric clocks, so P(D=t) = (1-m)**t (1-M)**t (M+m-Mm). This script prints
the pmf, checks normalization, and verifies the sampler against the law.
"""

import math

import numpy as np

from extrisk import HazardParams, sample_lifetimes

params = HazardParams(m=0.02, M=0.01)
print(f"hazards: m={params.m}, M={params.M}, joint death hazard = {params.death_hazard}")
print(f"expected lifetime 1/(M+m-Mm) = {1.0 / params.death_hazard:.2f} periods\n")


def pmf(t):
    """P(D = t): survive both hazards t periods, then die of either."""
    return params.joint_survival**t * params.death_hazard


def cdf(t):
    """P(D <= t) = 1 - ((1-m)(1-M))**(t+1)."""
    return 1.0 - params.joint_survival ** (t + 1)


print("t    P(D=t)      P(D<=t)     P_X(T=t)")
for t in [0, 1, 2, 5, 10, 50]:
    # P_X(T) = (1-M)**T M: the extinction date alone
    print(f"{t:<4d} {pmf(t):.6f}    {cdf(t):.6f}    {(1.0 - params.M) ** t * params.M:.6f}")

partial = math.fsum(pmf(t) for t in range(2000))
tail = params.joint_survival ** 2000
print(f"\nsum of pmf to t<2000 plus analytic tail: {partial + tail:.15f} (should be 1)")

print("\nknown extinction date T=3, m=0.1: the survivors' atom sits at T")
m, T = 0.1, 3
known = [(1.0 - m) ** t * m for t in range(T)] + [(1.0 - m) ** T]  # the atom at T last
for t, p in enumerate(known):
    print(f"  P(D={t}) = {p:.4f}")
print(f"  total    = {math.fsum(known):.15f}")

rng = np.random.default_rng(12345)
draws = sample_lifetimes(params, 1_000_000, rng)
hi = int(draws.max())
ecdf = np.cumsum(np.bincount(draws, minlength=hi + 1)) / draws.size
law = cdf(np.arange(hi + 1))
print(f"\nsampler check at 1e6 draws: max |ecdf - cdf| = {np.max(np.abs(ecdf - law)):.2e}"
      f" (DKW-style threshold {4 / math.sqrt(draws.size):.2e})")
print(f"empirical mean lifetime {draws.mean():.2f} vs analytic "
      f"{(1 - params.death_hazard) / params.death_hazard:.2f}")
