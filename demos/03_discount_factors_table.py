"""Closed-form discount factors per perspective, with the n = 0 restriction.

The per-period factor is the ratio of consecutive series weights; the second
column substitutes (1+b)(1-m) = 1 (constant population). Mortality m drops
out of the dynasty and social-welfare rows entirely once reproduction holds
the population constant, while extinction risk M remains in every row: births
hedge individual death risk but nothing hedges extinction.
"""

from extrisk import (
    DYNASTY,
    DYNASTY_THETA,
    INDIVIDUAL,
    LINEAGE,
    SOCIAL_WELFARE,
    ConsumptionPath,
    HazardParams,
    UtilitySpec,
    discount_factor,
    evaluate,
    known_extinction,
)

params = HazardParams(m=0.02, M=0.01, b=0.03, theta=0.5, alpha=0.5)
cases = [INDIVIDUAL, DYNASTY, DYNASTY_THETA, LINEAGE, SOCIAL_WELFARE]

print(f"m={params.m} M={params.M} b={params.b} theta={params.theta} alpha={params.alpha}")
print(f"\n{'case':<16s} {'factor':>10s} {'factor n=0':>11s} {'simple rate':>12s} {'log rate':>10s}")
for case in cases:
    rep = discount_factor(case, params)
    tag = "" if rep.constant else "  (long-run limit)"
    print(f"{case.kind:<16s} {rep.factor:>10.6f} {rep.factor_n0:>11.6f} "
          f"{rep.rate_simple:>12.6f} {rep.rate_log:>10.6f}{tag}")

ke = discount_factor(known_extinction(25), params)
print(f"{'known date T=25':<16s} {ke.factor:>10.6f} {ke.factor_n0:>11.6f} "
      f"{ke.rate_simple:>12.6f} {ke.rate_log:>10.6f}  ({ke.note})")

print("\nfactors recovered from the series at u(c_t) = 1, sum_t f**t = 1/(1-f) (constant cases):")
one, linear = ConsumptionPath.constant(1.0), UtilitySpec.linear()
for case in cases[:-1]:
    recovered = 1.0 - 1.0 / evaluate(case, params, one, linear).value
    closed = discount_factor(case, params).factor
    print(f"  {case.kind:<16s} {recovered:.15f}  |closed - recovered| = {abs(closed - recovered):.1e}")
