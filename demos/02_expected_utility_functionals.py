"""The five expected-utility functionals on one benchmark economy.

Perspectives differ only in how they weight period utility u(c_t):
a selfish individual discounts by joint survival, a dynasty nets births
against deaths, the population-weighted dynasty interpolates between total
and per-capita aggregation, a genetic lineage passes on only a fraction
alpha of its weighting per birth, and the social planner adds up cohorts.
The reduction identities tie them together at the parameter boundaries.
"""

from extrisk import (
    ConsumptionPath,
    HazardParams,
    UtilitySpec,
    eg_lineage,
    eu_individual,
    ev_dynasty,
    ev_dynasty_theta,
    evaluate,
    ew_social,
    known_extinction,
)

params = HazardParams(m=0.02, M=0.01, b=0.03, theta=0.5, alpha=0.5)
path = ConsumptionPath(prefix=(1.0, 1.05, 1.1, 1.12), tail="constant")
u = UtilitySpec.log()

print(f"economy: m={params.m} M={params.M} b={params.b} -> n={params.n:+.4f}")
print(f"consumption prefix {path.prefix}, constant tail; log utility\n")

rows = [
    ("individual", eu_individual(params, path, u)),
    ("dynasty (total)", ev_dynasty(params, path, u)),
    (f"dynasty (theta={params.theta})", ev_dynasty_theta(params, path, u)),
    (f"lineage (alpha={params.alpha})", eg_lineage(params, path, u)),
    ("social welfare", ew_social(params, path, u)),
]
# closed forms: the prefix is summed term by term, the tail exactly
print(f"{'perspective':<22s} {'value':>12s} {'prefix':>7s} {'bound':>11s}")
for name, res in rows:
    print(f"{name:<22s} {res.value:>12.6f} {res.truncation_index + 1:>7d} "
          f"{res.tail_bound:>11.2e}")

# a finite sum to T: its bound is the rounding of that sum
known = evaluate(known_extinction(30), params, path, u)
print(f"\nknown extinction date T=30: {known.value:.6f} (bound {known.tail_bound:.2e}; "
      "same for every M: a fixed date carries no extinction discount)")

print("\nreduction identities:")
no_births = HazardParams(m=0.02, M=0.01, b=0.0)
a = ev_dynasty(no_births, path, u).value
b = eu_individual(no_births, path, u).value
print(f"  dynasty at b=0        = individual:  {a:.12f} == {b:.12f}")
theta_one = HazardParams(m=0.02, M=0.01, b=0.03, theta=1.0)
a = ev_dynasty_theta(theta_one, path, u).value
b = ev_dynasty(theta_one, path, u).value
print(f"  theta=1 weighting     = dynasty:     {a:.12f} == {b:.12f}")
near_one = HazardParams(m=0.02, M=0.01, b=0.03, alpha=1.0 - 1e-12)
a = eg_lineage(near_one, path, u).value
print(f"  lineage, alpha -> 1   -> dynasty:    {a:.12f} ~= {b:.12f}")
