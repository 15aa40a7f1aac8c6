"""Seeded Monte Carlo estimates against the analytic engine.

Each functional has an independent estimator: sample the random date (the
individual death date, or the extinction date), evaluate the realized
discounted sum, and average. Estimates are bit-reproducible from the seed
and must land within a few standard errors of the closed series values.
``mc_compare`` sets both side by side for a whole grid in one call, one
seeded config per point.
"""

from extrisk import (
    DEFAULT_TOLERANCE,
    DYNASTY,
    INDIVIDUAL,
    LINEAGE,
    SOCIAL_WELFARE,
    SimulationConfig,
    VERIFY_GRID,
    VERIFY_PATH,
    VERIFY_UTILITY,
    mc_compare,
)

points = VERIFY_GRID[1:3]
cases = [INDIVIDUAL, DYNASTY, LINEAGE, SOCIAL_WELFARE]
path, u = VERIFY_PATH, VERIFY_UTILITY
configs = [SimulationConfig(replications=400_000, seed=20240613 + i) for i in range(len(points))]

rows = mc_compare(points, cases, path, u, DEFAULT_TOLERANCE, configs)
print(f"{configs[0].replications} replications per point, seed 20240613 + point index\n")
print(f"{'m':>5s} {'M':>5s} {'b':>6s} {'functional':<15s} {'analytic':>10s} "
      f"{'mc mean':>10s} {'se':>8s} {'|z|':>5s}")
for r in rows:
    z = r["abs_error"] / r["mc_se"]
    print(f"{r['m']:>5.2f} {r['M']:>5.2f} {r['b']:>6.3f} {r['case']:<15s} {r['analytic']:>10.5f} "
          f"{r['mc_mean']:>10.5f} {r['mc_se']:>8.5f} {z:>5.2f}")

again = mc_compare(points[:1], cases, path, u, DEFAULT_TOLERANCE, configs[:1])
print(f"\nre-running the first point alone with its seed reproduces its rows bit for bit: "
      f"{again == rows[:len(cases)]}")
