"""How good is the smooth-population approximation? An agent-based check.

The analytic functionals treat the population as evolving deterministically
at rate (1+b)(1-m) until extinction. The agent-based mode keeps an integer
head count with Bernoulli deaths and stochastic births, so small dynasties
can die out before the extinction date. The per-run gap between realized
and smoothed per-capita welfare shrinks like 1/sqrt(N0): the approximation
is innocuous exactly when the starting population is large.
"""

from extrisk import (
    ConsumptionPath,
    HazardParams,
    SimulationConfig,
    UtilitySpec,
    abm_smoothing_study,
)

params = HazardParams(m=0.02, M=0.01).with_n_zero()
one = ConsumptionPath.constant(1.0)
u = UtilitySpec.linear()

config = SimulationConfig(replications=4000, seed=42, mode="agent")
rows = abm_smoothing_study(params, one, u, [1, 10, 100, 1000], config)
print(f"{config.replications} runs per head count, extinction dates shared across rows:")
print(f"{'N0':>5s} {'mean |gap| per capita':>22s} {'die-off freq':>13s} "
      f"{'mean welfare pc':>16s}")
for r in rows:
    print(f"{r.n0:>5d} {r.mean_abs_gap:>22.2f} {r.die_off_frequency:>13.4f} "
          f"{r.mean_welfare_per_capita:>16.2f}")
print(f"\nsmoothed per-capita mean over the same extinction draws: "
      f"{rows[0].smoothed_mean_per_capita:.2f}")
print("the gap falls roughly by sqrt(10) per decade of founders, and early")
print("die-off, certain for a lone founder eventually, is gone by N0=1000.")
