"""Social welfare three ways, and its time-varying discount profile.

W(0, T) adds up, over everyone present before the extinction date T, the
expected remaining utility of their lives. Expected social welfare EW mixes
W(0, T) over the geometric extinction law, and has a closed series form, an
n = 0 simplification, and the mixture definition itself. The first two agree
within their reported bounds; the mixture is summed here in floats over the
first 5000 dates, with no bound, so its value is uncertified. Unlike the
other perspectives the per-period weight ratio is not constant: it starts
high and falls geometrically to (1-M)(1-m)(1+b), the dynasty factor.
"""

import math

import numpy as np

from extrisk import (
    ConsumptionPath,
    HazardParams,
    UtilitySpec,
    discount_profile,
    ew_social,
    ew_social_n0_form,
    welfare_window_terms,
)

u = UtilitySpec.linear()
one = ConsumptionPath.constant(1.0)

params = HazardParams(m=0.02, M=0.01).with_n_zero()  # constant population
print(f"constant-population economy: m={params.m}, M={params.M}, b={params.b:.6f}")


def direct_window(T):
    """W(0, T) by its definition: each cohort N0 (1+n)**t adds its remaining utility to T."""
    uu = u(one.values(0, T + 1))
    return math.fsum(params.N0 * params.gross_growth**t
                     * math.fsum((1.0 - params.m) ** (s - t) * uu[s] for s in range(t, T + 1))
                     for t in range(T + 1))


print("\nwelfare windows W(0, T), closed-form terms vs direct double sum:")
for T in (0, 10, 100):
    closed = math.fsum(welfare_window_terms(params, one, u, T + 1))
    direct = direct_window(T)
    print(f"  T={T:<4d} closed={closed:>12.6f} direct={direct:>12.6f} "
          f"diff={abs(closed - direct):.2e}")

a = ew_social(params, one, u)
b = ew_social_n0_form(params, one, u)
# sum_T P_X(T) W(0, T) over the first 5000 dates, P_X(T) = M (1-M)**T
T = np.arange(5000)
windows = np.cumsum(welfare_window_terms(params, one, u, len(T)))
c = math.fsum(params.M * (1.0 - params.M) ** T * windows)
print("\nexpected social welfare EW (unit utility):")
print(f"  closed series        {a.value:.8f}  (bound {a.tail_bound:.1e})")
print(f"  n=0 simplification   {b.value:.8f}  (bound {b.tail_bound:.1e})")
print(f"  mixture over T<{len(T)}  {c:.8f}  (truncated float sum, uncertified)")

growing = HazardParams(m=0.02, M=0.01, b=0.03)
prof = discount_profile(growing, 2001)
print(f"\ndiscount-ratio profile for growing population (b={growing.b}):")
print("  t      ratio        distance to long run")
for t in (0, 1, 5, 20, 100, 500, 2000):
    print(f"  {t:<6d} {prof.ratios[t]:.9f}  {prof.ratios[t] - prof.long_run:.3e}")
print(f"  long-run factor (1-M)(1-m)(1+b) = {prof.long_run:.9f}")
