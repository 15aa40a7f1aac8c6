"""Expected-utility discounting under joint mortality and extinction hazards.

A numerical engine for discrete-time economies where individuals face a
constant death hazard m and everyone faces a constant extinction hazard M.
It evaluates expected-utility functionals for an individual, a dynasty
(total or population-weighted), a genetic lineage, and a social planner;
recovers each perspective's discount factor from the series weights; runs
belief-update comparative statics; and cross-checks everything against
seeded Monte Carlo and an integer-population agent-based mode.
"""

from .model import (
    ConsumptionPath,
    DegenerateHazardError,
    DivergenceError,
    HazardParams,
    NoExtinctionError,
    UtilitySpec,
    extinction_pmf,
    lifetime_cdf,
    lifetime_pmf,
    lifetime_pmf_known_T,
    sample_date_counts,
    sample_extinction_times,
    sample_lifetimes,
)
from .series import (
    DEFAULT_TOLERANCE,
    DYNASTY,
    DYNASTY_THETA,
    INDIVIDUAL,
    LINEAGE,
    SOCIAL_WELFARE,
    FinitenessResult,
    Scenario,
    SeriesResult,
    eg_lineage,
    eu_individual,
    eu_known_T,
    ev_dynasty,
    ev_dynasty_theta,
    evaluate,
    ew_social,
    ew_social_n0_form,
    finiteness_check,
    known_extinction,
    weight_sequence,
    welfare_window,
    welfare_window_direct,
    welfare_window_terms,
)
from .analysis import (
    DiscountProfile,
    DiscountReport,
    RegimeSensitivity,
    SensitivityReport,
    SweepRow,
    belief_update_response,
    discount_factor,
    discount_profile,
    factor_from_weights,
    scenario_sweep,
)
from .simulate import (
    VERIFY_GRID,
    VERIFY_PATH,
    VERIFY_UTILITY,
    SimEstimate,
    SimulationConfig,
    SmoothingGapRow,
    abm_smoothing_study,
    default_horizon_cap,
    mc_eg_lineage,
    mc_eu_individual,
    mc_ev_dynasty,
    mc_compare,
    mc_ew_social,
    reproducibility_selfcheck,
    verify_oracle_grid,
)

__version__ = "0.1.0"
