"""Outage-level bounds for two-user interference channels with gradual data
arrival, plus a Monte Carlo simulator of the underlying block transmission
scheme."""

from .channel import (
    ChannelValidationError,
    DiscreteIC,
    GaussianIC,
    InfoQuantities,
    InputDistribution,
    gaussian_info_quantities,
    info_quantities,
    lambda_bar,
    load_channel,
    validate,
)
from .analysis import (
    DI,
    TIN,
    AnalysisError,
    Interval,
    OutageInputs,
    SchemeParams,
    admissible_intervals,
    avg_rate,
    delta_cdf,
    epsilon_bound,
    kappa,
    lambda_thresholds,
    rate_feasibility_interval,
    outage_inputs,
    outage_ub_finite_n,
    outage_ub_limit,
    outage_ub_subunit_rate,
    rho,
)
from .simulator import (
    SimConfig,
    SimResult,
    decode_success,
    overlap_fractions,
    run_trials,
    simulate_tau,
)

__version__ = "0.1.0"
