"""Gaussian key-rate figures for CV-QKD with single-photon subtraction, over
fixed-attenuation and beam-wander fading optical channels."""

__version__ = "0.1.0"

from .exact import (
    NO_PS,
    R_PS,
    SCHEMES,
    T_PS,
    CovarianceSummary,
    SchemeConfig,
    exact_summary,
)
from .keyrate import (
    KeyRatePoint,
    NumericalDomainError,
    TwoModeCov,
    conditional_cov_ef_given_b2,
    holevo_bound,
    key_rate,
    key_rates,
    key_rates_many,
    mutual_information,
    symplectic_eigenvalues,
    von_neumann_g,
)
from .channel import (
    AveragedKeyRate,
    FadingModel,
    QuadratureSpec,
    average_key_rates,
    average_key_rates_many,
    bessel_ive,
    cdf,
    distance_to_transmissivity,
    inverse_cdf,
    mean_transmissivity,
    pdf,
    weibull_params,
)
from .sweeps import (
    EXPERIMENTS,
    ExperimentConfig,
    SweepResult,
    emit_csv,
    run_experiment,
)
