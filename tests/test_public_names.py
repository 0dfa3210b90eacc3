import types

import cvqkd_ps

# The package's public names, as its one import list states them.
PUBLIC = {
    "AveragedKeyRate", "CovarianceSummary", "EXPERIMENTS", "ExperimentConfig", "FadingModel",
    "KeyRatePoint", "NO_PS", "NumericalDomainError", "QuadratureSpec", "R_PS", "SCHEMES",
    "SchemeConfig", "SweepResult", "T_PS", "TwoModeCov", "average_key_rates",
    "average_key_rates_many", "bessel_ive", "cdf", "conditional_cov_ef_given_b2",
    "distance_to_transmissivity", "emit_csv", "exact_summary", "holevo_bound",
    "inverse_cdf", "key_rate", "key_rates", "key_rates_many", "mean_transmissivity",
    "mutual_information", "pdf", "run_experiment", "symplectic_eigenvalues", "von_neumann_g",
    "weibull_params",
}


def test_the_package_exports_exactly_its_public_names():
    names = {name for name, value in vars(cvqkd_ps).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
