import math

import numpy as np
import pytest

import cvqkd_ps.channel as channel_mod
from cvqkd_ps.keyrate import key_rate_from_summary
from cvqkd_ps import (
    CovarianceSummary,
    NumericalDomainError,
    SchemeConfig,
    TwoModeCov,
    conditional_cov_ef_given_b2,
    eve_cov,
    key_rate,
    key_rates,
    mutual_information,
    symplectic_eigenvalues,
    von_neumann_g,
)
from cvqkd_ps.fock_states import build_state, covariance_summary

import oracles


# ------------------------------------------------------ symplectic eigenvalues

def test_two_vacua():
    assert symplectic_eigenvalues(TwoModeCov.symmetric(1.0, 1.0, 0.0)) == (1.0, 1.0)


def test_pure_tmsv_block():
    b2 = 0.001
    v = 1 + 2 * b2
    c = 2 * math.sqrt(b2 * (1 + b2))
    nu_p, nu_m = symplectic_eigenvalues(TwoModeCov.symmetric(v, v, c, -1))
    assert nu_p == pytest.approx(1.0, abs=1e-9)
    assert nu_m == pytest.approx(1.0, abs=1e-9)


def test_uncorrelated_thermal_pair():
    nu_p, nu_m = symplectic_eigenvalues(TwoModeCov.symmetric(3.6, 1.0, 0.0))
    assert nu_p == pytest.approx(3.6, rel=1e-14)
    assert nu_m == 1.0


def test_nonphysical_matrix_raises():
    # correlations exceeding the positive-definiteness bound
    with pytest.raises(NumericalDomainError):
        symplectic_eigenvalues(TwoModeCov.symmetric(1.0, 3.0, 2.5, -1))


def test_matches_generic_eigensolver():
    m = TwoModeCov(3.1, 3.1, 1.7, 1.7, 0.9, -0.9)
    full = np.zeros((4, 4))
    full[0, 0], full[1, 1] = m.ax, m.ap
    full[2, 2], full[3, 3] = m.bx, m.bp
    full[0, 2] = full[2, 0] = m.cx
    full[1, 3] = full[3, 1] = m.cp
    want = oracles.sympl_eigs(full)
    got = symplectic_eigenvalues(m)
    assert got[1] == pytest.approx(want[0], rel=1e-12)
    assert got[0] == pytest.approx(want[1], rel=1e-12)


# ----------------------------------------------------------------- entropy g

def test_g_values():
    assert von_neumann_g(1.0) == 0.0
    assert von_neumann_g(3.0) == pytest.approx(2.0, abs=1e-12)
    assert abs(von_neumann_g(1.0 + 1e-12)) < 1e-9


def test_g_monotone_and_domain():
    grid = np.linspace(1.0, 8.0, 50)
    vals = [von_neumann_g(v) for v in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        von_neumann_g(0.99)


# -------------------------------------------------------- mutual information

def test_mi_uncorrelated():
    assert mutual_information(3.6, 2.0, 0.0) == 0.0
    assert mutual_information(3.6, 1.0, 0.0) == 0.0


def test_mi_pure_tmsv():
    v = 3.6
    c = math.sqrt(v * v - 1.0)
    assert mutual_information(v, v, c) == pytest.approx(math.log2(v), rel=1e-12)


def test_mi_errors():
    with pytest.raises(ValueError):
        mutual_information(-1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        mutual_information(2.0, 2.0, 3.0)


# ------------------------------------------------------ conditional covariance

def test_conditioning_on_uncorrelated_mode_is_identity():
    s = CovarianceSummary(3.6, 2.0, 2.5, 1.1, 1.0, 0.3, 0.0, 0.0, 1.0)
    cond = conditional_cov_ef_given_b2(s)
    assert cond == eve_cov(s)


def test_noisy_measurement_limit():
    base = CovarianceSummary(3.6, 1e12, 2.5, 1.1, 0.0, 0.3, 0.8, 0.5, 1.0)
    cond = conditional_cov_ef_given_b2(base)
    ref = eve_cov(base)
    assert cond.ax == pytest.approx(ref.ax, abs=1e-10)
    assert cond.bx == pytest.approx(ref.bx, abs=1e-10)
    assert cond.cx == pytest.approx(ref.cx, abs=1e-10)


@pytest.mark.parametrize("trunc_n,tol", [(20, 1e-10), (50, 1e-6)])
def test_conditional_eigenvalues_match_gaussian_toolbox(trunc_n, tol):
    """Pipeline vs an independent matrix-level computation: at the working
    cutoff against the truncated input moments (tight), at a converged cutoff
    against the infinite-limit inputs (the spec of the physics)."""
    t_e, b2 = 0.5, 0.001
    if trunc_n == 20:
        v_ab, c_ab = oracles.truncated_tmsv_moments(1.3, trunc_n)
        v_ef, c_ef = oracles.truncated_tmsv_moments(b2, trunc_n)
    else:
        v_ab, c_ab = 3.6, math.sqrt(3.6**2 - 1)
        v_ef, c_ef = 1 + 2 * b2, 2 * math.sqrt(b2 * (1 + b2))
    m8 = oracles.four_mode_cm(v_ab, c_ab, v_ef, c_ef, t_e)
    m_cond = oracles.homodyne_x_condition(m8, keep=(2, 3), meas=1)
    want = oracles.sympl_eigs(m_cond)

    s = covariance_summary(build_state(SchemeConfig("nops", trunc_n=trunc_n), t_e))
    got = sorted(symplectic_eigenvalues(conditional_cov_ef_given_b2(s)))
    assert got[0] == pytest.approx(want[0], abs=tol)
    assert got[1] == pytest.approx(want[1], abs=tol)


# ------------------------------------------------------------------- key rate

def test_lossless_baseline():
    kr = key_rate(SchemeConfig("nops", trunc_n=40), 1.0)
    assert kr.chi_g <= 1e-6
    assert kr.rate == pytest.approx(0.95 * math.log2(3.6), abs=1e-4)
    assert kr.rate == kr.rate_normalized  # nops carries p_sub = 1
    assert kr.rate == kr.p_sub * kr.rate_raw


def test_chi_vanishes_lossless_noiseless_all_schemes():
    for scheme in ("nops", "tps", "rps"):
        kr = key_rate(SchemeConfig(scheme, beta_sq=0.0), 1.0)
        assert abs(kr.chi_g) <= 1e-7, scheme


def _fock_key_rate(cfg, t_e):
    """The truncated reference pipeline: Fock table, moments, bound."""
    return key_rate_from_summary(covariance_summary(build_state(cfg, t_e)), cfg.recon_eff, t_e)


def test_matches_naive_pipeline_tps():
    kr = _fock_key_rate(SchemeConfig("tps"), 0.9)
    naive = oracles.naive_key_rate("tps", 1.3, 0.001, 0.9, 0.9, 20)
    assert kr.rate == pytest.approx(naive["rate"], abs=1e-8)
    assert kr.i_g == pytest.approx(naive["i_g"], abs=1e-10)
    assert kr.chi_g == pytest.approx(naive["chi"], abs=1e-10)


@pytest.mark.parametrize("scheme", ["nops", "rps"])
def test_matches_naive_pipeline_other_schemes(scheme):
    kr = _fock_key_rate(SchemeConfig(scheme, trunc_n=14), 0.45)
    naive = oracles.naive_key_rate(scheme, 1.3, 0.001, 0.9, 0.45, 14)
    assert kr.rate == pytest.approx(naive["rate"], abs=1e-10)


def test_negative_rates_pass_through():
    kr = key_rate(SchemeConfig("nops"), 1e-3)
    assert kr.rate_raw < 0
    assert kr.rate == kr.p_sub * kr.rate_raw < 0


def test_chi_nonnegative_on_grid():
    for scheme in ("nops", "tps", "rps"):
        for t_e in (0.05, 0.3, 0.7, 1.0):
            assert key_rate(SchemeConfig(scheme), t_e).chi_g >= -1e-9


def test_nops_rate_monotone_in_transmissivity():
    rates = [key_rate(SchemeConfig("nops"), t).rate for t in np.linspace(0.0, 1.0, 50)]
    assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_rps_full_tap_transmissivity_limit():
    # T_S = 1: the tap never fires, but the conditional state is the clean
    # one-photon-removed limit: finite metrics, zero pulse rate
    kr1 = key_rate(SchemeConfig("rps", t_s=1.0), 0.7)
    kr2 = key_rate(SchemeConfig("rps", t_s=1.0 - 1e-6), 0.7)
    assert kr1.p_sub == 0.0 and kr1.rate == 0.0
    assert math.isfinite(kr1.i_g) and math.isfinite(kr1.chi_g)
    assert kr1.rate_raw == pytest.approx(kr2.rate_raw, abs=1e-3)


def test_batch_matches_sequential():
    cfg = SchemeConfig("tps")
    grid = [0.2, 0.5, 0.9]
    batch = key_rates(cfg, grid)
    assert [batch.at(i) for i in range(len(grid))] == [key_rate(cfg, t) for t in grid]


def test_error_paths():
    with pytest.raises(ValueError):
        key_rate(SchemeConfig("nops"), -0.1)
    with pytest.raises(NumericalDomainError) as err:
        mutual_information(1e300, 1e-300, 1.0)
    assert "conditional variance" in str(err.value)


def test_channel_error_context(monkeypatch):
    def boom(cfg, t_e):
        exc = NumericalDomainError("synthetic failure")
        exc.index = 3
        raise exc

    monkeypatch.setattr(channel_mod, "key_rates", boom)
    model = channel_mod.weibull_params(1.0)
    with pytest.raises(NumericalDomainError) as err:
        channel_mod.average_key_rates(
            SchemeConfig("nops"), model, channel_mod.QuadratureSpec(16, False)
        )
    assert "node" in str(err.value)
    assert "sigma_b=1" in str(err.value)
    assert "node 3 (T_E=" in str(err.value)
