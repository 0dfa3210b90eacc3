import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvqkd_ps.channel as channel_mod
import cvqkd_ps.keyrate as keyrate_mod
from cvqkd_ps.exact import exact_summary
from cvqkd_ps.keyrate import key_rate_from_summary
from cvqkd_ps import (
    SCHEMES,
    CovarianceSummary,
    KeyRatePoint,
    NumericalDomainError,
    SchemeConfig,
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
from cvqkd_ps.fock_states import build_state, covariance_summary

import oracles


# ------------------------------------------------------ symplectic eigenvalues

def test_two_vacua():
    assert tuple(symplectic_eigenvalues(TwoModeCov.symmetric(1.0, 1.0, 0.0))) == (1.0, 1.0)


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

_NEAR_ONE = 1.0 - np.concatenate([[0.0], np.geomspace(1e-16, 1e-2, 29)])


@pytest.mark.parametrize("beta_sq,tol", [(1e-3, 1e-15), (10.0, 1e-11), (100.0, 1e-8)])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_symplectic_eigenvalues_next_to_full_transmission(scheme, beta_sq, tol):
    # next to T_E = 1 Eve's block is nearly a pure two-mode squeezed vacuum,
    # nu+ ~ nu-, and Delta^2 - 4 det M cancels; against the same entries in
    # 40-digit arithmetic
    import mpmath

    mpmath.mp.dps = 40
    s = exact_summary(SchemeConfig(scheme, beta_sq=beta_sq), _NEAR_ONE)
    for block in (TwoModeCov.symmetric(s.v_e, s.v_f, s.c_ef), conditional_cov_ef_given_b2(s)):
        entries = [np.broadcast_to(getattr(block, k), _NEAR_ONE.shape)
                   for k in ("ax", "ap", "bx", "bp", "cx", "cp")]
        got = symplectic_eigenvalues(TwoModeCov(*entries))
        for i in range(len(_NEAR_ONE)):
            ax, ap, bx, bp, cx, cp = (mpmath.mpf(float(e[i])) for e in entries)
            delta = ax * ap + bx * bp + 2 * cx * cp
            root = mpmath.sqrt(delta**2 - 4 * (ax * bx - cx**2) * (ap * bp - cp**2))
            for nu, want in zip(got, (mpmath.sqrt((delta + root) / 2),
                                      mpmath.sqrt((delta - root) / 2))):
                assert abs(nu[i] - want) <= tol * want, (i, nu[i], want)


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


@pytest.mark.parametrize("v", [1e4, 1e8])
def test_g_keeps_its_digits_for_a_large_eigenvalue(v):
    # up log2 up - dn log2 dn cancels O(v log v) terms to O(log v), 1.2e-13 and
    # 8.4e-9 off here
    import mpmath

    with mpmath.workdps(50):
        up, dn = (mpmath.mpf(v) + 1) / 2, (mpmath.mpf(v) - 1) / 2
        want = up * mpmath.log(up, 2) - dn * mpmath.log(dn, 2)
        assert abs(von_neumann_g(v) - want) <= 1e-15 * want


@pytest.mark.parametrize("cfg,eta", [
    (SchemeConfig("rps", alpha_sq=28.5, beta_sq=0.0, t_s=0.566), 0.0215),
    (SchemeConfig("rps", alpha_sq=22.7, beta_sq=0.0066), 0.11915527819578556),
])
def test_rate_raw_is_smooth_within_ulps_of_a_transmission_coefficient(cfg, eta):
    # the 41 floats within 20 ulps of eta: a g that cancels O(v log v) terms spreads
    # rate_raw over 1.1e-13 and 8.8e-14 here
    etas = [eta]
    for _ in range(20):
        etas = [np.nextafter(etas[0], 0.0), *etas, np.nextafter(etas[-1], 1.0)]
    rate_raw = key_rates(cfg, np.array(etas) ** 2).rate_raw
    assert np.ptp(rate_raw) <= 1e-14


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
    assert cond == TwoModeCov.symmetric(s.v_e, s.v_f, s.c_ef)


def test_noisy_measurement_limit():
    base = CovarianceSummary(3.6, 1e12, 2.5, 1.1, 0.0, 0.3, 0.8, 0.5, 1.0)
    cond = conditional_cov_ef_given_b2(base)
    ref = TwoModeCov.symmetric(base.v_e, base.v_f, base.c_ef)
    assert cond.ax == pytest.approx(ref.ax, abs=1e-10)
    assert cond.bx == pytest.approx(ref.bx, abs=1e-10)
    assert cond.cx == pytest.approx(ref.cx, abs=1e-10)


def _holevo_block_by_block(s):
    """chi with one symplectic_eigenvalues call per block, in the same g order."""
    blocks = (TwoModeCov.symmetric(s.v_e, s.v_f, s.c_ef), conditional_cov_ef_given_b2(s))
    g = [von_neumann_g(v) for m in blocks for v in symplectic_eigenvalues(m)]
    return g[0] + g[1] - g[2] - g[3]


@settings(max_examples=200, deadline=None)
@given(scheme=st.sampled_from(SCHEMES), alpha_sq=st.floats(0.0, 1e5),
       beta_sq=st.floats(0.0, 0.1), t_s=st.floats(0.0, 1.0),
       t_e=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_stacked_bound_equals_one_point_calls(scheme, alpha_sq, beta_sq, t_s, t_e):
    cfg = SchemeConfig(scheme, alpha_sq=alpha_sq, beta_sq=beta_sq, t_s=t_s)
    t = np.array(t_e + [0.0, 1.0])
    got = holevo_bound(exact_summary(cfg, t))
    want = [_holevo_block_by_block(exact_summary(cfg, t[i:i + 1]))[0] for i in range(len(t))]
    assert list(got) == want


def _as_moments(s):
    """One config's summary s as the moments array the bound reads, (9, 1, points)."""
    return np.array([getattr(s, c) for c in CovarianceSummary.CSV_COLUMNS])[:, None]


def test_a_failing_conditional_block_names_its_own_element(monkeypatch):
    # Eve's block is physical (pure) everywhere; given x_B2 it is not at k only
    n, k = 5, 3
    t = np.linspace(0.1, 0.9, n)
    c_fb2 = np.where(np.arange(n) == k, 1.0, 0.0)
    s = CovarianceSummary(*(np.full(n, v) for v in (3.6, 1.0, 1.5, 3.5, 0.0, -2.5, 0.0)),
                          c_fb2, np.ones(n))
    monkeypatch.setattr(keyrate_mod, "_moments", lambda cfgs, t_e: (t, _as_moments(s)))
    with pytest.raises(NumericalDomainError) as err:
        key_rates(SchemeConfig("nops"), t)
    assert err.value.index == k
    assert "Delta^2 - 4 det M = -7.750e+00 (scheme=nops, t_e=" in str(err.value)
    assert str(err.value).endswith(f"(scheme=nops, t_e={t[k]})")


def test_a_bound_value_error_on_computed_moments_names_its_element(monkeypatch):
    # direct calls keep their ValueError; inside key_rates it names scheme and t_e
    n, k = 4, 2
    t = np.linspace(0.1, 0.9, n)
    c_ab2 = np.where(np.arange(n) == k, 5.0, 1.0)  # V_A V_B2 - C^2 < 0 at k only
    s = CovarianceSummary(*(np.full(n, v) for v in (3.6, 1.5, 1.5, 3.5)), c_ab2,
                          *(np.full(n, v) for v in (-2.5, 0.0, 0.0, 1.0)))
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        mutual_information(s.v_a, s.v_b2, s.c_ab2)
    monkeypatch.setattr(keyrate_mod, "_moments", lambda cfgs, t_e: (t, _as_moments(s)))
    with pytest.raises(NumericalDomainError) as err:
        key_rates(SchemeConfig("tps"), t)
    assert err.value.index == k
    assert str(err.value) == (f"covariance exceeds the Cauchy-Schwarz bound "
                              f"(scheme=tps, t_e={t[k]})")


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
    assert kr.rate == kr.rate_raw  # nops carries p_sub = 1
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


def _bits(kr):
    return [np.asarray(getattr(kr, c)).tobytes() for c in KeyRatePoint.CSV_COLUMNS]


@settings(max_examples=150, deadline=None)
@given(cfgs=st.lists(st.builds(SchemeConfig, st.sampled_from(SCHEMES),
                               alpha_sq=st.floats(0.0, 1e5), beta_sq=st.floats(0.0, 0.1),
                               t_s=st.floats(0.0, 1.0), recon_eff=st.floats(0.0, 1.0)),
                     min_size=1, max_size=6),
       t_e=st.lists(st.floats(0.0, 1.0), max_size=20))
def test_many_configs_equal_one_config_calls(cfgs, t_e):
    # one bound call over every config gives each config's own call bit for bit
    t = np.array(t_e + [0.0, 1.0])
    many = key_rates_many(cfgs, t)
    assert [_bits(kr) for kr in many] == [_bits(key_rates(cfg, t)) for cfg in cfgs]


def test_no_configs_and_no_points():
    assert key_rates_many([], [0.5]) == []
    for kr in key_rates_many([SchemeConfig("nops"), SchemeConfig("tps")], []):
        assert [len(getattr(kr, c)) for c in KeyRatePoint.CSV_COLUMNS] == [0] * 6


def test_one_config_refuses_a_t_e_of_two_dimensions():
    with pytest.raises(ValueError) as err:
        key_rates(SchemeConfig("tps"), [[0.1], [0.2]])
    assert str(err.value) == "t_e must be a float or a 1-D array, got shape (2, 1)"


def test_many_configs_refuse_a_t_e_of_two_dimensions():
    with pytest.raises(ValueError) as err:
        key_rates_many([SchemeConfig("tps"), SchemeConfig("rps")], [[0.1, 0.2]])
    assert str(err.value) == "t_e must be a float or a 1-D array, got shape (1, 2)"


@pytest.mark.parametrize("t_e,message", [
    ([[0.5]], "t_e must be a float or a 1-D array, got shape (1, 1)"),
    ([[0.1, 0.2]], "t_e must be a float or a 1-D array, got shape (1, 2)"),
    (1.5, "t_e must lie in [0, 1]"),
    ([0.5, -0.1], "t_e must lie in [0, 1]"),
], ids=["2-D", "2-D row", "above 1", "below 0"])
def test_t_e_is_checked_in_one_place_for_both_entry_points(t_e, message):
    for call in [lambda: exact_summary(SchemeConfig("tps"), t_e)] + [
            lambda n=n: key_rates_many([SchemeConfig(s) for s in SCHEMES][:n], t_e)
            for n in (0, 1, 3)]:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("failing", ["tps", "rps"])
def test_a_failure_in_one_block_names_that_block(monkeypatch, failing):
    # Eve's block given x_B2 is non-physical at k, in the failing scheme's block only
    n, k = 5, 3
    t = np.linspace(0.1, 0.9, n)
    c_fb2 = np.where(np.arange(n) == k, 1.0, 0.0)
    bad = CovarianceSummary(*(np.full(n, v) for v in (3.6, 1.0, 1.5, 3.5, 0.0, -2.5, 0.0)),
                            c_fb2, np.ones(n))
    real = keyrate_mod._moments

    def one_bad_block(cfgs, t_e):
        t, m = real(cfgs, t_e)
        m[:, [cfg.scheme for cfg in cfgs].index(failing)] = _as_moments(bad)[:, 0]
        return t, m

    monkeypatch.setattr(keyrate_mod, "_moments", one_bad_block)
    with pytest.raises(NumericalDomainError) as err:
        key_rates_many([SchemeConfig(s) for s in SCHEMES], t)
    assert err.value.index == k
    assert str(err.value).endswith(f"(scheme={failing}, t_e={t[k]})")


@pytest.mark.parametrize("beta_sq", [10.0, 30.0, 100.0])
@pytest.mark.parametrize("scheme", ["tps", "rps"])
def test_full_transmission_at_strong_noise_matches_the_oracles(scheme, beta_sq):
    # at T_E = 1, Eve's TMSV never meets B: I and p_sub are those of a
    # noiseless channel (the naive Fock pipeline with Eve in vacuum), and
    # conditioning on B2 leaves Eve's block as it is (the Gaussian toolbox)
    kr = key_rate(SchemeConfig(scheme, alpha_sq=0.3, beta_sq=beta_sq), 1.0)
    naive = oracles.naive_key_rate(scheme, 0.3, 0.0, 0.9, 1.0, 24)
    eve = oracles.tmsv_cm(1.0 + 2.0 * beta_sq)
    m = np.zeros((8, 8))
    m[:4, :4], m[4:, 4:] = oracles.tmsv_cm(1.0 + 2.0 * 0.3), eve  # (A, B2) and (E, F)
    cond = oracles.homodyne_x_condition(m, keep=(2, 3), meas=1)
    chi = (sum(oracles.naive_g(v) for v in oracles.sympl_eigs(eve))
           - sum(oracles.naive_g(v) for v in oracles.sympl_eigs(cond)))
    assert kr.i_g == pytest.approx(naive["i_g"], abs=1e-12)
    assert kr.p_sub == pytest.approx(naive["p"], abs=1e-14)
    assert kr.chi_g == pytest.approx(chi, abs=1e-9)
    assert kr.rate_raw == pytest.approx(0.95 * naive["i_g"] - chi, abs=1e-9)


def test_beta_sq_past_the_measured_limit_is_rejected_by_name():
    # up to the limit every scheme evaluates on a grid dense next to T_E = 1
    t = np.union1d(np.linspace(0.0, 1.0, 401), _NEAR_ONE)
    for scheme in SCHEMES:
        for alpha_sq in (0.0, 0.1, 1.3, 1e3):
            key_rates(SchemeConfig(scheme, alpha_sq=alpha_sq, beta_sq=100.0), t)
    for beta_sq in (100.5, 1e3, 1e200):
        with pytest.raises(ValueError, match=re.escape(f"beta_sq={beta_sq:g} out of range")):
            key_rates(SchemeConfig("tps", beta_sq=beta_sq), [0.5])


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
    # no node calls the bound: the failure is the curve's scan, shared by every
    # sigma_b of the geometry, so it names eta0, the stage and the element
    assert str(err.value) == f"synthetic failure at eta0={model.eta0:.6g}, scan 3"
    assert "T_E=" not in str(err.value)
