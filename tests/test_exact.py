"""The exact Gaussian-generator moments against the truncated Fock pipeline,
the naive oracle, and the physical domain of the key-rate figure."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqkd_ps import (
    CovarianceSummary,
    SchemeConfig,
    build_state,
    conditional_cov_ef_given_b2,
    covariance_summary,
    eve_cov,
    exact_summary,
    key_rate,
    key_rates,
    symplectic_eigenvalues,
)
from cvqkd_ps.cli import main as cli_main
from cvqkd_ps.sweeps import parse_csv

import oracles

GRID = [
    (scheme, t_e, b2)
    for scheme in ("nops", "tps", "rps")
    for t_e in (0.0, 0.2, 0.6, 0.95, 1.0)
    for b2 in (0.0, 1e-3, 0.1)
    # no photon reaches the receiver tap: no state to compare (see below)
    if not (scheme == "rps" and t_e == 0.0 and b2 == 0.0)
]


@pytest.mark.parametrize("scheme,t_e,b2", GRID)
def test_matches_fock_reference(scheme, t_e, b2):
    cfg = SchemeConfig(scheme, beta_sq=b2, trunc_n=48)
    got = exact_summary(cfg, t_e)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cutoff must be converged here
        want = covariance_summary(build_state(cfg, t_e))
    for name in CovarianceSummary.CSV_COLUMNS:
        assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-8), name


@pytest.mark.parametrize("scheme,t_e", [("tps", 0.9), ("nops", 0.45), ("rps", 0.45)])
def test_key_rate_matches_naive_pipeline(scheme, t_e):
    kr = key_rate(SchemeConfig(scheme), t_e)
    naive = oracles.naive_key_rate(scheme, 1.3, 0.001, 0.9, t_e, 48)
    assert kr.rate == pytest.approx(naive["rate"], abs=1e-9)
    assert kr.i_g == pytest.approx(naive["i_g"], abs=1e-9)
    assert kr.chi_g == pytest.approx(naive["chi"], abs=1e-9)


def test_rps_equals_tps_on_lossless_channel():
    # with T_E = 1 the channel is the identity, so the tap commutes with it
    tps = key_rate(SchemeConfig("tps"), 1.0)
    rps = key_rate(SchemeConfig("rps"), 1.0)
    assert (rps.i_g, rps.chi_g, rps.rate_raw) == (tps.i_g, tps.chi_g, tps.rate_raw)
    # p_sub: the closed form for tps, the generator norm for rps (1 ulp apart)
    assert rps.p_sub == pytest.approx(tps.p_sub, rel=1e-15)
    assert rps.rate == pytest.approx(tps.rate, rel=1e-15)


def test_faint_source_keeps_its_correlations():
    # c_ab2 grows as sqrt(alpha_sq) for a faint source; at 1e-300 the
    # unnormalised Wick terms would underflow
    ratios = [exact_summary(SchemeConfig("tps", alpha_sq=a2), 0.5).c_ab2 / math.sqrt(a2)
              for a2 in (1e-20, 1e-300)]
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-9)


def test_trunc_n_plays_no_part():
    assert key_rate(SchemeConfig("rps", trunc_n=1), 0.3) == key_rate(SchemeConfig("rps"), 0.3)


# ----------------------------------------------------- tap that never fires

@pytest.mark.parametrize("scheme,t_e,a2,b2", [
    ("tps", 0.5, 0.0, 0.001),  # no photon to tap at the source
    ("rps", 0.0, 1.3, 0.0),    # the signal is lost and Eve injects vacuum
    ("rps", 0.6, 0.0, 0.0),    # vacuum everywhere
])
def test_tap_never_fires_gives_zero_rate(scheme, t_e, a2, b2):
    cfg = SchemeConfig(scheme, alpha_sq=a2, beta_sq=b2)
    assert exact_summary(cfg, t_e) is None
    kr = key_rate(cfg, t_e)
    assert kr.t_e == t_e
    assert (kr.p_sub, kr.i_g, kr.chi_g, kr.rate_raw, kr.rate, kr.rate_normalized) == (0,) * 6


def test_rps_transmissivity_sweep_without_noise(tmp_path):
    out = tmp_path / "rps.csv"
    cli_main(["transmissivity-sweep", "--beta-sq", "0", "--scheme", "rps", "--out", str(out)])
    result = parse_csv(out)
    assert len(result.rows) == 51
    first = dict(zip(result.columns, result.rows[0]))
    assert first["t_e"] == 0.0 and first["p_sub"] == 0.0 and first["rate"] == 0.0
    assert all(math.isfinite(v) for row in result.rows for v in row if isinstance(v, float))


# ------------------------------------------------------------------ property

@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(("nops", "tps", "rps")),
    alpha_sq=st.floats(0.0, 20.0),
    beta_sq=st.floats(0.0, 2.0),
    t_s=st.floats(0.0, 1.0),
    recon_eff=st.floats(0.0, 1.0),
    t_e=st.floats(0.0, 1.0),
)
def test_outputs_physical_and_finite(scheme, alpha_sq, beta_sq, t_s, recon_eff, t_e):
    cfg = SchemeConfig(scheme, alpha_sq=alpha_sq, beta_sq=beta_sq, t_s=t_s,
                       recon_eff=recon_eff)
    kr = key_rate(cfg, t_e)
    assert 0.0 <= kr.p_sub <= 1.0
    assert all(math.isfinite(v) for v in dataclasses.astuple(kr))
    s = exact_summary(cfg, t_e)
    if s is not None:
        # both calls holevo_bound makes, without the domain guard firing
        symplectic_eigenvalues(eve_cov(s))
        symplectic_eigenvalues(conditional_cov_ef_given_b2(s))


@settings(max_examples=200, deadline=None)
@given(
    scheme=st.sampled_from(("nops", "tps", "rps")),
    alpha_sq=st.floats(0.0, 20.0),
    beta_sq=st.floats(0.0, 2.0),
    t_s=st.floats(0.0, 1.0),
    t_e=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
)
def test_array_kernel_matches_single_points(scheme, alpha_sq, beta_sq, t_s, t_e):
    cfg = SchemeConfig(scheme, alpha_sq=alpha_sq, beta_sq=beta_sq, t_s=t_s)
    batch = key_rates(cfg, t_e)
    assert [batch.at(i) for i in range(len(t_e))] == [key_rate(cfg, t) for t in t_e]
    assert np.all((batch.p_sub >= 0.0) & (batch.p_sub <= 1.0))
    s = exact_summary(cfg, np.array(t_e))
    for m in (eve_cov(s), conditional_cov_ef_given_b2(s)):
        assert np.all(symplectic_eigenvalues(m)[1] >= 1.0)


# ------------------------------------------------------------ strong sources

# nops rate_raw at T_E = 0.5 from the closed-form moments and the same bound in
# 60-digit arithmetic (mpmath)
_NOPS_STRONG = {1e3: 0.713668163783, 1e5: 0.548413341467, 1e8: 0.299277234794}


@pytest.mark.parametrize("alpha_sq", sorted(_NOPS_STRONG))
def test_strong_source_keeps_its_digits(alpha_sq):
    got = key_rate(SchemeConfig("nops", alpha_sq=alpha_sq), 0.5).rate_raw
    assert got == pytest.approx(_NOPS_STRONG[alpha_sq], rel=1e-6)


@pytest.mark.parametrize("exponent", range(3, 18))
def test_strong_source_moments_are_exact(exponent):
    a2 = 10.0**exponent
    s = exact_summary(SchemeConfig("nops", alpha_sq=a2), 0.5)
    v = 1.0 + 2.0 * a2
    assert s.v_a == pytest.approx(v, rel=1e-12)
    assert s.v_b2 == pytest.approx(0.5 * v + 0.5 * 1.002, rel=1e-12)
    assert abs(s.c_ab2) == pytest.approx(math.sqrt(0.5 * (v * v - 1.0)), rel=1e-12)


@pytest.mark.parametrize("exponent", range(9, 18))
def test_too_strong_source_is_rejected_by_name(exponent):
    with pytest.raises(ValueError, match="alpha_sq"):
        key_rate(SchemeConfig("nops", alpha_sq=10.0**exponent), 0.5)


@pytest.mark.parametrize("scheme", ["tps", "rps"])
def test_tapped_strong_source_saturates(scheme):
    # the tap caps the photon number that reaches the bound: V_A stays small
    rates = [key_rate(SchemeConfig(scheme, alpha_sq=10.0**e), 0.5).rate_raw for e in range(3, 18)]
    assert all(math.isfinite(r) for r in rates)
    assert max(rates[7:]) - min(rates[7:]) < 1e-9  # alpha_sq >= 1e10
