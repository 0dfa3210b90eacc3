import math

import numpy as np
import pytest

from cvqkd_ps import (
    SchemeConfig,
    TwoModeCov,
    symplectic_eigenvalues,
    von_neumann_g,
)
from cvqkd_ps.fock_states import (
    build_state,
    covariance_summary,
    cross_covariance,
    first_moment,
    mean_occupation,
    variance,
)

import oracles

MODES = ("A", "B2", "E", "F")


def state_for(scheme, t_e, **kw):
    return build_state(SchemeConfig(scheme, **kw), t_e)


# -------------------------------------------------------------- mean / variance

def test_tmsv_mean_occupation():
    s = state_for("nops", 1.0, beta_sq=0.0)
    assert mean_occupation(s, "A") == pytest.approx(1.3, abs=2e-4)
    assert variance(s, "A") == pytest.approx(3.6, abs=4e-4)


def test_vacuum_modes_are_exactly_empty():
    s = state_for("nops", 1.0, beta_sq=0.0)
    assert mean_occupation(s, "F") == 0.0
    assert variance(s, "F") == 1.0
    s = state_for("nops", 0.0, beta_sq=0.0)
    assert variance(s, "B2") == 1.0


def test_subtracted_tmsv_mean_occupation():
    # near-unit tap transmissivity, lossless channel: <n_A> -> 1 + 2 alpha^2,
    # cross-checked against a brute-force sum over the dumped state
    s = state_for("tps", 1.0, beta_sq=0.0, t_s=1.0 - 1e-9)
    got = mean_occupation(s, "A")
    amp = {}
    for line in s.dump().strip().split("\n"):
        *ket, a = line.split()
        amp[tuple(int(v) for v in ket)] = float(a)
    brute = sum(a * a * k[0] for k, a in amp.items())
    assert got == pytest.approx(brute, abs=1e-12)
    assert got == pytest.approx(3.6, abs=5e-3)


# ------------------------------------------------------------ cross covariance

def test_tmsv_covariance_closed_form():
    s = state_for("nops", 1.0, beta_sq=0.0, trunc_n=45)
    assert cross_covariance(s, "A", "B2") == pytest.approx(
        2 * math.sqrt(1.3 * 2.3), abs=1e-6
    )


def test_lossy_covariance_closed_form():
    for t_e in (0.15, 0.5, 0.85):
        s = state_for("nops", t_e, beta_sq=0.0, trunc_n=45)
        assert cross_covariance(s, "A", "B2") == pytest.approx(
            math.sqrt(t_e) * 2 * math.sqrt(1.3 * 2.3), abs=1e-6
        )


def test_eve_side_covariances_closed_form():
    b2 = 0.001
    for t_e in (0.3, 0.7):
        s = state_for("nops", t_e, beta_sq=b2)
        assert cross_covariance(s, "F", "B2") == pytest.approx(
            math.sqrt(1 - t_e) * 2 * math.sqrt(b2 * (1 + b2)), abs=1e-6
        )
        assert cross_covariance(s, "E", "F") == pytest.approx(
            math.sqrt(t_e) * 2 * math.sqrt(b2 * (1 + b2)), abs=1e-6
        )


def test_ef_zero_for_vacuum_eve():
    s = state_for("tps", 0.6, beta_sq=0.0)
    assert cross_covariance(s, "E", "F") == 0.0


def test_symmetry_is_exact():
    s = state_for("rps", 0.45)
    for x in MODES:
        for y in MODES:
            if x != y:
                assert cross_covariance(s, x, y) == cross_covariance(s, y, x)
    with pytest.raises(ValueError):
        cross_covariance(s, "A", "A")


def test_first_moments_vanish():
    for scheme in ("nops", "tps", "rps"):
        s = state_for(scheme, 0.62)
        for mode in MODES:
            assert abs(first_moment(s, mode)) <= 1e-12


# ------------------------------------------------------------------- summaries

def test_identity_channel_decouples_eve():
    s = covariance_summary(state_for("nops", 1.0))
    assert abs(s.c_eb2) <= 1e-9
    assert abs(s.c_fb2) <= 1e-9


def test_lossy_channel_bob_variance():
    for t_e in (0.2, 0.6):
        for b2 in (0.001, 0.1):
            s = covariance_summary(state_for("nops", t_e, beta_sq=b2))
            expect = t_e * 3.6 + (1 - t_e) * (1 + 2 * b2)
            assert s.v_b2 == pytest.approx(expect, abs=1e-3)


def test_gaussian_transform_oracle_full_grid():
    """Exact beam-splitter algebra on the truncated input moments must match
    the pipeline to near machine precision at the working cutoff."""
    v_ab, c_ab = oracles.truncated_tmsv_moments(1.3, 20)
    for b2 in (0.0, 0.001, 0.1):
        v_ef, c_ef = oracles.truncated_tmsv_moments(b2, 20)
        for t_e in np.linspace(0.0, 1.0, 11):
            m = oracles.four_mode_cm(v_ab, c_ab, v_ef, c_ef, float(t_e))
            want = oracles.cm_scalars(m)
            s = covariance_summary(state_for("nops", float(t_e), beta_sq=b2))
            for key, expect in want.items():
                assert getattr(s, key) == pytest.approx(expect, abs=1e-10), (key, t_e, b2)


def test_gaussian_closed_form_converged_cutoff():
    """Against infinite-limit closed forms, once the truncation tail is gone."""
    a2 = 1.3
    for b2 in (0.0, 0.001, 0.1):
        for t_e in (0.0, 0.4, 0.8, 1.0):
            s = covariance_summary(state_for("nops", t_e, beta_sq=b2, trunc_n=48))
            va, vf = 1 + 2 * a2, 1 + 2 * b2
            want = dict(
                v_a=va,
                v_b2=t_e * va + (1 - t_e) * vf,
                v_e=(1 - t_e) * va + t_e * vf,
                v_f=vf,
                c_ab2=math.sqrt(t_e) * 2 * math.sqrt(a2 * (1 + a2)),
                c_ef=math.sqrt(t_e) * 2 * math.sqrt(b2 * (1 + b2)),
                c_eb2=math.sqrt(t_e * (1 - t_e)) * 2 * (b2 - a2),
                c_fb2=math.sqrt(1 - t_e) * 2 * math.sqrt(b2 * (1 + b2)),
            )
            for key, expect in want.items():
                assert getattr(s, key) == pytest.approx(expect, abs=1e-5), (key, t_e, b2)


def test_matches_naive_pipeline():
    for scheme in ("nops", "tps", "rps"):
        s = covariance_summary(state_for(scheme, 0.6, trunc_n=12))
        naive = oracles.naive_summary(
            oracles.build_naive(scheme, 1.3, 0.001, 0.9, 0.6, 12)[0]
        )
        for key, expect in naive.items():
            assert getattr(s, key) == pytest.approx(expect, abs=1e-12), (scheme, key)


# ---------------------------------------------------------------- physicality

PAIR_SIGN = {
    ("A", "B2"): -1,
    ("A", "E"): -1,
    ("A", "F"): 1,
    ("B2", "E"): 1,
    ("B2", "F"): -1,
    ("E", "F"): -1,
}


@pytest.mark.parametrize("scheme", ["nops", "tps", "rps"])
@pytest.mark.parametrize("t_e", [0.2, 0.6, 1.0])
def test_all_pairs_physical(scheme, t_e):
    s = state_for(scheme, t_e)
    for (x, y), sign in PAIR_SIGN.items():
        m = TwoModeCov.symmetric(variance(s, x), variance(s, y),
                                 cross_covariance(s, x, y), sign)
        nu_p, nu_m = symplectic_eigenvalues(m)
        assert nu_m >= 1.0 - 1e-7, (scheme, t_e, x, y, nu_m)


def test_purity_bipartition_identity_gaussian_scheme():
    """For the Gaussian (no subtraction) state the two complementary two-mode
    blocks share their symplectic spectrum; valid only in the Gaussian case."""
    for t_e in (0.2, 0.6, 1.0):
        for b2 in (0.0, 0.001, 0.1):
            s = covariance_summary(state_for("nops", t_e, beta_sq=b2, trunc_n=40))
            g_ef = sum(von_neumann_g(v) for v in symplectic_eigenvalues(
                TwoModeCov.symmetric(s.v_e, s.v_f, s.c_ef, -1)))
            g_ab = sum(von_neumann_g(v) for v in symplectic_eigenvalues(
                TwoModeCov.symmetric(s.v_a, s.v_b2, s.c_ab2, -1)))
            assert g_ef == pytest.approx(g_ab, abs=1e-5)
