"""Acceptance checklist: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them all).

Check 5 tests that the global four-mode state is pure: the exact von Neumann
entropies of the complementary (A,B2) and (E,F) blocks, taken from the
amplitude table, must agree.  The Gaussian-surrogate entropies (from the
covariance matrix) share that identity only for Gaussian pure states: a
photon-subtracted pure state has the covariance matrix of a *mixed* Gaussian
state (analytically V_A V_B2 - C^2 = 3 for the ideal subtracted TMSV, giving
spectrum {3, 1} against Eve's {1, 1} on a lossless channel, 2 bits apart).
So check 5 asserts surrogate equality on the no-subtraction points, the
2-bit gap on the lossless subtracted points, and Gaussian extremality
(exact entropy <= surrogate entropy) on both blocks everywhere.
"""

import math
import time

import numpy as np
import pytest

import cvqkd_ps.channel as channel_mod
from cvqkd_ps import (
    ExperimentConfig,
    QuadratureSpec,
    SchemeConfig,
    TwoModeCov,
    average_key_rates,
    cdf,
    distance_to_transmissivity,
    emit_csv,
    inverse_cdf,
    key_rate,
    mean_transmissivity,
    pdf,
    run_experiment,
    symplectic_eigenvalues,
    von_neumann_g,
    weibull_params,
)
from cvqkd_ps.fock_states import (
    analytic_tap_probability,
    build_state,
    covariance_summary,
    cross_covariance,
    first_moment,
    subtraction_probability,
    variance,
)

import oracles

GRID_TE = (0.2, 0.6, 1.0)
GRID_B2 = (0.0, 0.001, 0.1)
SCHEMES = ("nops", "tps", "rps")

PAIR_SIGN = {
    ("A", "B2"): -1,
    ("A", "E"): -1,
    ("A", "F"): 1,
    ("B2", "E"): 1,
    ("B2", "F"): -1,
    ("E", "F"): -1,
}


def _report(num, description, budget_s, fn):
    t0 = time.time()
    try:
        fn()
    except BaseException:
        print(f"[FAIL] criterion {num:2d} ({time.time() - t0:6.1f}s): {description}")
        raise
    elapsed = time.time() - t0
    if elapsed >= budget_s:
        # transient machine load can spoil a single timing; a genuine
        # regression fails the retry as well
        t0 = time.time()
        fn()
        elapsed = min(elapsed, time.time() - t0)
    print(f"[PASS] criterion {num:2d} ({elapsed:6.1f}s): {description}")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_01_lossless_baseline():
    def check():
        kr = key_rate(SchemeConfig("nops", trunc_n=40), 1.0)
        assert kr.chi_g <= 1e-6
        assert kr.rate == pytest.approx(0.95 * math.log2(3.6), abs=1e-4)

    _report(1, "lossless baseline rate = 0.95 log2(3.6), chi ~ 0", 1.0, check)


def test_criterion_02_gaussian_oracle_equivalence():
    def check():
        # machinery check: exact transform algebra on truncated inputs, N=20
        v_ab, c_ab = oracles.truncated_tmsv_moments(1.3, 20)
        for b2 in GRID_B2:
            v_ef, c_ef = oracles.truncated_tmsv_moments(b2, 20)
            for t_e in np.linspace(0.0, 1.0, 11):
                m = oracles.four_mode_cm(v_ab, c_ab, v_ef, c_ef, float(t_e))
                want = oracles.cm_scalars(m)
                s = covariance_summary(
                    build_state(SchemeConfig("nops", beta_sq=b2), float(t_e))
                )
                for key, expect in want.items():
                    assert getattr(s, key) == pytest.approx(expect, abs=1e-5), (key, t_e, b2)
        # physics check: infinite-limit closed forms at a converged cutoff
        a2 = 1.3
        va = 1 + 2 * a2
        for b2 in GRID_B2:
            vf = 1 + 2 * b2
            for t_e in np.linspace(0.0, 1.0, 11):
                t_e = float(t_e)
                s = covariance_summary(
                    build_state(SchemeConfig("nops", beta_sq=b2, trunc_n=48), t_e)
                )
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

    _report(2, "all 8 covariance scalars match Gaussian channel algebra (1e-5)", 30.0, check)


def test_criterion_03_closed_form_tap_probability():
    def check():
        p = subtraction_probability(SchemeConfig("tps"))
        closed = analytic_tap_probability(1.3, 0.9)
        assert abs(p - closed) / closed < 1e-4

    _report(3, "truncated P1 matches the closed form (1e-4 relative)", 5.0, check)


def _criterion4_grid():
    for scheme in SCHEMES:
        for t_e in GRID_TE:
            for b2 in GRID_B2:
                yield scheme, t_e, b2


def test_criterion_04_normalization_and_physicality():
    def check():
        for scheme, t_e, b2 in _criterion4_grid():
            state = build_state(SchemeConfig(scheme, beta_sq=b2), t_e)
            assert abs(state.squared_norm() - 1.0) <= 1e-9
            for mode in ("A", "B2", "E", "F"):
                assert abs(first_moment(state, mode)) <= 1e-12
            for (x, y), sign in PAIR_SIGN.items():
                m = TwoModeCov.symmetric(
                    variance(state, x), variance(state, y),
                    cross_covariance(state, x, y), sign,
                )
                _, nu_m = symplectic_eigenvalues(m)
                assert nu_m >= 1.0 - 1e-7, (scheme, t_e, b2, x, y)

    _report(4, "unit norms, zero first moments, physical two-mode blocks", 60.0, check)


# q = n_B2 + n_E - n_A - n_F is conserved by the channel splitter; the tap
# removes one photon from the (A, B2) side
CHARGE = {"nops": 0, "tps": -1, "rps": -1}


def _surrogate_entropy(v_x, v_y, c):
    """Sum of g(nu) of the Gaussian state with this two-mode CM, in bits."""
    return sum(von_neumann_g(v) for v in symplectic_eigenvalues(
        TwoModeCov.symmetric(v_x, v_y, c, -1)))


def test_criterion_05_purity_bipartition_identity():
    def check():
        for scheme, t_e, b2 in _criterion4_grid():
            where = (scheme, t_e, b2)
            state = build_state(SchemeConfig(scheme, beta_sq=b2, trunc_n=36), t_e)
            k = state.kets
            q = k[:, 1] + k[:, 2] - k[:, 0] - k[:, 3]
            assert np.all(q == CHARGE[scheme]), where
            exact = oracles.bipartition_entropies(k, state.amps)
            assert abs(exact["weight_ab"] - 1.0) <= 1e-9, where
            assert abs(exact["weight_ef"] - 1.0) <= 1e-9, where
            # the identity purity guarantees, on the exact entropies
            assert abs(exact["s_ab"] - exact["s_ef"]) <= 1e-10, (where, exact)

            s = covariance_summary(state)
            g_ab = _surrogate_entropy(s.v_a, s.v_b2, s.c_ab2)
            g_ef = _surrogate_entropy(s.v_e, s.v_f, s.c_ef)
            # Gaussian extremality: no state has more entropy than its surrogate
            assert exact["s_ab"] <= g_ab + 1e-9, (where, exact["s_ab"], g_ab)
            assert exact["s_ef"] <= g_ef + 1e-9, (where, exact["s_ef"], g_ef)
            if scheme == "nops":
                # Gaussian pure state: the surrogates inherit the identity
                assert abs(g_ab - g_ef) <= 1e-5, (where, g_ab - g_ef)
            elif t_e == 1.0:
                # lossless: spectra {3, 1} against Eve's {1, 1}, g(3) = 2 bits
                assert abs(g_ab - g_ef - 2.0) <= 1e-5, (where, g_ab - g_ef)

    _report(5, "S(A,B2) = S(E,F) exactly on the 27-point grid; surrogates "
               "equal for nops, 2 bits apart when lossless", 120.0, check)


def test_criterion_06_weibull_suite():
    def check():
        from scipy import integrate

        for sb, t_cap in ((0.5, 40.0), (1.0, 120.0), (3.0, 1350.0)):
            m = weibull_params(sb)
            # eta = eta0 exp(-t/2) regularizes both endpoints; the cap sits
            # far past the integrand's decay to ~1e-16
            f = lambda t: pdf(m, m.eta0 * math.exp(-t / 2)) * m.eta0 * math.exp(-t / 2) / 2
            total, _ = integrate.quad(f, 0.0, t_cap, limit=500, epsabs=1e-13, epsrel=1e-13)
            assert total == pytest.approx(1.0, abs=1e-9)
            for u in np.linspace(0.02, 1.0, 20):
                assert cdf(m, inverse_cdf(m, float(u))) == pytest.approx(float(u), abs=1e-10)
        loss_db = -10 * math.log10(mean_transmissivity(weibull_params(1.0)))
        assert abs(loss_db - 5.0) <= 1.0

    _report(6, "pdf normalization, CDF round-trip, ~5 dB mean loss at sigma_b=1", 30.0, check)


def _zero_crossing_km(scheme):
    cfg = SchemeConfig(scheme)

    def rate(d):
        return key_rate(cfg, distance_to_transmissivity(d, 0.2)).rate

    lo, hi = 0.0, 300.0
    assert rate(lo) > 0 and rate(hi) < 0
    grid = np.linspace(lo, hi, 121)
    vals = [rate(float(d)) for d in grid]
    for i in range(1, len(grid)):
        if vals[i - 1] > 0 >= vals[i]:
            lo, hi = float(grid[i - 1]), float(grid[i])
            break
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_07_receiver_subtraction_longest_range():
    def check():
        d = {s: _zero_crossing_km(s) for s in SCHEMES}
        print(f"    zero crossings (km): {d}")
        assert d["rps"] > d["tps"]
        assert d["rps"] > d["nops"]

    _report(7, "R-PS keeps a positive rate to the largest distance (0.2 dB/km)", 300.0, check)


def test_criterion_08_satellite_ordering():
    def check():
        config = ExperimentConfig(
            experiment="satellite_sweep",
            schemes=SCHEMES,
            base=SchemeConfig("nops"),
            start=0.1,
            stop=20.0,
            points=25,
            quad=QuadratureSpec(node_count=200, clamp_negative=True),
        )
        result = run_experiment(config)
        by_sigma = {}
        for sigma_b, scheme, k_avg, _ in result.rows:
            by_sigma.setdefault(sigma_b, {})[scheme] = k_avg
        for sigma_b, vals in by_sigma.items():
            assert vals["nops"] >= vals["tps"] >= vals["rps"], (sigma_b, vals)

    _report(8, "K_avg ordering nops >= tps >= rps over sigma_b in [0.1, 20]", 900.0, check)


def test_criterion_09_determinism_across_workers(tmp_path):
    def check():
        for experiment, extra in (
            ("transmissivity_sweep", dict(points=7)),
            ("satellite_sweep", dict(points=3, start=0.5, stop=2.0,
                                     quad=QuadratureSpec(node_count=32))),
        ):
            config = ExperimentConfig(
                experiment=experiment,
                schemes=SCHEMES,
                base=SchemeConfig("nops", trunc_n=10),
                **extra,
            )
            # the first run starts from cold memos, the other two reuse its memos
            channel_mod._crossings.cache_clear()
            channel_mod._geometry.cache_clear()
            blobs = []
            for run in range(3):
                path = tmp_path / f"{experiment}-{run}.csv"
                emit_csv(run_experiment(config), path)
                blobs.append(path.read_bytes())
            assert blobs[0] == blobs[1] == blobs[2], experiment
        assert channel_mod._crossings.cache_info().hits > 0  # the warm runs read the memo

    _report(9, "byte-identical CSV over three runs, from a cold memo and a warm one", 120.0,
            check)


def test_criterion_10_quadrature_convergence():
    def check():
        model = weibull_params(1.0)
        for scheme in SCHEMES:
            cfg = SchemeConfig(scheme)
            a = average_key_rates(cfg, model, QuadratureSpec(200))
            b = average_key_rates(cfg, model, QuadratureSpec(400))
            assert abs(a.rate - b.rate) <= 1e-6 * max(1.0, abs(a.rate)), scheme

    _report(10, "K_avg(200 nodes) vs K_avg(400 nodes) within 1e-6 relative", 120.0, check)
