"""The closed-form moments against the 4x4 Wick generator they replaced, the
truncated Fock pipeline, the naive oracle, 50-digit pins, and the physical
domain of the key-rate figure."""

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
    TwoModeCov,
    conditional_cov_ef_given_b2,
    exact_summary,
    key_rate,
    key_rates,
    symplectic_eigenvalues,
)
from cvqkd_ps.cli import main as cli_main
from cvqkd_ps.exact import _channel, _Moments
from cvqkd_ps.fock_states import build_state, covariance_summary

import oracles
import wick_reference
from csv_reader import parse_csv

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


@pytest.mark.parametrize("scheme", ["nops", "tps", "rps"])
@pytest.mark.parametrize("t_e,b2", [(0.3, 1e-3), (0.8, 0.1)])
def test_fock_reference_converges_with_the_cutoff(scheme, t_e, b2):
    # the truncation tail shrinks geometrically in N (about 4e-2, 1e-3, 1e-7
    # and 1e-10 or less at these points); every field is nonzero here
    got = exact_summary(SchemeConfig(scheme, beta_sq=b2), t_e)
    deviations = []
    for n in (8, 16, 32, 48):
        cfg = SchemeConfig(scheme, beta_sq=b2, trunc_n=n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # small cutoffs warn, as they should
            want = covariance_summary(build_state(cfg, t_e))
        deviations.append(max(abs(getattr(want, name) / getattr(got, name) - 1.0)
                              for name in CovarianceSummary.CSV_COLUMNS))
    assert all(b < a for a, b in zip(deviations, deviations[1:])), deviations
    assert deviations[-1] <= 1e-8, deviations


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
    # p_sub: the same thermal form m / (1 + m)^2 for both
    assert rps.p_sub == pytest.approx(tps.p_sub, rel=1e-15)
    assert rps.rate == pytest.approx(tps.rate, rel=1e-15)


def test_faint_source_keeps_its_correlations():
    # c_ab2 grows as sqrt(alpha_sq) for a faint source; at 1e-300 the
    # unnormalised Wick terms would underflow
    ratios = [exact_summary(SchemeConfig("tps", alpha_sq=a2), 0.5).c_ab2 / math.sqrt(a2)
              for a2 in (1e-20, 1e-300)]
    assert ratios[1] == pytest.approx(ratios[0], rel=1e-9)


@pytest.mark.parametrize("scheme,t_e", [("tps", 0.5), ("rps", 1.0), ("rps", 0.5)])
@pytest.mark.parametrize("alpha_sq", [1e-20, 1e-300])
def test_faint_source_keeps_its_tap_probability(scheme, t_e, alpha_sq):
    # p_sub = m / (1 + m)^2 -> m = (1 - t_s) n_B; from (V_B - 1) / 2 it would be 0
    p_sub = exact_summary(SchemeConfig(scheme, alpha_sq=alpha_sq, beta_sq=0.0), t_e).p_sub
    n_b = alpha_sq * (1.0 if scheme == "tps" else t_e)
    assert p_sub == pytest.approx(0.1 * n_b, rel=1e-12, abs=0.0)


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
    s = exact_summary(cfg, t_e)  # a float gets an array element's answer: vacuum, p_sub = 0
    assert (s.v_a, s.v_b2, s.v_e, s.v_f) == (1, 1, 1, 1)
    assert (s.c_ab2, s.c_ef, s.c_eb2, s.c_fb2, s.p_sub) == (0,) * 5
    kr = key_rate(cfg, t_e)
    assert kr.t_e == t_e
    assert (kr.p_sub, kr.i_g, kr.chi_g, kr.rate_raw, kr.rate) == (0,) * 5


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
        symplectic_eigenvalues(TwoModeCov.symmetric(s.v_e, s.v_f, s.c_ef))
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
    for m in (TwoModeCov.symmetric(s.v_e, s.v_f, s.c_ef), conditional_cov_ef_given_b2(s)):
        assert np.all(symplectic_eigenvalues(m)[1] >= 1.0)


# ------------------------------------------------------------ strong sources

# nops rate_raw at T_E = 0.5 from the closed-form moments and the same bound in
# 60-digit arithmetic (mpmath)
_NOPS_STRONG = {1e3: 0.713668163783, 1e5: 0.548413341467, 1e8: 0.299277234794}


@pytest.mark.parametrize("alpha_sq", sorted(_NOPS_STRONG))
def test_strong_source_keeps_its_digits(alpha_sq):
    got = key_rate(SchemeConfig("nops", alpha_sq=alpha_sq), 0.5).rate_raw
    assert got == pytest.approx(_NOPS_STRONG[alpha_sq], rel=1e-6)


def _source_block(scheme, a2, t_s=0.9):
    """(V_A, V_B, C_AB) that enter the channel: the TMSV, or for tps the TMSV
    with one photon tapped off B, with y = a2 t_s / (1 + a2)."""
    if scheme == "nops":
        v = 1.0 + 2.0 * a2
        return v, v, math.sqrt(v * v - 1.0)
    y = a2 * t_s / (1.0 + a2)
    return (3.0 + y) / (1.0 - y), (1.0 + 3.0 * y) / (1.0 - y), 4.0 * math.sqrt(y) / (1.0 - y)


@pytest.mark.parametrize("scheme,exponent", [
    pytest.param(scheme, e, id=str(e) if scheme == "nops" else f"{scheme}-{e}")
    for scheme in ("nops", "tps") for e in range(3, 18)
])
def test_strong_source_moments_are_exact(scheme, exponent):
    a2 = 10.0**exponent
    s = exact_summary(SchemeConfig(scheme, alpha_sq=a2), 0.5)
    v_a, v_b, c = _source_block(scheme, a2)
    assert s.v_a == pytest.approx(v_a, rel=1e-12)
    assert s.v_b2 == pytest.approx(0.5 * v_b + 0.5 * 1.002, rel=1e-12)
    assert abs(s.c_ab2) == pytest.approx(math.sqrt(0.5) * c, rel=1e-12)


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


# ---------------------------------------------- against the 4x4 Wick generator

_MOMENTS = CovarianceSummary.CSV_COLUMNS[:-1]
_UNIT = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(("nops", "tps", "rps")),
    alpha_sq=st.floats(0.0, 5e8),
    beta_sq=st.floats(0.0, 1.0),
    t_s=_UNIT,
    t_e=st.lists(_UNIT, min_size=1, max_size=12),
)
def test_closed_forms_match_wick_generator(scheme, alpha_sq, beta_sq, t_s, t_e):
    cfg = SchemeConfig(scheme, alpha_sq=alpha_sq, beta_sq=beta_sq, t_s=t_s)
    te = np.array(t_e)
    got, want = exact_summary(cfg, te), wick_reference.exact_summary(cfg, te)
    largest = np.max([np.abs(getattr(want, name)) for name in _MOMENTS], axis=0)
    off = np.zeros(te.shape, dtype=bool)
    for name in CovarianceSummary.CSV_COLUMNS:
        off |= np.abs(getattr(got, name) - getattr(want, name)) > 1e-12 * largest
    for i in np.flatnonzero(off):
        # the 4x4 solve loses up to ~5e-9 of a strong source's moments as t_s -> 1
        # (rps, beta_sq = 0); there its 50-digit evaluation decides
        ref = wick_reference.mp_summary(scheme, alpha_sq, beta_sq, t_s, te[i])
        big = max(abs(float(ref[name])) for name in _MOMENTS)
        for name in CovarianceSummary.CSV_COLUMNS:
            assert abs(getattr(got, name)[i] - float(ref[name])) <= 1e-12 * big, name
    # no photon reaches the tap: exactly p_sub = 0 and vacuum moments
    never = np.zeros(te.shape, dtype=bool)
    if scheme == "tps":
        never[:] = alpha_sq == 0.0
    elif scheme == "rps":
        never = ((alpha_sq == 0.0) | (te == 0.0)) & ((beta_sq == 0.0) | (te == 1.0))
    assert np.all(got.p_sub[never] == 0.0)
    for name in _MOMENTS:
        assert np.all(getattr(got, name)[never] == (1.0 if name.startswith("v_") else 0.0)), name
    for i, t in enumerate(t_e):  # a float t_e gets its array element's answer
        one = exact_summary(cfg, t)
        assert [getattr(one, name) for name in CovarianceSummary.CSV_COLUMNS] == \
            [getattr(got, name)[i] for name in CovarianceSummary.CSV_COLUMNS]


@settings(max_examples=200, deadline=None)
@given(alpha_sq=st.floats(0.0, 5e8), beta_sq=st.floats(0.0, 1.0), t_e=_UNIT)
def test_channel_matches_gaussian_toolbox(alpha_sq, beta_sq, t_e):
    a, b = alpha_sq, beta_sq
    q = _channel(_Moments(a, a, b, b, math.sqrt(a * (1 + a)), math.sqrt(b * (1 + b)), 0.0, 0.0),
                 t_e)
    got = dict(zip(_MOMENTS, [1.0 + 2.0 * n for n in q[:4]] + [2.0 * k for k in q[4:]]))
    want = oracles.cm_scalars(oracles.four_mode_cm(1 + 2 * a, 2 * math.sqrt(a * (1 + a)),
                                                   1 + 2 * b, 2 * math.sqrt(b * (1 + b)), t_e))
    largest = max(abs(v) for v in want.values())
    for name, v in want.items():
        assert abs(got[name] - v) <= 1e-13 * largest, name


# tps and rps moments and p_sub at beta_sq = 1e-3, t_s = 0.9, from the 4x4 Wick
# generator in 50-digit arithmetic (wick_reference.mp_summary), in the order
# of CovarianceSummary.CSV_COLUMNS
_PINS = {
    ("tps", 1e-06, 1e-12): (3.00000359999964, 1.001999999999998, 1.000003599999642, 1.002, 3.794734710094706e-09, 6.32771680782255e-08, 1.9964000003590016e-09, 0.06327716807819386, 9.999998000000297e-08),
    ("tps", 1e-06, 0.3): (3.00000359999964, 1.001401079999892, 1.000602519999748, 1.002, 0.0020784618004666975, 0.034658332331489926, 0.0009148654119059567, 0.052941477123329306, 9.999998000000297e-08),
    ("tps", 1e-06, 0.999999999999): (3.00000359999964, 1.000003599999642, 1.001999999999998, 1.002, 0.0037947347100928085, 0.06327716807819386, 1.996377918335849e-09, 6.327646817445355e-08, 9.999998000000297e-08),
    ("tps", 1.3, 1e-12): (7.1415929203539825, 1.0020000000041396, 5.141592920349843, 1.002, 5.806820438014436e-06, 6.32771680782255e-08, -4.139592920351912e-06, 0.06327716807819386, 0.10180906883859345),
    ("tps", 1.3, 0.3): (7.1415929203539825, 2.2438778761061946, 3.8997150442477877, 1.002, 3.1805265412825356, 0.034658332331489926, -1.8969997903825426, 0.052941477123329306, 0.10180906883859345),
    ("tps", 1.3, 0.999999999999): (7.1415929203539825, 5.141592920349843, 1.0020000000041396, 1.002, 5.806820438011532, 0.06327716807819386, -4.139547132640685e-06, 6.327646817445355e-08, 0.10180906883859345),
    ("tps", 1000.0, 1e-12): (38.643564356435654, 1.0020000000356415, 36.64356435640001, 1.002, 3.759039687815377e-05, 6.32771680782255e-08, -3.564156435641783e-05, 0.06327716807819386, 0.00980296049406921),
    ("tps", 1000.0, 0.3): (38.643564356435654, 11.694469306930696, 25.951095049504957, 1.002, 20.589108315736596, 0.034658332331489926, -16.33301665500064, 0.052941477123329306, 0.00980296049406921),
    ("tps", 1000.0, 0.999999999999): (38.643564356435654, 36.64356435640001, 1.0020000000356408, 1.002, 37.590396878134975, 0.06327716807819386, -3.5641170127881875e-05, 6.327646817445355e-08, 0.00980296049406921),
    ("tps", 100000000.0, 1e-12): (38.99999640000037, 1.002000000035998, 36.999996399964374, 1.002, 3.7947328317024386e-05, 6.32771680782255e-08, -3.599799639998237e-05, 0.06327716807819386, 9.999998000000302e-08),
    ("tps", 100000000.0, 0.3): (38.99999640000037, 11.80139892000011, 26.20059748000026, 1.002, 20.784607716288807, 0.034658332331489926, -16.496354336974953, 0.052941477123329306, 9.999998000000302e-08),
    ("tps", 100000000.0, 0.999999999999): (38.99999640000037, 36.999996399964374, 1.0020000000359972, 1.002, 37.947328317005415, 0.06327716807819386, -3.5997598228979654e-05, 6.327646817445355e-08, 9.999998000000302e-08),
    ("rps", 1e-06, 1e-12): (1.000002000000002, 1.0035996400359928, 1.000002000000004, 3.0035996400359948, 3.794355654002777e-09, 1.2647841747434208e-07, 3.7905594030676514e-09, 0.12004798020941436, 9.998000299950017e-05),
    ("rps", 1e-06, 0.3): (1.0008586565326296, 1.0025209034611307, 1.0011998602548944, 3.0028621071833954, 0.002078316463810917, 0.06926232699501994, 0.0017371045948984091, 0.10044235626384258, 7.002019262842735e-05),
    ("rps", 1e-06, 0.999999999999): (3.000003597999682, 1.0000035999996435, 1.002000000001994, 1.0020000020019553, 0.003794734710092808, 0.06327716814140634, 3.79089614864665e-09, 1.2005864502759343e-07, 9.999998009990072e-08),
    ("rps", 1.3, 1e-12): (3.600000005978804, 1.003599640040672, 3.6000000033715294, 3.0035996374333966, 6.561050989856474e-06, -8.211732629419029e-05, -4.928865530114353e-06, 0.12004798020939876, 9.998000312944808e-05),
    ("rps", 1.3, 0.3): (7.846449596649486, 2.3536335376827355, 4.498133213071959, 1.0053171541052088, 3.4588574317892586, -0.03993815675724507, -2.1739784684342824, 0.09667239959006779, 0.03618710154493749),
    ("rps", 1.3, 0.999999999999): (7.141592920354916, 5.141592920350321, 1.0020000000045965, 1.0020000000000011, 5.8068204380122, 0.06327716807814518, -4.362215834887962e-06, 1.0624659914466526e-07, 0.10180906883851513),
    ("rps", 1000.0, 1e-12): (2001.0020015976381, 1.003599643635273, 2001.0019995920409, 3.003597638038039, 0.0037962504592679784, -0.06326432409130443, -0.003794349962091322, 0.12004798019741077, 9.998010295950904e-05),
    ("rps", 1000.0, 0.3): (128.16536861618596, 35.83871229968191, 91.32865194655656, 1.0019956300525268, 67.08049175016043, 0.11031015068475171, -56.095469157892985, 0.003240295594237425, 0.031217413648565877),
    ("rps", 1000.0, 0.999999999999): (38.643564356474904, 36.6435643564353, 1.002000000039605, 1.002, 37.59039687817219, 0.06327716807825588, -3.757116261651246e-05, 1.1886995745898697e-09, 0.009802960494078819),
    ("rps", 100000000.0, 1e-12): (218177819.8035645, 1.0039595644479071, 218177819.62120458, 2.8215996440389906, 379.43158364337137, -5751.20442100481, -379.43158174222947, 0.12004677986165052, 0.00010997580399231446),
    ("rps", 100000000.0, 0.3): (132.33795688272764, 36.99998800000401, 94.33996888267691, 1.0019999999532867, 69.2820095535455, 0.11552772052266068, -57.96548766099637, 3.348311891886301e-08, 3.333331111034445e-07),
    ("rps", 100000000.0, 0.999999999999): (38.99999640004037, 36.99999640000037, 1.0020000000400011, 1.002, 37.947328317043365, 0.06327716807825713, -3.794690839451984e-05, 1.2005864502771353e-14, 9.999998000010302e-08),
}


@pytest.mark.parametrize("scheme,alpha_sq,t_e", sorted(_PINS))
def test_moments_match_50_digit_pins(scheme, alpha_sq, t_e):
    got = exact_summary(SchemeConfig(scheme, alpha_sq=alpha_sq), t_e)
    for name, want in zip(CovarianceSummary.CSV_COLUMNS, _PINS[scheme, alpha_sq, t_e]):
        assert getattr(got, name) == pytest.approx(want, rel=1e-13, abs=0.0), name


def test_pins_are_the_50_digit_reference():
    pytest.importorskip("mpmath")
    for (scheme, alpha_sq, t_e), pins in _PINS.items():
        ref = wick_reference.mp_summary(scheme, alpha_sq, 1e-3, 0.9, t_e)
        assert tuple(float(ref[name]) for name in CovarianceSummary.CSV_COLUMNS) == pins
