import dataclasses
import decimal
import importlib
import itertools
import math
import pkgutil
import re

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

import cvqkd_ps.channel as channel_mod
import cvqkd_ps.keyrate as keyrate_mod
from cvqkd_ps import (
    KeyRatePoint,
    NumericalDomainError,
    QuadratureSpec,
    SchemeConfig,
    average_key_rates,
    average_key_rates_many,
    bessel_ive,
    cdf,
    distance_to_transmissivity,
    inverse_cdf,
    key_rate,
    key_rates,
    mean_transmissivity,
    pdf,
    weibull_params,
)
from cvqkd_ps.cli import main as cli_main

from csv_reader import parse_csv

# frozen from an independent high-precision evaluation (scipy Bessel chain)
ETA0_H1 = 0.9298734950321937
LAMBDA_H1 = 2.312896075706477
L_H1 = 1.1136114660787633
EPS = np.finfo(float).eps


# -------------------------------------------------------------------- bessel
# bessel_ive is the only Bessel function; these cover x = 0, the reference
# values and scipy agreement from 0 up to 5000.

def test_bessel_at_zero():
    assert bessel_ive(0, 0.0) == 1.0
    assert bessel_ive(1, 0.0) == 0.0


def test_bessel_reference_values():
    # I0(4) = 11.30192195213633, I1(4) = 9.759465153704449
    assert bessel_ive(0, 4.0) == pytest.approx(11.30192195213633 * math.exp(-4.0), rel=1e-12)
    assert bessel_ive(1, 4.0) == pytest.approx(9.759465153704449 * math.exp(-4.0), rel=1e-12)


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_against_scipy(order):
    for x in np.linspace(0.0, 50.0, 101):
        assert bessel_ive(order, float(x)) == pytest.approx(
            float(special.ive(order, x)), rel=1e-12
        )


def test_bessel_errors():
    with pytest.raises(ValueError):
        bessel_ive(2, 1.0)
    with pytest.raises(ValueError):
        bessel_ive(0, -1.0)
    with pytest.raises(ValueError):
        bessel_ive(0, math.nan)


@pytest.mark.parametrize("order", [0, 1])
def test_scaled_bessel_against_scipy(order):
    # both sides of the switch from the series to Hankel's expansion at x = 50
    xs = np.concatenate([np.geomspace(1.0, 5000.0, 200), np.linspace(45.0, 55.0, 41)])
    for x in xs:
        assert bessel_ive(order, float(x)) == pytest.approx(
            float(special.ive(order, x)), rel=1e-12
        )


@pytest.mark.parametrize("order", [0, 1])
def test_bessel_large_arguments(order):
    for x in np.linspace(50.0, 700.0, 66):
        assert bessel_ive(order, float(x)) == pytest.approx(
            float(special.ive(order, x)), rel=1e-12
        )
    # finite where I(x) itself leaves the float range
    assert bessel_ive(order, 800.0) == pytest.approx(float(special.ive(order, 800.0)), rel=1e-12)


# ----------------------------------------------------------------- parameters

def test_weibull_parameters_unit_geometry():
    m = weibull_params(1.0)
    assert m.h == 1.0
    assert m.eta0 == pytest.approx(ETA0_H1, rel=1e-12)
    assert m.eta0**2 == pytest.approx(1 - math.exp(-2.0), rel=1e-12)
    assert m.lambda_shape == pytest.approx(LAMBDA_H1, rel=1e-9)
    assert m.l_scale == pytest.approx(L_H1, rel=1e-9)
    # four-digit values quoted for this geometry
    assert m.lambda_shape == pytest.approx(2.3129, abs=5e-4)
    assert m.l_scale == pytest.approx(1.1136, abs=5e-4)
    assert m.eta0 == pytest.approx(0.92987, abs=5e-5)


def test_sigma_b_does_not_move_shape_parameters():
    ms = [weibull_params(sb) for sb in (0.1, 1.0, 20.0)]
    assert len({m.eta0 for m in ms}) == 1
    assert len({m.lambda_shape for m in ms}) == 1
    assert len({m.l_scale for m in ms}) == 1


def test_weibull_invalid_inputs():
    for bad in ((0.0, 1, 1), (1, -1, 1), (1, 1, 0)):
        with pytest.raises(ValueError):
            weibull_params(*bad)


@pytest.mark.parametrize("field", ["sigma_b", "beta_r", "w"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_weibull_rejects_non_finite(field, value):
    args = {"sigma_b": 1.0, "beta_r": 1.0, "w": 1.0, field: value}
    with pytest.raises(ValueError, match=field):
        weibull_params(**args)


@pytest.mark.parametrize("sigma_b", [1e-200, 1e-151, 1e151, 1e200])
def test_weibull_rejects_sigma_b_whose_square_leaves_the_float_range(tmp_path, capsys,
                                                                     sigma_b):
    with pytest.raises(ValueError, match=re.escape(f"sigma_b={sigma_b:g} out of range")):
        weibull_params(sigma_b)
    # a sweep rejects it as a usage error before any average runs: no
    # ZeroDivisionError or OverflowError from the laws, and no CSV
    out = tmp_path / "out.csv"
    ends = ["--start", f"{sigma_b:g}", "--stop", "1"] if sigma_b < 1 else [
        "--start", "1", "--stop", f"{sigma_b:g}", "--log-axis"]
    with pytest.raises(SystemExit) as exit_:
        cli_main(["satellite-sweep", *ends, "--points", "3", "--out", str(out)])
    err = capsys.readouterr().err
    assert exit_.value.code == 2 and "Traceback" not in err
    assert f"error: sigma_b={sigma_b:g} out of range" in err
    assert not out.exists()


@pytest.mark.parametrize("beta_r,w", [(1e200, 1.0), (1.0, 1e-200), (1e200, 1e-200)])
def test_a_geometry_whose_h_overflows_is_refused_by_name(tmp_path, capsys, beta_r, w):
    # (beta_r / w)^2 overflows, or beta_r / w itself does and h = inf would
    # give lambda = L = NaN: an error naming both, a usage error, and no CSV
    named = f"degenerate beam geometry (beta_r={beta_r:g}, w={w:g})"
    with pytest.raises(ValueError, match=re.escape(named)):
        weibull_params(1.0, beta_r, w)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_:
        cli_main(["satellite-closeup", "--points", "1", "--beta-r", repr(beta_r),
                  "--beam-w", repr(w), "--out", str(out)])
    err = capsys.readouterr().err
    assert exit_.value.code == 2 and "Traceback" not in err and f"error: {named}" in err
    assert not out.exists()


@pytest.mark.parametrize("beta_r,w", [(np.float64(1e200), 1.0), (1.0, np.float64(1e-200))])
def test_a_geometry_of_numpy_scalars_whose_h_overflows_is_refused_by_name(beta_r, w):
    # numpy scalars overflow with a RuntimeWarning (an error under the suite's
    # filters), not with the OverflowError the geometry turns into its own error
    with pytest.raises(ValueError, match=r"^degenerate beam geometry \(beta_r="):
        weibull_params(1.0, beta_r, w)


def test_a_large_finite_aperture_to_beam_ratio_is_a_lossless_link(tmp_path):
    out = tmp_path / "out.csv"
    cli_main(["satellite-closeup", "--points", "1", "--beta-r", "1e150", "--out", str(out)])
    assert {row[1]: row[2] for row in parse_csv(out).rows}["rps"] == 0.174746299908


@settings(max_examples=300, deadline=None)
@example(153.82, 0.0)  # h finite, 8h overflows: lambda would be inf
@example(0.25, -153.25)  # h finite, e^-4h I1(4h) underflows: lambda would be 0
@example(-4.3125, 1.0)  # h about 2e-11: eta0^2, 1 - e^-4h I0(4h) and their log ratio near 0
@example(-77.06, 0.0)  # next to the smallest ratio kept: eta0^4 is a normal float
@example(-77.07, 0.0)  # eta0^4 is subnormal: refused
@example(154.1, 0.0)  # beta_r / w finite, its square overflows
@example(200.0, -200.0)  # beta_r / w overflows
@given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
def test_a_fading_model_has_finite_fields_or_is_refused(log_beta_r, log_w):
    try:
        m = weibull_params(1.0, 10.0**log_beta_r, 10.0**log_w)
    except ValueError as exc:
        assert str(exc).startswith("degenerate beam geometry (beta_r=")
        return
    assert all(math.isfinite(v) for v in dataclasses.astuple(m))


@pytest.mark.parametrize("beta_r", [0.05, 1.0, 3.0, 30.0])
def test_laws_at_the_ends_of_the_sigma_b_range(beta_r):
    for sigma_b in (1e-150, 1e150):
        m = weibull_params(sigma_b, beta_r)
        eta = m.eta0 * np.array([1e-300, 1e-10, 0.5, 1.0 - 1e-16])
        assert not np.isnan(pdf(m, eta)).any() and not np.isnan(cdf(m, eta)).any()
        for clamp in (True, False):
            avg = average_key_rates(SchemeConfig("tps"), m, QuadratureSpec(64, clamp))
            assert math.isfinite(avg.rate) and math.isfinite(avg.rate_normalized)


def _scipy_weibull_shape(beta_r):
    """(lambda, L) at w = 1 from scipy's scaled Bessel functions."""
    h = beta_r**2
    i0, i1 = special.ive(0, 4 * h), special.ive(1, 4 * h)
    ln_term = math.log(2 * (1 - math.exp(-2 * h)) / (1 - i0))
    lam = 8 * h * i1 / (1 - i0) / ln_term
    return lam, beta_r * ln_term ** (-1 / lam)


@pytest.mark.parametrize("beta_r", [1.0, 5.0, 13.0, 14.0, 30.0])
def test_weibull_wide_apertures(beta_r):
    # e^-4h I0(4h) was 0 * inf from beta_r = 14 (h = 196) on
    m = weibull_params(1.0, beta_r=beta_r)
    lam, l_scale = _scipy_weibull_shape(beta_r)
    assert m.lambda_shape == pytest.approx(lam, rel=1e-12)
    assert m.l_scale == pytest.approx(l_scale, rel=1e-12)


def _mp_geometry(beta_r, w):
    """(eta0, lambda, L) from _geometry's formulas in 50-digit arithmetic."""
    with mpmath.workdps(50):
        h = (mpmath.mpf(beta_r) / mpmath.mpf(w)) ** 2
        eta0_sq = -mpmath.expm1(-2 * h)
        denom = 1 - mpmath.exp(-4 * h) * mpmath.besseli(0, 4 * h)
        ln_term = mpmath.log(2 * eta0_sq / denom)
        lam = 8 * h * mpmath.exp(-4 * h) * mpmath.besseli(1, 4 * h) / denom / ln_term
        return mpmath.sqrt(eta0_sq), lam, mpmath.mpf(beta_r) * ln_term ** (-1 / lam)


@pytest.mark.parametrize("w", [0.5, 1.0])
@pytest.mark.parametrize("ratio", [1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 3.0, 10.0])
def test_geometry_matches_50_digit_arithmetic(ratio, w):
    # eta0^2, 1 - e^-4h I0(4h) and their log ratio all tend to 0 with h: formed by
    # subtraction, L would be 21% off at a ratio of 1e-4, and refused from about 1e-5
    m = weibull_params(1.0, ratio * w, w)
    for got, want in zip((m.eta0, m.lambda_shape, m.l_scale), _mp_geometry(ratio * w, w)):
        assert abs(got / float(want) - 1.0) <= 1e-14, (got, want)


@pytest.mark.parametrize("w", [0.5, 1.0])
def test_a_small_aperture_tends_to_the_gaussian_limit(w):
    # as h -> 0, lambda -> 2 and L -> w / sqrt(2), each within O(h)
    for ratio in (1e-4, 1e-6, 1e-10, 1e-30, 1e-70):
        m = weibull_params(1.0, ratio * w, w)
        assert m.eta0 == pytest.approx(math.sqrt(2.0) * ratio, rel=2.0 * ratio**2)
        assert abs(m.lambda_shape - 2.0) <= 4.0 * ratio**2 + 4.0 * EPS
        assert m.l_scale == pytest.approx(w / math.sqrt(2.0), rel=ratio**2 + 4.0 * EPS)


@pytest.mark.parametrize("beta_r", [1e-5, 1e-6])
def test_a_small_aperture_is_not_refused(tmp_path, beta_r):
    # T_E <= eta0^2 = 2e-10 or 2e-12: far below every crossing, so every average is 0
    out = tmp_path / "out.csv"
    cli_main(["satellite-closeup", "--beta-r", repr(beta_r), "--points", "2", "--out", str(out)])
    rows = parse_csv(out).rows
    assert len(rows) == 6 and all(row[2:] == (0.0, 0.0) for row in rows)


# ------------------------------------------------------------------ pdf / cdf

def test_pdf_support():
    m = weibull_params(1.0)
    assert pdf(m, -0.1) == 0.0
    assert pdf(m, 0.0) == 0.0
    assert pdf(m, m.eta0) == 0.0
    assert pdf(m, m.eta0 + 0.1) == 0.0
    assert pdf(m, 0.5) > 0.0


def _pdf_mass(m, t_cap):
    """Integrate pdf over its support via eta = eta0 exp(-t/2).

    The substitution regularizes both endpoints; t_cap is far past the point
    where the integrand (checked below) has decayed to ~1e-16.
    """
    f = lambda t: pdf(m, m.eta0 * math.exp(-t / 2)) * m.eta0 * math.exp(-t / 2) / 2
    assert f(t_cap) < 1e-16
    total, _ = integrate.quad(f, 0.0, t_cap, limit=500, epsabs=1e-13, epsrel=1e-13)
    return total


@pytest.mark.parametrize("sigma_b,t_cap", [(0.5, 40.0), (1.0, 120.0), (3.0, 1350.0)])
def test_pdf_normalizes(sigma_b, t_cap):
    m = weibull_params(sigma_b)
    assert _pdf_mass(m, t_cap) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("beta_r", [14.0, 30.0])
def test_pdf_carries_the_cdf_mass_at_wide_apertures(beta_r):
    """At beta_r >= 14 the shape lambda is 32-69, so the law spreads over
    hundreds of e-folds of t = 2 ln(eta0/eta), while a double resolves eta
    only for t in about [1e-15, 1400]: for no sigma_b does that window hold
    more than about 70% of the mass, so _pdf_mass cannot reach 1 here.  The
    pdf must instead carry exactly the CDF's mass over t in [1e-4, 1400]
    (integrated in ln t, where the spread is mild)."""
    m = weibull_params(beta_r, beta_r=beta_r)  # wander as wide as the aperture
    eta = lambda s: m.eta0 * math.exp(-math.exp(s) / 2)  # noqa: E731
    f = lambda s: pdf(m, eta(s)) * eta(s) * math.exp(s) / 2  # noqa: E731
    lo, hi = math.log(1e-4), math.log(1400.0)
    total, _ = integrate.quad(f, lo, hi, limit=500, epsabs=1e-14, epsrel=1e-13)
    want = cdf(m, eta(lo)) - cdf(m, eta(hi))
    assert want > 0.1
    assert total == pytest.approx(want, abs=1e-12)


def _pdf_cdf_reference(m, eta):
    """The density and CDF at eta in (0, eta0), straight from their formulas
    in 40-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        eta0, l2, s2, lam, e = (decimal.Decimal(v) for v in (
            m.eta0, m.l_scale**2, m.sigma_b**2, m.lambda_shape, eta))
        y, a, p = 2 * (eta0 / e).ln(), l2 / (2 * s2), 2 / lam
        cdf_value = (-a * y**p).exp()
        return float(2 * l2 / (s2 * lam * e) * y ** (p - 1) * cdf_value), float(cdf_value)


@pytest.mark.parametrize("sigma_b,beta_r", [(0.1, 1.0), (1.0, 1.0), (5.0, 1.0),
                                            (20.0, 1.0), (1.0, 0.05), (2.0, 3.0)])
def test_pdf_and_cdf_match_their_formulas_at_normal_eta(sigma_b, beta_r):
    # evaluated in log space; the double formula with ln(eta0/eta) was off by
    # up to 8e-10 close to eta0 (beta_r = 3), so the reference is 40-digit
    m = weibull_params(sigma_b, beta_r=beta_r)
    for u in np.linspace(0.01, 0.99, 50):
        eta = float(inverse_cdf(m, u))
        if np.finfo(float).tiny <= eta < m.eta0:
            got = pdf(m, eta), cdf(m, eta)
            assert got == pytest.approx(_pdf_cdf_reference(m, eta), rel=1e-12)


@pytest.mark.parametrize("eta", [1e-310, 5e-324])
def test_pdf_and_cdf_at_subnormal_eta_are_never_nan(eta):
    # the density underflows to 0 for mild wander and diverges as eta -> 0
    # once lambda > 2 (sigma_b = 1: about e^380 at eta = 1e-310)
    assert pdf(weibull_params(0.1), eta) == 0.0
    mild, strong = weibull_params(1.0), weibull_params(10.0)
    for m in (mild, strong):
        assert pdf(m, eta) > 0.0 and not math.isnan(cdf(m, eta))
        assert 0.0 <= cdf(m, eta) < cdf(m, 1e-300)
    assert math.isfinite(pdf(mild, eta))
    assert math.isnan(pdf(mild, math.nan)) and math.isnan(cdf(mild, math.nan))


def test_pdf_and_cdf_on_arrays_match_scalar_calls():
    m = weibull_params(1.3)
    eta = np.concatenate([[-0.1, 0.0, 5e-324, 1e-310, m.eta0, 1.5],
                          inverse_cdf(m, np.linspace(0.01, 1.0, 17))])
    for fn in (pdf, cdf):
        assert list(fn(m, eta)) == [fn(m, float(x)) for x in eta]
        assert isinstance(fn(m, 0.5), float)


def test_cdf_round_trip():
    m = weibull_params(1.0)
    for u in np.linspace(0.01, 1.0, 25):
        assert cdf(m, inverse_cdf(m, float(u))) == pytest.approx(float(u), abs=1e-10)


@settings(max_examples=300, deadline=None)
@given(beta_r=st.floats(0.05, 30.0), w=st.floats(0.3, 5.0), sigma_b=st.floats(0.01, 20.0),
       u=st.floats(1e-6, 1.0))
def test_cdf_round_trip_over_beam_geometries(beta_r, w, sigma_b, u):
    m = weibull_params(sigma_b, beta_r=beta_r, w=w)
    eta = float(inverse_cdf(m, u))
    # eta underflows (or is subnormal) deep in the fade and rounds to eta0
    # where the law crowds into the last few ulps below it
    assume(np.finfo(float).tiny <= eta < m.eta0)
    # u comes back only as well as the last digits of eta pin it down
    spread = cdf(m, eta * (1 + 4 * EPS)) - cdf(m, eta * (1 - 4 * EPS))
    assert abs(cdf(m, eta) - u) <= 1e-12 + spread


@pytest.mark.parametrize("beta_r", [0.0546875, 1.0, 30.0])
def test_laws_an_ulp_below_eta0(beta_r):
    # ln eta0 - ln eta rounds to 0 there, and ln y of it raised a divide-by-zero
    m = weibull_params(1.0, beta_r=beta_r)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for eta in np.nextafter(m.eta0, 0.0) * np.array([1.0, 1.0 - 4 * EPS, 0.75, 0.5]):
            y, p = 2 * mp.log(mp.mpf(m.eta0) / mp.mpf(eta)), mp.mpf(2) / m.lambda_shape
            a = mp.mpf(m.l_scale) ** 2 / (2 * mp.mpf(m.sigma_b) ** 2)
            want_cdf = mp.exp(-a * y**p)
            want_pdf = want_cdf * 2 * a * p * y ** (p - 1) / eta
            assert cdf(m, eta) == pytest.approx(float(want_cdf), rel=1e-13)
            assert pdf(m, eta) == pytest.approx(float(want_pdf), rel=1e-12)


def test_inverse_cdf_values():
    m = weibull_params(1.0)
    assert inverse_cdf(m, 1.0) == pytest.approx(m.eta0, rel=1e-14)
    assert inverse_cdf(m, math.exp(-1)) == pytest.approx(0.3899729455404507, rel=1e-9)
    us = np.linspace(0.05, 1.0, 30)
    etas = [inverse_cdf(m, float(u)) for u in us]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    with pytest.raises(ValueError):
        inverse_cdf(m, 0.0)
    with pytest.raises(ValueError):
        inverse_cdf(m, 1.5)


def test_pdf_is_cdf_derivative():
    m = weibull_params(1.0)
    eta = inverse_cdf(m, math.exp(-1))
    h = 1e-6
    fd = (cdf(m, eta + h) - cdf(m, eta - h)) / (2 * h)
    assert pdf(m, eta) == pytest.approx(fd, rel=1e-6)


# -------------------------------------------------------------- fixed channel

def test_distance_to_transmissivity():
    assert distance_to_transmissivity(0.0, 0.2) == 1.0
    assert distance_to_transmissivity(50.0, 0.2) == pytest.approx(0.1, rel=1e-14)
    assert distance_to_transmissivity(100.0, 0.2) == pytest.approx(0.01, rel=1e-14)
    with pytest.raises(ValueError):
        distance_to_transmissivity(-1.0, 0.2)


@pytest.mark.parametrize("d_km,atten", [(math.nan, 0.2), (math.inf, 0.0), (math.inf, 0.2),
                                        (1.0, math.nan), (0.0, math.inf)])
def test_distance_to_transmissivity_rejects_non_finite_arguments(d_km, atten):
    name = "d_km" if not math.isfinite(d_km) else "atten_db_per_km"
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        distance_to_transmissivity(d_km, atten)


# ------------------------------------------------------------------ averaging

def test_mean_loss_five_db_at_unit_wander():
    m = weibull_params(1.0)
    loss_db = -10 * math.log10(mean_transmissivity(m))
    assert abs(loss_db - 5.0) <= 1.0


def test_mean_transmissivity_decreases_with_wander():
    vals = [mean_transmissivity(weibull_params(sb)) for sb in (0.1, 0.5, 1, 2, 5, 10, 20)]
    assert all(0 < v <= weibull_params(1.0).eta0 ** 2 for v in vals)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_degenerate_wander_concentrates_at_eta0():
    m = weibull_params(1e-6)
    cfg = SchemeConfig("nops")
    avg = average_key_rates(cfg, m, QuadratureSpec(128)).rate
    point = key_rate(cfg, m.eta0**2).rate
    assert avg == pytest.approx(point, abs=1e-9)


def test_quadrature_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(node_count=1)


@pytest.mark.parametrize("node_count", [100.5, 200.0])
def test_quadrature_spec_refuses_a_node_budget_that_is_no_integer(node_count):
    # a run would fail on it in range(), and the CSV would record it as given
    with pytest.raises(ValueError, match=rf"^node_count must be an integer, got {node_count}$"):
        QuadratureSpec(node_count)


def test_quadrature_spec_refuses_a_budget_below_the_segment_floor():
    # each positive segment takes at least 16 nodes, so 15 would run as 16
    assert channel_mod.NODES_MIN == 16
    with pytest.raises(ValueError, match=r"^node_count must be >= 16, got 15$"):
        QuadratureSpec(15)
    assert QuadratureSpec(16).node_count == 16


def test_quadrature_spec_refuses_a_budget_above_the_ceiling(monkeypatch):
    # refused before any rule is built
    monkeypatch.setattr(channel_mod, "_unit_interval_rule", None)
    assert channel_mod.NODES_MAX == 2048
    with pytest.raises(ValueError, match=r"^node_count must be <= 2048, got 2049$"):
        QuadratureSpec(2049)
    with pytest.raises(ValueError, match=r"^nodes must be <= 2048, got 2049$"):
        mean_transmissivity(weibull_params(1.0), 2049)
    assert QuadratureSpec(2048).node_count == 2048


@pytest.mark.parametrize("nodes", [0, -3, 2.5])
def test_mean_transmissivity_refuses_a_node_count_that_is_no_positive_integer(nodes):
    with pytest.raises(ValueError, match=rf"^nodes must be a positive integer, got {nodes}$"):
        mean_transmissivity(weibull_params(1.0), nodes)


# ------------------------------------------------------------ quadrature tables

def _mp_weights(n, xs):
    """Gauss-Legendre weights 1 / ((1 - x^2) P_n'(x)^2) on (0, 1) at the roots of
    P_n next to the floats xs, to 34 digits: a Newton step on the plain three-term
    recurrence at 40 digits, from a float within 1e-15 of the root, leaves it
    within about 1e-26 (the next step is checked to be that small)."""
    out = []
    with mpmath.workdps(40):
        for x in xs:
            x = mpmath.mpf(float(x))
            for _ in range(2):
                p0, p1 = mpmath.mpf(1), x
                for k in range(1, n):
                    p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
                dp = n * (p0 - x * p1) / (1 - x * x)
                step, w = p1 / dp, 1 / ((1 - x * x) * dp * dp)
                x -= step
            assert abs(step) < 1e-24
            out.append(float(w))
    return np.array(out)


@pytest.mark.parametrize("n,rel", [(16, 1e-13), (17, 1e-13), (200, 1e-13), (201, 1e-13),
                                   (1000, 1e-11)])
def test_rule_weights_match_34_digit_values(n, rel):
    # numpy's leggauss weights are 2.2e-11 off at 200 nodes and 8.3e-9 at 1000,
    # at the nodes next to x = +-1
    u, w = channel_mod._unit_interval_rule.__wrapped__(n)
    x, w = 2.0 * u[n // 2:] - 1.0, w[n // 2:]  # the roots x >= 0
    if n == 1000:  # the 16 roots next to x = 1, where the error is largest, and every 25th
        pick = sorted({*range(0, n // 2, 25), *range(n // 2 - 16, n // 2)})
        x, w = x[pick], w[pick]
    assert np.abs(w / _mp_weights(n, x) - 1.0).max() <= rel


def test_rule_nodes_match_leggauss_and_form_a_rule():
    for n in [*range(1, 301), 511, 512, 1023, 1024, 2047, 2048]:
        u, w = channel_mod._unit_interval_rule.__wrapped__(n)
        x, _ = np.polynomial.legendre.leggauss(n)
        assert u.shape == w.shape == (n,)
        assert np.abs(u - (x + 1.0) / 2.0).max() <= 2.3e-16, n
        assert 0.0 < u[0] and u[-1] < 1.0 and np.all(np.diff(u) > 0.0), n
        assert w.min() > 0.0 and abs(w.sum() - 1.0) <= 1e-15, n


def test_lobatto_maps_match_the_dense_inverse():
    nodes, fit = channel_mod._lobatto()
    cheb = np.polynomial.chebyshev
    v = cheb.chebvander(nodes, 16)  # T_k(s_j)
    inverse = np.linalg.inv(v)
    want = np.vstack([inverse, cheb.chebder(inverse), np.zeros(17)])
    assert fit.shape == want.shape
    assert np.all(np.abs(fit - want) <= 1e-13 * np.abs(want).max(axis=1, keepdims=True))


_SOLVERS = ("inv", "solve", "eig", "eigh", "eigvals", "eigvalsh", "svd", "lstsq", "pinv", "det")


def test_no_solver_runs_on_a_request_path(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense linear-algebra call on a request path")

    for name in _SOLVERS:
        monkeypatch.setattr(np.linalg, name, refuse)
    # pure tables stay warm across tests: clear them, so that this test builds them
    channel_mod._unit_interval_rule.cache_clear()
    channel_mod._lobatto.cache_clear()
    for command in ("satellite-sweep", "satellite-closeup"):
        cli_main([command, "--out", str(tmp_path / f"{command}.csv")])
    assert 0.0 < mean_transmissivity(weibull_params(1.0), 2048) < 1.0
    # both tables were built here, the rules of 200 and 2048 nodes among them
    assert channel_mod._lobatto.cache_info().misses == 1
    hits = channel_mod._unit_interval_rule.cache_info().hits
    channel_mod._unit_interval_rule(200), channel_mod._unit_interval_rule(2048)
    assert channel_mod._unit_interval_rule.cache_info().hits == hits + 2


def test_node_count_convergence():
    m = weibull_params(1.0)
    for scheme in ("nops", "tps"):
        cfg = SchemeConfig(scheme)
        a = average_key_rates(cfg, m, QuadratureSpec(200))
        b = average_key_rates(cfg, m, QuadratureSpec(400))
        assert abs(a.rate - b.rate) <= 1e-6 * max(1.0, abs(a.rate))
        assert abs(a.rate_normalized - b.rate_normalized) <= 1e-6 * max(
            1.0, abs(a.rate_normalized)
        )


def test_clamping_behavior():
    # strong fading: the signed integral picks up the negative deep-fade tail
    m = weibull_params(8.0)
    cfg = SchemeConfig("nops")
    clamped = average_key_rates(cfg, m, QuadratureSpec(200, clamp_negative=True))
    signed = average_key_rates(cfg, m, QuadratureSpec(200, clamp_negative=False))
    assert clamped.rate > signed.rate
    assert clamped.rate >= 0.0


def test_signed_average_matches_clamped_for_benign_fading():
    # the negative region carries ~1e-14 of the mass here, so both policies
    # estimate the same integral (to quadrature accuracy)
    m = weibull_params(0.3)
    cfg = SchemeConfig("nops")
    a = average_key_rates(cfg, m, QuadratureSpec(96, clamp_negative=True)).rate
    b = average_key_rates(cfg, m, QuadratureSpec(96, clamp_negative=False)).rate
    assert a == pytest.approx(b, rel=1e-9)


def test_monte_carlo_agrees_with_quadrature():
    """Inverse-CDF sampling vs the deterministic average, one nops setup.

    K(t_e) is tabulated once on a dense grid and linearly interpolated for
    the million samples; the interpolation bias is orders of magnitude below
    the Monte-Carlo standard error.
    """
    m = weibull_params(1.0)
    cfg = SchemeConfig("nops")
    grid = np.linspace(1e-9, m.eta0**2, 2001)
    k_grid = np.array([key_rate(cfg, float(t)).rate for t in grid])

    rng = np.random.default_rng(20260809)
    u = rng.uniform(0.0, 1.0, size=1_000_000)
    u = np.where(u == 0.0, 0.5, u)  # inverse CDF needs u in (0, 1]
    # vectorized inverse CDF (same closed form as the scalar routine)
    x = 2.0 * m.sigma_b**2 * (-np.log(u)) / m.l_scale**2
    eta = m.eta0 * np.exp(-0.5 * x ** (m.lambda_shape / 2.0))
    for probe in (0.1, 0.5, 0.9):
        assert inverse_cdf(m, probe) == pytest.approx(
            m.eta0 * math.exp(-0.5 * (2 * m.sigma_b**2 * -math.log(probe) / m.l_scale**2)
                              ** (m.lambda_shape / 2.0)), rel=1e-14)
    samples = np.interp(eta**2, grid, k_grid)
    samples = np.maximum(samples, 0.0)
    mc = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(samples.size))

    quad_val = average_key_rates(cfg, m, QuadratureSpec(400, clamp_negative=True)).rate
    assert abs(mc - quad_val) <= 3 * se


# ------------------------------------------------ crossing and node batching

def test_inverse_cdf_on_arrays_matches_scalar_calls():
    m = weibull_params(1.3)
    u = np.linspace(0.01, 1.0, 17)
    assert list(inverse_cdf(m, u)) == [inverse_cdf(m, float(x)) for x in u]
    with pytest.raises(ValueError):
        inverse_cdf(m, np.array([0.5, 0.0]))


def test_laws_on_an_empty_array_return_an_empty_array():
    m = weibull_params(1.3)
    for fn in (cdf, pdf, inverse_cdf):
        got = fn(m, np.array([]))
        assert isinstance(got, np.ndarray) and got.shape == (0,) and got.dtype == float


def _panel_interpolant(f, a, b):
    """Samples of f at the 17 Lobatto points of [a, b] and the coefficient rows of
    their Chebyshev interpolant in s in [-1, 1] (value, slope)."""
    nodes, fit = channel_mod._lobatto()
    y = np.array([f(x) for x in a + (b - a) * (1.0 + nodes) / 2.0])
    return y, (fit @ y).tolist()


# The polish of each crossing, channel._newton, against scipy's Brent (brentq).
@pytest.mark.parametrize("f,a,b,leaves", [
    (math.cos, 0.0, 2.0, False),
    (lambda x: x**3 - 2 * x - 5, 2.0, 3.0, False),
    (lambda x: math.exp(x) - 1e-3, -10.0, 1.0, True),
    (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 1.0, True),  # flat ends
], ids=["cos-0.0-2.0", "<lambda>-2.0-3.0", "<lambda>--10.0-1.0", "<lambda>-0.0-1.0"])
def test_newton_step_matches_scipy(monkeypatch, f, a, b, leaves):
    from scipy.optimize import brentq

    cheb = np.polynomial.chebyshev
    y, c = _panel_interpolant(f, a, b)
    assert np.allclose(c[17:], [*cheb.chebder(c[:17]), 0.0], rtol=0, atol=1e-12 * np.abs(c).max())
    # bracketed by the whole panel; where Newton's first step from the secant
    # point leaves it, only the bisection branch keeps the root
    s0 = -1.0 - 2.0 * y[0] / (y[-1] - y[0])
    assert (abs(s0 - cheb.chebval(s0, c[:17]) / cheb.chebval(s0, c[17:])) > 1.0) == leaves
    steps, real = [], channel_mod._clenshaw
    monkeypatch.setattr(channel_mod, "_clenshaw", lambda c, s: steps.append(s) or real(c, s))
    got = channel_mod._newton(c, -1.0, 1.0, y[0], y[-1])
    assert got == pytest.approx(brentq(lambda s: cheb.chebval(s, c[:17]), -1.0, 1.0, xtol=1e-14),
                                abs=1e-13)
    assert len(steps) <= 20  # at most 10 steps of 2 evaluations, far below the cap


def test_newton_returns_a_vanishing_sample():
    # without noise rate_raw has a double zero at T_E = 0, sampled as exactly
    # 0; there the interpolant reads about -5e-20, so Newton steps would creep
    # towards the zero and stop near T_E ~ 1e-19.  The sample is the root.
    cfg, eta0 = SchemeConfig("tps", beta_sq=0.0), weibull_params(1.0).eta0
    assert _roots(cfg, eta0) == (False, (0.0,))
    # the memo keeps no crossing at T_E = 0 (u* = 0): the first u-segment is positive
    positive, y, *_ = channel_mod._crossings(cfg, eta0)
    assert positive and y.size == 0


def test_newton_step_on_the_key_rate_crossing():
    from scipy.optimize import brentq

    # the default scan's panel that holds the rps crossing, T* ~ 0.0069
    cfg = SchemeConfig("rps")
    f = lambda t: key_rate(cfg, t).rate_raw  # noqa: E731
    want = brentq(f, 0.0, 0.02, xtol=1e-15)
    width = weibull_params(1.0).eta0 / channel_mod._PANELS
    lo = width * (math.sqrt(want) // width)
    y, c = _panel_interpolant(lambda eta: f(eta**2), lo, lo + width)
    (j,) = np.flatnonzero(np.diff(y > 0.0))
    nodes = channel_mod._lobatto()[0]
    s = channel_mod._newton(c, nodes[j], nodes[j + 1], y[j], y[j + 1])
    got = (lo + width * (1.0 + s) / 2.0) ** 2
    assert got == pytest.approx(want, abs=1e-14)
    assert abs(f(got)) < 1e-13


def _scan_and_brent(cfg, eta0, probes=101):
    """The crossings by a scan in T_E and scipy's Brent on key_rate in each
    bracket: the oracle of the panel search."""
    from scipy.optimize import brentq

    t = np.linspace(0.0, eta0**2, probes)
    f = key_rates(cfg, t).rate_raw
    g = lambda x: key_rate(cfg, x).rate_raw  # noqa: E731
    pos = f > 0.0
    return bool(pos[0]), [brentq(g, t[i], t[i + 1], xtol=1e-14)
                          for i in np.flatnonzero(pos[1:] != pos[:-1])]


def _scan_size():
    """Points of the crossing scan: _PANELS Lobatto panels sharing their ends."""
    return 16 * channel_mod._PANELS + 1


def _roots(cfg, eta0):
    """The crossings read off the rate curve of the scan: (positive at T_E = 0, T*)."""
    edges, _, raw = channel_mod._curve(cfg, eta0, *channel_mod._scan(cfg, eta0))
    return channel_mod._curve_roots(edges, raw)


def test_curve_roots_match_scan_and_brent_over_a_config_grid(monkeypatch):
    stages, calls, seen = [], [], 0
    real_rates, real_bound = channel_mod._rates, channel_mod.key_rates
    monkeypatch.setattr(channel_mod, "_rates",
                        lambda c, e, stage, x: stages.append(stage) or real_rates(c, e, stage, x))
    monkeypatch.setattr(channel_mod, "key_rates",
                        lambda c, t: calls.append(len(t)) or real_bound(c, t))
    for scheme, alpha_sq, beta_sq, t_s, beta_r in itertools.product(
            ("nops", "tps", "rps"), (0.1, 0.5, 1.3, 3.0, 30.0),
            (0.0, 1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1), (0.5, 0.9, 0.99), (1.0, 3.0, 0.5)):
        cfg = SchemeConfig(scheme, alpha_sq=alpha_sq, beta_sq=beta_sq, t_s=t_s)
        eta0 = weibull_params(1.0, beta_r=beta_r).eta0
        stages.clear()
        calls.clear()
        edges, _, raw = channel_mod._curve(cfg, eta0, *channel_mod._scan(cfg, eta0))
        curve_calls = list(calls)
        starts, got = channel_mod._curve_roots(edges, raw)
        want_starts, want = _scan_and_brent(cfg, eta0)
        assert (starts, len(got)) == (want_starts, len(want)), cfg
        assert np.all(np.abs(np.subtract(got, want)) <= 2e-13), cfg
        # the search's bound calls are exactly the curve's: the scan, then its bisections
        assert calls == curve_calls and stages[0] == "scan", (cfg, calls)
        assert set(stages[1:]) <= {"curve"} and len(stages) == len(calls), (cfg, stages)
        seen += len(got)
    assert seen >= 900  # nearly every config has a crossing below eta0^2


def test_crossing_in_the_first_eta_cell_comes_from_a_bisected_panel():
    # rate_raw carries sqrt(T_E) terms; this crossing lies below eta0 / 100,
    # in the first scan panel, next to the singular end of the T_E axis
    cfg, eta0 = SchemeConfig("rps", alpha_sq=3.0, beta_sq=1e-6, t_s=0.5), weibull_params(1.0).eta0
    starts, (t_star,) = _roots(cfg, eta0)
    assert math.sqrt(t_star) < eta0 / 100
    # the curve bisects the scan's first panel, and the root lies on one of its parts
    _, _, edges, _ = channel_mod._crossings(cfg, eta0)
    k = np.searchsorted(edges, math.sqrt(t_star)) - 1
    assert edges[k + 1] - edges[k] < eta0 / channel_mod._PANELS / 2
    want_starts, (want,) = _scan_and_brent(cfg, eta0)
    assert starts == want_starts and t_star == pytest.approx(want, abs=2e-13)


def _fake_rates(rate_raw):
    """A stand-in for key_rates with a chosen rate_raw(T) and p_sub = 1/2."""
    def fake(cfg, t):
        t = np.asarray(t, dtype=float)
        raw = rate_raw(t)
        zero = np.zeros_like(t)
        return KeyRatePoint(t, zero, zero, zero + 0.5, raw, 0.5 * raw)
    return fake


def test_two_crossings_use_the_scan_fallback(monkeypatch):
    # positive below T = 0.2 and above T = 0.5: two crossings, two segments,
    # one of them starting at u = 0
    raw = lambda t: (t - 0.2) * (t - 0.5)  # noqa: E731
    monkeypatch.setattr(channel_mod, "key_rates", _fake_rates(raw))
    m = weibull_params(0.6)
    cfg = SchemeConfig("nops")
    u1, u2 = cdf(m, math.sqrt(0.2)), cdf(m, math.sqrt(0.5))
    assert 0.0 < u1 < u2 < 1.0
    crossings = channel_mod._crossings(cfg, m.eta0)
    (a1, b1), (a2, b2) = channel_mod._positive_region(m, *crossings[:2])
    assert (a1, b2) == (0.0, 1.0)
    assert b1 == pytest.approx(u1, rel=1e-12) and a2 == pytest.approx(u2, rel=1e-12)

    got = average_key_rates(cfg, m, QuadratureSpec(200))
    integrand = lambda u: raw(inverse_cdf(m, u) ** 2)  # noqa: E731
    want = (integrate.quad(integrand, 0.0, u1, epsabs=1e-14, limit=200)[0]
            + integrate.quad(integrand, u2, 1.0, epsabs=1e-14, limit=200)[0])
    # 25 of the 200 nodes fall on the short first segment: about 5e-8 off
    assert got.rate_normalized == pytest.approx(want, rel=1e-6)
    assert got.rate == pytest.approx(0.5 * want, rel=1e-6)


def test_curve_error_names_eta0_and_the_element(monkeypatch):
    # a kink at the root: no panel interpolant resolves it, so a bisection round runs
    scan = _fake_rates(lambda t: np.where(t < 0.3, t - 0.3, 2.0 * (t - 0.3)))

    def boom(cfg, t):
        if len(t) == _scan_size():
            return scan(cfg, t)
        exc = NumericalDomainError("synthetic failure")
        exc.index = 7
        raise exc

    monkeypatch.setattr(channel_mod, "key_rates", boom)
    m = weibull_params(1.0)
    with pytest.raises(NumericalDomainError) as err:
        average_key_rates(SchemeConfig("nops"), m, QuadratureSpec(200))
    # key_rates names t_e; the crossing search adds eta0, the stage and the element
    assert str(err.value) == f"synthetic failure at eta0={m.eta0:.6g}, curve 7"


def test_crossing_above_the_aperture_limit_gives_zero():
    # a small aperture caps T_E at eta0^2 ~ 0.005, below every crossing
    m = weibull_params(1.0, beta_r=0.05)
    assert m.eta0**2 < 0.0051
    for scheme in ("nops", "tps", "rps"):
        cfg = SchemeConfig(scheme)
        assert key_rate(cfg, m.eta0**2).rate_raw < 0.0  # T* lies above eta0^2
        avg = average_key_rates(cfg, m, QuadratureSpec(200))
        assert (avg.rate, avg.rate_normalized) == (0.0, 0.0)


# The bound calls of a cold default curve: the scan, whose panels keep the one
# crossing and resolve the curve; rps bisects its first panel twice, each round one
# call of the 17 shifted points and the 2 x 17 points of the halves.
DEFAULT_CURVE_CALLS = {"nops": [16 * 24 + 1], "tps": [16 * 24 + 1], "rps": [16 * 24 + 1, 51, 51]}


@pytest.mark.parametrize("scheme", ["nops", "tps", "rps"])
@pytest.mark.parametrize("sigma_b", [0.1, 1.0, 20.0])
def test_default_average_evaluation_count(monkeypatch, scheme, sigma_b):
    sizes = []
    real = channel_mod.key_rates

    def counting(cfg, t):
        sizes.append(len(t))
        return real(cfg, t)

    monkeypatch.setattr(channel_mod, "key_rates", counting)
    average_key_rates(SchemeConfig(scheme), weibull_params(sigma_b), QuadratureSpec(200))
    # the curve's calls alone: no node calls the bound
    assert sizes == DEFAULT_CURVE_CALLS[scheme]


def test_a_default_average_makes_one_bound_call_with_a_scalar_f(monkeypatch):
    calls = []
    real = keyrate_mod.key_rate_from_summary

    def counting(s, recon_eff, t_e):
        calls.append((len(s.v_a), type(recon_eff)))
        return real(s, recon_eff, t_e)

    monkeypatch.setattr(keyrate_mod, "key_rate_from_summary", counting)
    average_key_rates(SchemeConfig("tps"), weibull_params(1.0), QuadratureSpec(200))
    # the scan alone, one config: no join, and f stays the config's float
    assert calls == [(_scan_size(), float)]


# ------------------------------------------------- the memoised crossing search

def _bound_calls(run):
    """run()'s result and the (points, type of f) of each bound call it made."""
    calls, real = [], keyrate_mod.key_rate_from_summary

    def counting(s, recon_eff, t_e):
        calls.append((len(s.v_a), type(recon_eff)))
        return real(s, recon_eff, t_e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(keyrate_mod, "key_rate_from_summary", counting)
        return run(), calls


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(["nops", "tps", "rps"]), alpha_sq=st.floats(0.5, 3.0),
       beta_sq=st.floats(0.0, 0.01), t_s=st.floats(0.5, 0.99),
       sigma_b=st.floats(0.1, 20.0), other=st.floats(0.1, 20.0))
def test_a_warm_average_makes_no_bound_call_and_equals_a_cold_one(scheme, alpha_sq, beta_sq,
                                                                  t_s, sigma_b, other):
    cfg, quad = SchemeConfig(scheme, alpha_sq=alpha_sq, beta_sq=beta_sq, t_s=t_s), QuadratureSpec()
    model = weibull_params(sigma_b)
    channel_mod._crossings.cache_clear()
    cold, cold_calls = _bound_calls(lambda: average_key_rates(cfg, model, quad))
    channel_mod._crossings.cache_clear()
    average_key_rates(cfg, weibull_params(other), quad)  # the same eta0, another sigma_b
    warm, warm_calls = _bound_calls(lambda: average_key_rates(cfg, model, quad))
    # the cold average's calls are those of its memo entry alone, the scan first
    channel_mod._crossings.cache_clear()
    _, memo_calls = _bound_calls(lambda: channel_mod._crossings(cfg, model.eta0))
    assert cold_calls == memo_calls and cold_calls[0] == (_scan_size(), float)
    assert warm_calls == []
    assert ((warm.rate.hex(), warm.rate_normalized.hex())
            == (cold.rate.hex(), cold.rate_normalized.hex()))


def test_a_warm_default_average_makes_no_key_rates_call(monkeypatch):
    sizes = []
    real = channel_mod.key_rates
    monkeypatch.setattr(channel_mod, "key_rates", lambda c, t: sizes.append(len(t)) or real(c, t))
    cfg = SchemeConfig("tps")
    average_key_rates(cfg, weibull_params(1.0), QuadratureSpec(200))
    assert sizes == [_scan_size()]
    sizes.clear()
    # the unclamped average reads the same curve
    for sigma_b, clamp in ((5.0, True), (5.0, False), (0.3, False)):
        average_key_rates(cfg, weibull_params(sigma_b), QuadratureSpec(200, clamp))
    assert sizes == []


def test_a_different_beta_r_or_config_field_misses_the_cache(monkeypatch):
    sizes = []
    real = channel_mod.key_rates
    monkeypatch.setattr(channel_mod, "key_rates", lambda c, t: sizes.append(len(t)) or real(c, t))
    cfg, quad = SchemeConfig("tps"), QuadratureSpec(200)
    misses = [(cfg, 1.0), (cfg, 3.0), (SchemeConfig("rps"), 1.0)] + [
        (dataclasses.replace(cfg, **{name: value}), 1.0)
        for name, value in (("alpha_sq", 1.0), ("beta_sq", 0.002), ("t_s", 0.8),
                            ("recon_eff", 0.9))]
    for c, beta_r in misses:
        sizes.clear()
        average_key_rates(c, weibull_params(2.0, beta_r=beta_r), quad)
        assert sizes[0] == _scan_size(), (c, beta_r)
    sizes.clear()
    average_key_rates(cfg, weibull_params(0.5), quad)  # the first key again
    assert sizes == []
    info = channel_mod._crossings.cache_info()
    assert (info.misses, info.hits) == (len(misses), 1)


def test_a_failed_crossing_search_is_not_memoised(monkeypatch):
    sizes = []

    def boom(cfg, t):
        sizes.append(len(t))
        raise NumericalDomainError("synthetic failure")

    monkeypatch.setattr(channel_mod, "key_rates", boom)
    m = weibull_params(1.0)
    for _ in range(2):
        with pytest.raises(NumericalDomainError, match="synthetic failure at eta0="):
            average_key_rates(SchemeConfig("nops"), m, QuadratureSpec(200))
    assert sizes == [_scan_size(), _scan_size()]
    assert channel_mod._crossings.cache_info().currsize == 0


def test_a_warm_average_at_another_sigma_b_evaluates_no_bessel_series_and_no_cdf(monkeypatch):
    cfg, quad = SchemeConfig("rps"), QuadratureSpec(200)
    cold = average_key_rates(cfg, weibull_params(5.0), quad)
    calls, rates, law = [], channel_mod.key_rates, channel_mod.cdf
    monkeypatch.setattr(channel_mod, "key_rates", lambda c, t: calls.append(len(t)) or rates(c, t))
    for name in ("_bessel_series", "_bessel_hankel_scaled"):
        _count_calls(monkeypatch, name, calls)
    monkeypatch.setattr(channel_mod, "cdf", lambda *a: calls.append("cdf") or law(*a))
    warm = average_key_rates(cfg, weibull_params(1.0), quad)  # same config and geometry
    assert calls == []
    # the warm average is the cold one's at its own sigma_b
    monkeypatch.undo()
    channel_mod._crossings.cache_clear()
    channel_mod._geometry.cache_clear()
    assert average_key_rates(cfg, weibull_params(1.0), quad) == warm != cold


def _count_calls(monkeypatch, name, calls):
    """Record each call of channel_mod.<name> in calls: a Bessel series or expansion."""
    real = getattr(channel_mod, name)
    monkeypatch.setattr(channel_mod, name, lambda *a, **k: calls.append((name, a)) or real(*a, **k))


def test_a_geometry_is_derived_once_and_a_degenerate_one_is_not_memoised(monkeypatch):
    calls = []
    for name in ("_bessel_series", "_bessel_hankel_scaled"):
        _count_calls(monkeypatch, name, calls)
    first = weibull_params(1.0, beta_r=2.0, w=3.0)
    assert len(calls) == 2  # I0 - 1 and I1 at 4h
    again = weibull_params(7.0, beta_r=2.0, w=3.0)
    assert len(calls) == 2
    assert (again.h, again.eta0, again.lambda_shape, again.l_scale) == (
        first.h, first.eta0, first.lambda_shape, first.l_scale)
    for _ in range(2):
        with pytest.raises(ValueError, match="degenerate beam geometry"):
            weibull_params(1.0, beta_r=1e-200)
    assert channel_mod._geometry.cache_info().currsize == 1


def _region_from_cdf(m, starts_positive, roots):
    """The positive region as every crossing's u* = cdf(sqrt(T*)) gives it."""
    edges = [0.0, *(float(cdf(m, math.sqrt(r))) for r in roots), 1.0]
    return [(a.hex(), b.hex()) for k, (a, b) in enumerate(zip(edges, edges[1:]))
            if starts_positive == (k % 2 == 0) and b > a]


@settings(max_examples=80, deadline=None)
@given(scheme=st.sampled_from(["nops", "tps", "rps"]), alpha_sq=st.floats(0.1, 30.0),
       beta_sq=st.floats(0.0, 0.1), t_s=st.floats(0.5, 0.99),
       beta_r=st.sampled_from([0.3, 1.0, 3.0]), w=st.sampled_from([0.5, 1.0]),
       sigma_b=st.floats(0.05, 20.0))
def test_each_u_star_equals_the_cdf_of_its_crossing(scheme, alpha_sq, beta_sq, t_s, beta_r, w,
                                                    sigma_b):
    cfg = SchemeConfig(scheme, alpha_sq=alpha_sq, beta_sq=beta_sq, t_s=t_s)
    m = weibull_params(sigma_b, beta_r, w)
    starts, roots = _roots(cfg, m.eta0)
    positive, y, *_ = channel_mod._crossings(cfg, m.eta0)
    inside = [r for r in roots if 0.0 < math.sqrt(r) < m.eta0]
    got = np.exp(channel_mod._log_cdf(m, y))
    assert [u.hex() for u in got.tolist()] == [float(cdf(m, math.sqrt(r))).hex() for r in inside]
    region = [(a.hex(), b.hex()) for a, b in channel_mod._positive_region(m, positive, y)]
    assert region == _region_from_cdf(m, starts, roots)


@settings(max_examples=200, deadline=None)
@given(starts=st.booleans(), beta_r=st.sampled_from([0.0546875, 0.3, 1.0, 3.0]),
       sigma_b=st.floats(1e-3, 1e3), fractions=st.lists(
           st.one_of(st.sampled_from([0.0, 1.0, 1.0 - EPS / 2, 1e-300, 5e-324]),
                     st.floats(0.0, 1.0)), max_size=4))
def test_crossings_at_and_between_the_ends_map_as_the_cdf_does(starts, beta_r, sigma_b,
                                                               fractions):
    # any crossings in [0, eta0^2] (and an ulp above, from rounding), the ends included
    m = weibull_params(sigma_b, beta_r)
    roots = tuple(sorted(f * m.eta0**2 for f in fractions))
    roots += (np.nextafter(m.eta0, 2.0) ** 2,) * (fractions[:1] == [1.0])
    channel_mod._crossings.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel_mod, "_curve_roots", lambda edges, raw: (starts, roots))
        crossings = channel_mod._crossings(SchemeConfig("nops"), m.eta0)
    channel_mod._crossings.cache_clear()
    region = channel_mod._positive_region(m, *crossings[:2])
    assert [(a.hex(), b.hex()) for a, b in region] == _region_from_cdf(m, starts, roots)


def test_every_memo_is_cleared_between_tests_or_is_a_pure_table():
    import conftest

    import cvqkd_ps
    modules = [importlib.import_module(f"cvqkd_ps.{info.name}")
               for info in pkgutil.iter_modules(cvqkd_ps.__path__)]
    memos = {value for mod in modules for value in vars(mod).values()
             if hasattr(value, "cache_clear")}
    assert memos == set(conftest.MEMOS) | set(conftest.PURE_TABLES)
    assert not set(conftest.MEMOS) & set(conftest.PURE_TABLES)


# ------------------------------------------------- many models in one call

def _models():
    # two geometries and a small aperture whose crossings lie above eta0^2
    return ([weibull_params(sb) for sb in (0.1, 0.5, 1.0, 5.0, 20.0)]
            + [weibull_params(sb, beta_r=3.0) for sb in (0.3, 2.0, 8.0)]
            + [weibull_params(1.0, beta_r=0.05)])


@pytest.mark.parametrize("clamp", [True, False])
@pytest.mark.parametrize("scheme", ["nops", "tps", "rps"])
def test_many_models_equal_one_model_calls(scheme, clamp):
    cfg, quad, models = SchemeConfig(scheme), QuadratureSpec(200, clamp), _models()
    many = average_key_rates_many(cfg, models, quad)
    assert many == [average_key_rates(cfg, m, quad) for m in models]
    if clamp:
        assert (many[-1].rate, many[-1].rate_normalized) == (0.0, 0.0)
        assert all(avg.rate > 0.0 for avg in many[:-1])


def test_a_model_without_a_positive_region_between_others_gives_0_alone():
    cfg, quad = SchemeConfig("tps"), QuadratureSpec(200)
    models = [weibull_params(0.5), weibull_params(1.0, beta_r=0.05), weibull_params(3.0, 2.0)]
    many = average_key_rates_many(cfg, models, quad)
    assert many[1] == channel_mod.AveragedKeyRate(0.0, 0.0)
    for got, m in zip(many[::2], models[::2]):
        one = average_key_rates(cfg, m, quad)
        assert (got.rate.hex(), got.rate_normalized.hex()) == (
            one.rate.hex(), one.rate_normalized.hex())
        assert got.rate > 0.0


def test_no_models_and_all_empty_regions():
    cfg, quad = SchemeConfig("nops"), QuadratureSpec(200)
    assert average_key_rates_many(cfg, [], quad) == []
    small = [weibull_params(sb, beta_r=0.05) for sb in (0.5, 1.0)]
    zero = channel_mod.AveragedKeyRate(0.0, 0.0)
    assert average_key_rates_many(cfg, small, quad) == [zero, zero]


def test_default_satellite_sweep_finds_each_crossing_once(monkeypatch, tmp_path):
    calls = []
    real = channel_mod.key_rates

    def counting(cfg, t):
        calls.append((cfg.scheme, len(t)))
        return real(cfg, t)

    monkeypatch.setattr(channel_mod, "key_rates", counting)
    cli_main(["satellite-sweep", "--out", str(tmp_path / "sat.csv")])
    for scheme in ("nops", "tps", "rps"):
        # one curve for all 40 sigma_b, and no call for any of their averages
        assert [n for s, n in calls if s == scheme] == DEFAULT_CURVE_CALLS[scheme]


def test_a_bound_failure_names_eta0_and_its_element(monkeypatch):
    def boom(cfg, t_e):
        exc = NumericalDomainError("synthetic failure")
        exc.index = 19
        raise exc

    monkeypatch.setattr(channel_mod, "key_rates", boom)
    models = [weibull_params(1.0), weibull_params(2.5)]
    # the bound runs on the curve alone, which every sigma_b of a geometry shares,
    # clamped or not, so the error names eta0, the stage and the element
    for clamp in (True, False):
        with pytest.raises(NumericalDomainError) as err:
            average_key_rates_many(SchemeConfig("nops"), models, QuadratureSpec(16, clamp))
        assert str(err.value) == f"synthetic failure at eta0={models[0].eta0:.6g}, scan 19"


# ------------------------------------------------- the rate curve at the nodes

def _curve_at(cfg, eta0, eta):
    """rate and rate_raw at each eta from the memoised curve's panel coefficients."""
    _, _, edges, coef = channel_mod._crossings(cfg, eta0)
    eta = np.atleast_1d(eta)
    k = np.minimum(np.searchsorted(edges, eta, side="right"), len(edges) - 1) - 1
    s = (2.0 * eta - edges[k] - edges[k + 1]) / (edges[k + 1] - edges[k])
    cheb = np.polynomial.chebyshev
    return np.array([[cheb.chebval(si, coef[c, ki]) for si, ki in zip(s, k)] for c in range(2)])


def _direct_average(cfg, model, quad):
    """The average with the bound called at every node, on the production nodes: the
    node path the rate curve replaced.  Returns (rate, rate_raw) and the averages of
    their absolute values, the conditioning of the two sums."""
    positive, y, *_ = channel_mod._crossings(cfg, model.eta0)
    segments = (channel_mod._positive_region(model, positive, y) if quad.clamp_negative
                else [(0.0, 1.0)])
    u, w = channel_mod._nodes(segments, quad.node_count)
    if not len(u):
        return np.zeros(2), np.zeros(2)
    kr = key_rates(cfg, inverse_cdf(model, u) ** 2)
    f = np.stack([kr.rate, kr.rate_raw])
    return f @ w, np.abs(f) @ w


@settings(max_examples=60, deadline=None)
@given(scheme=st.sampled_from(["nops", "tps", "rps"]), alpha_sq=st.floats(0.1, 30.0),
       beta_sq=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), t_s=st.floats(0.5, 0.99),
       beta_r=st.sampled_from([0.3, 1.0, 3.0]),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_the_rate_curve_matches_key_rates(scheme, alpha_sq, beta_sq, t_s, beta_r, fractions):
    cfg = SchemeConfig(scheme, alpha_sq=alpha_sq, beta_sq=beta_sq, t_s=t_s)
    eta0 = weibull_params(1.0, beta_r).eta0
    # both ends, and points crowded toward each
    eta = eta0 * np.array([0.0, 1.0, *fractions, *(f**8 for f in fractions),
                           *(1.0 - f**8 for f in fractions)])
    kr = key_rates(cfg, eta**2)
    want = np.stack([kr.rate, kr.rate_raw])
    scale = np.abs(channel_mod._scan(cfg, eta0)[1]).max(axis=(1, 2))[:, None]
    # the bound's own rounding is the limit here: within 20 ulps of eta = 0.0215, rps
    # at alpha_sq = 28.5 and beta_r = 0.3 spreads rate_raw over 6.7e-13 of the scale,
    # and a panel at that noise is kept (the curve read 2.9e-12 off on a dense grid)
    assert np.all(np.abs(_curve_at(cfg, eta0, eta) - want) <= 1e-11 * scale)


def test_a_panel_the_scan_leaves_unresolved_is_bisected():
    cfg, eta0 = SchemeConfig("rps", alpha_sq=3.0, beta_sq=1e-4), weibull_params(1.0).eta0
    x, f = channel_mod._scan(cfg, eta0)
    cheb, (_, fit) = np.polynomial.chebyshev, channel_mod._lobatto()
    eta = np.linspace(0.0, x[0, -1], 1001)
    kr = key_rates(cfg, eta**2)
    scan_fit = f[:, 0] @ fit[:17].T
    # on the scan's own first panel, rate_raw's interpolant is about 9e-8 off
    off = np.abs(cheb.chebval(2.0 * eta / x[0, -1] - 1.0, scan_fit[1]) - kr.rate_raw).max()
    assert 5e-8 < off < 2e-7
    _, _, edges, _ = channel_mod._crossings(cfg, eta0)
    # that panel alone is bisected, down to 1/16 of its width; the others stay
    assert edges[1] == x[0, -1] / 16 and set(x[1:, 0]) < set(edges) and len(edges) == 29
    scale = np.abs(f).max(axis=(1, 2))[:, None]
    assert np.all(np.abs(_curve_at(cfg, eta0, eta) - [kr.rate, kr.rate_raw]) <= 1e-13 * scale)


@pytest.mark.parametrize("extra", [{}, {"beta_r": 3.0}, {"quad": QuadratureSpec(200, False)}],
                         ids=["default", "beta-r-3", "no-clamp-negative"])
@pytest.mark.parametrize("experiment", ["satellite_sweep", "satellite_closeup"])
def test_every_default_satellite_cell_matches_the_direct_node_average(experiment, extra):
    from cvqkd_ps import ExperimentConfig, run_experiment

    config = ExperimentConfig(experiment, **extra)
    result = run_experiment(config)
    assert len(result.rows) == 3 * config.axis().size
    for sigma_b, scheme, *got in result.rows:
        cfg = dataclasses.replace(config.base, scheme=scheme)
        model = weibull_params(sigma_b, config.beta_r, config.beam_w)
        want, size = _direct_average(cfg, model, config.quad)
        # clamped, the integrand is >= 0 and this is the relative error; signed, the
        # sums cancel down to 1e-4 of their terms, and the direct sum's own rounding
        # is relative to the terms
        scale = np.abs(want) if config.quad.clamp_negative else size
        assert np.all(np.abs(np.subtract(got, want)) <= 1e-13 * scale), (sigma_b, scheme)


def test_a_curve_that_does_not_resolve_is_refused_by_eta0_and_interval(monkeypatch):
    # a jump at T_E = 0.3: no bisection resolves the panel that holds it; once that
    # panel is a few ulps wide, the shift that measures rounding noise crosses the jump
    monkeypatch.setattr(channel_mod, "key_rates",
                        _fake_rates(lambda t: np.where(t < 0.3, t, t + 1.0)))
    m = weibull_params(1.0)
    prefix = rf"rate curve not resolved at eta0={m.eta0:.6g}: eta in \[(\S+), (\S+)\], "
    for rounds, why, width in (
            (60, r"where the bound's rounding noise is 2\.1e\+00 of the curve's scale", 1e-13),
            (10, r"after 10 bisections", m.eta0 / 24 / 2**10 * (1.0 + 1e-9))):
        monkeypatch.setattr(channel_mod, "_CURVE_ROUNDS", rounds)
        with pytest.raises(NumericalDomainError) as err:
            average_key_rates(SchemeConfig("nops"), m, QuadratureSpec(200))
        got = re.fullmatch(prefix + why, str(err.value))
        assert got, str(err.value)
        a, b = float(got[1]), float(got[2])
        assert a < math.sqrt(0.3) < b and b - a <= width
        assert channel_mod._crossings.cache_info().currsize == 0


def test_a_curve_at_the_bounds_rounding_noise_is_kept_not_bisected():
    # a strong source next to T_E = 1: the bound's rounding there, about eps V_A^2,
    # is 1e-9 of the curve, over the curve's tolerance; those panels are kept
    cfg = SchemeConfig("nops", alpha_sq=8796.0, beta_sq=6e-4, t_s=0.63)
    models = [weibull_params(sigma_b, beta_r=3.0) for sigma_b in (0.05, 1.0, 20.0)]
    got = average_key_rates_many(cfg, models, QuadratureSpec(200))
    assert len(channel_mod._crossings(cfg, models[0].eta0)[2]) < 100
    for avg, m in zip(got, models):
        want, _ = _direct_average(cfg, m, QuadratureSpec(200))
        assert [avg.rate, avg.rate_normalized] == pytest.approx(want, rel=1e-8)
