"""Fixed-attenuation and beam-wander fading channels.

Beam wander over a ground-satellite optical link yields a distribution of
amplitude transmission coefficients eta on [0, eta0] that is well
approximated by a log-negative Weibull law; its shape/scale parameters
follow from the aperture-to-beam ratio h = (beta_r / W)^2 through modified
Bessel functions.  The channel intensity transmissivity is T_E = eta^2.

Averages over the fading distribution use the exact inverse-CDF substitution
eta(u), turning K_avg into an integral over the unit interval that is
evaluated with Gauss-Legendre nodes.  Negative key-rate bounds mean "no key",
so by default they are clamped to zero inside the average (the raw signed
integral stays available via clamp_negative=False).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fock_states import SchemeConfig
from .keyrate import KeyRatePoint, NumericalDomainError, key_rate

_SERIES_MAX_TERMS = 400
_HANKEL_FROM = 50.0  # the power series below this argument, Hankel's expansion above


def _check_bessel_args(order: int, x: float) -> None:
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if not x >= 0:
        raise ValueError("x must be >= 0")


def _bessel_series(order: int, x: float) -> float:
    """sum_j (x/2)^(2j+order) / (j! (j+order)!); all terms are positive, so no
    cancellation occurs (used for x < _HANKEL_FROM, about 60 terms)."""
    half = x / 2.0
    term = half if order == 1 else 1.0
    total = term
    for j in range(1, _SERIES_MAX_TERMS):
        term *= half * half / (j * (j + order))
        total += term
        if term < total * 1e-17:
            break
    return total


def _bessel_hankel_scaled(order: int, x: float) -> float:
    """e^-x I_order(x) from Hankel's asymptotic expansion (DLMF 10.40.1),
    (2 pi x)^(-1/2) sum_k (-1)^k a_k(order) / x^k.  For x >= 50 the terms fall
    below 1e-17 long before they start to grow, and the neglected e^-2x part
    is far below rounding."""
    mu = 4.0 * order * order
    term = total = 1.0
    for k in range(1, _SERIES_MAX_TERMS):
        term *= -(mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total / math.sqrt(2.0 * math.pi * x)


def bessel_i(order: int, x: float) -> float:
    """Modified Bessel function of the first kind, orders 0 and 1.

    Power series below x = 50, Hankel's expansion above; inf once the value
    leaves the float range (x above about 713).
    """
    _check_bessel_args(order, x)
    if x < _HANKEL_FROM:
        return _bessel_series(order, x)
    try:
        return math.exp(x) * _bessel_hankel_scaled(order, x)
    except OverflowError:
        return math.inf


def bessel_ive(order: int, x: float) -> float:
    """Exponentially scaled Bessel function e^-x I_order(x), orders 0 and 1;
    finite for every x >= 0."""
    _check_bessel_args(order, x)
    if x < _HANKEL_FROM:
        return _bessel_series(order, x) * math.exp(-x)
    return _bessel_hankel_scaled(order, x)


@dataclass(frozen=True)
class FadingModel:
    """Log-negative Weibull fading law for given beam geometry.

    sigma_b is the beam-wander standard deviation in units of the aperture
    radius beta_r; w is the beam-spot radius.  h, eta0 (maximum transmission
    coefficient), lambda_shape and l_scale are derived.
    """

    sigma_b: float
    beta_r: float
    w: float
    h: float
    eta0: float
    lambda_shape: float
    l_scale: float


def weibull_params(sigma_b: float, beta_r: float = 1.0, w: float = 1.0) -> FadingModel:
    """Derive (h, eta0, lambda, L) from the beam geometry.

    eta0^2 = 1 - exp(-2h)
    lambda = 8h [e^{-4h} I1(4h) / (1 - e^{-4h} I0(4h))] / ln(2 eta0^2 / (1 - e^{-4h} I0(4h)))
    L      = beta_r [ln(...)]^{-1/lambda}

    The products e^{-4h} I(4h) are taken from the scaled Bessel function, so
    they stay finite for any aperture-to-beam ratio.
    """
    for name, value in (("sigma_b", sigma_b), ("beta_r", beta_r), ("w", w)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if sigma_b <= 0 or beta_r <= 0 or w <= 0:
        raise ValueError("sigma_b, beta_r and w must all be positive")
    h = (beta_r / w) ** 2
    eta0_sq = 1.0 - math.exp(-2.0 * h)
    denom = 1.0 - bessel_ive(0, 4.0 * h)
    if denom <= 0.0 or eta0_sq <= 0.0:
        raise ValueError(f"degenerate beam geometry (h={h:.3g}): no fading support")
    ln_arg = 2.0 * eta0_sq / denom
    if ln_arg <= 1.0:
        raise ValueError(
            f"degenerate beam geometry (h={h:.3g}): shape parameter undefined"
        )
    ln_term = math.log(ln_arg)
    lam = 8.0 * h * (bessel_ive(1, 4.0 * h) / denom) / ln_term
    l_scale = beta_r * ln_term ** (-1.0 / lam)
    return FadingModel(
        sigma_b=sigma_b,
        beta_r=beta_r,
        w=w,
        h=h,
        eta0=math.sqrt(eta0_sq),
        lambda_shape=lam,
        l_scale=l_scale,
    )


def pdf(model: FadingModel, eta: float) -> float:
    """Fading density at transmission coefficient eta (0 outside (0, eta0))."""
    if eta <= 0.0 or eta >= model.eta0:
        return 0.0
    y = 2.0 * math.log(model.eta0 / eta)
    a = model.l_scale**2 / (2.0 * model.sigma_b**2)
    p = 2.0 / model.lambda_shape
    return (
        (2.0 * model.l_scale**2) / (model.sigma_b**2 * model.lambda_shape * eta)
        * y ** (p - 1.0)
        * math.exp(-a * y**p)
    )


def cdf(model: FadingModel, eta: float) -> float:
    """P(transmission coefficient <= eta); exp(-a (2 ln(eta0/eta))^(2/lambda))."""
    if eta <= 0.0:
        return 0.0
    if eta >= model.eta0:
        return 1.0
    y = 2.0 * math.log(model.eta0 / eta)
    a = model.l_scale**2 / (2.0 * model.sigma_b**2)
    return math.exp(-a * y ** (2.0 / model.lambda_shape))


def inverse_cdf(model: FadingModel, u: float) -> float:
    """eta(u) = eta0 exp(-1/2 (2 sigma_b^2 (-ln u) / L^2)^(lambda/2)) for u in (0, 1]."""
    if u <= 0.0:
        raise ValueError("u must lie in (0, 1]")
    if u > 1.0:
        raise ValueError("u must lie in (0, 1]")
    x = 2.0 * model.sigma_b**2 * (-math.log(u)) / model.l_scale**2
    return model.eta0 * math.exp(-0.5 * x ** (model.lambda_shape / 2.0))


def distance_to_transmissivity(d_km: float, atten_db_per_km: float) -> float:
    """Fixed-attenuation channel: T_E = 10^(-d * atten / 10)."""
    if d_km < 0 or atten_db_per_km < 0:
        raise ValueError("distance and attenuation must be >= 0")
    return 10.0 ** (-d_km * atten_db_per_km / 10.0)


def mean_transmissivity(model: FadingModel, nodes: int = 400) -> float:
    """E[eta^2] over the fading law (Gauss-Legendre on the inverse CDF)."""
    u, w = _unit_interval_rule(nodes)
    eta = np.array([inverse_cdf(model, ui) for ui in u])
    return float(np.dot(w, eta * eta))


@dataclass(frozen=True)
class QuadratureSpec:
    """Averaging policy: node budget and treatment of negative bounds."""

    node_count: int = 200
    clamp_negative: bool = True

    def __post_init__(self):
        if self.node_count < 2:
            raise ValueError("node_count must be >= 2")


@dataclass(frozen=True)
class AveragedKeyRate:
    """Fading averages of the per-pulse and the memory-assisted rate."""

    rate: float
    rate_normalized: float


@lru_cache(maxsize=16)
def _unit_interval_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    u = (x + 1.0) / 2.0
    return u, w / 2.0


def _point(cfg: SchemeConfig, model: FadingModel, u: float, where: str) -> KeyRatePoint:
    t_e = inverse_cdf(model, u) ** 2
    try:
        return key_rate(cfg, t_e)
    except NumericalDomainError as exc:
        raise NumericalDomainError(f"{exc} at quadrature {where}") from exc


def _signed_average(cfg, model, u, w) -> AveragedKeyRate:
    rate = 0.0
    raw = 0.0
    for i, (ui, wi) in enumerate(zip(u, w)):
        kr = _point(cfg, model, float(ui), f"node {i}")
        rate += wi * kr.rate
        raw += wi * kr.rate_raw
    return AveragedKeyRate(rate=float(rate), rate_normalized=float(raw))


def _bisect_crossing(cfg, model, lo: float, hi: float, f_lo: float) -> float:
    """Sign change of rate_raw between lo and hi on the u axis."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = _point(cfg, model, mid, f"bisection u={mid:.6g}").rate_raw
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _positive_segments(cfg, model, quad) -> list[tuple[float, float]]:
    """u-intervals on which rate_raw > 0, located by a scan plus bisection.

    The tap probability is nonnegative, so rate and rate_raw change sign
    together and one segment list serves both averages.
    """
    u_lo, u_hi = 1e-12, 1.0
    probes = np.linspace(u_lo, u_hi, max(65, quad.node_count // 2 + 1))
    signs = [_point(cfg, model, float(ui), f"scan u={ui:.6g}").rate_raw > 0.0 for ui in probes]
    segments = []
    start = float(probes[0]) if signs[0] else None
    for i in range(1, len(probes)):
        if signs[i] == signs[i - 1]:
            continue
        lo, hi = float(probes[i - 1]), float(probes[i])
        f_lo = _point(cfg, model, lo, f"bracket u={lo:.6g}").rate_raw
        crossing = _bisect_crossing(cfg, model, lo, hi, f_lo)
        if signs[i]:
            start = crossing
        else:
            segments.append((start, crossing))
            start = None
    if start is not None:
        segments.append((start, u_hi))
    return segments


def average_key_rates(cfg: SchemeConfig, model: FadingModel, quad: QuadratureSpec) -> AveragedKeyRate:
    """Fading-channel averages of rate and rate_normalized.

    Unclamped: one Gauss-Legendre rule over u in (0, 1) applied to the signed
    integrand.  Clamped: the integral runs over the located positive region
    only (exact rewriting of the max(K, 0) integrand), with the node budget
    split across segments in proportion to their length.  Both reductions run
    in fixed node order, so results are bit-reproducible.
    """
    u, w = _unit_interval_rule(quad.node_count)
    if not quad.clamp_negative:
        return _signed_average(cfg, model, u, w)

    segments = _positive_segments(cfg, model, quad)
    if not segments:
        return AveragedKeyRate(rate=0.0, rate_normalized=0.0)
    if len(segments) == 1 and segments[0] == (1e-12, 1.0):
        # strictly positive everywhere: the plain rule is already exact
        return _signed_average(cfg, model, u, w)

    total_len = sum(b - a for a, b in segments)
    rate = 0.0
    raw = 0.0
    for a, b in segments:
        n_seg = max(16, int(round(quad.node_count * (b - a) / total_len)))
        us, ws = _unit_interval_rule(n_seg)
        for i, (ui, wi) in enumerate(zip(us, ws)):
            kr = _point(cfg, model, a + (b - a) * float(ui), f"segment node {i}")
            rate += (b - a) * wi * kr.rate
            raw += (b - a) * wi * kr.rate_raw
    return AveragedKeyRate(rate=float(rate), rate_normalized=float(raw))


def average_key_rate(cfg: SchemeConfig, model: FadingModel, quad: QuadratureSpec) -> float:
    """K_avg: the fading average of the per-pulse key-rate bound."""
    return average_key_rates(cfg, model, quad).rate
