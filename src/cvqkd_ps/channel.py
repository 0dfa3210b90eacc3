"""Fixed-attenuation and beam-wander fading channels.

Beam wander over a ground-satellite optical link yields a distribution of
amplitude transmission coefficients eta on [0, eta0] that is well
approximated by a log-negative Weibull law; its shape/scale parameters
follow from the aperture-to-beam ratio h = (beta_r / W)^2 through modified
Bessel functions, once per beam geometry (memoised per (beta_r, W)).  The
channel intensity transmissivity is T_E = eta^2.

Averages over the fading distribution use the exact inverse-CDF substitution
eta(u), turning K_avg into an integral over the unit interval that is
evaluated with Gauss-Legendre nodes, found by Newton steps on the Legendre
recurrence in O(n) memory (no table here is built by a linear-algebra
solver).  Negative key-rate bounds mean "no key",
so by default they are clamped to zero inside the average (the raw signed
integral stays available via clamp_negative=False): the key rate depends on
u only through T_E = eta(u)^2, which rises with u.  A scan on Chebyshev-Lobatto
panels in eta = sqrt(T_E) starts the rate curve: piecewise Chebyshev
interpolants of rate and rate_raw in eta, a panel bisected until its top
coefficients are below tolerance or at the bound's own rounding noise
(Trefethen, Approximation Theory and Approximation Practice, 2013).  The zero
crossings are read off that curve: each sign change between its samples is
solved on its panel's interpolant by safeguarded Newton steps, then mapped to u
with the CDF.  The nodes read the curve too; no node and no root calls the
bound.  Crossings and curve depend on the law only through eta0, so
they are memoised per (config, eta0) for the process, each crossing kept as
the sigma_b-free term y of its CDF: a warm average maps each y to u with the
sigma_b of its model and makes no key_rates call.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import SchemeConfig
from .keyrate import NumericalDomainError, key_rates

_SERIES_MAX_TERMS = 400
_HANKEL_FROM = 50.0  # the power series below this argument, Hankel's expansion above


def _bessel_series(order: int, x: float, first: int = 0) -> float:
    """sum_(j >= first) (x/2)^(2j+order) / (j! (j+order)!), first 0 or 1; all terms
    are positive, so no cancellation occurs (used for x < _HANKEL_FROM, about 60
    terms).  first = 1 gives I0(x) - 1 without the cancellation of subtracting 1."""
    half = x / 2.0
    term = half if order == 1 else 1.0
    total = 0.0 if first else term
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


def bessel_ive(order: int, x: float) -> float:
    """Exponentially scaled Bessel function e^-x I_order(x), orders 0 and 1;
    finite for every x >= 0."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    if not x >= 0:
        raise ValueError("x must be >= 0")
    if x < _HANKEL_FROM:
        return _bessel_series(order, x) * math.exp(-x)
    return _bessel_hankel_scaled(order, x)


_SIGMA_B_MIN = 1e-150  # sigma_b^2 within 1e-300 and 1e300; the laws fail from 1e154 on
NODES_MIN = 16  # least node budget: each positive segment takes this many nodes or more
# most node budget: a rule of n nodes costs O(n^2) time and O(n) memory (under 0.1 s at 2048)
NODES_MAX = 2048


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
    """The fading law at sigma_b for the beam geometry (beta_r, w), whose
    (h, eta0, lambda, L) come from _geometry."""
    # as Python floats, whose h overflows as an OverflowError, not a numpy warning
    sigma_b, beta_r, w = float(sigma_b), float(beta_r), float(w)
    for name, value in (("sigma_b", sigma_b), ("beta_r", beta_r), ("w", w)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    if sigma_b <= 0 or beta_r <= 0 or w <= 0:
        raise ValueError("sigma_b, beta_r and w must all be positive")
    if not _SIGMA_B_MIN <= sigma_b <= 1.0 / _SIGMA_B_MIN:
        raise ValueError(f"sigma_b={sigma_b:g} out of range [{_SIGMA_B_MIN:g}, "
                         f"{1.0 / _SIGMA_B_MIN:g}]: its square under- or overflows in the laws")
    return FadingModel(sigma_b, beta_r, w, *_geometry(beta_r, w))


@lru_cache(maxsize=64)
def _geometry(beta_r: float, w: float) -> tuple:
    """(h, eta0, lambda, L) of a beam geometry, which sigma_b does not enter;
    memoised per (beta_r, w) (a ValueError is raised again, not cached).

    eta0^2 = 1 - exp(-2h)
    lambda = 8h [e^{-4h} I1(4h) / (1 - e^{-4h} I0(4h))] / ln(2 eta0^2 / (1 - e^{-4h} I0(4h)))
    L      = beta_r [ln(...)]^{-1/lambda}

    Each factor is formed without cancellation, as they all tend to 0 with h:
    eta0^2 = -expm1(-2h); the numerator of the log's argument less its
    denominator, num = 1 - 2e^{-2h} + e^{-4h} I0(4h) = eta0^4 + e^{-4h} (I0(4h) - 1),
    takes I0 - 1 from the series' terms j >= 1 (Hankel's expansion less e^{-4h}
    above _HANKEL_FROM); then 1 - e^{-4h} I0(4h) = 2 eta0^2 - num and the log is
    log1p(num / (2 eta0^2 - num)).  As h -> 0, lambda -> 2 and L -> w / sqrt(2).
    The products e^{-4h} I(4h) are taken from the scaled Bessel function, so they
    stay finite for any aperture-to-beam ratio.  A geometry whose h or lambda
    leaves the float range (beta_r / w above about 2.7e153), or whose eta0^4 and
    so num lose their digits below the normal floats (beta_r / w below about
    8.6e-78), is refused.
    """
    where = f"degenerate beam geometry (beta_r={beta_r:g}, w={w:g}"
    try:
        h = (beta_r / w) ** 2
    except OverflowError:
        h = math.inf
    if not h < math.inf:  # inf / w overflows to inf too, and then lambda is NaN
        raise ValueError(f"{where}): h = (beta_r / w)^2 overflows")
    eta0_sq = -math.expm1(-2.0 * h)
    if eta0_sq**2 < sys.float_info.min:  # e^-4h (I0(4h) - 1) is as small
        raise ValueError(f"{where}, h={h:.3g}): eta0^4 = {eta0_sq**2:.3g} is below the "
                         "normal floats, where the shape parameter loses its digits")
    x = 4.0 * h
    if x < _HANKEL_FROM:
        i0_less_1 = _bessel_series(0, x, first=1) * math.exp(-x)
    else:
        i0_less_1 = bessel_ive(0, x) - math.exp(-x)
    num = eta0_sq**2 + i0_less_1
    denom = 2.0 * eta0_sq - num
    ln_term = math.log1p(num / denom)
    lam = 8.0 * h * (bessel_ive(1, x) / denom) / ln_term
    # e^-4h I1(4h) underflows to 0 from h of about 7.2e306 on, and 8h overflows from 2.2e307
    if not 0.0 < lam < math.inf:
        raise ValueError(f"{where}, h={h:.3g}): shape parameter leaves the float range")
    # ln_term >= 1.4e-154 and lambda >= 2 here, so L is finite
    return h, math.sqrt(eta0_sq), lam, beta_r * ln_term ** (-1.0 / lam)


def _law_terms(eta0: float, eta):
    """eta as an array, where it lies in (0, eta0) or is NaN, and there ln eta and
    y = 2 (ln eta0 - ln eta) (finite at subnormal eta); sigma_b does not enter."""
    eta = np.asarray(eta, dtype=float)
    inside = ~((eta <= 0.0) | (eta >= eta0))
    half = eta0 / 2.0
    x = np.where(inside, eta, half)
    ln_eta = np.log(x)
    # ln eta0 - ln eta rounds to 0 an ulp below eta0; above eta0 / 2, eta - eta0 is exact
    y = np.where(x > half, -2.0 * np.log1p((np.maximum(x, half) - eta0) / eta0),
                 2.0 * (math.log(eta0) - ln_eta))
    return eta, inside, ln_eta, y


def _log_cdf(model: FadingModel, y):
    """ln cdf = -L^2 / (2 sigma_b^2) y^(2/lambda) from the y of _law_terms."""
    return -model.l_scale**2 / (2.0 * model.sigma_b**2) * y ** (2.0 / model.lambda_shape)


def pdf(model: FadingModel, eta):
    """Fading density d cdf/d eta = cdf 2 L^2 y^(2/lambda - 1) / (sigma_b^2
    lambda eta) on (0, eta0), else 0; in log space, so 0 where it underflows
    and inf where it exceeds the float range (as eta -> 0 once lambda > 2)."""
    _, inside, ln_eta, y = _law_terms(model.eta0, eta)
    log_pdf = (_log_cdf(model, y) + (2.0 / model.lambda_shape - 1.0) * np.log(y) - ln_eta
               + math.log(2.0 * model.l_scale**2 / (model.sigma_b**2 * model.lambda_shape)))
    with np.errstate(over="ignore"):
        return np.where(inside, np.exp(log_pdf), 0.0)[()]


def cdf(model: FadingModel, eta):
    """P(transmission coefficient <= eta); exp(-a (2 ln(eta0/eta))^(2/lambda))."""
    eta, inside, _, y = _law_terms(model.eta0, eta)
    return np.where(inside, np.exp(_log_cdf(model, y)), np.where(eta >= model.eta0, 1.0, 0.0))[()]


def inverse_cdf(model: FadingModel, u):
    """eta(u) = eta0 exp(-1/2 (2 sigma_b^2 (-ln u) / L^2)^(lambda/2)) for u in
    (0, 1]; u may be an array, empty too."""
    u = np.asarray(u, dtype=float)
    if u.size and not (u.min() > 0.0 and u.max() <= 1.0):  # NaN too
        raise ValueError("u must lie in (0, 1]")
    x = 2.0 * model.sigma_b**2 * (-np.log(u)) / model.l_scale**2
    with np.errstate(over="ignore"):  # eta is 0 where x^(lambda/2) overflows
        return model.eta0 * np.exp(-0.5 * x ** (model.lambda_shape / 2.0))


def distance_to_transmissivity(d_km: float, atten_db_per_km: float) -> float:
    """Fixed-attenuation channel: T_E = 10^(-d * atten / 10)."""
    if not (0.0 <= d_km < math.inf and 0.0 <= atten_db_per_km < math.inf):  # NaN too
        for name, value in (("d_km", d_km), ("atten_db_per_km", atten_db_per_km)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value:g}")
        raise ValueError("distance and attenuation must be >= 0")
    return 10.0 ** (-d_km * atten_db_per_km / 10.0)


def mean_transmissivity(model: FadingModel, nodes: int = 400) -> float:
    """E[eta^2] over the fading law (Gauss-Legendre on the inverse CDF, at most
    NODES_MAX nodes)."""
    if not isinstance(nodes, numbers.Integral) or nodes < 1:
        raise ValueError(f"nodes must be a positive integer, got {nodes!r}")
    if nodes > NODES_MAX:
        raise ValueError(f"nodes must be <= {NODES_MAX}, got {nodes}")
    u, w = _unit_interval_rule(nodes)
    return float(np.dot(w, inverse_cdf(model, u) ** 2))


@dataclass(frozen=True)
class QuadratureSpec:
    """Averaging policy: node budget (an integer, NODES_MIN to NODES_MAX) and treatment of
    negative bounds."""

    node_count: int = 200
    clamp_negative: bool = True

    def __post_init__(self):
        if not isinstance(self.node_count, numbers.Integral):
            raise ValueError(f"node_count must be an integer, got {self.node_count!r}")
        if self.node_count < NODES_MIN:
            raise ValueError(f"node_count must be >= {NODES_MIN}, got {self.node_count}")
        if self.node_count > NODES_MAX:
            raise ValueError(f"node_count must be <= {NODES_MAX}, got {self.node_count}")


@dataclass(frozen=True)
class AveragedKeyRate:
    """Fading averages of the per-pulse and the memory-assisted rate."""

    rate: float
    rate_normalized: float


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for x in [0, 1) by the three-term recurrence, written for
    the differences d_k = P_k - P_(k-1) in t = 1 - x: next to x = 1, where the
    terms of (2k+1) x P_k - k P_(k-1) cancel, it keeps P_n's digits."""
    t = 1.0 - x
    p, d = x, -t
    for k in range(1, n):
        d = (k * d - (2 * k + 1) * t * p) / (k + 1)
        p = p + d
    return p, n * (p - d - x * p) / (t * (1.0 + x))


@lru_cache(maxsize=16)
def _unit_interval_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on (0, 1), in O(n) memory and with no solver
    (Hale and Townsend, SIAM J. Sci. Comput. 35, A652, 2013): Newton steps on P_n
    from Tricomi's guesses for its roots x > 0, mirrored, and x = 0 for odd n; the
    weights 1 / ((1 - x^2) P_n'(x)^2), taken to first order at the root rather than
    at its rounding x.  3-6 ms at 200 nodes and 60-100 ms at 2048 on a 2-core VM."""
    k = np.arange(1, n // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(8):  # every n up to NODES_MAX takes at most 4 steps
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if not np.abs(step).max(initial=0.0) > 1e-14:  # the next step is below rounding
            break
    x = np.append(x, [0.0] * (n % 2))
    p, dp = _legendre(n, x)
    one = (1.0 - x) * (1.0 + x)
    w = (1.0 + 2.0 * x * (p / dp) / one) / (one * dp * dp)
    return (np.concatenate([(1.0 - x) / 2.0, (1.0 + x[::-1][n % 2:]) / 2.0]),
            np.concatenate([w, w[::-1][n % 2:]]))


_NEWTON_STEPS = 60  # bisection alone narrows a cell to 1e-15 in s within 48
_PANELS = 24  # scan panels, 16 _PANELS + 1 points; more cost more than the rare bisections they save
# the rate curve (see _curve): pure rounding noise reads at most 0.72 of the change
# a _SHIFT of T_E (4 ulps of 1) makes; the caps are not knobs, and grading toward
# T_E = 1 takes 19 rounds at eta0 = 1 - 7.6e-9 and 29 at eta0 = 1
_CURVE_RTOL, _NOISE_FACTOR, _NOISE_MAX, _SHIFT = 1e-13, 4.0, 1e-6, 2.0**-50
_CURVE_ROUNDS, _CURVE_PANELS = 60, 1024


def _rates(cfg: SchemeConfig, eta0: float, stage: str, eta: np.ndarray) -> np.ndarray:
    """rate and rate_raw at T_E = eta^2, stacked; a NumericalDomainError (which names
    t_e) also names eta0, which every sigma_b of this geometry shares, the stage and
    the element."""
    try:
        kr = key_rates(cfg, eta**2)
    except NumericalDomainError as exc:
        raise NumericalDomainError(
            f"{exc} at eta0={eta0:.6g}, {stage} {getattr(exc, 'index', 0)}") from exc
    return np.stack([kr.rate, kr.rate_raw])


def _clenshaw(c: list, x: float) -> float:
    """sum_j c[j] T_j(x) by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for ck in c[:0:-1]:
        b1, b2 = 2.0 * x * b1 - b2 + ck, b1
    return x * b1 - b2 + c[0]


def _newton(c: list, a: float, b: float, fa: float, fb: float) -> float:
    """Zero of the interpolant sum_j c[j] T_j(s) (c[17:]: its slope series) in the
    cell [a, b], whose samples fa and fb differ in sign: Newton steps from the secant
    point, a bisection of the bracket that the signs keep wherever a step of over
    1e-15 would not land inside it (a cycle between its ends too), until a step is
    at most 1e-15."""
    p, dp = c[:17], c[17:]
    s = a - fa * (b - a) / (fb - fa)
    if s in (a, b):  # a sample vanishes
        return s
    for _ in range(_NEWTON_STEPS):
        f, slope = _clenshaw(p, s), _clenshaw(dp, s)
        if (f > 0.0) == (fa > 0.0):
            a = s
        else:
            b = s
        t = s - f / slope if slope != 0.0 else math.nan
        if not (a < t < b or abs(t - s) <= 1e-15):  # NaN too, and a cycle between the ends
            t = (a + b) / 2.0
        if abs(t - s) <= 1e-15:
            return t
        s = t
    return s


@lru_cache(maxsize=1)
def _lobatto() -> tuple[np.ndarray, np.ndarray]:
    """17 Chebyshev-Lobatto points s_j = -cos(pi j/16) on [-1, 1] and the map from
    samples there to the Chebyshev coefficients of their interpolant (rows 0-16) and
    of its slope (rows 17-33; column k of d: T_k').  On these points the inverse of
    T_k(s_j) is the DCT-I (1/8) g_k T_k(s_j) g_j, g = 1/2 at both ends and 1 between."""
    j, k = np.indices((17, 17))
    v = (-1.0) ** k * np.cos(np.pi * j * k / 16)  # T_k(s_j)
    d = np.triu((1.0 - (-1.0) ** (k - j)) * k, 1) * np.where(j > 0, 1.0, 0.5)
    g = np.where(k[0] % 16 == 0, 0.5, 1.0)
    fit = (2.0 / 16) * g[:, None] * v.T * g
    return -np.cos(np.pi * k[0] / 16), np.vstack([fit, d @ fit])


def _scan(cfg: SchemeConfig, eta0: float) -> tuple[np.ndarray, np.ndarray]:
    """Round 0 of the rate curve: _PANELS even panels of [0, eta0] with 17 Lobatto
    points each (neighbours share their ends), sampled in one call.  Their eta, one
    row per panel, and rate and rate_raw there, stacked."""
    nodes, _ = _lobatto()
    eta = np.append((eta0 / _PANELS) * (np.arange(_PANELS)[:, None] + (1.0 + nodes[:-1]) / 2.0),
                    eta0)
    f = _rates(cfg, eta0, "scan", eta)
    panels = np.arange(0, 16 * _PANELS, 16)[:, None] + np.arange(17)
    return eta[panels], f[:, panels]


def _curve(cfg: SchemeConfig, eta0: float, x: np.ndarray, f: np.ndarray) -> tuple:
    """The piecewise Chebyshev interpolant of rate and rate_raw in eta on [0, eta0]:
    the panel edges, the coefficients of each curve on each panel, (2, panels, 17), and
    each panel's own samples of rate_raw, (panels, 17).

    It starts from the panels (x, f) of _scan.  A panel passes once its coefficients
    14-16 of each curve lie below _CURVE_RTOL of that curve's largest scan sample.  One
    that fails is bisected, unless those coefficients are the bound's own rounding
    noise, which no bisection lowers: within _NOISE_FACTOR of the largest change of its
    samples under a shift of T_E by _SHIFT.  Each round samples the shifted points and
    the halves of every failing panel in one call.  A curve whose noise passes
    _NOISE_MAX of its scale, or still unresolved after _CURVE_ROUNDS rounds or past
    _CURVE_PANELS panels, raises a NumericalDomainError naming eta0 and the eta
    interval of the first failing panel.  A panel's ends are 0 or within a factor 2
    of each other, so the halves' points at their shared end are one float.
    """
    nodes, fit = _lobatto()
    scale = np.abs(f).max(axis=(1, 2))[:, None]

    def unresolved(a: float, b: float, why: str) -> NumericalDomainError:
        return NumericalDomainError(f"rate curve not resolved at eta0={eta0:.6g}: "
                                    f"eta in [{a:.17g}, {b:.17g}], {why}")

    lo, hi = x[:, 0], x[:, -1]
    los, coefs, raws = [], [], []
    for round_ in range(_CURVE_ROUNDS + 1):
        coef = f @ fit[:17].T
        tail = np.abs(coef[:, :, 14:]).max(axis=2)
        bad = (tail > _CURVE_RTOL * scale).any(axis=0)
        if bad.any():
            n, i = np.count_nonzero(bad), np.argmax(bad)
            if round_ == _CURVE_ROUNDS or sum(map(len, los)) + len(lo) + n > _CURVE_PANELS:
                raise unresolved(lo[i], hi[i], f"after {round_} bisections")
            t = x[bad] ** 2
            mid = (lo[bad] + hi[bad]) / 2.0
            lo2, hi2 = np.concatenate([lo[bad], mid]), np.concatenate([mid, hi[bad]])
            x2 = lo2[:, None] + (hi2 - lo2)[:, None] * ((1.0 + nodes) / 2.0)
            shifted = np.sqrt(np.where(t < 0.5, t + _SHIFT, t - _SHIFT))
            g = _rates(cfg, eta0, "curve", np.concatenate([shifted.ravel(), x2.ravel()]))
            g = g.reshape(2, 3 * n, 17)
            noise = _NOISE_FACTOR * np.abs(g[:, :n] - f[:, bad]).max(axis=2)
            loud = noise > _NOISE_MAX * scale
            if loud.any():
                c, j = np.argwhere(loud)[0]
                raise unresolved(lo2[j], hi2[n + j], "where the bound's rounding noise is "
                                 f"{noise[c, j] / scale[c, 0]:.1e} of the curve's scale")
            split = ~(tail[:, bad] <= np.maximum(_CURVE_RTOL * scale, noise)).all(axis=0)
            bad[bad] = split
        los.append(lo[~bad])
        coefs.append(coef[:, ~bad])
        raws.append(f[1, ~bad])
        if not bad.any():
            break
        halves = np.concatenate([split, split])
        lo, hi, x, f = lo2[halves], hi2[halves], x2[halves], g[:, n:][:, halves]
    lo = np.concatenate(los)
    order = np.argsort(lo)
    return (np.append(lo[order], eta0), np.concatenate(coefs, axis=1)[:, order],
            np.concatenate(raws)[order])


def _curve_roots(edges: np.ndarray, raw: np.ndarray) -> tuple:
    """Whether rate_raw > 0 at T_E = 0, and its zero crossings T* in [0, eta0^2], read
    off the curve of _curve (its edges and samples of rate_raw) in eta = sqrt(T_E),
    where rate_raw is analytic.  Each sign change between neighbouring samples is
    solved by _newton on its panel's interpolant, inside its own cell; a panel's last
    cell ends at the next panel's first sample, which is the same point."""
    nodes, fit = _lobatto()
    c, f = raw @ fit.T, np.append(raw[:, :16], raw[-1, 16])
    roots = []
    for i in np.flatnonzero(np.diff(f > 0.0)):
        k, j = divmod(i, 16)
        s = _newton(c[k].tolist(), *nodes[j:j + 2].tolist(), *f[i:i + 2].tolist())
        roots.append((edges[k] + (edges[k + 1] - edges[k]) * (1.0 + s) / 2.0) ** 2)
    return bool(f[0] > 0.0), tuple(roots)


@lru_cache(maxsize=64)
def _crossings(cfg: SchemeConfig, eta0: float) -> tuple:
    """The rate curve of _curve, from one _scan, and its crossings (_curve_roots) as
    the part of their u* = cdf(sqrt(T*)) that sigma_b does not enter: whether rate_raw
    > 0 on the first u-segment, the y of _law_terms at each T* inside (0, eta0^2), the
    curve's panel edges and its coefficients, all read-only; the samples are dropped.
    A T* at 0 (u* = 0) only flips the first segment's sign, and one at eta0^2 (u* = 1)
    ends the last, so neither is kept.  Memoised per (config, eta0) for the process (a
    NumericalDomainError is raised again, not cached); at most 1024 panels, 0.29 MB."""
    edges, coef, raw = _curve(cfg, eta0, *_scan(cfg, eta0))
    positive, roots = _curve_roots(edges, raw)
    eta, inside, _, y = _law_terms(eta0, np.sqrt(roots))
    y = y[inside]
    for table in (y, edges, coef):
        table.flags.writeable = False
    return positive != bool(np.count_nonzero(eta <= 0.0) % 2), y, edges, coef


def _positive_region(model: FadingModel, positive: bool, y: np.ndarray) -> list:
    """u-intervals on which rate_raw > 0 (and so rate, as p_sub >= 0); T_E =
    eta(u)^2 rises with u, so the crossings of _crossings (positive, y) map to
    u* = exp(ln cdf), in cdf's own operations."""
    edges = [0.0, *np.exp(_log_cdf(model, y)).tolist(), 1.0]
    return [(a, b) for k, (a, b) in enumerate(zip(edges, edges[1:]))
            if positive == (k % 2 == 0) and b > a]


def _nodes(segments: list, node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the segments, the node budget split
    in proportion to their length (at least NODES_MIN each)."""
    total = sum(b - a for a, b in segments)
    rules = [(a, b - a, *_unit_interval_rule(max(NODES_MIN, round(node_count * (b - a) / total))))
             for a, b in segments]
    if len(rules) == 1:
        a, h, us, ws = rules[0]
        return a + h * us, h * ws
    return (np.concatenate([np.empty(0)] + [a + h * us for a, h, us, _ in rules]),
            np.concatenate([np.empty(0)] + [h * ws for _, h, _, ws in rules]))


def _chebyshev_rows(s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w T_j(s) for j = 0 to 16, one row each, by the three-term recurrence."""
    t, s2 = np.empty((17, len(s))), 2.0 * s
    t[0], t[1] = w, s * w
    for j in range(2, 17):
        np.multiply(s2, t[j - 1], out=t[j])
        np.subtract(t[j], t[j - 2], out=t[j])
    return t


def average_key_rates_many(cfg: SchemeConfig, models, quad: QuadratureSpec) -> list:
    """Fading-channel averages of rate and rate_normalized, one per model.

    Unclamped: one Gauss-Legendre rule over u in (0, 1) applied to the signed
    integrand.  Clamped: the integral runs over the located positive region
    only (exact rewriting of the max(K, 0) integrand); an empty region gives 0.
    The nodes read rate and rate_raw off the rate curve of the memoised
    _crossings, so none calls the bound.  The weighted Chebyshev rows of all
    nodes come from one recurrence; each model sums them over its runs of
    nodes on one panel and contracts the sums with those panels'
    coefficients, in its own fixed order, so every average is bit-identical to
    a one-model call.
    """
    curves, s, w = [], [], []
    for model in models:
        positive, y, edges, coef = _crossings(cfg, model.eta0)
        segments = _positive_region(model, positive, y) if quad.clamp_negative else [(0.0, 1.0)]
        us, ws = _nodes(segments, quad.node_count)
        eta = inverse_cdf(model, us)
        k = np.minimum(np.searchsorted(edges, eta, side="right"), len(edges) - 1) - 1
        lo, hi = edges[k], edges[k + 1]  # the panel of each node; eta0 closes the last
        s.append((2.0 * eta - lo - hi) / (hi - lo))
        w.append(ws)
        curves.append((k, coef))
    rows = _chebyshev_rows(np.concatenate([np.empty(0), *s]), np.concatenate([np.empty(0), *w]))
    out, a = [], 0
    for k, coef in curves:
        b = a + len(k)
        runs = np.flatnonzero(np.diff(k, prepend=-1))  # the nodes of a model rise in eta
        sums = np.add.reduceat(rows[:, a:b], runs, axis=1)
        rate, raw = coef[:, k[runs]].reshape(2, -1) @ sums.T.ravel()
        out.append(AveragedKeyRate(float(rate), float(raw)))
        a = b
    return out


def average_key_rates(cfg: SchemeConfig, model: FadingModel, quad: QuadratureSpec) -> AveragedKeyRate:
    """The one-model view of average_key_rates_many."""
    return average_key_rates_many(cfg, [model], quad)[0]
