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
integral stays available via clamp_negative=False): the key rate depends on
u only through T_E = eta(u)^2, which rises with u, so its zero crossings are
found in eta = sqrt(T_E) by a scan and stacked Chebyshev interpolants, then
mapped to u with the CDF; they depend on the law only through eta0, so the
averages of one call share them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exact import SchemeConfig
from .keyrate import KeyRatePoint, NumericalDomainError, key_rates

_SERIES_MAX_TERMS = 400
_HANKEL_FROM = 50.0  # the power series below this argument, Hankel's expansion above


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


def _log_laws(model: FadingModel, eta):
    """eta as an array, where it lies in (0, eta0) or is NaN, and there ln cdf
    and ln pdf, with y = 2 (ln eta0 - ln eta) (finite at subnormal eta)."""
    eta = np.asarray(eta, dtype=float)
    inside = ~((eta <= 0.0) | (eta >= model.eta0))
    ln_eta = np.log(np.where(inside, eta, model.eta0 / 2.0))
    y, p = 2.0 * (math.log(model.eta0) - ln_eta), 2.0 / model.lambda_shape
    log_cdf = -model.l_scale**2 / (2.0 * model.sigma_b**2) * y**p
    return eta, inside, log_cdf, log_cdf + (p - 1.0) * np.log(y) - ln_eta + math.log(
        2.0 * model.l_scale**2 / (model.sigma_b**2 * model.lambda_shape))


def pdf(model: FadingModel, eta):
    """Fading density d cdf/d eta = cdf 2 L^2 y^(2/lambda - 1) / (sigma_b^2
    lambda eta) on (0, eta0), else 0; in log space, so 0 where it underflows
    and inf where it exceeds the float range (as eta -> 0 once lambda > 2)."""
    _, inside, _, log_pdf = _log_laws(model, eta)
    with np.errstate(over="ignore"):
        return np.where(inside, np.exp(log_pdf), 0.0)[()]


def cdf(model: FadingModel, eta):
    """P(transmission coefficient <= eta); exp(-a (2 ln(eta0/eta))^(2/lambda))."""
    eta, inside, log_cdf, _ = _log_laws(model, eta)
    return np.where(inside, np.exp(log_cdf), np.where(eta >= model.eta0, 1.0, 0.0))[()]


def inverse_cdf(model: FadingModel, u):
    """eta(u) = eta0 exp(-1/2 (2 sigma_b^2 (-ln u) / L^2)^(lambda/2)) for u in
    (0, 1]; u may be an array."""
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u <= 1.0)):
        raise ValueError("u must lie in (0, 1]")
    x = 2.0 * model.sigma_b**2 * (-np.log(u)) / model.l_scale**2
    return model.eta0 * np.exp(-0.5 * x ** (model.lambda_shape / 2.0))


def distance_to_transmissivity(d_km: float, atten_db_per_km: float) -> float:
    """Fixed-attenuation channel: T_E = 10^(-d * atten / 10)."""
    if d_km < 0 or atten_db_per_km < 0:
        raise ValueError("distance and attenuation must be >= 0")
    return 10.0 ** (-d_km * atten_db_per_km / 10.0)


def mean_transmissivity(model: FadingModel, nodes: int = 400) -> float:
    """E[eta^2] over the fading law (Gauss-Legendre on the inverse CDF)."""
    u, w = _unit_interval_rule(nodes)
    return float(np.dot(w, inverse_cdf(model, u) ** 2))


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


_ROOT_XTOL = 1e-14
_ROOT_MAX_STEPS = 100
_ROOT_TTOL, _REFINE_ROUNDS = 1e-12, 4  # the refine's error bound on T* and its round cap


def _rates(cfg: SchemeConfig, t, stage: str, labels: list, starts: list, u=None) -> KeyRatePoint:
    """key_rates at t, which holds block labels[k] from starts[k] on; a
    NumericalDomainError also names the block, stage, element, T_E and u."""
    try:
        return key_rates(cfg, t)
    except NumericalDomainError as exc:
        i = getattr(exc, "index", 0)
        k = int(np.searchsorted(starts, i, side="right")) - 1
        at = f"T_E={t[i]:.6g}" + ("" if u is None else f", u={u[i]:.6g}")
        raise NumericalDomainError(
            f"{exc} at {labels[k]}, {stage} {i - starts[k]} ({at})") from exc


def _brent(f, a: float, b: float, fa: float, fb: float) -> float:
    """Zero of f between a and b, where fa = f(a) and fb = f(b) differ in sign
    or vanish: Brent's method (inverse quadratic interpolation or secant
    steps, bisection whenever they would not shrink the bracket fast enough;
    Brent, Algorithms for Minimization without Derivatives, 1973, ch. 4)."""
    if fa == 0.0:
        return a
    c, fc, d, e = a, fa, b - a, b - a
    for _ in range(_ROOT_MAX_STEPS):
        if fb == 0.0:
            return b
        if (fb > 0.0) == (fc > 0.0):  # keep the root between b and c
            c, fc, d, e = a, fa, b - a, b - a
        if abs(fc) < abs(fb):  # b is the best estimate so far
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 2.0 * np.finfo(float).eps * abs(b) + 0.5 * _ROOT_XTOL
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0.0 else (-p, q)
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
    return b


def _clenshaw(c: list, x: float) -> float:
    """sum_j c[j] T_j(x) by Clenshaw's recurrence."""
    b1 = b2 = 0.0
    for ck in c[:0:-1]:
        b1, b2 = 2.0 * x * b1 - b2 + ck, b1
    return x * b1 - b2 + c[0]


@lru_cache(maxsize=1)
def _lobatto() -> tuple[np.ndarray, np.ndarray]:
    """17 Chebyshev-Lobatto points s_j = -cos(pi j/16) on [-1, 1] and the map from
    samples there to the Chebyshev coefficients of their interpolant (rows 0-16), of
    the degree-8 one through every other point and of the slope (column k of d: T_k')."""
    j, k = np.indices((17, 17))
    v = (-1.0) ** k * np.cos(np.pi * j * k / 16)  # T_k(s_j)
    d = np.triu((1.0 - (-1.0) ** (k - j)) * k, 1) * np.where(j > 0, 1.0, 0.5)
    return -np.cos(np.pi * k[0] / 16), np.vstack([
        np.linalg.inv(v), np.linalg.inv(v[::2, :9]) @ np.eye(17)[::2], d @ np.linalg.inv(v)])


def _crossings(cfg: SchemeConfig, eta0: float, probes: int) -> tuple[bool, list]:
    """Whether rate_raw > 0 at T_E = 0, and its zero crossings T* in [0, eta0^2]: a
    scan evenly spaced in eta = sqrt(T_E), where rate_raw is analytic, brackets them.
    Each round samples Lobatto points in all open brackets in one call; a bracket whose
    interpolant's root the degree-8 one moves by over _ROOT_TTOL narrows to a sign change."""
    where, eta = [f"eta0={eta0:.6g}"], np.linspace(0.0, eta0, probes)
    f = _rates(cfg, eta**2, "scan", where, [0]).rate_raw
    nodes, fit = _lobatto()
    todo = {k: (eta[i:i + 2], f[i:i + 2]) for k, i in enumerate(np.flatnonzero(np.diff(f > 0.0)))}
    roots, round_ = [0.0] * len(todo), 0
    while todo:
        round_ += 1
        ends, f_ends = map(np.array, zip(*todo.values()))
        x = ends @ np.array([(1.0 - nodes) / 2.0, (1.0 + nodes) / 2.0])
        inner = _rates(cfg, (x[:, 1:-1] ** 2).ravel(), "refine", where, [0]).rate_raw
        y = np.column_stack([f_ends[:, 0], inner.reshape(len(x), -1), f_ends[:, 1]])
        for k, xs, ys, c in zip(list(todo), x, y, (y @ fit.T).tolist()):
            s = _brent(lambda z: _clenshaw(c[:17], z), -1.0, 1.0, ys[0], ys[-1])
            root = xs[0] + (xs[-1] - xs[0]) * (1.0 + s) / 2.0
            roots[k] = root**2  # off by about 2 root d(eta), d(eta) = |p8| / |d p16/d eta|
            off = root * (xs[-1] - xs[0]) * abs(_clenshaw(c[17:26], s))
            if off <= _ROOT_TTOL * abs(_clenshaw(c[26:], s)) or round_ == _REFINE_ROUNDS:
                del todo[k]
                continue
            cells = np.flatnonzero(np.diff(ys > 0.0))
            j = cells[np.argmin(abs(nodes[cells] + nodes[cells + 1] - 2.0 * s))]
            todo[k] = (xs[j:j + 2], ys[j:j + 2])
    return bool(f[0] > 0.0), roots


def _positive_region(model: FadingModel, starts_positive: bool, crossings: list) -> list:
    """u-intervals on which rate_raw > 0 (and so rate, as p_sub >= 0); T_E =
    eta(u)^2 rises with u, so each crossing T* maps to u* = cdf(sqrt(T*))."""
    edges = [0.0, *cdf(model, np.sqrt(crossings)), 1.0]
    return [(a, b) for k, (a, b) in enumerate(zip(edges, edges[1:]))
            if starts_positive == (k % 2 == 0) and b > a]


def _nodes(segments: list, node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the segments, the node budget split
    in proportion to their length (at least 16 each)."""
    total = sum(b - a for a, b in segments)
    rules = [(a, b - a, *_unit_interval_rule(max(16, round(node_count * (b - a) / total))))
             for a, b in segments]
    return (np.concatenate([np.empty(0)] + [a + h * us for a, h, us, _ in rules]),
            np.concatenate([np.empty(0)] + [h * ws for _, h, _, ws in rules]))


def average_key_rates_many(cfg: SchemeConfig, models, quad: QuadratureSpec) -> list:
    """Fading-channel averages of rate and rate_normalized, one per model.

    Unclamped: one Gauss-Legendre rule over u in (0, 1) applied to the signed
    integrand.  Clamped: the integral runs over the located positive region
    only (exact rewriting of the max(K, 0) integrand), its crossings found
    once per distinct eta0; an empty region gives 0.  All nodes go through
    one array call, and each model's reduction runs in its own fixed node
    order, so every average is bit-identical to a one-model call.
    """
    probes, crossings, rules, starts = max(65, quad.node_count // 2 + 1), {}, [], [0]
    for model in models:
        segments = [(0.0, 1.0)]
        if quad.clamp_negative:
            if model.eta0 not in crossings:
                crossings[model.eta0] = _crossings(cfg, model.eta0, probes)
            segments = _positive_region(model, *crossings[model.eta0])
        rules.append(_nodes(segments, quad.node_count))
        starts.append(starts[-1] + len(rules[-1][0]))  # where each model's nodes begin
    if starts[-1] == 0:
        return [AveragedKeyRate(0.0, 0.0) for _ in rules]
    u = np.concatenate([us for us, _ in rules])
    t = np.concatenate([inverse_cdf(m, us) ** 2 for m, (us, _) in zip(models, rules)])
    kr = _rates(cfg, t, "node", [f"sigma_b={m.sigma_b:.6g}" for m in models], starts, u)
    return [AveragedKeyRate(float(w @ kr.rate[a:b]), float(w @ kr.rate_raw[a:b]))
            for (_, w), a, b in zip(rules, starts, starts[1:])]


def average_key_rates(cfg: SchemeConfig, model: FadingModel, quad: QuadratureSpec) -> AveragedKeyRate:
    """The one-model view of average_key_rates_many."""
    return average_key_rates_many(cfg, [model], quad)[0]


def average_key_rate(cfg: SchemeConfig, model: FadingModel, quad: QuadratureSpec) -> float:
    """K_avg: the fading average of the per-pulse key-rate bound."""
    return average_key_rates(cfg, model, quad).rate
