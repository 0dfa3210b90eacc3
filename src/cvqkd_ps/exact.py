"""Exact second moments in closed form.

Every state here comes from two two-mode squeezed vacua (A-B with mean photon
number a = alpha_sq, E-F with b = beta_sq), one beam splitter of
transmissivity t = T_E that mixes B with E (the entangling cloner; Weedbrook
et al., Rev. Mod. Phys. 84, 621 (2012)) and at most one single-photon tap on
B (Huang et al., Phys. Rev. A 87, 012317 (2013)).  None of these changes
n_A + n_F - n_B - n_E, so of the two pairings <a_j a_k> and <a_j^dag a_k> of
a mode pair only one is nonzero.  The eight scalars are the occupations n_j
and the pairings k_ab, k_ef, k_eb, k_fb; a variance is 1 + 2 n, a
covariance 2 k.

* The channel, B -> c B + s E and E -> c E - s B with c = sqrt(t),
  s = sqrt(1 - t), maps a product of an A-B and an E-F state to
  n_B = t n_B + (1 - t) n_E, n_E = (1 - t) n_B + t n_E, k_ab = c k_ab,
  k_ef = c k_ef, k_eb = c s (n_E - n_B), k_fb = s k_ef.
* The tap reflects B with amplitude sqrt(1 - t_s) and keeps the outcome with
  one reflected photon.  The reflected mode is thermal with mean
  m = (1 - t_s) n_B, so p_sub = m / (1 + m)^2.  Seen from B, a Gaussian state
  is its amplitude r = sqrt(n_B), B's pairings kappa_j = k_jB / r and the
  pairings sigma_jk = k_jk - kappa_j kappa_k of A, E, F given B.  Wick's
  theorem gives the tapped state: sigma stays, r -> r sqrt(t_s w) and
  kappa -> kappa sqrt(w) with w = 2 / (1 + m).

tps taps the sources and sends them through the channel; rps taps the
channel's output.  sigma is formed from the sources, not from the eight
scalars: there k_jk and kappa_j kappa_k agree to about log10(a) digits.
The fields of any number of configs over a 1-D T_E go into one
(9, configs, points) array that the bound reads as it is.

The scheme names, ``SchemeConfig`` and ``CovarianceSummary`` are defined here
too: this module is the model.  The truncated Fock construction in
``fock_states`` is a test reference and is never imported by the package.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

NO_PS = "nops"
T_PS = "tps"
R_PS = "rps"
SCHEMES = (NO_PS, T_PS, R_PS)


@dataclass(frozen=True)
class SchemeConfig:
    """Physical parameters of one protocol variant.

    alpha_sq / beta_sq are the mean photon numbers of Alice's and Eve's TMSV
    (alpha^2 = sinh^2 r with squeezing parameter r, phase 0), t_s the tap
    beam-splitter transmissivity and recon_eff the reconciliation efficiency
    f.  trunc_n is the Fock cutoff of the reference construction
    (``fock_states.build_state``); the moments here are untruncated and
    ignore it.  It stays a field (with ``--trunc`` and the ``trunc_n=`` CSV
    metadata line) because the benchmark harness still sends and reads it.
    """

    scheme: str
    alpha_sq: float = 1.3
    beta_sq: float = 0.001
    t_s: float = 0.9
    recon_eff: float = 0.95
    trunc_n: int = 20

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        for name in ("alpha_sq", "beta_sq", "t_s", "recon_eff"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha_sq < 0 or self.beta_sq < 0:
            raise ValueError("mean photon numbers must be >= 0")
        if not 0.0 <= self.t_s <= 1.0:
            raise ValueError("t_s must lie in [0, 1]")
        if not 0.0 <= self.recon_eff <= 1.0:
            raise ValueError("recon_eff must lie in [0, 1]")
        if self.trunc_n < 1:
            raise ValueError("trunc_n must be >= 1")


@dataclass(frozen=True)
class CovarianceSummary:
    """The eight second-moment scalars plus the tap probability.

    c_ab2, c_ef and c_fb2 are two-mode-squeezing type (sigma blocks); c_eb2
    is beam-splitter type (identity block).
    """

    v_a: float
    v_b2: float
    v_e: float
    v_f: float
    c_ab2: float
    c_ef: float
    c_eb2: float
    c_fb2: float
    p_sub: float

    CSV_COLUMNS = ("v_a", "v_b2", "v_e", "v_f", "c_ab2", "c_ef", "c_eb2", "c_fb2", "p_sub")


_Moments = namedtuple("_Moments", "n_a n_b n_e n_f k_ab k_ef k_eb k_fb")


def _channel(q: _Moments, t) -> _Moments:
    """q after the beam splitter; q has no B-E, B-F or A-E pairing."""
    u = 1.0 - t
    c, s = np.sqrt(t), np.sqrt(u)
    return _Moments(q.n_a, t * q.n_b + u * q.n_e, u * q.n_b + t * q.n_e, q.n_f,
                    c * q.k_ab, c * q.k_ef, c * s * (q.n_e - q.n_b), s * q.k_ef)


def _seen_from_b(a: float, b: float, t):
    """The sources after the beam splitter, seen from B: r, kappa_a, kappa_e,
    kappa_f, sigma_aa, sigma_ee, sigma_ff, sigma_ef.

    With (u1, u2) = (sqrt(t a), sqrt((1 - t) b)) / r and x = sqrt(a b) / r,
    sigma is (a u2^2 - u1^2, x^2, b u1^2 - u2^2, u1 x sqrt(1 + b)).  r comes
    from amplitudes, so a faint source cannot underflow the ratios; with no
    photon at B everything is 0."""
    c, s = np.sqrt(t), np.sqrt(1.0 - t)
    u1, u2 = c * math.sqrt(a), s * math.sqrt(b)
    r = np.hypot(u1, u2)
    norm = np.where(r > 0.0, r, 1.0)
    u1, u2 = u1 / norm, u2 / norm
    x = math.sqrt(a) * (math.sqrt(b) / norm)
    return (r, u1 * math.sqrt(1.0 + a), c * s * (b - a) / norm, u2 * math.sqrt(1.0 + b),
            a * u2 * u2 - u1 * u1, x * x, b * u1 * u1 - u2 * u2, u1 * x * math.sqrt(1.0 + b))


def _tap(g, t_s: float):
    """The moments after one photon is tapped off B of g (seen from B), and p_sub."""
    r, ka, ke, kf, saa, see, sff, sef = g
    n_b = r * r
    m = (1.0 - t_s) * n_b
    w = 2.0 / (1.0 + m)
    kb = math.sqrt(t_s) * r * w  # k_jB = kb kappa_j
    return (_Moments(saa + ka * ka * w, t_s * n_b * w, see + ke * ke * w, sff + kf * kf * w,
                     kb * ka, sef + ke * kf * w, kb * ke, kb * kf),
            m / ((1.0 + m) * (1.0 + m)))


def _moments(cfgs, t_e):
    """t_e as a 1-D array, and the ``exact_summary`` fields of every config
    over it in one (9, configs, points) array.  t_e is checked here alone: a
    float or a 1-D array in [0, 1], else a ValueError."""
    t = np.atleast_1d(np.asarray(t_e, dtype=float))
    if t.ndim > 1:
        raise ValueError(f"t_e must be a float or a 1-D array, got shape {t.shape}")
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise ValueError("t_e must lie in [0, 1]")
    out = np.empty((9, len(cfgs), len(t)))
    for k, cfg in enumerate(cfgs):
        a, b = cfg.alpha_sq, cfg.beta_sq
        if cfg.scheme == NO_PS:
            q, p_sub = _channel(_Moments(a, a, b, b, math.sqrt(a * (1.0 + a)),
                                         math.sqrt(b * (1.0 + b)), 0.0, 0.0), t), 1.0
        else:
            q, p_sub = _tap(_seen_from_b(a, b, t if cfg.scheme == R_PS else 1.0), cfg.t_s)
            if cfg.scheme == T_PS:
                q = _channel(q, t)
        for j, x in enumerate((*q, p_sub)):
            out[j, k] = x
    out[:8] *= 2.0
    out[:4] += 1.0  # a variance is 1 + 2 n, a covariance 2 k
    return t, out


def exact_summary(cfg: SchemeConfig, t_e):
    """The eight second-moment scalars and the tap probability, untruncated:
    one config's slice of the moments array that ``key_rates_many`` stacks.
    ``t_e`` is a float or a 1-D array; for an array every field is an array
    over its elements.  Where the tap can never fire (no photon reaches it,
    e.g. tps with alpha_sq = 0 or rps with beta_sq = 0 at t_e = 0) there is
    no conditional state: that element gets p_sub = 0 and vacuum moments,
    for which every rate is 0.  ``cfg.trunc_n`` plays no part."""
    _, m = _moments([cfg], t_e)
    return CovarianceSummary(*(m[:, 0, 0] if np.ndim(t_e) == 0 else m[:, 0]))
