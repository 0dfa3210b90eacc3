"""Gaussian key-rate figure of merit for one channel instance.

The non-Gaussian post-channel state is replaced by the Gaussian state with
the same covariance matrix.  Bob homodynes, reconciliation is reverse with
efficiency f, and Eve holds the (E, F) pair, so

    rate_raw = f * I(A:B2) - [S(EF) - S(EF | x_B2)]

with all entropies evaluated from symplectic eigenvalues.  S(EF) is taken
from the Gaussian surrogate of Eve's own (E, F) block.  For nops the global
state is Gaussian and pure, so this is the usual collective-attack bound.
For tps and rps it is not shown to be a lower bound: Gaussian extremality
bounds chi with a purification of the (A, B2) surrogate instead, and the two
differ by up to 2 bits (exactly 2 on a lossless channel).

rate_raw, in bits per tapped use, is the memory-assisted figure: it models
a quantum memory that serves tapped states on demand.  The per-pulse rate
multiplies it by the tap success probability.  Negative values are reported
as-is; averaging layers decide what to do with them.

Every function here takes floats or equal-length arrays alike; the guards
apply per element and name the first element that fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import CovarianceSummary, SchemeConfig, _moments

_NU_CLAMP = 1e-7
_DISC_TOL = 1e-6
_V_A_MAX = 1e9  # beyond, Eve's O(1) conditional variances cancel from O(V_A) terms
# beyond, Eve's nearly equal symplectic eigenvalues next to T_E = 1 lose over 1e-9
# (the first evaluation below 1 - _NU_CLAMP comes at beta_sq ~ 510)
_BETA_SQ_MAX = 100.0


class NumericalDomainError(RuntimeError):
    """A covariance quantity left its physical domain (beyond tolerance)."""


def _check(bad, error: type, message: str, *values) -> None:
    """Raise error(message filled with the values at the first element where
    bad holds); ``index`` on the exception names that element's position
    along the last axis, the points' axis of stacked blocks."""
    if not np.count_nonzero(bad):
        return
    bad = np.atleast_1d(bad)
    i = int(bad.argmax())
    exc = error(message.format(*(np.ravel(v)[i] for v in values)))
    exc.index = int(np.unravel_index(i, bad.shape)[-1])
    raise exc


@dataclass(frozen=True)
class TwoModeCov:
    """Two-mode covariance matrix with x/p-diagonal blocks.

    Layout [[A, C], [C^T, B]] with A = diag(ax, ap), B = diag(bx, bp),
    C = diag(cx, cp).  Homodyne conditioning breaks the x/p symmetry, hence
    the separate entries; symmetric() covers the plain case.
    """

    ax: float
    ap: float
    bx: float
    bp: float
    cx: float
    cp: float

    @classmethod
    def symmetric(cls, v_x: float, v_y: float, c: float, sign: int = -1) -> "TwoModeCov":
        """sign=-1: correlations of sigma type diag(c, -c); sign=+1: c * identity."""
        return cls(v_x, v_x, v_y, v_y, c, sign * c)


def symplectic_eigenvalues(m: TwoModeCov) -> np.ndarray:
    """nu_plus and nu_minus from the block invariants, stacked along a new first
    axis (so the result unpacks as nu_p, nu_m).

    nu^2 = (Delta +- sqrt(Delta^2 - 4 det M)) / 2 with
    Delta = det A + det B + 2 det C.  The discriminant is formed as
    (ax ap - bx bp)^2 + 4 (ax cp + bp cx)(ap cx + bx cp), equal to
    Delta^2 - 4 det M, which cancels to rounding noise where nu+ = nu-
    (a pure two-mode squeezed vacuum).  Values within 1e-7 below 1 are
    clamped to 1 (truncation guard); a discriminant below -1e-6 raises.
    """
    det_a, det_b = m.ax * m.ap, m.bx * m.bp
    delta = det_a + det_b + 2.0 * m.cx * m.cp
    det_m = (m.ax * m.bx - m.cx * m.cx) * (m.ap * m.bp - m.cp * m.cp)
    disc = (det_a - det_b) ** 2 + 4.0 * (m.ax * m.cp + m.bp * m.cx) * (m.ap * m.cx + m.bx * m.cp)
    _check(disc < -_DISC_TOL, NumericalDomainError,
           "non-physical covariance matrix: Delta^2 - 4 det M = {:.3e}", disc)
    nu_p_sq = (delta + np.sqrt(np.maximum(disc, 0.0))) / 2.0
    # nu_-^2 = det M / nu_+^2: (Delta - sqrt(disc)) / 2 cancels once Delta >> 1
    nu = np.sqrt(np.maximum((nu_p_sq, det_m / nu_p_sq), 0.0))
    return np.where((nu >= 1.0 - _NU_CLAMP) & (nu < 1.0), 1.0, nu)


def von_neumann_g(v: float) -> float:
    """Entropy of a thermal mode with symplectic eigenvalue v, in bits.

    g(v) = ((v+1)/2) log2((v+1)/2) - ((v-1)/2) log2((v-1)/2), with g(1) = 0,
    formed as (ln(1 + d) + d ln(1 + 1/d)) / ln 2 with d = (v-1)/2: the two
    terms of the first form are O(v log v) and differ by O(log v).
    """
    _check(v < 1.0 - _NU_CLAMP, ValueError, "symplectic eigenvalue {} below 1", v)
    dn = (np.maximum(v, 1.0) - 1.0) / 2.0  # g = 0 for v within the clamp below 1
    return (np.log1p(dn) + dn * np.log1p(1.0 / np.where(dn > 0.0, dn, np.inf))) / np.log(2.0)


def mutual_information(v_a: float, v_b2: float, c_ab2: float) -> float:
    """I(A:B2) = 0.5 log2(V_B2 / V_B2|A) with V_B2|A = V_B2 - C^2/V_A."""
    prod = v_a * v_b2
    det = prod - c_ab2 * c_ab2  # V_A V_B2|A
    if np.asarray((v_a <= 0.0) | (v_b2 <= 0.0) | (det <= 0.0)).any():
        _check((v_a <= 0.0) | (v_b2 <= 0.0), ValueError, "variances must be positive")
        _check(det < 0.0, ValueError, "covariance exceeds the Cauchy-Schwarz bound")
        _check(det <= 0.0, NumericalDomainError, "conditional variance {:.3e} <= 0", det / v_a)
    return 0.5 * np.log2(prod / det)


def conditional_cov_ef_given_b2(s: CovarianceSummary) -> TwoModeCov:
    """Eve's (E, F) covariance after Bob's x homodyne.

    Only x entries are updated: the E-B2 correlation block is of identity
    type and the F-B2 block of sigma type, so the rank-one measurement kernel
    subtracts c_eb2^2/v_b2, c_fb2^2/v_b2 and the cross term c_eb2*c_fb2/v_b2
    from the x quadratures and leaves p untouched.
    """
    _check(s.v_b2 <= 0.0, ValueError, "v_b2 must be positive")
    inv = 1.0 / s.v_b2
    return TwoModeCov(ax=s.v_e - s.c_eb2 * s.c_eb2 * inv, ap=s.v_e,
                      bx=s.v_f - s.c_fb2 * s.c_fb2 * inv, bp=s.v_f,
                      cx=s.c_ef - s.c_eb2 * s.c_fb2 * inv, cp=-s.c_ef)


def holevo_bound(s: CovarianceSummary) -> float:
    """chi(B2:EF) = g-sum of M_EF minus g-sum of M_EF|B2.

    Both covariance matrices are Eve's own blocks.  They share their p
    entries, so both are evaluated in one stacked pass: one TwoModeCov whose
    x entries hold the two blocks along a leading axis.  For a non-Gaussian
    state (tps, rps) this surrogate chi is not shown to upper-bound Eve's
    Holevo information; see the module docstring.
    """
    cond = conditional_cov_ef_given_b2(s)
    both = TwoModeCov(np.array([s.v_e, cond.ax]), s.v_e, np.array([s.v_f, cond.bx]), s.v_f,
                      np.array([s.c_ef, cond.cx]), -s.c_ef)
    (g_eve_p, g_cond_p), (g_eve_m, g_cond_m) = von_neumann_g(symplectic_eigenvalues(both))
    return g_eve_p + g_eve_m - g_cond_p - g_cond_m


@dataclass(frozen=True)
class KeyRatePoint:
    """Gaussian key-rate figure at one channel transmissivity.

    rate_raw is in bits per tapped (conditioned) use, the memory-assisted
    figure; rate = p_sub * rate_raw is in bits per source pulse.
    """

    t_e: float
    i_g: float
    chi_g: float
    p_sub: float
    rate_raw: float
    rate: float

    CSV_COLUMNS = ("t_e", "i_g", "chi_g", "p_sub", "rate_raw", "rate")

    def at(self, i: int) -> "KeyRatePoint":
        """Element i of an array-valued point, as floats."""
        return KeyRatePoint(*(float(getattr(self, c)[i]) for c in self.CSV_COLUMNS))


def key_rate_from_summary(s: CovarianceSummary, recon_eff: float, t_e: float) -> KeyRatePoint:
    i_g = mutual_information(s.v_a, s.v_b2, s.c_ab2)
    chi_g = holevo_bound(s)
    rate_raw = recon_eff * i_g - chi_g
    return KeyRatePoint(t_e=t_e, i_g=i_g, chi_g=chi_g, p_sub=s.p_sub, rate_raw=rate_raw,
                        rate=s.p_sub * rate_raw)


def key_rates_many(cfgs, t_e) -> list:
    """Closed-form moments of the untruncated state (``exact``: the channel
    map and one shared photon tap, p_sub = m / (1 + m)^2 with
    m = (1 - t_s) n_B), then the Gaussian figure, for each config over a 1-D
    array of transmissivities: one KeyRatePoint of arrays per config.  The
    moments of all configs are one (9, configs, points) array; the bound is
    one call over it, with f per element.

    Where the tap can never fire there is no conditional state: p_sub and
    every rate are 0.  ``cfg.trunc_n`` is not used here.  A t_e of more than
    one dimension or outside [0, 1], or an alpha_sq or a beta_sq past the
    range where the bound keeps its precision, raises a ValueError that
    names it.  Every config's beta_sq is checked before any moments are
    computed; alpha_sq on V_A, at the first failing config and element.
    Any failure of the bound on the computed moments, a ValueError of
    ``mutual_information`` or ``von_neumann_g`` included, raises a
    NumericalDomainError that names the scheme and t_e of the first failing
    element, and its ``index`` along t_e.
    """
    for cfg in cfgs:
        if cfg.beta_sq > _BETA_SQ_MAX:
            raise ValueError(f"beta_sq={cfg.beta_sq:g} out of range: > {_BETA_SQ_MAX:g}, "
                             "where the bound loses its precision next to T_E = 1")
    t, m = _moments(cfgs, t_e)
    big = m[0] > _V_A_MAX
    if np.count_nonzero(big):  # the message, which names alpha_sq, is formatted only here
        k = int(big.any(axis=1).argmax())
        _check(big[k], ValueError, f"alpha_sq={cfgs[k].alpha_sq:g} out of range: "
               f"V_A = {{:.3g}} > {_V_A_MAX:g}, where the bound loses its precision", m[0, k])
    f = np.repeat([cfg.recon_eff for cfg in cfgs], len(t))
    try:
        kr = key_rate_from_summary(CovarianceSummary(*m.reshape(9, -1)), f, t)
    except (NumericalDomainError, ValueError) as exc:  # the bound failed on these moments
        k, i = divmod(getattr(exc, "index", 0), len(t))
        err = NumericalDomainError(f"{exc} (scheme={cfgs[k].scheme}, t_e={t[i]})")
        err.index = i
        raise err from exc
    fields = (getattr(kr, c).reshape(len(cfgs), len(t)) for c in KeyRatePoint.CSV_COLUMNS[1:])
    return [KeyRatePoint(t, *block) for block in zip(*fields)]


def key_rates(cfg: SchemeConfig, t_e) -> KeyRatePoint:
    """key_rates_many for one config."""
    return key_rates_many([cfg], t_e)[0]


def key_rate(cfg: SchemeConfig, t_e: float) -> KeyRatePoint:
    """key_rates at one transmissivity."""
    return key_rates(cfg, [t_e]).at(0)
