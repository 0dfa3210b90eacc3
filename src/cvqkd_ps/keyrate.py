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

The per-pulse rate multiplies by the tap success probability;
rate_normalized leaves that factor out, modelling a quantum memory that
serves tapped states on demand.  Negative values are reported as-is;
averaging layers decide what to do with them.

Every function here takes floats or equal-length arrays alike; the guards
apply per element and name the first element that fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import CovarianceSummary, SchemeConfig, exact_summary

_NU_CLAMP = 1e-7
_DISC_TOL = 1e-6
_V_A_MAX = 1e9  # beyond, Eve's O(1) conditional variances cancel from O(V_A) terms


class NumericalDomainError(RuntimeError):
    """A covariance quantity left its physical domain (beyond tolerance)."""


def _check(bad, error: type, message: str, *values) -> None:
    """Raise error(message filled with the values at the first element where
    bad holds); ``index`` on the exception names that element."""
    bad = np.asarray(bad)
    if bad.any():
        i = int(bad.argmax())
        exc = error(message.format(*(np.ravel(v)[i] for v in values)))
        exc.index = i
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


def symplectic_eigenvalues(m: TwoModeCov) -> tuple[float, float]:
    """(nu_plus, nu_minus) from the block invariants.

    nu^2 = (Delta +- sqrt(Delta^2 - 4 det M)) / 2 with
    Delta = det A + det B + 2 det C.  Values within 1e-7 below 1 are clamped
    to 1 (truncation guard); a discriminant below -1e-6 raises.
    """
    delta = m.ax * m.ap + m.bx * m.bp + 2.0 * m.cx * m.cp
    det_m = (m.ax * m.bx - m.cx * m.cx) * (m.ap * m.bp - m.cp * m.cp)
    disc = delta * delta - 4.0 * det_m
    _check(disc < -_DISC_TOL, NumericalDomainError,
           "non-physical covariance matrix: Delta^2 - 4 det M = {:.3e}", disc)
    nu_p_sq = (delta + np.sqrt(np.maximum(disc, 0.0))) / 2.0
    # nu_-^2 = det M / nu_+^2: (Delta - sqrt(disc)) / 2 cancels once Delta >> 1
    nu = np.sqrt(np.maximum((nu_p_sq, det_m / nu_p_sq), 0.0))
    nu = np.where((nu >= 1.0 - _NU_CLAMP) & (nu < 1.0), 1.0, nu)
    return nu[0], nu[1]


def von_neumann_g(v: float) -> float:
    """Entropy of a thermal mode with symplectic eigenvalue v, in bits.

    g(v) = ((v+1)/2) log2((v+1)/2) - ((v-1)/2) log2((v-1)/2), with g(1) = 0.
    """
    _check(v < 1.0 - _NU_CLAMP, ValueError, "symplectic eigenvalue {} below 1", v)
    x = np.maximum(v, 1.0)  # g = 0 for v within the clamp below 1
    up = (x + 1.0) / 2.0
    dn = (x - 1.0) / 2.0
    return up * np.log2(up) - dn * np.log2(np.where(dn > 0.0, dn, 1.0))


def mutual_information(v_a: float, v_b2: float, c_ab2: float) -> float:
    """I(A:B2) = 0.5 log2(V_B2 / V_B2|A) with V_B2|A = V_B2 - C^2/V_A."""
    prod = v_a * v_b2
    det = prod - c_ab2 * c_ab2  # V_A V_B2|A
    if np.asarray((v_a <= 0.0) | (v_b2 <= 0.0) | (det <= 0.0)).any():
        _check((v_a <= 0.0) | (v_b2 <= 0.0), ValueError, "variances must be positive")
        _check(det < 0.0, ValueError, "covariance exceeds the Cauchy-Schwarz bound")
        _check(det <= 0.0, NumericalDomainError, "conditional variance {:.3e} <= 0", det / v_a)
    return 0.5 * np.log2(prod / det)


def eve_cov(s: CovarianceSummary) -> TwoModeCov:
    """Eve's unconditional (E, F) covariance matrix."""
    return TwoModeCov.symmetric(s.v_e, s.v_f, s.c_ef, sign=-1)


def conditional_cov_ef_given_b2(s: CovarianceSummary) -> TwoModeCov:
    """Eve's (E, F) covariance after Bob's x homodyne.

    Only x entries are updated: the E-B2 correlation block is of identity
    type and the F-B2 block of sigma type, so the rank-one measurement kernel
    subtracts c_eb2^2/v_b2, c_fb2^2/v_b2 and the cross term c_eb2*c_fb2/v_b2
    from the x quadratures and leaves p untouched.
    """
    _check(s.v_b2 <= 0.0, ValueError, "v_b2 must be positive")
    inv = 1.0 / s.v_b2
    return TwoModeCov(
        ax=s.v_e - s.c_eb2 * s.c_eb2 * inv,
        ap=s.v_e,
        bx=s.v_f - s.c_fb2 * s.c_fb2 * inv,
        bp=s.v_f,
        cx=s.c_ef - s.c_eb2 * s.c_fb2 * inv,
        cp=-s.c_ef,
    )


def holevo_bound(s: CovarianceSummary) -> float:
    """chi(B2:EF) = g-sum of M_EF minus g-sum of M_EF|B2.

    Both covariance matrices are Eve's own blocks.  For a non-Gaussian state
    (tps, rps) this surrogate chi is not shown to upper-bound Eve's Holevo
    information; see the module docstring.
    """
    g = von_neumann_g(np.array(symplectic_eigenvalues(eve_cov(s))
                               + symplectic_eigenvalues(conditional_cov_ef_given_b2(s))))
    return g[0] + g[1] - g[2] - g[3]


@dataclass(frozen=True)
class KeyRatePoint:
    """Gaussian key-rate figure at one channel transmissivity.

    rate_raw is in bits per tapped (conditioned) use, rate = p_sub * rate_raw
    in bits per source pulse, rate_normalized = rate_raw (memory-assisted).
    """

    t_e: float
    i_g: float
    chi_g: float
    p_sub: float
    rate_raw: float
    rate: float
    rate_normalized: float

    CSV_COLUMNS = ("t_e", "i_g", "chi_g", "p_sub", "rate_raw", "rate", "rate_normalized")

    def at(self, i: int) -> "KeyRatePoint":
        """Element i of an array-valued point, as floats."""
        return KeyRatePoint(*(float(getattr(self, c)[i]) for c in self.CSV_COLUMNS))


def key_rate_from_summary(s: CovarianceSummary, recon_eff: float, t_e: float) -> KeyRatePoint:
    i_g = mutual_information(s.v_a, s.v_b2, s.c_ab2)
    chi_g = holevo_bound(s)
    rate_raw = recon_eff * i_g - chi_g
    return KeyRatePoint(
        t_e=t_e,
        i_g=i_g,
        chi_g=chi_g,
        p_sub=s.p_sub,
        rate_raw=rate_raw,
        rate=s.p_sub * rate_raw,
        rate_normalized=rate_raw,
    )


def key_rates(cfg: SchemeConfig, t_e) -> KeyRatePoint:
    """Closed-form moments of the untruncated state (``exact``: the channel
    map and one shared photon tap, p_sub = m / (1 + m)^2 with
    m = (1 - t_s) n_B), then the Gaussian figure, over a 1-D array of
    transmissivities: a KeyRatePoint of arrays.

    Where the tap can never fire there is no conditional state: p_sub and
    every rate are 0.  ``cfg.trunc_n`` is not used here.  A
    NumericalDomainError names the scheme and t_e of the first failing
    element, and its ``index``.
    """
    t = np.atleast_1d(np.asarray(t_e, dtype=float))
    s = exact_summary(cfg, t)
    _check(s.v_a > _V_A_MAX, ValueError, f"alpha_sq={cfg.alpha_sq:g} out of range: "
           f"V_A = {{:.3g}} > {_V_A_MAX:g}, where the bound loses its precision", s.v_a)
    try:
        return key_rate_from_summary(s, cfg.recon_eff, t)
    except NumericalDomainError as exc:
        i = getattr(exc, "index", 0)
        err = NumericalDomainError(f"{exc} (scheme={cfg.scheme}, t_e={t[i]})")
        err.index = i
        raise err from exc


def key_rate(cfg: SchemeConfig, t_e: float) -> KeyRatePoint:
    """key_rates at one transmissivity."""
    return key_rates(cfg, [t_e]).at(0)
