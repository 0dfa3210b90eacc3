"""Exact second moments from the Gaussian generator of each state.

Without a Fock cutoff every state here is (v . a^dag) exp(1/2 a^dag W a^dag)|0>
over the modes (A, B2, E, F), with a real symmetric 4x4 W and a real vector
v (no prefactor for nops):

* the two squeezed-vacuum sources put lambda = sqrt(mu / (1 + mu)) on the
  A-B and E-F entries of W;
* the channel beam splitter substitutes a^dag -> S a^dag, so W -> S^T W S and
  v -> S^T v (minus sign on the reflected signal arm, as in ``fock_states``);
* the tap conditioned on one photon acts as t_s^(n_B / 2) b, which turns into
  the prefactor v = D W[B] and W -> D W D with D = diag(1, sqrt(t_s), 1, 1),
  before the channel for tps and after it for rps.

Wick's theorem then gives every two-point function from
M = W (1 - W^2)^-1 = <aa> and N = W^2 (1 - W^2)^-1 = <a^dag a> of the Gaussian
part, and the squared norm of the exponential is det(1 - W^2)^(-1/2)
(Weedbrook et al., Rev. Mod. Phys. 84, 621 (2012)).
"""

from __future__ import annotations

import math

import numpy as np

from .fock_states import R_PS, T_PS, SchemeConfig, analytic_tap_probability
from .moments import CovarianceSummary

_A, _B, _E, _F = 0, 1, 2, 3
_EYE = np.eye(4)


def _tap(w: np.ndarray, t_s: float) -> tuple[np.ndarray, np.ndarray]:
    """Prefactor v = D W[B] and generator D W D of the conditioned tap."""
    st = math.sqrt(t_s)
    v = w[_B].copy()
    v[_B] *= st
    w = w.copy()
    w[_B] *= st
    w[:, _B] *= st
    return v, w


def exact_summary(cfg: SchemeConfig, t_e: float) -> CovarianceSummary | None:
    """The eight second-moment scalars and the tap probability, untruncated.

    Returns None when the tap can never fire (v = 0: no photon reaches it,
    e.g. tps with alpha_sq = 0 or rps with beta_sq = 0 at t_e = 0); there is
    no conditional state then.  ``cfg.trunc_n`` plays no part.
    """
    if not 0.0 <= t_e <= 1.0:
        raise ValueError("t_e must lie in [0, 1]")
    w = np.zeros((4, 4))
    w[_A, _B] = w[_B, _A] = math.sqrt(cfg.alpha_sq / (1.0 + cfg.alpha_sq))
    w[_E, _F] = w[_F, _E] = math.sqrt(cfg.beta_sq / (1.0 + cfg.beta_sq))
    s = _EYE.copy()
    s[_B, _B] = s[_E, _E] = math.sqrt(t_e)
    s[_B, _E] = -math.sqrt(1.0 - t_e)
    s[_E, _B] = math.sqrt(1.0 - t_e)

    v = None
    if cfg.scheme == T_PS:
        v, w = _tap(w, cfg.t_s)
        v = v @ s  # S^T v
    w = s.T @ w @ s
    if cfg.scheme == R_PS:
        v, w = _tap(w, cfg.t_s)

    g = _EYE - w @ w
    aa = np.linalg.solve(g, w)  # <aa> = W (1 - W^2)^-1; W commutes with g
    ada = w @ aa                # <a^dag a> = W^2 (1 - W^2)^-1
    if v is None:
        p_sub = 1.0
    else:
        # v only fixes a ray; rescale it so that tiny amplitudes cannot underflow
        scale = float(np.max(np.abs(v)))
        if scale == 0.0:
            return None
        v = v / scale
        u = v + ada @ v   # <a_j (v.a^dag)>
        mv = aa @ v       # <(v.a) a_j>
        nrm = float(v @ u)
        aa = aa + (mv[:, None] * u + u[:, None] * mv) / nrm
        ada = ada + (u[:, None] * u + mv[:, None] * mv) / nrm
        if cfg.scheme == T_PS:
            p_sub = analytic_tap_probability(cfg.alpha_sq, cfg.t_s)
        else:
            sq_norm = nrm * scale * scale / math.sqrt(np.linalg.det(g))
            p_sub = (1.0 - cfg.t_s) * sq_norm / ((1.0 + cfg.alpha_sq) * (1.0 + cfg.beta_sq))

    cov = (2.0 * (aa + ada)).tolist()
    var = (1.0 + 2.0 * np.diag(ada)).tolist()
    return CovarianceSummary(
        v_a=var[_A],
        v_b2=var[_B],
        v_e=var[_E],
        v_f=var[_F],
        c_ab2=cov[_A][_B],
        c_ef=cov[_E][_F],
        c_eb2=cov[_E][_B],
        c_fb2=cov[_F][_B],
        p_sub=p_sub,
    )
