"""Reference second moments from the Gaussian generator of each state.

This is the 4x4 Wick-theorem construction that ``cvqkd_ps.exact`` replaced
with closed forms; the tests check the closed forms against it.

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

from cvqkd_ps import R_PS, T_PS, CovarianceSummary, SchemeConfig
from cvqkd_ps.fock_states import analytic_tap_probability

_A, _B, _E, _F = 0, 1, 2, 3


def _tap(w: np.ndarray, g: np.ndarray, t_s: float):
    """Prefactor v = D W[B], generator D W D and its 1 - (D W D)^2.

    1 - (D W D)^2 = (1 - D^2) + D (1 - W^2) D + (1 - t_s) D W[B] W[B]^T D is a
    sum of positive terms, so it stays exact where 1 - W^2 is tiny."""
    d = np.array([1.0, math.sqrt(t_s), 1.0, 1.0])  # D = diag(1, sqrt(t_s), 1, 1)
    v = w[..., _B] * d
    g = d[:, None] * g * d + (1.0 - t_s) * v[..., :, None] * v[..., None, :]
    g[..., _B, _B] += 1.0 - t_s
    return v, d[:, None] * w * d, g


def exact_summary(cfg: SchemeConfig, t_e):
    """The eight second-moment scalars and the tap probability, untruncated.

    ``t_e`` is a float or a 1-D array; for an array every field is an array
    over its elements.  Where the tap can never fire (v = 0: no photon
    reaches it, e.g. tps with alpha_sq = 0 or rps with beta_sq = 0 at
    t_e = 0) there is no conditional state: a float ``t_e`` gives None, an
    array element gets p_sub = 0 and vacuum moments, for which every rate
    is 0.  ``cfg.trunc_n`` plays no part.
    """
    t = np.atleast_1d(np.asarray(t_e, dtype=float))
    if not ((t >= 0.0) & (t <= 1.0)).all():
        raise ValueError("t_e must lie in [0, 1]")
    w = np.zeros((4, 4))
    w[_A, _B] = w[_B, _A] = math.sqrt(cfg.alpha_sq / (1.0 + cfg.alpha_sq))
    w[_E, _F] = w[_F, _E] = math.sqrt(cfg.beta_sq / (1.0 + cfg.beta_sq))
    # 1 - W^2 from 1 - lambda^2 = 1 / (1 + mean photon number), without cancellation
    g = np.diag([1.0 / (1.0 + cfg.alpha_sq)] * 2 + [1.0 / (1.0 + cfg.beta_sq)] * 2)
    s = np.repeat(np.eye(4)[None], t.size, axis=0)
    s[:, _B, _B] = s[:, _E, _E] = np.sqrt(t)
    s[:, _E, _B] = np.sqrt(1.0 - t)
    s[:, _B, _E] = -s[:, _E, _B]
    st = s.transpose(0, 2, 1)

    v = None
    if cfg.scheme == T_PS:
        v, w, g = _tap(w, g, cfg.t_s)
    elif cfg.scheme == R_PS:
        w, g = st @ w @ s, st @ g @ s  # S orthogonal: 1 - (S^T W S)^2 = S^T (1 - W^2) S
        v, w, g = _tap(w, g, cfg.t_s)
    aa = np.linalg.solve(g, w)  # <aa> = W (1 - W^2)^-1; W commutes with g
    ada = w @ aa                # <a^dag a> = W^2 (1 - W^2)^-1
    if cfg.scheme != R_PS:
        # the channel maps both two-point functions as it maps W: X -> S^T X S
        aa, ada = st @ aa @ s, st @ ada @ s
        if v is not None:
            v = v @ s  # S^T v
    c = aa + ada
    var = 1.0 + 2.0 * np.diagonal(ada, axis1=1, axis2=2)
    p_sub, fires = np.ones(t.size), np.ones(t.size, dtype=bool)
    if v is not None:
        # v only fixes a ray; rescale it so that tiny amplitudes cannot underflow
        scale = np.abs(v).max(axis=1)
        fires = scale > 0.0
        scale[~fires] = 1.0
        v = v / scale[:, None]
        av = (ada @ v[..., None])[..., 0]
        cv = (c @ v[..., None])[..., 0]
        u = v + av               # <a_j (v.a^dag)>
        mv = cv - av             # <(v.a) a_j>
        nrm = (v * u).sum(axis=1)
        nrm[~fires] = 1.0
        q = (v + cv) / np.sqrt(nrm)[:, None]
        var = var + 2.0 * (u * u + mv * mv) / nrm[:, None]
        c = c + q[:, :, None] * q[:, None, :]
        if cfg.scheme == T_PS:
            p_sub = p_sub * analytic_tap_probability(cfg.alpha_sq, cfg.t_s)
        else:
            sq_norm = nrm * scale * scale / np.sqrt(np.linalg.det(g))
            p_sub = (1.0 - cfg.t_s) * sq_norm / ((1.0 + cfg.alpha_sq) * (1.0 + cfg.beta_sq))
    if not fires.all():
        var[~fires], c[~fires], p_sub[~fires] = 1.0, 0.0, 0.0
    if np.ndim(t_e) == 0:
        if not fires[0]:
            return None
        var, c, p_sub = var[0], c[0], p_sub[0]
    cov = 2.0 * c
    return CovarianceSummary(var[..., _A], var[..., _B], var[..., _E], var[..., _F],
                             cov[..., _A, _B], cov[..., _E, _F], cov[..., _E, _B],
                             cov[..., _F, _B], p_sub)


def mp_summary(scheme: str, alpha_sq, beta_sq, t_s, t_e, dps: int = 50) -> dict:
    """The construction above in ``dps``-digit arithmetic (mpmath), for the
    precision pins; None where the tap never fires."""
    import mpmath as mp

    with mp.workdps(dps):
        a2, b2, t_s, t_e = (mp.mpf(x) for x in (alpha_sq, beta_sq, t_s, t_e))
        w = mp.zeros(4, 4)
        w[_A, _B] = w[_B, _A] = mp.sqrt(a2 / (1 + a2))
        w[_E, _F] = w[_F, _E] = mp.sqrt(b2 / (1 + b2))
        g = mp.diag([1 / (1 + a2)] * 2 + [1 / (1 + b2)] * 2)
        s = mp.eye(4)
        s[_B, _B] = s[_E, _E] = mp.sqrt(t_e)
        s[_E, _B] = mp.sqrt(1 - t_e)
        s[_B, _E] = -s[_E, _B]
        d = mp.diag([1, mp.sqrt(t_s), 1, 1])
        v = None
        if scheme == R_PS:
            w, g = s.T * w * s, s.T * g * s
        if scheme != "nops":
            v = d * w[:, _B]
            w, g = d * w * d, d * g * d + (1 - t_s) * v * v.T
            g[_B, _B] += 1 - t_s
        aa = g**-1 * w
        ada = w * aa
        if scheme != R_PS:
            aa, ada = s.T * aa * s, s.T * ada * s
            if v is not None:
                v = s.T * v
        c = aa + ada
        var = [1 + 2 * ada[i, i] for i in range(4)]
        p_sub = mp.mpf(1)
        if v is not None:
            u, mv = v + ada * v, c * v - ada * v
            nrm = sum(v[i] * u[i] for i in range(4))
            if nrm == 0:
                return None
            q = (v + c * v) / mp.sqrt(nrm)
            var = [var[i] + 2 * (u[i] ** 2 + mv[i] ** 2) / nrm for i in range(4)]
            c = c + q * q.T
            p_sub = (1 - t_s) * nrm / mp.sqrt(mp.det(g)) / ((1 + a2) * (1 + b2))
        return dict(v_a=var[_A], v_b2=var[_B], v_e=var[_E], v_f=var[_F], c_ab2=2 * c[_A, _B],
                    c_ef=2 * c[_E, _F], c_eb2=2 * c[_E, _B], c_fb2=2 * c[_F, _B], p_sub=p_sub)
