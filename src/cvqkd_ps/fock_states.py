"""Truncated four-mode Fock states for entanglement-based CV-QKD with photon
subtraction.

Alice keeps mode A of a two-mode squeezed vacuum (TMSV) and sends the other
arm towards Bob.  A single photon may be tapped off with a beam splitter of
transmissivity T_S either before the channel (scheme ``tps``), after it
(``rps``), or not at all (``nops``).  The channel is a beam splitter of
transmissivity T_E that mixes the travelling mode with one arm of Eve's own
TMSV (mean photon number beta^2), so the post-channel pure state lives on the
four modes (A, B2, E, F): Alice, Bob, Eve's intercept output and Eve's kept
ancilla.

Conventions (fixed throughout the package):

* squeezing phase is zero, so every amplitude is real;
* beam splitters put the minus sign on the reflected arm of the mode that
  carries the signal (B-side input) and a plus sign on the ancilla input;
* the unobservable global sign produced by the single-photon tap is dropped,
  interior (-1)^k signs are kept;
* occupation sums over n (Alice) and m (Eve) are truncated at ``trunc_n``.

States are stored sparsely: a lexicographically sorted table of occupation
quadruples with one real amplitude each.  Distinct summation indices that
land on the same quadruple are accumulated before normalization.

The key rates come from the untruncated moments of ``exact``; this truncated
construction (with ``moments``) is the reference they are tested against.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NO_PS = "nops"
T_PS = "tps"
R_PS = "rps"
SCHEMES = (NO_PS, T_PS, R_PS)

MODES = ("A", "B2", "E", "F")
MODE_INDEX = {"A": 0, "B2": 1, "E": 2, "F": 3}


class TruncationWarning(UserWarning):
    """Raised when the truncated squared norm visibly undershoots its target."""


@dataclass(frozen=True)
class SchemeConfig:
    """Physical parameters of one protocol variant.

    alpha_sq / beta_sq are the mean photon numbers of Alice's and Eve's TMSV
    (alpha^2 = sinh^2 r with squeezing parameter r, phase 0), t_s the tap
    beam-splitter transmissivity, recon_eff the reconciliation efficiency f,
    and trunc_n the Fock cutoff applied to both TMSV expansions by the
    reference pipeline here (``build_state``).  ``keyrate.key_rate`` works
    without truncation and ignores trunc_n.
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

    @property
    def squeezing_r(self) -> float:
        return math.asinh(math.sqrt(self.alpha_sq))


def tmsv_coefficient(mean_photon: float, n: int) -> float:
    """Fock amplitude of a TMSV: sqrt(mu^n / (1+mu)^(n+1)) on |n,n>."""
    if mean_photon < 0:
        raise ValueError("mean_photon must be >= 0")
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.sqrt(mean_photon**n / (1.0 + mean_photon) ** (n + 1))


def bs_coefficient(n: int, k: int, t: float) -> float:
    """Amplitude for k of n photons leaving on the reflected arm of a
    transmissivity-t beam splitter: sqrt(C(n,k)) t^((n-k)/2) (1-t)^(k/2)."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    if not 0.0 <= t <= 1.0:
        raise ValueError("t must lie in [0, 1]")
    return math.sqrt(math.comb(n, k)) * t ** ((n - k) / 2) * (1.0 - t) ** (k / 2)


def pairing_factor(n: int, k: int, m: int, l: int) -> float:
    """Combinatorial factor sqrt(C(n-k+l, l)) * sqrt(C(k+m-l, k)) produced when
    the two beam-splitter binomial expansions act on the same output modes."""
    if k < 0 or not 0 <= l <= m:
        raise ValueError(f"need k >= 0 and 0 <= l <= m, got k={k}, m={m}, l={l}")
    if n - k + l < l or k + m - l < k:
        raise ValueError(f"malformed binomials for (n={n}, k={k}, m={m}, l={l})")
    return math.sqrt(math.comb(n - k + l, l)) * math.sqrt(math.comb(k + m - l, k))


def analytic_tap_probability(alpha_sq: float, t_s: float) -> float:
    """Closed-form probability of tapping exactly one photon off a TMSV arm:
    mu(1-T_S) / ((1+alpha^2)(1-mu T_S)^2) with mu = alpha^2/(1+alpha^2)."""
    if alpha_sq < 0:
        raise ValueError("alpha_sq must be >= 0")
    if not 0.0 <= t_s <= 1.0:
        raise ValueError("t_s must lie in [0, 1]")
    mu = alpha_sq / (1.0 + alpha_sq)
    return mu * (1.0 - t_s) / ((1.0 + alpha_sq) * (1.0 - mu * t_s) ** 2)


def _tap_probability_truncated(alpha_sq: float, t_s: float, trunc_n: int) -> float:
    return sum(
        (tmsv_coefficient(alpha_sq, n) * bs_coefficient(n, 1, t_s)) ** 2
        for n in range(1, trunc_n + 1)
    )


def _index_pairs(nmax: int, kmax_of_n) -> tuple[np.ndarray, np.ndarray]:
    """All (outer, inner) pairs with outer in 0..nmax, inner in 0..kmax_of_n(outer)."""
    outer = np.concatenate([np.full(kmax_of_n(v) + 1, v, dtype=np.int64) for v in range(nmax + 1)])
    inner = np.concatenate([np.arange(kmax_of_n(v) + 1, dtype=np.int64) for v in range(nmax + 1)])
    return outer, inner


class _Skeleton:
    """Parameter-independent index tables for one (scheme, trunc_n).

    Holds the flat enumeration of summation tuples (n, k, m, l), their
    combinatorial weights and channel-transmissivity exponents, the sorted
    table of destination kets, and the tuple -> ket accumulation map.  The
    tables depend only on the scheme and the cutoff, so one skeleton serves
    every physical parameter set and every channel transmissivity.
    """

    def __init__(self, scheme: str, trunc_n: int):
        self.scheme = scheme
        self.trunc_n = trunc_n
        big = 2 * trunc_n + 2  # occupations stay < big even after a raise
        self._base = big

        sqb = np.sqrt(self._pascal(2 * trunc_n + 1))

        if scheme == T_PS:
            # n = 1..N, k = 0..n-1; the channel splitter acts on n-1 photons
            an, ak = _index_pairs(trunc_n, lambda v: max(v - 1, 0))
            keep = an >= 1
            an, ak = an[keep], ak[keep]
            n_side = an - 1
        else:
            an, ak = _index_pairs(trunc_n, lambda v: v)
            n_side = an
        em, el = _index_pairs(trunc_n, lambda v: v)

        ia = np.repeat(np.arange(an.size), em.size)
        ib = np.tile(np.arange(em.size), an.size)
        n, k = an[ia], ak[ia]
        m, l = em[ib], el[ib]
        ns = n_side[ia]

        if scheme == R_PS:
            keep = n - k + l >= 1  # a photon must be present to be tapped
            n, k, m, l, ns = n[keep], k[keep], m[keep], l[keep], ns[keep]

        b_occ = ns - k + l        # travelling-mode occupation after the channel
        e_occ = k + m - l
        comb = sqb[ns, k] * sqb[m, l] * sqb[b_occ, l] * sqb[e_occ, k]
        comb[k % 2 == 1] *= -1.0

        if scheme == R_PS:
            b2 = b_occ - 1
        else:
            b2 = b_occ
        codes = ((n * big + b2) * big + e_occ) * big + m
        uniq, group = np.unique(codes, return_inverse=True)

        self.tup_n = n.astype(np.int32)
        self.tup_k = k.astype(np.int32)
        self.tup_m = m.astype(np.int32)
        self.tup_l = l.astype(np.int32)
        self.comb = comb
        self.st_exp = (ns - k + m - l).astype(np.int16)  # power of sqrt(T_E)
        self.sr_exp = (k + l).astype(np.int16)           # power of sqrt(1-T_E)
        self.group = group
        self.ket_codes = uniq
        kets = np.empty((uniq.size, 4), dtype=np.int32)
        rem = uniq.copy()
        for col in (3, 2, 1, 0):
            kets[:, col] = rem % big
            rem //= big
        self.kets = kets
        self._pair_cache: dict[tuple, np.ndarray] = {}

    @staticmethod
    def _pascal(nmax: int) -> np.ndarray:
        p = np.zeros((nmax + 1, nmax + 1))
        p[:, 0] = 1.0
        for i in range(1, nmax + 1):
            p[i, 1 : i + 1] = p[i - 1, : i] + p[i - 1, 1 : i + 1]
        return p

    def _shifted_index(self, shift: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Row index of each ket shifted by `shift` occupation counts, -1 if the
        shifted ket is outside the table or `valid` is false."""
        weights = np.array([self._base**3, self._base**2, self._base, 1], dtype=np.int64)
        target = self.ket_codes + shift @ weights
        pos = np.searchsorted(self.ket_codes, target)
        pos[pos >= self.ket_codes.size] = 0
        hit = (self.ket_codes[pos] == target) & valid
        out = np.where(hit, pos, -1)
        return out

    def raise_raise(self, ix: int, iy: int) -> np.ndarray:
        key = ("rr", ix, iy)
        if key not in self._pair_cache:
            shift = np.zeros(4, dtype=np.int64)
            shift[ix] += 1
            shift[iy] += 1
            ok = np.ones(self.kets.shape[0], dtype=bool)
            self._pair_cache[key] = self._shifted_index(shift, ok)
        return self._pair_cache[key]

    def raise_lower(self, ix: int, iy: int) -> np.ndarray:
        """Raise mode ix, lower mode iy (entries with empty iy are -1)."""
        key = ("rl", ix, iy)
        if key not in self._pair_cache:
            shift = np.zeros(4, dtype=np.int64)
            shift[ix] += 1
            shift[iy] -= 1
            ok = self.kets[:, iy] >= 1
            self._pair_cache[key] = self._shifted_index(shift, ok)
        return self._pair_cache[key]

    def single_raise(self, ix: int) -> np.ndarray:
        key = ("r", ix)
        if key not in self._pair_cache:
            shift = np.zeros(4, dtype=np.int64)
            shift[ix] += 1
            ok = np.ones(self.kets.shape[0], dtype=bool)
            self._pair_cache[key] = self._shifted_index(shift, ok)
        return self._pair_cache[key]


@lru_cache(maxsize=None)
def _skeleton(scheme: str, trunc_n: int) -> _Skeleton:
    return _Skeleton(scheme, trunc_n)


@lru_cache(maxsize=64)
def _ket_factors(cfg: SchemeConfig) -> np.ndarray:
    """Per-ket factor alpha_n * beta_m (* tap amplitude without sqrt(1-T_S)).

    The sqrt(1-T_S) of the tap is deliberately left out so the stored state
    stays well defined in the T_S -> 1 limit; it re-enters only through the
    squared-norm bookkeeping in build_state.
    """
    sk = _skeleton(cfg.scheme, cfg.trunc_n)
    n_arr = np.array([tmsv_coefficient(cfg.alpha_sq, n) for n in range(2 * cfg.trunc_n + 2)])
    m_arr = np.array([tmsv_coefficient(cfg.beta_sq, n) for n in range(2 * cfg.trunc_n + 2)])
    fac = n_arr[sk.kets[:, 0]] * m_arr[sk.kets[:, 3]]
    if cfg.scheme == T_PS:
        tap_n = sk.kets[:, 0].astype(np.float64)
        fac = fac * np.sqrt(tap_n) * cfg.t_s ** ((tap_n - 1) / 2.0)
    elif cfg.scheme == R_PS:
        tap_n = (sk.kets[:, 1] + 1).astype(np.float64)
        fac = fac * np.sqrt(tap_n) * cfg.t_s ** ((tap_n - 1) / 2.0)
    fac.flags.writeable = False
    return fac


class SparseFourModeState:
    """Normalized sparse amplitude table over |n_A, n_B2, n_E, n_F>.

    kets is a lexicographically sorted (K, 4) int array, amps the matching
    real amplitudes with unit squared norm.  norm_constant records the squared
    norm the raw coefficient table had before normalization (the tap success
    probability for the subtracted schemes, ~1 for nops).  Instances are
    immutable after construction.
    """

    def __init__(self, kets, amps, norm_constant, cfg, t_e, p_sub, skeleton):
        self.kets = kets
        self.amps = amps
        self.norm_constant = float(norm_constant)
        self.cfg = cfg
        self.t_e = float(t_e)
        self.p_sub = float(p_sub)
        self._skeleton = skeleton

    @property
    def scheme(self) -> str:
        return self.cfg.scheme

    def amplitude(self, ket) -> float:
        """Amplitude on one occupation quadruple (0.0 if absent)."""
        sk = self._skeleton
        n_a, n_b2, n_e, n_f = ket
        code = ((int(n_a) * sk._base + int(n_b2)) * sk._base + int(n_e)) * sk._base + int(n_f)
        pos = int(np.searchsorted(sk.ket_codes, code))
        if pos < sk.ket_codes.size and sk.ket_codes[pos] == code:
            return float(self.amps[pos])
        return 0.0

    def items(self):
        """Iterate (ket tuple, amplitude) in lexicographic ket order."""
        for row, a in zip(self.kets, self.amps):
            yield tuple(int(v) for v in row), float(a)

    def squared_norm(self) -> float:
        return float(np.dot(self.amps, self.amps))

    def dump(self) -> str:
        """Debug dump, one nonzero ket per line: ``n_A n_B2 n_E n_F amplitude``."""
        lines = [
            f"{k[0]} {k[1]} {k[2]} {k[3]} {a:.17g}"
            for k, a in self.items()
            if a != 0.0
        ]
        return "\n".join(lines) + "\n"


def build_state(cfg: SchemeConfig, t_e: float) -> SparseFourModeState:
    """Construct the normalized post-channel four-mode state.

    Coefficients of all summation tuples within the cutoff are accumulated
    per destination ket (distinct (k, l) with equal k-l hit the same ket) in
    a fixed lexicographic enumeration order, then normalized.  norm_constant
    is the pre-normalization squared norm.
    """
    if not 0.0 <= t_e <= 1.0:
        raise ValueError("t_e must lie in [0, 1]")
    sk = _skeleton(cfg.scheme, cfg.trunc_n)
    st = math.sqrt(t_e)
    sr = math.sqrt(1.0 - t_e)
    weights = sk.comb * (st**sk.st_exp) * (sr**sk.sr_exp)
    raw = np.bincount(sk.group, weights=weights, minlength=sk.kets.shape[0])
    raw = raw * _ket_factors(cfg)

    sq = float(np.dot(raw, raw))
    if sq == 0.0:
        raise ValueError(
            f"state has no support for {cfg.scheme} with alpha_sq={cfg.alpha_sq}"
        )
    if cfg.scheme == NO_PS:
        norm_constant = sq
        p_sub = 1.0
        deficit = abs(sq - 1.0)
        if deficit > 1e-4:
            warnings.warn(
                f"truncated norm {sq:.6g} deviates from 1 by {deficit:.2e}; "
                f"increase trunc_n (= {cfg.trunc_n})",
                TruncationWarning,
                stacklevel=2,
            )
    else:
        norm_constant = (1.0 - cfg.t_s) * sq
        if cfg.scheme == T_PS:
            p_sub = _tap_probability_truncated(cfg.alpha_sq, cfg.t_s, cfg.trunc_n)
            closed = analytic_tap_probability(cfg.alpha_sq, cfg.t_s)
            if closed > 0.0 and abs(norm_constant - closed) > 1e-4 * closed:
                warnings.warn(
                    f"truncated tap probability {norm_constant:.6g} deviates from the "
                    f"closed form {closed:.6g} by more than 1e-4 relative; "
                    f"increase trunc_n (= {cfg.trunc_n})",
                    TruncationWarning,
                    stacklevel=2,
                )
        else:
            p_sub = norm_constant

    amps = raw / math.sqrt(sq)
    return SparseFourModeState(sk.kets, amps, norm_constant, cfg, t_e, p_sub, sk)


def subtraction_probability(cfg: SchemeConfig, t_e: float = 1.0) -> float:
    """Probability that the single-photon tap fires.

    1 for nops; for tps the channel-independent truncated sum over
    (alpha_n r_{n,1})^2; for rps the pre-normalization squared norm of the
    post-channel coefficient table, which depends on t_e.
    """
    if cfg.scheme == NO_PS:
        return 1.0
    if cfg.scheme == T_PS:
        return _tap_probability_truncated(cfg.alpha_sq, cfg.t_s, cfg.trunc_n)
    return build_state(cfg, t_e).p_sub
