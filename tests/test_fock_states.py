import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import cvqkd_ps
from cvqkd_ps import SchemeConfig
from cvqkd_ps.fock_states import (
    TruncationWarning,
    analytic_tap_probability,
    bs_coefficient,
    build_state,
    subtraction_probability,
    tmsv_coefficient,
)

import oracles


def cfg(scheme, **kw):
    return SchemeConfig(scheme, **kw)


# ------------------------------------------------------------- coefficients

def test_tmsv_vacuum():
    assert tmsv_coefficient(0.0, 0) == 1.0
    for n in range(1, 5):
        assert tmsv_coefficient(0.0, n) == 0.0


def test_tmsv_value_and_normalization():
    assert tmsv_coefficient(1.3, 0) == pytest.approx(math.sqrt(1 / 2.3), abs=1e-12)
    total = sum(tmsv_coefficient(1.3, n) ** 2 for n in range(61))
    assert total == pytest.approx(1.0, abs=1e-6)


def test_tmsv_decreasing_and_errors():
    vals = [tmsv_coefficient(1.3, n) for n in range(10)]
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        tmsv_coefficient(-0.1, 0)


def test_bs_coefficient_values():
    assert bs_coefficient(5, 0, 1.0) == 1.0
    assert bs_coefficient(1, 1, 0.9) == pytest.approx(math.sqrt(0.1), abs=1e-12)


@pytest.mark.parametrize("n,t", [(1, 0.9), (4, 0.5), (7, 0.13)])
def test_bs_coefficient_binomial_identity(n, t):
    total = sum(bs_coefficient(n, k, t) ** 2 for k in range(n + 1))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_bs_coefficient_errors():
    with pytest.raises(ValueError):
        bs_coefficient(2, 3, 0.5)
    with pytest.raises(ValueError):
        bs_coefficient(2, 1, 1.5)
    with pytest.raises(ValueError):
        bs_coefficient(2, -1, 0.5)


def test_tap_probability_closed_form():
    # geometric series: mu(1-T)/((1+a2)(1-mu T)^2), mu = a2/(1+a2)
    val = analytic_tap_probability(1.3, 0.9)
    assert val == pytest.approx(0.10180906883859349, rel=1e-12)
    assert analytic_tap_probability(1.3, 1.0) == 0.0


# ------------------------------------------------------------- state builder

def test_nops_identity_channel_vacuum_eve():
    state = build_state(cfg("nops", beta_sq=0.0), 1.0)
    nonzero = [(k, a) for k, a in state.items() if a != 0.0]
    norm = math.sqrt(sum(tmsv_coefficient(1.3, n) ** 2 for n in range(21)))
    for (n_a, n_b2, n_e, n_f), a in nonzero:
        assert n_a == n_b2 and n_e == 0 and n_f == 0
        assert a == pytest.approx(tmsv_coefficient(1.3, n_a) / norm, abs=1e-12)


def test_tps_identity_channel_vacuum_eve():
    state = build_state(cfg("tps", beta_sq=0.0), 1.0)
    nonzero = [(k, a) for k, a in state.items() if a != 0.0]
    raw = {n: tmsv_coefficient(1.3, n) * bs_coefficient(n, 1, 0.9) for n in range(1, 21)}
    norm = math.sqrt(sum(v * v for v in raw.values()))
    assert len(nonzero) == 20
    for (n_a, n_b2, n_e, n_f), a in nonzero:
        assert n_b2 == n_a - 1 and n_e == 0 and n_f == 0
        # global sign dropped: amplitudes are positive here
        assert a == pytest.approx(raw[n_a] / norm, abs=1e-12)


@pytest.mark.parametrize("scheme", ["nops", "tps", "rps"])
@pytest.mark.parametrize("t_e", [0.0, 0.35, 0.7, 1.0])
@pytest.mark.parametrize("beta_sq", [0.0, 0.001, 0.1])
def test_unit_norm_grid(scheme, t_e, beta_sq):
    if scheme == "rps" and beta_sq == 0.0 and t_e == 0.0:
        # nothing reaches the receiver tap: no state to normalize
        with pytest.raises(ValueError):
            build_state(cfg(scheme, beta_sq=beta_sq), t_e)
        return
    state = build_state(cfg(scheme, beta_sq=beta_sq), t_e)
    assert abs(state.squared_norm() - 1.0) < 1e-9


@pytest.mark.parametrize("scheme", ["nops", "tps", "rps"])
def test_ket_pattern(scheme):
    state = build_state(cfg(scheme), 0.55)
    k = state.kets
    assert (k >= 0).all()
    assert (k <= 2 * 20).all()
    if scheme == "nops":
        assert (k[:, 2] + k[:, 1] == k[:, 0] + k[:, 3]).all()
    else:
        assert (k[:, 2] + k[:, 1] == k[:, 0] - 1 + k[:, 3]).all()
    # Eve's kept arm is untouched by the channel
    amps = state.amps
    if scheme != "nops":
        assert (k[amps != 0.0][:, 3] <= 20).all()


@pytest.mark.parametrize("scheme", ["nops", "tps", "rps"])
def test_accumulation_matches_naive_loop(scheme):
    c = cfg(scheme, trunc_n=12)
    state = build_state(c, 0.6)
    naive, sq = oracles.build_naive(scheme, 1.3, 0.001, 0.9, 0.6, 12)
    kets = {tuple(int(v) for v in row) for row in state.kets}
    assert kets == set(naive)
    worst = max(abs(state.amplitude(k) - a) for k, a in naive.items())
    assert worst < 1e-12
    assert state.norm_constant == pytest.approx(sq, rel=1e-12)


def test_amplitude_of_a_ket_outside_the_table_is_zero():
    # the ket code has base 2 * trunc_n + 2 = 10 here: an occupation of 10 or
    # more, or a negative one, must not carry into the next digit and land on
    # |1,1,0,0>
    state = build_state(cfg("nops", trunc_n=4), 0.5)
    assert state.amplitude((1, 1, 0, 0)) == 0.36092270270761906
    for ket in [(1, 0, 10, 0), (0, 11, 0, 0), (1, 2, -10, 0)]:
        assert state.amplitude(ket) == 0.0


def test_beta_zero_forces_empty_f_sector():
    for scheme in ("nops", "tps", "rps"):
        state = build_state(cfg(scheme, beta_sq=0.0), 0.7)
        live = state.kets[state.amps != 0.0]
        assert (live[:, 3] == 0).all()


def test_ideal_subtracted_tmsv_limit():
    # T_S -> 1 with a lossless channel: amplitudes converge to alpha_n sqrt(n)
    state = build_state(cfg("tps", beta_sq=0.0, t_s=1.0 - 1e-6), 1.0)
    ideal = {n: tmsv_coefficient(1.3, n) * math.sqrt(n) for n in range(1, 21)}
    norm = math.sqrt(sum(v * v for v in ideal.values()))
    overlap = sum(
        state.amplitude((n, n - 1, 0, 0)) * ideal[n] / norm for n in range(1, 21)
    )
    assert overlap >= 1.0 - 1e-6


def test_dump_format_sorted():
    state = build_state(cfg("tps", beta_sq=0.0, trunc_n=4), 1.0)
    lines = state.dump().strip().split("\n")
    rows = [tuple(line.split()) for line in lines]
    assert all(len(r) == 5 for r in rows)
    keys = [tuple(int(v) for v in r[:4]) for r in rows]
    assert keys == sorted(keys)
    total = sum(float(r[4]) ** 2 for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------- subtraction probability

def test_subtraction_probability_nops():
    assert subtraction_probability(cfg("nops"), 0.5) == 1.0


def test_subtraction_probability_tps_matches_closed_form():
    p = subtraction_probability(cfg("tps"))
    closed = analytic_tap_probability(1.3, 0.9)
    assert abs(p - closed) / closed < 1e-4
    # channel independent
    assert subtraction_probability(cfg("tps"), 0.3) == p


def test_subtraction_probability_tps_full_transmission():
    assert subtraction_probability(cfg("tps", t_s=1.0)) == 0.0


def test_subtraction_probability_rps():
    # lossless channel: the receiver tap sees the same TMSV arm
    p_rps = subtraction_probability(cfg("rps"), 1.0)
    p_tps = subtraction_probability(cfg("tps"), 1.0)
    assert p_rps == pytest.approx(p_tps, rel=1e-10)
    # lossy channel: fewer photons reach the tap
    assert subtraction_probability(cfg("rps"), 0.4) < p_rps
    state = build_state(cfg("rps"), 0.4)
    assert state.p_sub == pytest.approx(subtraction_probability(cfg("rps"), 0.4), rel=1e-14)


# ------------------------------------------------------------------ warnings

def test_truncation_warning_fires_for_small_cutoff():
    with pytest.warns(TruncationWarning):
        build_state(cfg("nops", alpha_sq=3.0), 1.0)
    with pytest.warns(TruncationWarning):
        build_state(cfg("tps", trunc_n=6), 1.0)


def test_no_truncation_warning_at_defaults():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scheme in ("nops", "tps", "rps"):
            build_state(cfg(scheme), 0.8)


def test_config_validation():
    with pytest.raises(ValueError):
        SchemeConfig("bogus")
    with pytest.raises(ValueError):
        SchemeConfig("nops", alpha_sq=-1.0)
    with pytest.raises(ValueError):
        SchemeConfig("nops", t_s=1.2)
    with pytest.raises(ValueError):
        SchemeConfig("nops", trunc_n=0)
    with pytest.raises(ValueError):
        build_state(cfg("nops"), 1.5)


@pytest.mark.parametrize("field", ["alpha_sq", "beta_sq", "t_s", "recon_eff"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        SchemeConfig("tps", **{field: value})


def test_import_does_not_load_the_reference():
    # the package computes everything from cvqkd_ps.exact; the Fock
    # construction is a leaf that only tests, demos and the benchmark import
    env = dict(os.environ, PYTHONPATH=str(Path(cvqkd_ps.__file__).resolve().parents[1]))
    code = "import sys, cvqkd_ps; print(*sorted(m for m in sys.modules if 'cvqkd' in m))"
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True, env=env).stdout.split()
    assert "cvqkd_ps.exact" in loaded
    assert "cvqkd_ps.fock_states" not in loaded
    assert "cvqkd_ps.moments" not in loaded
