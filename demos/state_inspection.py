#!/usr/bin/env python3
"""The quantities every key rate is computed from, beside the Fock reference.

For each scheme on a moderately lossy channel, prints the eight second-moment
scalars and the tap probability from the closed forms of ``cvqkd_ps.exact``
(what the key rates use), the same quantities read from the Fock state
truncated at N = 20 (``cvqkd_ps.fock_states``, the test reference) and their
relative deviation.  Then the transmitter tap's probability against its
closed form, and the receiver tap's dependence on the channel.
"""

from cvqkd_ps import CovarianceSummary, SchemeConfig, exact_summary
from cvqkd_ps.fock_states import analytic_tap_probability, build_state, covariance_summary

T_E = 0.6
N = 20

print("=" * 64)
print(f"Second moments at T_E = {T_E}: closed form against Fock N = {N}")
print("variances 1 + 2<n> in shot-noise units, x-quadrature covariances")
print("=" * 64)

for scheme in ("nops", "tps", "rps"):
    cfg = SchemeConfig(scheme, trunc_n=N)
    exact = exact_summary(cfg, T_E)
    fock = covariance_summary(build_state(cfg, T_E))
    print(f"\n--- {scheme} ---")
    print(f"  {'':6} {'exact':>14} {f'Fock N={N}':>14} {'rel. dev.':>10}")
    for name in CovarianceSummary.CSV_COLUMNS:
        e, f = getattr(exact, name), getattr(fock, name)
        print(f"  {name:6} {e:14.9f} {f:14.9f} {abs(f - e) / abs(e):10.1e}")

print("\n" + "=" * 64)
print("Tap (photon subtraction) probabilities")
print("=" * 64)
p_tps = exact_summary(SchemeConfig("tps"), T_E).p_sub
closed = analytic_tap_probability(1.3, 0.9)
print(f"transmitter tap: exact {p_tps:.15f}, closed form {closed:.15f} "
      f"(relative gap {abs(p_tps - closed) / closed:.1e})")
print("receiver tap depends on how much light survives the channel:")
for t_e in (1.0, 0.6, 0.2):
    print(f"  T_E={t_e:3.1f}: P = {exact_summary(SchemeConfig('rps'), t_e).p_sub:.6f}")
