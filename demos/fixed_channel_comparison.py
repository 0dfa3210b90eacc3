#!/usr/bin/env python3
"""Key rate against distance on a fixed 0.2 dB/km channel.

Reproduces the fixed-attenuation comparison: the receiver-side subtraction
pays a constant rate penalty but survives to the largest distance.  Prints a
table, locates each scheme's cutoff distance, and (if matplotlib is around)
saves a log-rate plot next to this script.
"""

import numpy as np

from cvqkd_ps import SchemeConfig, distance_to_transmissivity, key_rate, key_rates_many

ATTEN = 0.2  # dB/km
SCHEMES = ("nops", "tps", "rps")

distances = np.linspace(0.0, 130.0, 27)
t_e = [distance_to_transmissivity(d, ATTEN) for d in distances.tolist()]
# every scheme and distance in one call: one KeyRatePoint of arrays per scheme
points = key_rates_many([SchemeConfig(s) for s in SCHEMES], t_e)
rates = {s: point.rate for s, point in zip(SCHEMES, points)}

print(f"{'km':>6} | " + " | ".join(f"{s:>12}" for s in SCHEMES))
for i, d in enumerate(distances):
    cells = " | ".join(f"{rates[s][i]:+12.4e}" for s in SCHEMES)
    print(f"{d:6.1f} | {cells}")


def cutoff_km(scheme):
    cfg = SchemeConfig(scheme)

    def rate(d):
        return key_rate(cfg, distance_to_transmissivity(d, ATTEN)).rate

    lo, hi = 0.0, 300.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


print("\ncutoff distances (rate crosses zero):")
for s in SCHEMES:
    print(f"  {s:4s}: {cutoff_km(s):7.2f} km")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(6, 4))
    for s in SCHEMES:
        r = np.array(rates[s])
        ax.semilogy(distances[r > 0], r[r > 0], label=s)
    ax.set_xlabel("distance (km), 0.2 dB/km")
    ax.set_ylabel("key rate bound (bits/pulse)")
    ax.legend()
    fig.tight_layout()
    fig.savefig("fixed_channel_comparison.png", dpi=150)
    print("\nsaved fixed_channel_comparison.png")
except ImportError:
    print("\n(matplotlib not installed; skipping the plot)")
