#!/usr/bin/env python3
"""The beam-wander fading channel and the scheme ordering it induces.

Walks through the log-negative Weibull model (its derived parameters, the
mean loss it implies), then averages the three schemes' key rates over the
fading distribution for a range of wander strengths.  With the tap firing
only ~10% of the time, averaging flips the fixed-channel verdict: no
subtraction wins, and the transmitter-side tap beats the receiver-side one.
The "normalized" column shows what an ideal quantum memory would recover.
"""

import math

import numpy as np

from cvqkd_ps import (
    QuadratureSpec,
    SchemeConfig,
    average_key_rates_many,
    inverse_cdf,
    mean_transmissivity,
    weibull_params,
)

print("=" * 76)
print("Fading model for unit beam geometry (aperture = beam spot = 1)")
print("=" * 76)
m = weibull_params(1.0)
print(f"h = {m.h}, eta0 = {m.eta0:.6f}, shape = {m.lambda_shape:.6f}, "
      f"scale = {m.l_scale:.6f}")
for sb in (0.5, 1.0, 2.0, 5.0):
    mm = weibull_params(sb)
    mean_t = mean_transmissivity(mm)
    print(f"  sigma_b = {sb:4.1f}: median eta = {inverse_cdf(mm, 0.5):.4f}, "
          f"mean loss = {-10 * math.log10(mean_t):6.2f} dB")

print()
print("=" * 76)
print("Fading-averaged key rates (bits/pulse), 200-node averages")
print("=" * 76)
quad = QuadratureSpec(node_count=200, clamp_negative=True)
header = (f"{'sigma_b':>8} | " +
          " | ".join(f"{s:>11}" for s in ("nops", "tps", "rps")) +
          " |  normalized tps")
print(header)
# one call per scheme averages every wander strength (the zero crossing of
# the key rate depends only on the scheme, so it is found once)
models = [weibull_params(float(sb)) for sb in np.geomspace(0.1, 20.0, 10)]
averages = {s: average_key_rates_many(SchemeConfig(s), models, quad)
            for s in ("nops", "tps", "rps")}
for i, model in enumerate(models):
    row = [averages[s][i].rate for s in ("nops", "tps", "rps")]
    print(f"{model.sigma_b:8.2f} | " + " | ".join(f"{v:11.4e}" for v in row) +
          f" | {averages['tps'][i].rate_normalized:14.4e}")

print("\nordering nops >= tps >= rps holds at every wander strength above;")
print("the memory-assisted (normalized) rates sit ~1/P higher for the taps.")
