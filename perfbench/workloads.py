"""Request generators and probe sets for the three benchmark workloads.

Every request is the argv of one ``cvqkd-ps`` invocation.  Requests come in
rounds: a round is a fixed list of request shapes (command, scheme count,
window length, layer count), shuffled by the seeded generator, whose concrete
values -- which schemes, which window of the command's default axis, which
alpha^2 / beta^2 -- are drawn from the CLI's own default axes and value
lists.  Fixing the shapes per round keeps the rows per round, and so the
throughput and the median request, the same for every seed, while the seed
still decides every value the program sees.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

SCHEMES = ("nops", "tps", "rps")
# Mirrors cvqkd_ps.sweeps (DEFAULT_AXES, DEFAULT_*_VALUES); copied so that the
# generated inputs do not change when the program under test changes.
DEFAULT_AXES = {
    "transmissivity-sweep": (0.0, 1.0, 51),
    "distance-sweep": (0.0, 250.0, 126),
    "noise-grid": (0.0, 200.0, 41),
    "photon-grid": (0.0, 200.0, 41),
    "satellite-sweep": (0.1, 20.0, 40),
    "satellite-closeup": (0.05, 1.0, 20),
}
DEFAULT_BETA_SQ_VALUES = (0.0001, 0.001, 0.01, 0.05, 0.1)
DEFAULT_ALPHA_SQ_VALUES = (0.5, 1.0, 1.3, 2.0, 3.0)
BETA_SQ_DRAWS = (0.0,) + DEFAULT_BETA_SQ_VALUES

FIXED_CUTOFF = 20
PRECISION_CUTOFF = 48
FADING_NODES = 200

WORKLOADS = ("fixed_link", "fading_link", "precision_link")
CUTOFF = {"fixed_link": FIXED_CUTOFF, "fading_link": FIXED_CUTOFF,
          "precision_link": PRECISION_CUTOFF}

# (command, schemes, points, layers); rows = schemes * points * layers.
# 12 requests and 34 rows per round; the row counts 2/3/4 occur 4/6/2 times,
# so the median request always has 3 rows.
_FIXED_ROUND = (
    ("transmissivity-sweep", 1, 3, 1),
    ("transmissivity-sweep", 2, 2, 1),
    ("transmissivity-sweep", 3, 1, 1),
    ("distance-sweep", 1, 3, 1),
    ("distance-sweep", 2, 2, 1),
    ("distance-sweep", 3, 1, 1),
    ("noise-grid", 1, 1, 2),
    ("noise-grid", 2, 1, 1),
    ("noise-grid", 3, 1, 1),
    ("photon-grid", 1, 1, 2),
    ("photon-grid", 2, 1, 1),
    ("photon-grid", 3, 1, 1),
)


@dataclass(frozen=True)
class Request:
    """One CLI invocation; ``argv`` lacks only the ``--out`` path."""

    argv: tuple
    rows: int


def _axis(command: str) -> np.ndarray:
    start, stop, points = DEFAULT_AXES[command]
    return np.linspace(start, stop, points)


def _window(rng: random.Random, command: str, points: int, first: int = 0) -> list:
    axis = _axis(command)
    i = rng.randrange(first, axis.size - points + 1)
    lo, hi = float(axis[i]), float(axis[i + points - 1])
    return ["--start", repr(lo), "--stop", repr(hi), "--points", str(points)]


def _schemes(rng: random.Random, count: int) -> list:
    picked = sorted(rng.sample(SCHEMES, count), key=SCHEMES.index)
    return [arg for s in picked for arg in ("--scheme", s)]


def _values(values) -> str:
    return ",".join(repr(v) for v in values)


def _fixed_request(rng: random.Random, shape: tuple, trunc: int) -> Request:
    command, n_schemes, points, layers = shape
    schemes = _schemes(rng, n_schemes)
    if command == "noise-grid":
        physics = ["--alpha-sq", repr(rng.choice(DEFAULT_ALPHA_SQ_VALUES)),
                   "--beta-sq-values", _values(sorted(rng.sample(BETA_SQ_DRAWS, layers)))]
    elif command == "photon-grid":
        physics = ["--beta-sq", repr(rng.choice(BETA_SQ_DRAWS)),
                   "--alpha-sq-values",
                   _values(sorted(rng.sample(DEFAULT_ALPHA_SQ_VALUES, layers)))]
    else:
        physics = ["--alpha-sq", repr(rng.choice(DEFAULT_ALPHA_SQ_VALUES)),
                   "--beta-sq", repr(rng.choice(BETA_SQ_DRAWS))]
    # With beta^2 = 0 the rps state has no support at T_E = 0 (the first
    # transmissivity point) and the request raises, a known defect: such a
    # draw takes its window from the rest of the axis.  selfcheck.py keeps
    # that request covered.
    defect = (command == "transmissivity-sweep" and "rps" in schemes
              and physics[-1] == repr(0.0))
    window = _window(rng, command, points, first=1 if defect else 0)
    argv = [command] + schemes + window + physics + ["--trunc", str(trunc), "--threads", "1"]
    return Request(tuple(argv), n_schemes * points * layers)


def _fading_round(rng: random.Random) -> list:
    """Six single-point fading averages, one scheme drawn for each.

    The default run averages 40 ``satellite-sweep`` points and 20
    ``satellite-closeup`` points, so a round holds four sweep points, one
    from each quarter of the sweep axis, and two closeup points, one from
    each half of the closeup axis.  Every default point is then equally
    likely, and every round costs about the same: averages at sigma_b above
    about 5 cost a third more than the rest.  The lower closeup half holds
    the all-positive regime (sigma_b up to 0.25, 301 ``key_rate`` calls per
    average); the other points cross zero (348-377 calls).  One average per
    request keeps the median from being split between request sizes.
    """
    points = []
    for command, strata in (("satellite-sweep", 4), ("satellite-closeup", 2)):
        axis = _axis(command)
        points += [(command, float(axis[rng.choice(stratum)]))
                   for stratum in np.array_split(np.arange(axis.size), strata)]
    rng.shuffle(points)
    out = []
    for command, sigma_b in points:
        argv = [command, "--scheme", rng.choice(SCHEMES), "--start", repr(sigma_b),
                "--stop", repr(sigma_b), "--points", "1", "--nodes", str(FADING_NODES),
                "--clamp-negative", "--trunc", str(FIXED_CUTOFF), "--threads", "1"]
        out.append(Request(tuple(argv), 1))
    return out


def rounds(workload: str, seed: int):
    """Endless, seed-determined stream of request rounds for one workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    while True:
        if workload == "fading_link":
            yield _fading_round(rng)
            continue
        shapes = list(_FIXED_ROUND)
        rng.shuffle(shapes)
        yield [_fixed_request(rng, shape, CUTOFF[workload]) for shape in shapes]


def warmup_requests(workload: str) -> list:
    """One single-point request per scheme at the workload's cutoff."""
    trunc = str(CUTOFF[workload])
    return [
        Request(("transmissivity-sweep", "--scheme", s, "--start", "0.5", "--stop", "0.5",
                 "--points", "1", "--trunc", trunc, "--threads", "1"), 1)
        for s in SCHEMES
    ]


# Fixed probes checked against reference.json.  They include the known worst
# cases of the cutoff-20 truncation (rps at T_E = 0.1, photon grid at
# alpha^2 = 3.0), the all-positive fading regime (sigma_b = 0.1) and a sigma_b
# just past the onset of the zero crossing (0.35).  Every reference rate is
# well away from zero, so relative digits are meaningful.
_FIXED_PROBES = (
    ("transmissivity-sweep", "--start", "0.1", "--stop", "0.1", "--points", "1"),
    ("transmissivity-sweep", "--start", "0.6", "--stop", "0.6", "--points", "1",
     "--beta-sq", "0"),
    ("distance-sweep", "--start", "20", "--stop", "100", "--points", "2"),
    ("photon-grid", "--start", "10", "--stop", "10", "--points", "1",
     "--alpha-sq-values", "1.3,3.0"),
    ("noise-grid", "--start", "40", "--stop", "40", "--points", "1",
     "--beta-sq-values", "0.0,0.1"),
)
_FADING_PROBES = (
    ("satellite-sweep", "--start", "0.1", "--stop", "0.1", "--points", "1"),
    ("satellite-closeup", "--start", "0.35", "--stop", "0.35", "--points", "1"),
)


def probes(workload: str, trunc: int | None = None, nodes: int | None = None) -> list:
    """The workload's probe argvs (all three schemes each).

    ``trunc`` and ``nodes`` override the workload's settings; the reference
    generator uses them to evaluate the same probes at high precision.
    """
    trunc = CUTOFF[workload] if trunc is None else trunc
    if workload == "fading_link":
        nodes = FADING_NODES if nodes is None else nodes
        return [p + ("--nodes", str(nodes), "--clamp-negative", "--trunc", str(trunc),
                     "--threads", "1") for p in _FADING_PROBES]
    return [p + ("--trunc", str(trunc), "--threads", "1") for p in _FIXED_PROBES]


def probe_key(workload: str) -> str:
    """Reference-table section holding the workload's probes."""
    return "fading" if workload == "fading_link" else "fixed"
