"""Parameter-sweep experiments and their CSV emission.

Six experiment kinds, one ``EXPERIMENTS`` entry each, cover: key rate against
channel transmissivity and against distance on a fixed-attenuation link,
distance grids layered over noise (beta^2) or source strength (alpha^2), and
fading-channel averages against the beam-wander spread sigma_b (full range
and close-up).  A fixed-link request is one ``key_rates_many`` call over every
layer and scheme, and the fading averages of each scheme one call over all
sigma_b (the scheme's zero crossings and rate curve are memoised per
process, see ``channel``); ``_POINTS_PER_CALL`` caps the points of a call.
Both kinds share one row assembly, in (layer, point, scheme) order, so the
emitted CSV is byte-identical for a fixed configuration; ``emit_csv`` formats
every row with one format string and streams the CSV in chunks of rows.
A beta_sq, alpha_sq, sigma_b or beam geometry past its range is refused by
the run alone: it maps every sigma_b to its law before any average, and
``key_rates_many`` checks each config before its bound call.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .channel import (
    QuadratureSpec,
    average_key_rates_many,
    distance_to_transmissivity,
    weibull_params,
)
from .exact import SCHEMES, SchemeConfig
from .keyrate import KeyRatePoint, key_rates_many

# One entry per experiment: the axis column, the SchemeConfig field its layers
# vary (None: one layer) and the default (start, stop, points), chosen to show
# the crossover regions; the grid extents beyond the core parameter set are
# conventions of this package.
Experiment = namedtuple("Experiment", "axis layer default")
EXPERIMENTS = {
    "transmissivity_sweep": Experiment("t_e", None, (0.0, 1.0, 51)),
    "distance_sweep": Experiment("distance_km", None, (0.0, 250.0, 126)),
    "noise_grid": Experiment("distance_km", "beta_sq", (0.0, 200.0, 41)),
    "photon_grid": Experiment("distance_km", "alpha_sq", (0.0, 200.0, 41)),
    "satellite_sweep": Experiment("sigma_b", None, (0.1, 20.0, 40)),
    "satellite_closeup": Experiment("sigma_b", None, (0.05, 1.0, 20)),
}
# each axis column's range, and what an error says of a bound outside it
_AXIS_RANGE = {"t_e": (lambda v: 0.0 <= v <= 1.0, "is a transmissivity outside [0, 1]"),
               "distance_km": (lambda v: v >= 0.0, "is a distance and must be >= 0"),
               "sigma_b": (lambda v: v > 0.0, "is sigma_b and must be > 0")}
_POINTS_PER_CALL = 65536  # axis points or fading nodes per array call, 0.4 kB each at peak
_CSV_CHUNK_ROWS = 1024  # rows per encoded write of emit_csv, about 0.1 MB of text
DEFAULT_BETA_SQ_VALUES = (0.0001, 0.001, 0.01, 0.05, 0.1)
DEFAULT_ALPHA_SQ_VALUES = (0.5, 1.0, 1.3, 2.0, 3.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: experiment kind, schemes, base parameters, axis, channel."""

    experiment: str
    schemes: tuple = SCHEMES
    base: SchemeConfig = field(default_factory=lambda: SchemeConfig("nops"))
    start: float | None = None
    stop: float | None = None
    points: int | None = None
    log_axis: bool = False
    atten_db_per_km: float = 0.2
    beta_sq_values: tuple = DEFAULT_BETA_SQ_VALUES
    alpha_sq_values: tuple = DEFAULT_ALPHA_SQ_VALUES
    beta_r: float = 1.0
    beam_w: float = 1.0
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        kind = EXPERIMENTS[self.experiment]
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for i, s in enumerate(self.schemes):
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
            if s in self.schemes[:i]:  # its rows would repeat under the same key
                raise ValueError(f"--scheme repeats {s}")
        if self.points is not None and not isinstance(self.points, numbers.Integral):
            raise ValueError(f"--points must be an integer, got {self.points!r}")
        if self.points is not None and self.points < 1:
            raise ValueError(f"--points must be >= 1, got {self.points}")
        start, stop, points = self._bounds()
        inside, outside = _AXIS_RANGE[kind.axis]
        for flag, value in (("--start", start), ("--stop", stop)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value:g}")
            if not inside(value):
                raise ValueError(f"{flag} {outside}, got {value:g}")
            if self.log_axis and points > 1 and value <= 0.0:  # one point is stop alone
                raise ValueError(f"--log-axis needs {flag} > 0, got {value:g}")
        if not (math.isfinite(self.atten_db_per_km) and self.atten_db_per_km >= 0.0):
            raise ValueError("--atten-db-per-km must be finite and >= 0, "
                             f"got {self.atten_db_per_km:g}")
        if kind.axis == "sigma_b":
            for flag, value in (("--beta-r", self.beta_r), ("--beam-w", self.beam_w)):
                if not (math.isfinite(value) and value > 0.0):
                    raise ValueError(f"{flag} must be finite and > 0, got {value:g}")
        if kind.layer:
            flag, values = f"--{kind.layer.replace('_', '-')}-values", self.layers()
            if not values:
                raise ValueError(f"{flag} must name at least one layer")
            for i, value in enumerate(values):
                if not (math.isfinite(value) and value >= 0.0):
                    raise ValueError(f"{flag} must be finite and >= 0, got {value:g}")
                if value in values[:i]:
                    raise ValueError(f"{flag} repeats {value:g}")

    def _bounds(self) -> tuple:
        """(start, stop, points), the experiment's defaults filling the gaps."""
        return tuple(default if value is None else value for value, default in
                     zip((self.start, self.stop, self.points),
                         EXPERIMENTS[self.experiment].default))

    def layers(self) -> tuple:
        """The values of the field the experiment's layers vary; () for one layer."""
        layer = EXPERIMENTS[self.experiment].layer
        return getattr(self, f"{layer}_values") if layer else ()

    def axis(self) -> np.ndarray:
        start, stop, points = self._bounds()
        if points == 1:
            return np.array([float(stop)])
        if self.log_axis:
            return np.geomspace(start, stop, points)
        return np.linspace(start, stop, points)


@dataclass(frozen=True)
class SweepResult:
    """Ordered rows plus the metadata needed to reproduce them."""

    metadata: dict
    columns: tuple
    rows: tuple


def _metadata(config: ExperimentConfig, axis: np.ndarray) -> dict:
    kind = EXPERIMENTS[config.experiment]
    md = {
        "experiment": config.experiment,
        "schemes": ",".join(config.schemes),
        # the physics fields in their order, less the one the layers overwrite
        **{f.name: getattr(config.base, f.name) for f in dataclasses.fields(SchemeConfig)
           if f.name not in ("scheme", kind.layer)},
        "backend": "exact",
        "start": axis[0],
        "stop": axis[-1],
        "points": len(axis),
        "log_axis": config.log_axis,
        "version": __version__,
    }
    if kind.axis == "distance_km":
        md["atten_db_per_km"] = config.atten_db_per_km
    if kind.layer:
        md[f"{kind.layer}_values"] = ",".join(f"{v:.12g}" for v in config.layers())
    if kind.axis == "sigma_b":
        md.update(beta_r=config.beta_r, beam_w=config.beam_w, nodes=config.quad.node_count,
                  clamp_negative=config.quad.clamp_negative)
    return md


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Evaluate the requested grid; deterministic for a fixed config."""
    kind = EXPERIMENTS[config.experiment]
    axis = config.axis()
    schemes = tuple(config.schemes)
    layers = [{kind.layer: float(v)} for v in config.layers()] if kind.layer else [{}]
    cfgs = [dataclasses.replace(config.base, scheme=s, **layer) for layer in layers for s in schemes]

    # each branch gives its points, axis and value columns, and one list of
    # value cells per point for each (layer, scheme) block of cfgs
    if kind.axis == "sigma_b":
        models = [weibull_params(sb, config.beta_r, config.beam_w) for sb in axis]
        points, columns = [(m.sigma_b,) for m in models], ("sigma_b",)
        values = ("k_avg", "k_avg_normalized")
        n = max(1, _POINTS_PER_CALL // config.quad.node_count)  # models per call
        cells = [[(avg.rate, avg.rate_normalized) for i in range(0, len(models), n)
                  for avg in average_key_rates_many(cfg, models[i:i + n], config.quad)]
                 for cfg in cfgs]
    else:
        if kind.axis == "t_e":
            t_axis = axis.tolist()
            points, columns = [(t,) for t in t_axis], ("t_e",)
        else:
            t_axis = [distance_to_transmissivity(d, config.atten_db_per_km) for d in axis.tolist()]
            points, columns = list(zip(axis.tolist(), t_axis)), ("distance_km", "t_e")
        values = KeyRatePoint.CSV_COLUMNS[1:]  # t_e is its own axis column
        # every block in as few bound calls as the point cap allows
        n = max(1, _POINTS_PER_CALL // len(t_axis))  # blocks per call
        # a generator: each call's arrays are dropped once its blocks are cells
        krs = (kr for i in range(0, len(cfgs), n) for kr in key_rates_many(cfgs[i:i + n], t_axis))
        cells = [list(zip(*(getattr(kr, c).tolist() for c in values))) for kr in krs]

    rows = [tuple(layer.values()) + point + (s,) + cells[i * len(schemes) + k][j]
            for i, layer in enumerate(layers) for j, point in enumerate(points)
            for k, s in enumerate(schemes)]
    columns = tuple(layers[0]) + columns + ("scheme",) + values  # the layer's column first
    return SweepResult(metadata=_metadata(config, axis), columns=columns, rows=tuple(rows))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit_csv(result: SweepResult, path) -> None:
    """Write `# key=value` metadata, a column header, then the rows.

    Every row is formatted by one `%` format string: the scheme column as it
    is, every other column a float of 12 significant digits.  Output is
    newline-terminated and byte-identical for identical results.  The path is
    opened (and so truncated) before anything is formatted, then written in
    encoded chunks of _CSV_CHUNK_ROWS rows, so the file text is never held
    whole.
    """
    if not result.rows and not result.columns:
        raise ValueError("refusing to emit an empty result")
    line = ",".join("%s" if c == "scheme" else "%.12g" for c in result.columns) + "\n"
    with open(path, "wb") as fh:
        head = [f"# {k}={_fmt(v)}\n" for k, v in result.metadata.items()]
        head.append(",".join(result.columns) + "\n")
        rows = result.rows
        for i in range(0, max(len(rows), 1), _CSV_CHUNK_ROWS):  # the head goes with chunk 0
            lines = [line % row for row in rows[i:i + _CSV_CHUNK_ROWS]]
            fh.write("".join(head + lines).encode())
            head = []
