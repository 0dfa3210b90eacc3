"""Parameter-sweep experiments and their CSV emission.

Six experiment kinds cover the comparisons of interest: key rate against
channel transmissivity and against distance on a fixed-attenuation link,
distance grids layered over noise (beta^2) or source strength (alpha^2), and
fading-channel averages against the beam-wander spread sigma_b (full range
and close-up).  Each fixed-link scheme and layer is one array call over the
axis, and the fading averages of each scheme one call over all sigma_b (which
finds the scheme's zero crossings once).  Rows are assembled in grid order,
so the emitted CSV is byte-identical for a fixed configuration.
"""

from __future__ import annotations

import dataclasses
import math
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
from .keyrate import KeyRatePoint, key_rates

EXPERIMENTS = (
    "transmissivity_sweep",
    "distance_sweep",
    "noise_grid",
    "photon_grid",
    "satellite_sweep",
    "satellite_closeup",
)

# (start, stop, points) chosen to show the crossover regions; the grid
# extents beyond the core parameter set are conventions of this package.
DEFAULT_AXES = {
    "transmissivity_sweep": (0.0, 1.0, 51),
    "distance_sweep": (0.0, 250.0, 126),
    "noise_grid": (0.0, 200.0, 41),
    "photon_grid": (0.0, 200.0, 41),
    "satellite_sweep": (0.1, 20.0, 40),
    "satellite_closeup": (0.05, 1.0, 20),
}
_DISTANCE_EXPERIMENTS = ("distance_sweep", "noise_grid", "photon_grid")
_NODES_PER_CALL = 65536  # fading nodes per array call, each about 0.3 kB at its peak
DEFAULT_BETA_SQ_VALUES = (0.0001, 0.001, 0.01, 0.05, 0.1)
DEFAULT_ALPHA_SQ_VALUES = (0.5, 1.0, 1.3, 2.0, 3.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep: experiment kind, schemes, base parameters, axis, channel (threads: no effect)."""

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
    threads: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if not self.schemes:
            raise ValueError("at least one scheme is required")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
        if self.points is not None and self.points < 1:
            raise ValueError("points must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        start, stop, _ = self._bounds()
        for flag, value in (("--start", start), ("--stop", stop)):
            if not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value:g}")
            if self.experiment == "transmissivity_sweep" and not 0.0 <= value <= 1.0:
                raise ValueError(f"{flag} is a transmissivity outside [0, 1], got {value:g}")
            if self.experiment in _DISTANCE_EXPERIMENTS and value < 0.0:
                raise ValueError(f"{flag} is a distance and must be >= 0, got {value:g}")
            if self.experiment.startswith("satellite") and value <= 0.0:
                raise ValueError(f"{flag} is sigma_b and must be > 0, got {value:g}")
        if not (math.isfinite(self.atten_db_per_km) and self.atten_db_per_km >= 0.0):
            raise ValueError("--atten-db-per-km must be finite and >= 0, "
                             f"got {self.atten_db_per_km:g}")
        if self.experiment == "noise_grid" and not self.beta_sq_values:
            raise ValueError("--beta-sq-values must name at least one layer")
        if self.experiment == "photon_grid" and not self.alpha_sq_values:
            raise ValueError("--alpha-sq-values must name at least one layer")

    def _bounds(self) -> tuple:
        """(start, stop, points), the experiment's defaults filling the gaps."""
        return tuple(default if value is None else value for value, default in
                     zip((self.start, self.stop, self.points), DEFAULT_AXES[self.experiment]))

    def axis(self) -> np.ndarray:
        start, stop, points = self._bounds()
        if points == 1:
            return np.array([float(stop)])
        if self.log_axis:
            if start <= 0 or stop <= 0:
                raise ValueError("log axis needs positive bounds")
            return np.geomspace(start, stop, points)
        return np.linspace(start, stop, points)


@dataclass(frozen=True)
class SweepResult:
    """Ordered rows plus the metadata needed to reproduce them."""

    metadata: dict
    columns: tuple
    rows: tuple


def _cfg_for(config: ExperimentConfig, scheme: str, **overrides) -> SchemeConfig:
    return dataclasses.replace(config.base, scheme=scheme, **overrides)


def _metadata(config: ExperimentConfig) -> dict:
    md = {
        "experiment": config.experiment,
        "schemes": ",".join(config.schemes),
        "alpha_sq": config.base.alpha_sq,
        "beta_sq": config.base.beta_sq,
        "t_s": config.base.t_s,
        "recon_eff": config.base.recon_eff,
        "trunc_n": config.base.trunc_n,
        "backend": "exact",
        "start": config.axis()[0],
        "stop": config.axis()[-1],
        "points": len(config.axis()),
        "log_axis": config.log_axis,
        "version": __version__,
    }
    if config.experiment in _DISTANCE_EXPERIMENTS:
        md["atten_db_per_km"] = config.atten_db_per_km
    if config.experiment == "noise_grid":
        md["beta_sq_values"] = ",".join(f"{v:.12g}" for v in config.beta_sq_values)
    if config.experiment == "photon_grid":
        md["alpha_sq_values"] = ",".join(f"{v:.12g}" for v in config.alpha_sq_values)
    if config.experiment.startswith("satellite"):
        md["beta_r"] = config.beta_r
        md["beam_w"] = config.beam_w
        md["nodes"] = config.quad.node_count
        md["clamp_negative"] = config.quad.clamp_negative
    return md


def run_experiment(config: ExperimentConfig) -> SweepResult:
    """Evaluate the requested grid; deterministic for a fixed config."""
    axis = config.axis()
    schemes = tuple(config.schemes)

    if config.experiment.startswith("satellite"):
        models = [weibull_params(float(sb), config.beta_r, config.beam_w) for sb in axis]
        n = max(1, _NODES_PER_CALL // config.quad.node_count)  # models per call
        averages = [[avg for i in range(0, len(models), n) for avg in
                     average_key_rates_many(_cfg_for(config, s), models[i:i + n], config.quad)]
                    for s in schemes]
        rows = [(m.sigma_b, s, per_scheme[i].rate, per_scheme[i].rate_normalized)
                for i, m in enumerate(models) for s, per_scheme in zip(schemes, averages)]
        columns = ("sigma_b", "scheme", "k_avg", "k_avg_normalized")
        return SweepResult(metadata=_metadata(config), columns=columns, rows=tuple(rows))

    if config.experiment == "transmissivity_sweep":
        t_axis = [float(t) for t in axis]
        points, columns = [(t,) for t in t_axis], ("t_e",)
    else:
        t_axis = [distance_to_transmissivity(float(d), config.atten_db_per_km) for d in axis]
        points, columns = [(float(d), t) for d, t in zip(axis, t_axis)], ("distance_km", "t_e")
    layers = [{}]
    if config.experiment in ("noise_grid", "photon_grid"):
        key, values = (("beta_sq", config.beta_sq_values) if config.experiment == "noise_grid"
                       else ("alpha_sq", config.alpha_sq_values))
        layers, columns = [{key: float(v)} for v in values], (key,) + columns
    fields = KeyRatePoint.CSV_COLUMNS[1:]  # t_e is its own axis column
    columns += ("scheme",) + fields

    rows = []
    for layer in layers:
        per_scheme = [key_rates(_cfg_for(config, s, **layer), t_axis) for s in schemes]
        rows += [tuple(layer.values()) + point + (s,)
                 + tuple(float(getattr(kr, c)[j]) for c in fields)
                 for j, point in enumerate(points) for s, kr in zip(schemes, per_scheme)]
    return SweepResult(metadata=_metadata(config), columns=columns, rows=tuple(rows))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def emit_csv(result: SweepResult, path) -> None:
    """Write `# key=value` metadata, a column header, then the rows.

    Floats carry 12 significant digits; output is newline-terminated and
    byte-identical for identical results.
    """
    if not result.rows and not result.columns:
        raise ValueError("refusing to emit an empty result")
    lines = [f"# {k}={_fmt(v)}" for k, v in result.metadata.items()]
    lines.append(",".join(result.columns))
    for row in result.rows:
        lines.append(",".join(_fmt(v) for v in row))
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def parse_csv(path) -> SweepResult:
    """Read a file produced by emit_csv back into a SweepResult."""
    metadata = {}
    columns = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                key, _, value = line[2:].partition("=")
                metadata[key] = value
                continue
            cells = line.split(",")
            if columns is None:
                columns = tuple(cells)
                continue
            row = []
            for cell in cells:
                try:
                    row.append(float(cell))
                except ValueError:
                    row.append(cell)
            rows.append(tuple(row))
    if columns is None:
        raise ValueError(f"no header found in {path}")
    return SweepResult(metadata=metadata, columns=columns, rows=tuple(rows))
