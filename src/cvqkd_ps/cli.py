"""Command-line front end for the sweep experiments.

One subcommand per experiment; common physics and output flags; an optional
plain-text config file (one ``key = value`` per line, ``#`` comments) whose
entries are overridden by explicit flags.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .channel import QuadratureSpec
from .fock_states import SCHEMES, SchemeConfig
from .sweeps import (
    DEFAULT_ALPHA_SQ_VALUES,
    DEFAULT_AXES,
    DEFAULT_BETA_SQ_VALUES,
    ExperimentConfig,
    emit_csv,
    run_experiment,
)

_EXPERIMENT_FOR_COMMAND = {
    "transmissivity-sweep": "transmissivity_sweep",
    "distance-sweep": "distance_sweep",
    "noise-grid": "noise_grid",
    "photon-grid": "photon_grid",
    "satellite-sweep": "satellite_sweep",
    "satellite-closeup": "satellite_closeup",
}


def _float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def read_config_file(path) -> dict:
    """Parse ``key = value`` lines; keys use flag names with - or _."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw.rstrip()}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


_CONFIG_PARSERS = {
    "scheme": lambda v: [s.strip() for s in v.split(",") if s.strip()],
    "alpha_sq": float,
    "beta_sq": float,
    "t_s": float,
    "recon_eff": float,
    "trunc": int,
    "nodes": int,
    "clamp_negative": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "start": float,
    "stop": float,
    "points": int,
    "log_axis": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "atten_db_per_km": float,
    "beta_sq_values": _float_list,
    "alpha_sq_values": _float_list,
    "beta_r": float,
    "beam_w": float,
    "threads": int,
    "out": str,
}


def _add_common(p: argparse.ArgumentParser, command: str) -> None:
    exp = _EXPERIMENT_FOR_COMMAND[command]
    start, stop, points = DEFAULT_AXES[exp]
    p.add_argument("--scheme", action="append", choices=SCHEMES, dest="scheme",
                   help="scheme to evaluate; repeatable (default: all three)")
    p.add_argument("--alpha-sq", type=float, default=1.3, help="Alice mean photon number")
    p.add_argument("--beta-sq", type=float, default=0.001, help="Eve mean photon number")
    p.add_argument("--t-s", type=float, default=0.9, help="tap beam-splitter transmissivity")
    p.add_argument("--recon-eff", type=float, default=0.95, help="reconciliation efficiency")
    p.add_argument("--trunc", type=int, default=20,
                   help="Fock cutoff of the reference pipeline, recorded in the output; "
                        "key rates are computed exactly, without truncation")
    p.add_argument("--start", type=float, default=start, help="axis start")
    p.add_argument("--stop", type=float, default=stop, help="axis stop")
    p.add_argument("--points", type=int, default=points, help="axis point count")
    p.add_argument("--log-axis", action="store_true", default=False,
                   help="space axis points geometrically")
    p.add_argument("--threads", type=int, default=1, help="accepted (>= 1); has no effect")
    p.add_argument("--out", type=str, default=f"{exp}.csv", help="output CSV path")
    p.add_argument("--config", type=str, default=None,
                   help="plain-text config file (key = value); flags override")
    if exp in ("distance_sweep", "noise_grid", "photon_grid"):
        p.add_argument("--atten-db-per-km", type=float, default=0.2,
                       help="fixed channel attenuation")
    if exp == "noise_grid":
        p.add_argument("--beta-sq-values", type=_float_list,
                       default=DEFAULT_BETA_SQ_VALUES,
                       help="comma-separated noise layers")
    if exp == "photon_grid":
        p.add_argument("--alpha-sq-values", type=_float_list,
                       default=DEFAULT_ALPHA_SQ_VALUES,
                       help="comma-separated source-strength layers")
    if exp.startswith("satellite"):
        p.add_argument("--beta-r", type=float, default=1.0, help="aperture radius")
        p.add_argument("--beam-w", type=float, default=1.0, help="beam-spot radius")
        p.add_argument("--nodes", type=int, default=200, help="quadrature node budget")
        p.add_argument("--clamp-negative", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="clamp negative key rates to zero inside the average")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="cvqkd-ps",
        description="Key-rate sweeps for CV-QKD with photon subtraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command in _EXPERIMENT_FOR_COMMAND:
        sp = sub.add_parser(command, help=f"run the {command} experiment")
        _add_common(sp, command)
        commands[command] = sp
    return parser, commands


@lru_cache(maxsize=1)
def _shared_parser() -> tuple[argparse.ArgumentParser, dict]:
    """build_parser, once per process; parsing never changes the parsers."""
    return build_parser()


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    exp = _EXPERIMENT_FOR_COMMAND[args.command]
    schemes = tuple(args.scheme) if args.scheme else SCHEMES
    base = SchemeConfig(
        scheme=schemes[0],
        alpha_sq=args.alpha_sq,
        beta_sq=args.beta_sq,
        t_s=args.t_s,
        recon_eff=args.recon_eff,
        trunc_n=args.trunc,
    )
    kwargs = dict(
        experiment=exp,
        schemes=schemes,
        base=base,
        start=args.start,
        stop=args.stop,
        points=args.points,
        log_axis=args.log_axis,
        threads=args.threads,
    )
    if hasattr(args, "atten_db_per_km"):
        kwargs["atten_db_per_km"] = args.atten_db_per_km
    if hasattr(args, "beta_sq_values"):
        kwargs["beta_sq_values"] = tuple(args.beta_sq_values)
    if hasattr(args, "alpha_sq_values"):
        kwargs["alpha_sq_values"] = tuple(args.alpha_sq_values)
    if hasattr(args, "beta_r"):
        kwargs["beta_r"] = args.beta_r
        kwargs["beam_w"] = args.beam_w
        kwargs["quad"] = QuadratureSpec(
            node_count=args.nodes, clamp_negative=args.clamp_negative
        )
    return ExperimentConfig(**kwargs)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _shared_parser()
    args = parser.parse_args(argv)
    if args.config:
        # parse the command's flags again over a namespace holding the file's
        # values: argparse fills in only the defaults the namespace lacks, so
        # explicit flags keep priority and the shared parsers stay unchanged
        sp = commands[args.command]
        dests = {a.dest for a in sp._actions}
        seeded = argparse.Namespace(command=args.command)
        file_schemes = None
        for key, value in read_config_file(args.config).items():
            if key not in _CONFIG_PARSERS:
                raise ValueError(f"unknown config key {key!r}")
            parsed = _CONFIG_PARSERS[key](value)
            if key == "scheme":
                # append actions extend their default, so merge by hand
                file_schemes = tuple(parsed)
            elif key in dests:
                setattr(seeded, key, parsed)
        args = sp.parse_args(argv[argv.index(args.command) + 1:], namespace=seeded)
        if args.scheme is None and file_schemes is not None:
            args.scheme = list(file_schemes)
    config = config_from_args(args)
    result = run_experiment(config)
    emit_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
