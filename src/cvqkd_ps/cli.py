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
from .exact import SCHEMES, SchemeConfig
from .sweeps import DEFAULT_AXES, ExperimentConfig, emit_csv, run_experiment

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


def _file_value(action: argparse.Action, text: str):
    """One config-file value, converted as its flag would convert it."""
    if action.nargs == 0:  # --log-axis, --clamp-negative/--no-clamp-negative
        return text.lower() in ("1", "true", "yes", "on")
    if action.dest == "scheme":  # comma-separated, where the flag repeats
        return [s.strip() for s in text.split(",") if s.strip()]
    return action.type(text)


def _add_common(p: argparse.ArgumentParser, command: str) -> None:
    exp = _EXPERIMENT_FOR_COMMAND[command]
    start, stop, points = DEFAULT_AXES[exp]
    defaults = ExperimentConfig(exp)  # the flags' defaults are the dataclasses' own
    base, quad = defaults.base, defaults.quad
    p.add_argument("--scheme", action="append", choices=SCHEMES, dest="scheme",
                   help="scheme to evaluate; repeatable (default: all three)")
    p.add_argument("--alpha-sq", type=float, default=base.alpha_sq,
                   help="Alice mean photon number")
    p.add_argument("--beta-sq", type=float, default=base.beta_sq, help="Eve mean photon number")
    p.add_argument("--t-s", type=float, default=base.t_s, help="tap beam-splitter transmissivity")
    p.add_argument("--recon-eff", type=float, default=base.recon_eff,
                   help="reconciliation efficiency")
    p.add_argument("--trunc", type=int, default=base.trunc_n,
                   help="Fock cutoff of the reference pipeline, recorded in the output; "
                        "key rates are computed exactly, without truncation")
    p.add_argument("--start", type=float, default=start, help="axis start")
    p.add_argument("--stop", type=float, default=stop, help="axis stop")
    p.add_argument("--points", type=int, default=points, help="axis point count")
    p.add_argument("--log-axis", action="store_true", default=defaults.log_axis,
                   help="space axis points geometrically")
    p.add_argument("--threads", type=int, default=defaults.threads,
                   help="accepted (>= 1); has no effect")
    p.add_argument("--out", type=str, default=f"{exp}.csv", help="output CSV path")
    p.add_argument("--config", type=str, default=None,
                   help="plain-text config file (key = value); flags override")
    if exp in ("distance_sweep", "noise_grid", "photon_grid"):
        p.add_argument("--atten-db-per-km", type=float, default=defaults.atten_db_per_km,
                       help="fixed channel attenuation")
    if exp == "noise_grid":
        p.add_argument("--beta-sq-values", type=_float_list, default=defaults.beta_sq_values,
                       help="comma-separated noise layers")
    if exp == "photon_grid":
        p.add_argument("--alpha-sq-values", type=_float_list, default=defaults.alpha_sq_values,
                       help="comma-separated source-strength layers")
    if exp.startswith("satellite"):
        p.add_argument("--beta-r", type=float, default=defaults.beta_r, help="aperture radius")
        p.add_argument("--beam-w", type=float, default=defaults.beam_w, help="beam-spot radius")
        p.add_argument("--nodes", type=int, default=quad.node_count,
                       help="quadrature node budget")
        p.add_argument("--clamp-negative", action=argparse.BooleanOptionalAction,
                       default=quad.clamp_negative,
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
        actions = {a.dest: a for a in sp._actions}
        known = {a.dest for c in commands.values() for a in c._actions} - {"help", "config"}
        seeded = argparse.Namespace(command=args.command)
        file_schemes = None
        for key, text in read_config_file(args.config).items():
            if key not in known:
                raise ValueError(f"unknown config key {key!r}")
            if key == "scheme":
                # append actions extend their default, so merge by hand
                file_schemes = _file_value(actions[key], text)
            elif key in actions:  # another command's key: ignored
                setattr(seeded, key, _file_value(actions[key], text))
        args = sp.parse_args(argv[argv.index(args.command) + 1:], namespace=seeded)
        if args.scheme is None and file_schemes is not None:
            args.scheme = file_schemes
    config = config_from_args(args)
    result = run_experiment(config)
    emit_csv(result, args.out)
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
