"""Command-line front end for the sweep experiments.

One subcommand per experiment; common physics and output flags; an optional
plain-text config file (one ``key = value`` per line, ``#`` comments) whose
entries are overridden by explicit flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import lru_cache

from .channel import NODES_MAX, NODES_MIN, QuadratureSpec
from .exact import SCHEMES, SchemeConfig
from .sweeps import EXPERIMENTS, ExperimentConfig, emit_csv, run_experiment

# SchemeConfig fields with a flag each, except the one a grid's layers vary
_BASE_FLAGS = (("alpha_sq", "Alice mean photon number"), ("beta_sq", "Eve mean photon number"),
               ("t_s", "tap beam-splitter transmissivity"),
               ("recon_eff", "reconciliation efficiency"))

_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


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
            key = key.strip().replace("-", "_")
            if key in values:
                raise ValueError(f"config key {key!r} is given twice")
            values[key] = value.strip()
    return values


def _file_value(action: argparse.Action, text: str):
    """One config-file value, converted as its flag would convert it."""
    if action.nargs == 0:  # --log-axis, --clamp-negative/--no-clamp-negative
        word = text.lower()
        if word not in _SWITCH_WORDS:
            raise ValueError(f"config key {action.dest!r} is a switch: expected one of "
                             f"{', '.join(_SWITCH_WORDS)}, got {text!r}")
        return _SWITCH_WORDS[word]
    if action.dest == "scheme":  # comma-separated, where the flag repeats
        schemes = [s.strip() for s in text.split(",") if s.strip()]
        if not schemes:
            raise ValueError("config key 'scheme' names no scheme")
        return schemes
    try:
        return action.type(text)
    except ValueError:
        raise ValueError(f"config key {action.dest!r} has an invalid value {text!r}") from None


def _add_common(p: argparse.ArgumentParser, name: str) -> None:
    kind = EXPERIMENTS[name]
    start, stop, points = kind.default
    defaults = ExperimentConfig(name)  # the flags' defaults are the dataclasses' own
    base, quad = defaults.base, defaults.quad
    p.add_argument("--scheme", action="append", choices=SCHEMES, dest="scheme",
                   help="scheme to evaluate; repeatable (default: all three)")
    for dest, text in _BASE_FLAGS:
        if dest != kind.layer:
            p.add_argument("--" + dest.replace("_", "-"), type=float,
                           default=getattr(base, dest), help=text)
    p.add_argument("--trunc", type=int, default=base.trunc_n,
                   help="Fock cutoff of the reference pipeline, recorded in the output; "
                        "key rates are computed exactly, without truncation")
    p.add_argument("--start", type=float, default=start, help="axis start")
    p.add_argument("--stop", type=float, default=stop, help="axis stop")
    p.add_argument("--points", type=int, default=points, help="axis point count")
    p.add_argument("--log-axis", action="store_true", default=defaults.log_axis,
                   help="space axis points geometrically")
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p.add_argument("--out", type=str, default=f"{name}.csv", help="output CSV path")
    p.add_argument("--config", type=str, default=None,
                   help="plain-text config file (key = value); flags override")
    if kind.axis == "distance_km":
        p.add_argument("--atten-db-per-km", type=float, default=defaults.atten_db_per_km,
                       help="fixed channel attenuation")
    if kind.layer:
        p.add_argument(f"--{kind.layer.replace('_', '-')}-values", type=_float_list,
                       default=defaults.layers(), help=f"comma-separated {kind.layer} layers")
    if kind.axis == "sigma_b":
        p.add_argument("--beta-r", type=float, default=defaults.beta_r, help="aperture radius")
        p.add_argument("--beam-w", type=float, default=defaults.beam_w, help="beam-spot radius")
        p.add_argument("--nodes", type=int, default=quad.node_count,
                       help=f"quadrature node budget ({NODES_MIN} to {NODES_MAX})")
        p.add_argument("--clamp-negative", action=argparse.BooleanOptionalAction,
                       default=quad.clamp_negative,
                       help="clamp negative key rates to zero inside the average")


@lru_cache(maxsize=1)
def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The full parser and each command's own subparser, built once per
    process: parsing never changes them."""
    parser = argparse.ArgumentParser(
        prog="cvqkd-ps",
        description="Key-rate sweeps for CV-QKD with photon subtraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name in EXPERIMENTS:
        command = name.replace("_", "-")
        # no abbreviations: photon-grid would read --alpha-sq as --alpha-sq-values
        sp = sub.add_parser(command, help=f"run the {command} experiment", allow_abbrev=False)
        _add_common(sp, name)
        commands[command] = sp
    return parser, commands


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    name, given = args.command.replace("-", "_"), vars(args)
    schemes = tuple(args.scheme) if args.scheme else SCHEMES
    base = SchemeConfig(schemes[0], trunc_n=args.trunc,
                        **{dest: given[dest] for dest, _ in _BASE_FLAGS if dest in given})
    # every other flag but --nodes and --clamp-negative sets the field of its name
    own = {f.name: given[f.name] for f in dataclasses.fields(ExperimentConfig) if f.name in given}
    if EXPERIMENTS[name].axis == "sigma_b":
        if args.nodes < NODES_MIN:
            raise ValueError(f"--nodes must be >= {NODES_MIN}, got {args.nodes}")
        if args.nodes > NODES_MAX:
            raise ValueError(f"--nodes must be <= {NODES_MAX}, got {args.nodes}")
        own["quad"] = QuadratureSpec(node_count=args.nodes, clamp_negative=args.clamp_negative)
    return ExperimentConfig(name, schemes, base, **own)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    if not argv or argv[0] not in commands:
        # no command, -h or an unknown command: the full parser exits with its usage
        parser.parse_args(argv)
        parser.error("the command must come first")  # e.g. after a "--", where accepted
    # the command's own parser alone, which the full one would call as well
    sp = commands[argv[0]]
    args = sp.parse_args(argv[1:], namespace=argparse.Namespace(command=argv[0]))
    # a settings error, refused by the config file, the config or the run itself,
    # is a usage error as argparse's own are, and so is a config file or an output
    # that the OS refuses; the CSV is opened only after the run, so a refused run
    # writes none; a NumericalDomainError propagates
    try:
        if args.config:
            # parse the command's flags again over a namespace holding the file's
            # values: argparse fills in only the defaults the namespace lacks, so
            # explicit flags keep priority and the shared parsers stay unchanged
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
            args = sp.parse_args(argv[1:], namespace=seeded)
            if args.scheme is None and file_schemes is not None:
                args.scheme = file_schemes
        result = run_experiment(config_from_args(args))
        emit_csv(result, args.out)
    except (ValueError, OSError) as exc:
        sp.error(str(exc))
    print(f"wrote {len(result.rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
