"""Regenerate reference.json, the table behind ``rate_digits_min``.

    python3 perfbench/make_reference.py

Evaluates every probe of workloads.py through the CLI's own parser and
``run_experiment``, keeping full float precision, at a higher precision than
any workload runs at: fixed-link probes at cutoff 64, fading probes at
cutoff 48 with 400 quadrature nodes.  Each row also stores the digits its
reference value can vouch for: the agreement with the same probe evaluated
one step less precisely (cutoff 56 for fixed-link probes; cutoff 40, and
200 nodes, for fading probes).  A workload's digits are capped there, so
``rate_digits_min`` measures accuracy rather than agreement with one
particular program.  A few fixed-link rows are cross-checked against the
naive Fock pipeline in tests/oracles.py.  Takes about ten minutes and up to
about 1 GB of memory (the cutoff-64 states).
"""

from __future__ import annotations

import json
import math
import os
import sys
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from cvqkd_ps import cli, fock_states, sweeps  # noqa: E402

# probe-table section -> (workload whose probes it holds, reference
# (cutoff, nodes), less precise evaluations that bound the reference's error)
SETTINGS = {
    "fixed": ("fixed_link", (64, None), ((56, None),)),
    "fading": ("fading_link", (48, 400), ((40, 400), (48, 200))),
}
# Smallest rate_digits_min that still counts as correct, per workload.  At
# the seed commit the worst probe is the photon grid at alpha^2 = 3.0, with
# 1.17 digits at cutoff 20 and 4.65 at cutoff 48.  These catch wrong answers,
# not lost digits, which rate_digits_min itself tracks.
MIN_DIGITS = {"fixed_link": 1.0, "fading_link": 1.0, "precision_link": 4.0}
# (probe index, row index) of fixed-link rows cross-checked against the
# naive pipeline: rps at T_E = 0.1, and nops and rps in the alpha^2 = 3.0
# photon-grid layer.
ORACLE_ROWS = ((0, 2), (3, 3), (3, 5))


def _fmt(value) -> str:
    return f"{value:.12g}" if isinstance(value, float) else str(value)


def _evaluate(argv):
    """(config, key columns, [(key, rate)]) of one probe."""
    parser, _ = cli.build_parser()
    config = cli.config_from_args(parser.parse_args(list(argv) + ["--out", os.devnull]))
    result = sweeps.run_experiment(config)
    columns = list(result.columns)
    value = "k_avg" if "k_avg" in columns else "rate"
    key = columns[:columns.index("k_avg" if value == "k_avg" else "i_g")]
    rows = [([_fmt(row[columns.index(c)]) for c in key], float(row[columns.index(value)]))
            for row in result.rows]
    return config, key, rows


def _evaluate_all(workload: str, trunc: int, nodes) -> list:
    out = [_evaluate(argv) for argv in workloads.probes(workload, trunc=trunc, nodes=nodes)]
    # drop the cached state skeletons before the next cutoff (one cutoff-64
    # set is most of a GB)
    for obj in vars(fock_states).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    print(f"{workload} probes at cutoff {trunc}, nodes {nodes}: done", flush=True)
    return out


def _digits(got: float, want: float) -> float:
    err = abs(got - want) / abs(want)
    return 15.0 if err == 0.0 else min(15.0, -math.log10(err))


def _oracle_check(config, key, row) -> float:
    sys.path.insert(0, str(ROOT / "tests"))
    import oracles

    layer = dict(zip(key, row[0]))
    base = config.base
    alpha_sq = float(layer.get("alpha_sq", base.alpha_sq))
    beta_sq = float(layer.get("beta_sq", base.beta_sq))
    naive = oracles.naive_key_rate(layer["scheme"], alpha_sq, beta_sq, base.t_s,
                                   float(layer["t_e"]), base.trunc_n, f=base.recon_eff)
    return abs(naive["rate"] - row[1]) / abs(row[1])


def main() -> int:
    warnings.simplefilter("ignore")
    table = {"min_digits": MIN_DIGITS, "settings": {}}
    for section, (workload, (trunc, nodes), checks) in SETTINGS.items():
        reference = _evaluate_all(workload, trunc, nodes)
        check_runs = [_evaluate_all(workload, t, n) for t, n in checks]
        probes = []
        for i, (argv, (config, key, rows)) in enumerate(
                zip(workloads.probes(workload, trunc=trunc, nodes=nodes), reference)):
            table_rows = []
            for j, (row_key, rate) in enumerate(rows):
                if not math.isfinite(rate) or rate == 0.0:
                    raise SystemExit(f"probe {argv} row {row_key}: unusable reference {rate}")
                others = [run[i][2][j] for run in check_runs]
                if any(other[0] != row_key for other in others):
                    raise SystemExit(f"probe {argv}: rows differ between precisions")
                cap = min(_digits(other[1], rate) for other in others)
                table_rows.append([row_key, rate, round(cap, 2)])
            probes.append({"argv": list(argv), "key": key, "rows": table_rows})
        if section == "fixed":
            for probe_index, row_index in ORACLE_ROWS:
                config, key, rows = reference[probe_index]
                rel = _oracle_check(config, key, rows[row_index])
                print(f"oracle cross-check probe {probe_index} row {row_index}: "
                      f"relative difference {rel:.2e}", flush=True)
                if rel > 1e-9:
                    raise SystemExit("reference disagrees with tests/oracles.py")
        table["settings"][section] = {
            "cutoff": trunc, "nodes": nodes,
            "error_from": [{"cutoff": t, "nodes": n} for t, n in checks]}
        table[section] = probes
    (HERE / "reference.json").write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
