"""Benchmark worker: one fresh process per setup measurement or run.

Started by run.py as ``python3 perfbench/worker.py --workload W --seed S
--seconds X --trace 0|1 --workdir D [--setup-only]``.  It imports the package
from the checkout's ``src``, sends one warm-up request per scheme through
``cvqkd_ps.cli.main`` and reports ``ready``.  A setup-only worker stops there.
Otherwise it runs the closed loop -- one client, the next request only after
the previous one returned -- over whole rounds of requests until they have
used ``--seconds`` of CPU time, checks every output, runs the probe set and
reports the result.

Messages to run.py are JSON lines on the original standard output; the CLI's
own "wrote N rows" line goes to /dev/null.  All times are CPU seconds of this
single-threaded process (time.process_time).
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS thread, whatever the caller's environment says
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

clock = time.process_time


def _send(stream, **message) -> None:
    stream.write(json.dumps(message) + "\n")
    stream.flush()


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import cvqkd_ps
    from cvqkd_ps import channel, cli, fock_states, keyrate, sweeps

    origin = Path(cvqkd_ps.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise ImportError(f"cvqkd_ps imported from {origin}, not from this checkout")
    return {"cli": cli, "sweeps": sweeps, "channel": channel, "keyrate": keyrate,
            "fock_states": fock_states}


def _read_csv(path: Path):
    """(columns, rows) of one emitted CSV, cells kept as strings."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("# ")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _output_ok(path: Path, expected_rows: int) -> bool:
    """Row count, finiteness and physical domain of one request's output."""
    columns, rows = _read_csv(path)
    if len(rows) != expected_rows:
        return False
    col = {name: i for i, name in enumerate(columns)}
    for row in rows:
        val = {name: float(row[i]) for name, i in col.items() if name != "scheme"}
        if not all(math.isfinite(v) for v in val.values()):
            return False
        if "k_avg" in val:
            # clamped averages: 0 <= K_avg <= K_avg_normalized since p_sub <= 1
            if not 0.0 <= val["k_avg"] <= val["k_avg_normalized"] * (1 + 1e-9) + 1e-15:
                return False
            continue
        if not (0.0 <= val["p_sub"] <= 1.0 and 0.0 <= val["t_e"] <= 1.0
                and val["i_g"] >= 0.0):
            return False
        if abs(val["rate"] - val["p_sub"] * val["rate_raw"]) > 1e-9 * abs(val["rate"]) + 1e-15:
            return False
    return True


def _call(main, argv, out: Path) -> bool:
    """One request; False if it raised (argparse errors included)."""
    try:
        main(list(argv) + ["--out", str(out)])
    except (Exception, SystemExit) as exc:  # a failed request must not end the loop
        print(f"request failed: {' '.join(argv)}: {exc!r}", file=sys.stderr)
        return False
    return True


def _timed_loop(cli, rounds, seconds: float, out: Path, tracer=None) -> dict:
    """Closed loop over whole rounds until the requests' CPU time reaches
    ``seconds`` (or the rounds run out).

    Stopping only between rounds keeps every run's request mix the one the
    rounds define.  With a ``tracer``, every request runs twice, traced and
    untraced, in alternating order, so that the tracing cost is measured at
    the same machine speed; the untraced copies are timed in ``untraced_s``
    only.
    """
    latencies = []
    rows = failed = 0
    busy = untraced = 0.0
    for batch in rounds:
        if busy >= seconds:
            break
        for req in batch:
            if tracer and len(latencies) % 2:
                untraced += _cpu(cli, req, out)
            if tracer:
                tracer.install()
            t0 = clock()
            ok = _call(cli.main, req.argv, out)
            dt = clock() - t0
            if tracer:
                tracer.uninstall()
            ok = ok and _output_ok(out, req.rows)
            if tracer and not len(latencies) % 2:
                untraced += _cpu(cli, req, out)
            busy += dt
            latencies.append(dt)
            if ok:
                rows += req.rows
            else:
                failed += 1
    return {"latencies": latencies, "rows": rows, "failed": failed, "busy_s": busy,
            "untraced_s": untraced}


def _cpu(cli, req, out: Path) -> float:
    t0 = clock()
    _call(cli.main, req.argv, out)
    return clock() - t0


def _probe_digits(cli, workload: str, out: Path) -> dict:
    """Correct significant digits of every probe row against reference.json,
    capped at the digits the reference itself vouches for."""
    reference = json.loads((HERE / "reference.json").read_text())
    table = reference[workloads.probe_key(workload)]
    digits, failed = [], 0
    for argv, ref in zip(workloads.probes(workload), table):
        if not _call(cli.main, argv, out):
            failed += 1
            continue
        columns, rows = _read_csv(out)
        rate = columns.index("k_avg" if "k_avg" in columns else "rate")
        if len(rows) != len(ref["rows"]):
            failed += 1
            continue
        for row, (key, want, cap) in zip(rows, ref["rows"]):
            got = float(row[rate])
            if [row[columns.index(c)] for c in ref["key"]] != key or not math.isfinite(got):
                failed += 1
                break
            err = abs(got - want) / abs(want)
            digits.append(cap if err == 0.0 else min(cap, -math.log10(err)))
    return {"digits": digits, "attempted": len(table), "failed": failed,
            "min_digits_required": reference["min_digits"][workload]}


def _blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    info["blas_threads"] = _blas_threads()
    return info


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, None if not found."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {ln.split()[-1] for ln in maps if "openblas" in ln.split()[-1].lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = open(os.devnull, "w")
    out = args.workdir / f"out-{os.getpid()}.csv"

    modules = _import_package()
    cli = modules["cli"]
    tracer = Tracer(modules) if args.trace else None
    if tracer:
        tracer.install()
    for req in workloads.warmup_requests(args.workload):
        if not _call(cli.main, req.argv, out):
            raise RuntimeError(f"warm-up request failed: {req.argv}")
    ready = clock()
    if tracer:
        tracer.uninstall()
        tracer.reset()
    if args.setup_only:
        _send(proto, ready=ready)
        return 0

    loop = _timed_loop(cli, workloads.rounds(args.workload, args.seed), args.seconds,
                       out, tracer=tracer)
    result = {
        "ready": ready,
        "requests": len(loop["latencies"]),
        "failed": loop["failed"],
        "rows": loop["rows"],
        "busy_s": loop["busy_s"],
        "latencies_s": loop["latencies"],
    }
    if tracer:
        result["trace"] = {
            "layers": tracer.metrics(),
            "absent": sorted(tracer.absent),
            "self_sum_s": tracer.total_self_s(),
            "untraced_busy_s": loop["untraced_s"],
        }
    result["probes"] = _probe_digits(cli, args.workload, out)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = {"python": sys.version.split()[0], **_blas_info()}
    _send(proto, result=result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
