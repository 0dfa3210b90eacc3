"""Key-rate benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fixed_link --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Each run starts fresh worker processes: with
``--trace 0``, a few that only set up (the median of their set-up times and
the measuring worker's is ``setup_s``), then one that sets up, runs the timed
closed loop and the probe set.  With ``--trace 0`` the last line of standard
output is the JSON result with the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced loop instead, from the measuring
worker alone.
``correct`` is false when a probe fails or is further from the reference
table than it allows.  Exits non-zero, without a result, if a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_REPEATS = 5  # set-ups per run, the run's own worker included
WORKER_TIMEOUT_S = 170.0


class WorkerError(RuntimeError):
    pass


def _worker(args, workdir: Path, setup_only: bool, deadline: float) -> list:
    """Run one worker to completion; return its JSON messages."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError("worker timed out") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return [json.loads(line) for line in out.splitlines() if line.strip()]


def _git_sha() -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _end_to_end(result: dict, setups: list) -> dict:
    lat_ms = [s * 1e3 for s in result["latencies_s"]]
    probes = result["probes"]
    return {
        "rows_per_s": (result["rows"] / result["busy_s"], "rows/s"),
        "request_p50_ms": (statistics.median(lat_ms), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "rate_digits_min": (min(probes["digits"]) if probes["digits"] else 0.0, "digits"),
    }


def _per_layer(result: dict) -> dict:
    trace = result["trace"]
    metrics = {name: (value, unit) for name, (value, unit) in trace["layers"].items()}
    traced_rps = result["rows"] / result["busy_s"]
    untraced_rps = result["rows"] / trace["untraced_busy_s"]
    metrics["trace.rows_per_s_traced"] = (traced_rps, "rows/s")
    metrics["trace.rows_per_s_untraced"] = (untraced_rps, "rows/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_rps / untraced_rps, "ratio")
    metrics["trace.accounted_frac"] = (trace["self_sum_s"] / trace["untraced_busy_s"],
                                       "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="CPU seconds of requests in the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cvqkd_ps" / "__init__.py").is_file():
        print(f"no cvqkd_ps package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + WORKER_TIMEOUT_S
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(0 if args.trace else SETUP_REPEATS - 1):
            setups.append(_worker(args, workdir, True, deadline)[0]["ready"])
        result = _worker(args, workdir, False, deadline)[-1]["result"]
    except (WorkerError, IndexError, KeyError, json.JSONDecodeError) as exc:
        print(f"benchmark failed: {exc!r}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    setups.append(result["ready"])

    probes = result["probes"]
    correct = (probes["failed"] == 0 and len(probes["digits"]) > 0
               and min(probes["digits"]) >= probes["min_digits_required"])
    metrics = _per_layer(result) if args.trace else _end_to_end(result, setups)

    attempted = result["requests"] + probes["attempted"]
    failed = result["failed"] + probes["failed"]
    lat_ms = [s * 1e3 for s in result["latencies_s"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"requests {result['requests']}  rows {result['rows']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if len(lat_ms) >= 100:  # at least ten samples beyond the 90th percentile
        print(f"  {'request_p90_ms':34s} {statistics.quantiles(lat_ms, n=10)[-1]:14.6g} ms")
    print(f"  {'failed_frac':34s} {failed / attempted:14.6g} ratio")
    if args.trace and result["trace"]["absent"]:
        print(f"  absent layers: {', '.join(result['trace']['absent'])}")
    env = dict(result["env"], cores=os.cpu_count(), git_sha=_git_sha(), seed=args.seed,
               seconds=args.seconds, workload=args.workload)
    print("env " + json.dumps(env, sort_keys=True))
    if not correct:
        print(f"probe check failed: {probes}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
