"""Quick self-check of the benchmark itself (under a minute).

    python3 perfbench/selfcheck.py

* Runs every workload for a few requests, untraced and traced, and checks
  that the result line names exactly the metrics of BENCHMARK.json, each with
  its unit, and that the probes are correct.
* Checks the failure accounting: a request that raises counts as failed and
  the loop goes on.  It also reports whether the known-defect request
  (``transmissivity-sweep --beta-sq 0 --scheme rps`` at T_E = 0, which the
  timed loop leaves out) still fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

KNOWN_DEFECT = ("transmissivity-sweep", "--scheme", "rps", "--beta-sq", "0",
                "--start", "0", "--stop", "0", "--points", "1", "--threads", "1")


def _check_metrics(workload: str, trace: int, spec: dict) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.2", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = [f"{workload} trace={trace}: {name} has unit {got.get(name)}, want {unit}"
                for name, unit in want.items() if got.get(name) != unit]
    problems += [f"{workload} trace={trace}: unexpected metric {name}"
                 for name in got if name not in want]
    if not result["correct"]:
        problems.append(f"{workload} trace={trace}: probes not correct")
    if result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: {result['failed']} of "
                        f"{result['attempted']} failed")
    print(f"{workload} trace={trace}: {len(got)} metrics checked", flush=True)
    return problems


def _check_failure_accounting() -> list:
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads
    import worker
    from cvqkd_ps import cli

    invalid = workloads.Request(("transmissivity-sweep", "--points", "0"), 1)
    good = workloads.warmup_requests("fixed_link")[0]
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        out = Path(tmp) / "out.csv"
        loop = worker._timed_loop(cli, [[invalid, good]], float("inf"), out)
        known = worker._timed_loop(cli, [[workloads.Request(KNOWN_DEFECT, 1)]],
                                   float("inf"), out)
    print(f"known defect still fails: {known['failed'] == 1}")
    if (len(loop["latencies"]), loop["failed"], loop["rows"]) != (2, 1, 1):
        return [f"failure accounting: {len(loop['latencies'])} requests, "
                f"{loop['failed']} failed, {loop['rows']} rows; want 2, 1, 1"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = _check_failure_accounting()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems += _check_metrics(workload, trace, spec)
    for problem in problems:
        print("FAIL", problem)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
