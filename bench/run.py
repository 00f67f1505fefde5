"""Run one heralded-qkd benchmark workload and print its metrics.

    python3 bench/run.py --workload scan_sweep --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and benchmarks the package under
src/.  With --trace 0 it prints every end-to-end metric, with --trace 1
every per-layer metric, each by name with its unit and sample count, then
one JSON line: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "heralded_qkd" / "__init__.py"
WORKLOADS = ("scan_sweep", "tmin_search", "point_eval", "cli_session")
# set-up is timed in this many fresh interpreters besides the measuring one
SETUP_PROBES = 4
# a run must end within 180 s of its start
DEADLINE_S = 170


class BenchError(Exception):
    pass


def start_worker(args, env, *extra) -> tuple[subprocess.Popen, float]:
    """Start a worker process; return it and its set-up time in seconds,
    scaled to the reference machine speed (see speed.py)."""
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), *extra]
    scale = speed.CHILD_REFERENCE_S / speed.child_seconds(env)
    t0 = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = (time.perf_counter() - t0) * scale
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up: {' '.join(command)}")
    return proc, setup


def measure(args) -> dict:
    import workloads

    start = time.perf_counter()
    env = workloads.child_env()
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup = start_worker(args, env, "--setup-only")
            proc.wait(timeout=60)
            setups.append(setup)
    proc, setup = start_worker(args, env, "--seconds", str(args.seconds), "--trace", str(args.trace))
    setups.append(setup)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S - (time.perf_counter() - start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish in time") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = [statistics.median(setups), "s", len(setups)]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"error: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (BenchError, ImportError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# meta {json.dumps(result['meta'])}")
    rows = {**result["metrics"], **result["named"]}
    for name, (value, unit, samples) in rows.items():
        print(f"{name:<48} {value:>16.6g} {unit:<10} n={samples}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
