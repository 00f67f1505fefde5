"""One workload process: set up, then measure or trace, then print a JSON result.

    python3 bench/worker.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 bench/worker.py --workload NAME --seed N --setup-only

run.py starts this in a fresh interpreter.  It prints "ready" as soon as
set-up is done (package import, cold protocol constants, inputs built), so
that run.py can time set-up from outside, and then one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

import speed


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Measurement:
    """Whole rounds of ops, each op timed on its own.

    op_seconds are wall_seconds scaled to the reference machine speed (see
    speed.py).  peak_rss_mb is taken after the first round, before the
    lists of per-op times grow with the number of ops.
    """

    def __init__(self, workload, rounds, seconds=None, between=None):
        """Run rounds until they run out or the next would end after seconds.

        between, if given, is called untimed after every op.
        """
        self.ops, self.op_seconds, self.wall_seconds, self.round_seconds = [], [], [], []
        self.work = self.failed = 0
        in_process = workload.child_env is None
        start = time.perf_counter()
        for ops in rounds:
            spent = 0.0
            for op in ops:
                if in_process:
                    reading = speed.loop_seconds()
                else:
                    reading = speed.child_seconds(workload.child_env)
                t0 = time.perf_counter()
                result = workload.run(op)
                wall = time.perf_counter() - t0
                if in_process:
                    # and after: a long op can span a change of speed
                    reading = (reading + speed.loop_seconds()) / 2
                    dt = wall * speed.REFERENCE_S / reading
                else:
                    dt = wall * speed.CHILD_REFERENCE_S / reading
                self.failed += not workload.check(op, result)
                self.ops.append(op)
                self.op_seconds.append(dt)
                self.wall_seconds.append(wall)
                self.work += workload.work(op)
                spent += dt
                if between is not None:
                    between()
            self.round_seconds.append(spent)
            done = len(self.round_seconds)
            if done == 1:
                self.peak_rss_mb = peak_rss_mb(workload)
            if seconds is not None and (time.perf_counter() - start) * (done + 1) / done > seconds:
                break


def peak_rss_mb(workload) -> float:
    """Peak RSS of this process, or of its children where they do the work."""
    who = resource.RUSAGE_SELF if workload.child_env is None else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(workload, seconds: float) -> dict:
    m = Measurement(workload, iter(workload.next_round, None), seconds)
    n = len(m.op_seconds)
    ms = [s * 1e3 for s in m.op_seconds]
    rate, p50, tail = workload.aliases
    metrics = {
        "work_per_s": [m.work / sum(m.op_seconds), "1/s", n],
        "op_ms_p50": [statistics.median(ms), "ms", n],
        "op_ms_tail": [percentile(ms, workload.tail), "ms", n],
        "peak_rss_mb": [m.peak_rss_mb, "MB", 1],
    }
    named = {
        rate: metrics["work_per_s"],
        p50: metrics["op_ms_p50"],
        tail: metrics["op_ms_tail"],
        "fail_frac": [m.failed / n, "fraction", n],
        "wall_op_ms_p50": [statistics.median(m.wall_seconds) * 1e3, "ms", n],
        "wall_op_ms_tail": [percentile(m.wall_seconds, workload.tail) * 1e3, "ms", n],
    }
    if workload.name == "cli_session":
        named["cli_session_s"] = [statistics.median(m.round_seconds), "s", len(m.round_seconds)]
    return {"correct": m.failed == 0, "attempted": n, "failed": m.failed,
            "metrics": metrics, "named": named}


def traced_run(workload) -> dict:
    """A fixed, seeded list of rounds, traced, then the same rounds untraced."""
    import tracer
    import workloads

    rounds = [workload.next_round() for _ in range(workload.trace_rounds)]
    if workload.name == "cli_session":
        workload.traced = True
        traced = Measurement(workload, rounds)
        workload.traced = False
        counts = sum((tracer.read_snapshot(s) for s in workload.trace_snapshots), Counter())
    else:
        with tracer.Tracer() as t:
            traced = Measurement(workload, rounds)
        counts = t.counts
    env = workloads.child_env()
    # on cli_session an interpreter that only imports the CLI runs right
    # after each invocation, so that each startup share compares neighbours
    startups = []
    probe = (lambda: startups.append(tracer.startup_ms(env))) if workload.name == "cli_session" else None
    plain = Measurement(workload, rounds, between=probe)

    metrics = {k: [v, unit, 1] for k, (v, unit) in tracer.layer_metrics(counts).items()}
    imports = [tracer.import_times_ms(env) for _ in range(3)]
    metrics["import.numpy_ms"] = [statistics.median(i[0] for i in imports), "ms", 3]
    metrics["import.heralded_qkd_self_ms"] = [statistics.median(i[1] for i in imports), "ms", 3]
    metrics["protocol.constants_cold_ms"] = [
        statistics.median(tracer.constants_cold_ms(env) for _ in range(3)), "ms", 3]
    cli_ms = {case_id: [] for case_id in workloads.CLI_CASES}
    if workload.name == "cli_session":
        for op, seconds in zip(plain.ops, plain.op_seconds):
            cli_ms[op.id].append(seconds * 1e3)
    for case_id, values in cli_ms.items():
        metrics[f"cli.wall_ms.{case_id}"] = [statistics.median(values) if values else 0.0, "ms", len(values)]
    shares = [ms / (s * 1e3) for ms, s in zip(startups, plain.wall_seconds)]
    metrics["cli.startup_share"] = [statistics.median(shares) if shares else 0.0, "fraction", len(shares)]
    metrics["trace.overhead_frac"] = [sum(traced.op_seconds) / sum(plain.op_seconds) - 1, "fraction", 1]

    correct = traced.failed == 0 and plain.failed == 0
    if workload.name in ("scan_sweep", "tmin_search"):
        # every key_rate call comes from optimize_lambda, which counts them
        calls, evals = counts[f"{tracer.KEY_RATE}.calls"], counts[f"{tracer.OPTIMIZE}.evaluations"]
        if calls != evals:
            print(f"trace cross-check failed: {calls} key_rate calls, {evals} evaluations",
                  file=sys.stderr)
            correct = False
    attempted = len(traced.ops) + len(plain.ops)
    return {"correct": correct, "attempted": attempted, "failed": traced.failed + plain.failed,
            "metrics": metrics, "named": {}}


def source_meta(root) -> dict:
    files = sorted((root / "src" / "heralded_qkd").glob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        loc += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "src_loc": loc}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads
    from heralded_qkd import BB84, SARG04

    for spec in (BB84, SARG04):
        spec.q_threshold, spec.xi, spec.i_ae_two
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = traced_run(workload) if args.trace else timed_run(workload, args.seconds)
    import numpy

    result["meta"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        **source_meta(workloads.ROOT),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
