"""Record the input pools and reference outputs under data/.

    python3 bench/record.py [workload ...]

Inputs are drawn from a fixed master seed; outputs come from the package in
this checkout's src/, one op at a time.  Re-record only in a change that
means to alter results, and say in CHANGES.md which references moved.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys

import workloads
from workloads import CLI_CASES, DATA, ROOT, PointEval, ScanSweep, TminSearch

MASTER_SEED = 12114691


def _round10(x):
    return float(f"{x:.10g}") if isinstance(x, float) else x


def record_scan(rng):
    entries = []
    for entry in ScanSweep.generate(rng):
        points = ScanSweep.record(entry)
        # 10 digits keep the checks' tightest tolerance (1e-6 on K) exact
        entry["ref"] = [[_round10(v) for v in point] for point in points]
        entries.append(entry)
    return entries


def record_tmin(rng):
    return [dict(entry, ref=TminSearch.record(entry)) for entry in TminSearch.generate(rng)]


def record_point(rng):
    return PointEval.record(PointEval.generate(rng))


def record_cli(_rng):
    env = workloads.child_env()
    return {
        case_id: subprocess.run([sys.executable, "-m", "heralded_qkd", *argv], cwd=ROOT, env=env,
                                capture_output=True, text=True, check=True).stdout
        for case_id, (argv, _, _) in CLI_CASES.items()
    }


RECORDERS = {
    "scan_sweep": record_scan,
    "tmin_search": record_tmin,
    "point_eval": record_point,
    "cli_session": record_cli,
}


def main(names) -> int:
    for name in names or RECORDERS:
        data = RECORDERS[name](random.Random(f"{MASTER_SEED}/{name}"))
        with open(DATA / f"{name}.json", "w") as f:
            json.dump(data, f, separators=(",", ":"))
            f.write("\n")
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
