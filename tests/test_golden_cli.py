"""Byte-for-byte regression test of the CLI's stdout against recorded files.

Each case's expected stdout lives in tests/golden/<name>.txt.  Any change to
these bytes is a change of the output contract and must be explained.
Regenerate the files (only for a deliberate output change) with

    PYTHONPATH=src python tests/test_golden_cli.py

The same bytes are required with numpy's AVX-512 code switched off, so that
they do not depend on which CPU runs the tests.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heralded_qkd.cli import main

GOLDEN = Path(__file__).with_name("golden")

_MULTIPLEXED = ["--source", "multiplexed", "--stages", "3", "--eta-a", "0.6",
                "--dark-a", "1e-6", "--eta-c", "0.98"]
_BINARY = ["--source", "binary", "--eta-a", "0.6", "--dark-a", "1e-6"]
_SCAN = ["--dark-b", "1e-5", "--t-min", "1e-5", "--t-max", "1e-1",
         "--points", "12"]
_CONTOUR = ["--q-points", "6", "--y-points", "5"]

CASES = {
    "threshold_bb84_csv": ["threshold", "--protocol", "bb84"],
    "threshold_bb84_json": ["threshold", "--protocol", "bb84", "--format", "json"],
    "threshold_sarg04_csv": ["threshold", "--protocol", "sarg04"],
    "threshold_sarg04_json": ["threshold", "--protocol", "sarg04", "--format", "json"],
    "detector_oracle": ["detector", "--stages", "3", "--eta-a", "0.6",
                        "--dark-a", "1e-6", "--eta-c", "0.98", "--oracle"],
    "detector_never_heralds": ["detector", "--eta-a", "0", "--dark-a", "0"],
    # 1 - dark_a rounds to 1, yet 2**60 bins make a dark count likely
    "detector_many_stages": ["detector", "--stages", "60", "--eta-a", "0.6",
                             "--dark-a", "1e-17"],
    "keyrate_lam": ["keyrate", *_BINARY, "--t", "0.01", "--dark-b", "1e-5",
                    "--lam", "0.05"],
    "keyrate_opt": ["keyrate", *_BINARY, "--t", "0.01", "--dark-b", "1e-5"],
    "scan_wcp_csv": ["scan", "--source", "wcp", *_SCAN],
    "scan_wcp_json": ["scan", "--source", "wcp", *_SCAN, "--format", "json"],
    "scan_multiplexed_csv": ["scan", "--protocol", "sarg04", *_MULTIPLEXED, *_SCAN],
    "scan_multiplexed_json": ["scan", "--protocol", "sarg04", *_MULTIPLEXED, *_SCAN,
                              "--format", "json"],
    # 50 points: enough T rows (_LOCKSTEP_MIN_ROWS) for the scan's lockstep
    "scan_lockstep_csv": ["scan", "--protocol", "sarg04", *_MULTIPLEXED, "--dark-b", "1e-5",
                          "--t-min", "1e-5", "--t-max", "1e-1", "--points", "50"],
    "tmin_bb84": ["tmin", "--protocol", "bb84", *_BINARY, "--dark-b", "1e-5"],
    "tmin_sarg04": ["tmin", "--protocol", "sarg04", *_BINARY, "--dark-b", "1e-5"],
    "tmin_wcp": ["tmin", "--protocol", "bb84", "--source", "wcp", "--dark-b", "1e-5"],
    "tmin_multiplexed": ["tmin", "--protocol", "sarg04", *_MULTIPLEXED, "--dark-b", "1e-5"],
    "tmin_far_estimate": ["tmin", "--source", "custom", "--q0", "1", "--q1", "1e-9",
                          "--q2", "1", "--dark-b", "1e-5"],
    "tmin_lambda_max": ["tmin", "--protocol", "bb84", "--source", "wcp",
                        "--lambda-max", "1e-3", "--dark-b", "1e-5"],
    # the closed forms the detector leaves undefined print as "invalid"
    "tmin_q1_zero": ["tmin", "--source", "custom", "--q0", "1e-3", "--q1", "0",
                     "--q2", "1", "--dark-b", "1e-5"],
    "tmin_q2_zero": ["tmin", "--source", "custom", "--q0", "1e-3", "--q1", "0.6",
                     "--q2", "0", "--dark-b", "1e-5"],
    # and a scan leaves out the comments whose closed form is undefined
    "scan_q1_zero": ["scan", "--source", "custom", "--q0", "1e-3", "--q1", "0",
                     "--q2", "1", "--dark-b", "1e-5", "--t-min", "1e-3",
                     "--t-max", "0.1", "--points", "4"],
    "scan_q2_zero": ["scan", "--source", "custom", "--q0", "1e-3", "--q1", "0.6",
                     "--q2", "0", "--dark-b", "1e-5", "--t-min", "1e-3",
                     "--t-max", "0.1", "--points", "4"],
    # every T at or above I_AE2/2, where the short-distance rate is undefined
    "scan_outside_regime": ["scan", "--dark-b", "1e-5", "--t-min", "0.5",
                            "--t-max", "0.9", "--points", "2"],
    "contour_csv": ["contour", "--protocol", "sarg04", *_CONTOUR],
    "contour_json": ["contour", "--protocol", "sarg04", *_CONTOUR, "--format", "json"],
    "compare_stages_fit": ["compare-stages", "--eta-a-list", "0.4", "0.8",
                           "--eta-c", "0.98", "--dark-a", "1e-6", "--dark-b", "1e-5",
                           "--n-max", "3", "--fit"],
}


def run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    code, out = run(CASES[name])
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


def avx512_dispatch_features() -> list[str]:
    """numpy's AVX-512 dispatch targets (X86_V4 and AVX512*) that this CPU has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    return [f for f in umath.__cpu_dispatch__
            if (f == "X86_V4" or f.startswith("AVX512")) and umath.__cpu_features__[f]]


# run in a fresh interpreter: every case's (exit code, stdout), and the
# features that are still on
_DISPATCH_OFF_SCRIPT = """
import json, sys
from test_golden_cli import CASES, avx512_dispatch_features, run
cases = {name: run(argv) for name, argv in CASES.items()}
json.dump({"still_on": avx512_dispatch_features(), "cases": cases}, sys.stdout)
"""


@pytest.fixture(scope="module")
def dispatch_off_runs() -> dict:
    features = avx512_dispatch_features()
    if not features:
        pytest.skip("numpy dispatches no AVX-512 code on this CPU, so there is "
                    "nothing to switch off")
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(features))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")])
    )
    proc = subprocess.run([sys.executable, "-c", _DISPATCH_OFF_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["still_on"] == []
    return result["cases"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_without_avx512(dispatch_off_runs, name):
    code, out = dispatch_off_runs[name]
    assert code == 0
    assert out.encode() == (GOLDEN / f"{name}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out = run(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN / f"{name}.txt").write_bytes(out.encode())
