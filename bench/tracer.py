"""Boundary tracing for the traced benchmark run, installed from outside the package.

`Tracer` wraps the public functions at each boundary between the package's
modules (cli -> analysis -> keyrate -> protocol / source_detector) wherever a
module binds them, keeps per-function aggregates in memory (a run makes
about a million calls, too many to keep one span each), and puts the
original functions back on exit.  Self time is a span's time minus the time
of the traced spans it directly contains.

Run as a script, it is a traced stand-in for `python -m heralded_qkd`: it
runs one CLI invocation under the tracer and writes the aggregates to
stderr as one JSON line after MARK.
"""

from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys
import time
from collections import Counter

MARK = "bench-trace: "

BOUNDARIES = {
    "cli": ("main",),
    "analysis": ("scan_key_rate", "tmin_numerical", "optimize_lambda"),
    "keyrate": ("key_rate", "renormalized_key_rate"),
    "protocol": ("mutual_info_ab", "eve_info_single", "pns_applicable"),
    "source_detector": ("poisson_pair_stats", "multiplexed_response", "brute_force_response"),
}
MODULES = ("heralded_qkd", *(f"heralded_qkd.{m}" for m in BOUNDARIES))

OPTIMIZE = "analysis.optimize_lambda"
TMIN = "analysis.tmin_numerical"
KEY_RATE = "keyrate.key_rate"


class Tracer:
    """Per-function call counts and inclusive/child seconds while installed.

    counts holds, per function key "<layer>.<name>": calls, seconds (inclusive)
    and child_seconds; per layer: entries (calls from outside the layer); and
    the result counters evaluations, unconverged, optimizations_in_tmin and
    invalid (key_rate results that are NaN or raise ZeroDivisionError).
    """

    def __init__(self):
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def __enter__(self):
        modules = [importlib.import_module(name) for name in MODULES]
        for layer, names in BOUNDARIES.items():
            home = importlib.import_module(f"heralded_qkd.{layer}")
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        counts, stack = self.counts, self._stack
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][0] != layer:
                counts[f"{layer}.entries"] += 1
            frame = [layer, key, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ZeroDivisionError:
                if key == KEY_RATE:
                    counts["keyrate.key_rate.invalid"] += 1
                raise
            finally:
                seconds = perf_counter() - t0
                stack.pop()
                counts[f"{key}.calls"] += 1
                counts[f"{key}.seconds"] += seconds
                counts[f"{key}.child_seconds"] += frame[2]
                if stack:
                    stack[-1][2] += seconds
            if key == KEY_RATE:
                if math.isnan(result.key_rate):
                    counts["keyrate.key_rate.invalid"] += 1
            elif key == OPTIMIZE:
                counts[f"{OPTIMIZE}.evaluations"] += result.evaluations
                counts[f"{OPTIMIZE}.unconverged"] += not result.converged
                if any(f[1] == TMIN for f in stack):
                    counts[f"{OPTIMIZE}.in_tmin"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def layer_metrics(counts: Counter) -> dict:
    """Per-layer metrics (name -> (value, unit)) from merged tracer counts."""
    def calls(key):
        return counts[f"{key}.calls"]

    def self_ms(key):
        return (counts[f"{key}.seconds"] - counts[f"{key}.child_seconds"]) * 1e3

    def per_call(key, scale):
        return counts[f"{key}.seconds"] * scale / calls(key) if calls(key) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    protocol_keys = [f"protocol.{n}" for n in BOUNDARIES["protocol"]]
    return {
        f"{OPTIMIZE}.calls": (calls(OPTIMIZE), "count"),
        f"{OPTIMIZE}.self_ms": (self_ms(OPTIMIZE), "ms"),
        f"{OPTIMIZE}.evaluations": (counts[f"{OPTIMIZE}.evaluations"], "count"),
        f"{OPTIMIZE}.evals_per_call": (ratio(counts[f"{OPTIMIZE}.evaluations"], calls(OPTIMIZE)), "count"),
        f"{OPTIMIZE}.unconverged": (counts[f"{OPTIMIZE}.unconverged"], "count"),
        f"{TMIN}.self_ms": (self_ms(TMIN), "ms"),
        f"{TMIN}.optimizations_per_solve": (ratio(counts[f"{OPTIMIZE}.in_tmin"], calls(TMIN)), "count"),
        "analysis.scan_key_rate.self_ms": (self_ms("analysis.scan_key_rate"), "ms"),
        f"{KEY_RATE}.calls": (calls(KEY_RATE), "count"),
        f"{KEY_RATE}.self_ms": (self_ms(KEY_RATE), "ms"),
        f"{KEY_RATE}.us_per_call": (per_call(KEY_RATE, 1e6), "us"),
        f"{KEY_RATE}.invalid_frac": (ratio(counts["keyrate.key_rate.invalid"], calls(KEY_RATE)), "fraction"),
        "keyrate.renormalized_key_rate.us_per_call": (per_call("keyrate.renormalized_key_rate", 1e6), "us"),
        "protocol.calls": (counts["protocol.entries"], "count"),
        "protocol.self_ms": (sum(self_ms(k) for k in protocol_keys), "ms"),
        "source_detector.poisson_pair_stats.calls": (calls("source_detector.poisson_pair_stats"), "count"),
        "source_detector.poisson_pair_stats.self_ms": (self_ms("source_detector.poisson_pair_stats"), "ms"),
        "source_detector.multiplexed_response.us_per_call": (
            per_call("source_detector.multiplexed_response", 1e6), "us"),
        "source_detector.brute_force_response.ms": (per_call("source_detector.brute_force_response", 1e3), "ms"),
        "cli.self_ms": (self_ms("cli.main"), "ms"),
    }


# --- cold-start probes, each in a fresh interpreter ---------------------------


def _python(args, env):
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True)


def import_times_ms(env) -> tuple[float, float]:
    """(numpy cumulative, heralded_qkd modules' own) import time from -X importtime."""
    stderr = _python(["-X", "importtime", "-c", "import heralded_qkd"], env).stderr
    numpy_us = own_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name = (part.strip() for part in line[12:].split("|"))
        if not self_us.isdigit():
            continue  # the header line
        if name == "numpy":
            numpy_us = int(cumulative_us)
        elif name.startswith("heralded_qkd"):
            own_us += int(self_us)
    return numpy_us / 1e3, own_us / 1e3


_COLD_CONSTANTS = """
import time
from heralded_qkd import BB84, SARG04
t0 = time.perf_counter()
for spec in (BB84, SARG04):
    spec.q_threshold, spec.xi, spec.i_ae_two
print((time.perf_counter() - t0) * 1e3)
"""


def constants_cold_ms(env) -> float:
    """First access of BB84/SARG04 q_threshold, xi and i_ae_two after import."""
    return float(_python(["-c", _COLD_CONSTANTS], env).stdout)


def startup_ms(env) -> float:
    """Wall time of an interpreter that only imports the CLI module."""
    t0 = time.perf_counter()
    _python(["-c", "import heralded_qkd.cli"], env)
    return (time.perf_counter() - t0) * 1e3


def read_snapshot(stderr: str) -> Counter:
    for line in reversed(stderr.splitlines()):
        if line.startswith(MARK):
            return Counter(json.loads(line[len(MARK):]))
    raise ValueError("traced CLI run wrote no trace line")


def main(argv) -> int:
    import workloads  # noqa: F401  (puts this checkout's src first on sys.path)
    from heralded_qkd import cli

    with Tracer() as tracer:
        try:
            return cli.main(argv)
        finally:
            sys.stdout.flush()
            print(MARK + json.dumps(tracer.counts), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
