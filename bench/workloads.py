"""The four benchmark workloads.

Each workload draws its ops from a pool of inputs recorded in data/ together
with the reference outputs of the commit that recorded them (see record.py).
The workload seed only chooses which pool entries each op uses and in which
order; the package receives nothing but the generated inputs.

A workload is run in rounds: a round is a fixed mix of ops, and a run always
measures whole rounds, so every run sees the same mix whatever its length.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace as Op

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import heralded_qkd  # noqa: E402
from heralded_qkd import analysis, keyrate, protocol  # noqa: E402
from heralded_qkd import source_detector as sd  # noqa: E402

if Path(heralded_qkd.__file__).resolve().parent != SRC / "heralded_qkd":
    raise ImportError(f"heralded_qkd imported from {heralded_qkd.__file__}, not from {SRC}")

# Library calls go through module attributes (analysis.scan_key_rate, ...)
# at call time, never through names bound at import, so that the tracer's
# boundary wrappers see the benchmark's own calls too.

T_RANGE = (1e-6, 0.5)


def passes(rng: random.Random, items):
    """Endless passes over items, each pass in a fresh seeded order.

    Every run then draws each pool entry about equally often, so runs with
    different seeds see nearly the same inputs in different orders.
    """
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def load(name: str):
    with open(DATA / f"{name}.json") as f:
        return json.load(f)


def detector(entry):
    """Detector params (None for WCP) and herald response of a pool entry."""
    if entry is None:
        return None, sd.wcp_response()
    stages, eta_a, dark_a, eta_c = entry
    params = sd.MultiplexedDetectorParams(
        stages=stages, eta_a=eta_a, dark_a=dark_a, eta_c=eta_c
    )
    return params, sd.multiplexed_response(params)


def t_grid(points: int) -> list[float]:
    lo, hi = T_RANGE
    return [float(t) for t in np.logspace(math.log10(lo), math.log10(hi), points)]


def _flags(*bits) -> int:
    return sum(1 << i for i, bit in enumerate(bits) if bit)


def _nan_to_none(x):
    return None if isinstance(x, float) and math.isnan(x) else x


def _none_to_nan(x):
    return math.nan if x is None else x


# --- scan_sweep ---------------------------------------------------------------


class ScanSweep:
    """One scan_key_rate curve per op over seeded detector configs."""

    name = "scan_sweep"
    # ops run in this process
    child_env = None
    tail = 90
    aliases = ("scan_points_per_s", "scan_curve_ms_p50", "scan_curve_ms_p90")
    # one 12-point, two 50-point and one 200-point curve per round: the
    # median falls mid-way into the 50-point class and p90 well inside the
    # 200-point one, away from the class edges where a percentile jumps
    ROUND = (12, 50, 50, 200)
    trace_rounds = 4

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.pool = {n: [] for n in self.ROUND}
        for entry in load(self.name):
            self.pool[entry["points"]].append(self.build(entry))
        self.draws = {n: passes(rng, ops) for n, ops in self.pool.items()}

    @staticmethod
    def build(entry):
        _, response = detector(entry["detector"])
        return Op(spec=protocol.get_protocol(entry["protocol"]), response=response,
                  dark_b=entry["dark_b"], t_grid=t_grid(entry["points"]), ref=entry.get("ref"))

    def next_round(self):
        return [next(self.draws[n]) for n in self.ROUND]

    @staticmethod
    def work(op) -> int:
        return len(op.t_grid)

    @staticmethod
    def run(op):
        return analysis.scan_key_rate(op.spec, op.response, op.dark_b, op.t_grid)

    @staticmethod
    def summarize(series):
        """Per point: [lambda_opt, p_exp, key_rate, flags]; None where invalid."""
        out = []
        for _, res in series.points:
            rep = res.report
            valid = rep is not None and not math.isnan(rep.key_rate)
            out.append([
                _nan_to_none(res.lambda_opt),
                rep.p_exp if rep is not None else None,
                rep.key_rate if valid else None,
                _flags(valid and rep.secure, valid and rep.pns_valid, res.converged),
            ])
        return out

    def check(self, op, series) -> bool:
        return self.compare(self.summarize(series), op.ref)

    @staticmethod
    def compare(points, ref) -> bool:
        if len(points) != len(ref):
            return False
        for (lam, p_exp, k, flags), (lam_r, p_exp_r, k_r, flags_r) in zip(points, ref):
            if (k is None) != (k_r is None):
                return False
            if not checks.all_close(
                [_none_to_nan(lam), _none_to_nan(p_exp)],
                [_none_to_nan(lam_r), _none_to_nan(p_exp_r)],
                [(checks.LAMBDA_TOL,)] * 2,
            ):
                return False
            if k is None:
                if flags != flags_r:
                    return False
                continue
            if not checks.key_rate_close(k, k_r, p_exp_r, checks.K_TOL):
                return False
            # secure and pns_valid may flip where K is within noise of zero
            mask = 0b100 if checks.near_zero(k_r, p_exp_r) else 0b111
            if flags & mask != flags_r & mask:
                return False
        return True

    @staticmethod
    def generate(rng: random.Random):
        """Pool inputs: 64 + 64 + 32 curves of the three lengths."""
        for points, count in ((12, 64), (50, 64), (200, 32)):
            for _ in range(count):
                yield dict(random_config(rng), points=points)

    @classmethod
    def record(cls, entry):
        return cls.summarize(cls.run(cls.build(entry)))


# Generated inputs keep 6 significant digits, which keeps the pools small.


def uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{rng.uniform(lo, hi):.6g}")


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(f"{10.0 ** rng.uniform(math.log10(lo), math.log10(hi)):.6g}")


def random_multiplexed(rng: random.Random):
    """[stages, eta_a, dark_a, eta_c]: binary (0 stages) or 1..5 stages."""
    return [rng.randint(0, 5), uniform(rng, 0.3, 0.9), log_uniform(rng, 1e-7, 1e-5),
            uniform(rng, 0.95, 1.0)]


def random_detector(rng: random.Random):
    """WCP (None), binary or multiplexed, each source kind equally likely."""
    return None if rng.randrange(7) == 0 else random_multiplexed(rng)


def random_config(rng: random.Random):
    return {
        "protocol": rng.choice(["bb84", "sarg04"]),
        "detector": random_detector(rng),
        "dark_b": log_uniform(rng, 1e-6, 1e-4),
    }


# --- tmin_search ----------------------------------------------------------------


class TminSearch:
    """One tmin_numerical solve per op, with its closed-form companions."""

    name = "tmin_search"
    # ops run in this process
    child_env = None
    tail = 90
    aliases = ("tmin_solves_per_s", "tmin_solve_ms_p50", "tmin_solve_ms_p90")
    TOLS = [(checks.TMIN_TOL,)] + [(checks.CONSTANT_TOL,)] * 4
    trace_rounds = 120

    def __init__(self, seed: int):
        self.pool = [self.build(entry) for entry in load(self.name)]
        self.draws = passes(random.Random(seed), self.pool)

    @staticmethod
    def build(entry):
        _, response = detector(entry["detector"])
        return Op(spec=protocol.get_protocol(entry["protocol"]), response=response,
                  dark_b=entry["dark_b"], ref=entry.get("ref"))

    def next_round(self):
        return [next(self.draws)]

    @staticmethod
    def work(op) -> int:
        return 1

    @staticmethod
    def run(op):
        t_wcp, lam_wcp = analysis.tmin_wcp(op.spec, op.dark_b)
        return [
            analysis.tmin_numerical(op.spec, op.response, op.dark_b),
            analysis.tmin_heralded(op.spec, op.response, op.dark_b),
            t_wcp,
            lam_wcp,
            analysis.lambda_opt_heralded(op.spec, op.response, op.dark_b),
        ]

    def check(self, op, values) -> bool:
        return checks.all_close(values, op.ref, self.TOLS)

    @staticmethod
    def generate(rng: random.Random):
        """Pool inputs: 512 configs on which tmin_numerical finds a sign change."""
        count = 0
        while count < 512:
            entry = random_config(rng)
            try:
                TminSearch.record(entry)
            except RuntimeError:
                continue
            count += 1
            yield entry

    @classmethod
    def record(cls, entry):
        return cls.run(cls.build(entry))


# --- point_eval ---------------------------------------------------------------


def _key_rate(*args):
    try:
        return keyrate.key_rate(*args)
    except ZeroDivisionError:
        return None


def _detector_calls(params):
    """multiplexed_response and the four figures of merit of one detector."""
    resp = sd.multiplexed_response(params)
    return (resp, sd.short_distance_factor(resp), sd.distance_factor(resp),
            sd.approx_distance_factor(params), sd.advantage_threshold(params.stages))


class PointEval:
    """Batches of independent scalar calls at seeded random inputs."""

    name = "point_eval"
    # ops run in this process
    child_env = None
    tail = 90
    aliases = ("point_calls_per_s", "point_batch_ms_p50", "point_batch_ms_p90")
    trace_rounds = 2000
    # pool entries of each kind per batch; a detector entry makes five calls
    BATCH = {"key_rate": 128, "renorm": 32, "pns": 32, "detectors": 16}
    CALLS = sum(BATCH.values()) + 4 * BATCH["detectors"]
    CALL = {
        "key_rate": _key_rate,
        "renorm": lambda *args: keyrate.renormalized_key_rate(*args),
        "pns": lambda *args: protocol.pns_applicable(*args),
        "detectors": _detector_calls,
    }

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.args, self.refs = {}, {}
        for kind, entries in load(self.name).items():
            n = self.BATCH[kind]
            # wrapped around, so that any offset gives a contiguous slice
            entries = entries + entries[:n]
            self.args[kind] = [self.build(kind, entry) for entry, _ in entries]
            self.refs[kind] = [ref for _, ref in entries]

    @staticmethod
    def build(kind, entry) -> tuple:
        if kind == "key_rate":
            name, lam, t, dark_b, det = entry
            return (protocol.get_protocol(name), sd.poisson_pair_stats(lam), detector(det)[1],
                    keyrate.ChannelParams(transmission=t, dark_b=dark_b))
        if kind == "detectors":
            return (detector(entry)[0],)
        name, q, y = entry
        return (protocol.get_protocol(name), q, y)

    def next_round(self):
        return [tuple(self.rng.randrange(len(self.args[kind]) - n) for kind, n in self.BATCH.items())]

    def work(self, op) -> int:
        return self.CALLS

    def run(self, op):
        return {kind: [self.CALL[kind](*args) for args in self.args[kind][offset:offset + n]]
                for (kind, n), offset in zip(self.BATCH.items(), op)}

    @staticmethod
    def plain(kind, out):
        """JSON-able output of one call."""
        if kind == "key_rate":
            if out is None:
                return None
            return [out.p_exp, out.qber, out.y, _nan_to_none(out.key_rate), out.pns_valid, out.secure]
        if kind == "renorm":
            return _nan_to_none(out)
        if kind == "pns":
            return out
        resp, *merits = out
        return [resp.q0, resp.q1, resp.q2, *merits]

    @classmethod
    def same(cls, kind, out, ref) -> bool:
        value = cls.plain(kind, out)
        if kind == "key_rate":
            if value is None or ref is None:
                return value is ref
            p_exp, qber, y, k, pns_valid, secure = value
            return (
                checks.all_close([p_exp, qber], ref[:2], [(checks.SCALAR_TOL,)] * 2)
                # y = 1 - p2 q2 / p_exp cancels as y -> 0
                and checks.close(y, ref[2], checks.SCALAR_TOL, checks.SCALAR_TOL)
                and (k is None) == (ref[3] is None)
                and (k is None or checks.key_rate_close(k, ref[3], ref[0], checks.SCALAR_TOL))
                and pns_valid == ref[4]
                and (secure == ref[5] or checks.near_zero(ref[3], ref[0]))
            )
        if kind == "renorm":
            # values of order p_sift, so an absolute floor at scalar precision
            return checks.close(_none_to_nan(value), _none_to_nan(ref), checks.SCALAR_TOL, checks.SCALAR_TOL)
        if kind == "pns":
            return value == ref
        return checks.all_close(value, ref, [(checks.SCALAR_TOL,)] * len(ref))

    def check(self, op, result) -> bool:
        return all(
            self.same(kind, out, ref)
            for (kind, n), offset in zip(self.BATCH.items(), op)
            for out, ref in zip(result[kind], self.refs[kind][offset:offset + n])
        )

    @staticmethod
    def generate(rng: random.Random):
        """Pool inputs of each kind."""
        def qy():
            return [rng.choice(["bb84", "sarg04"]), uniform(rng, 0.0, 0.25), uniform(rng, 0.3, 1.0)]

        return {
            "key_rate": [
                [rng.choice(["bb84", "sarg04"]), log_uniform(rng, 1e-4, 1.0),
                 log_uniform(rng, 1e-6, 1.0), log_uniform(rng, 1e-6, 1e-4), random_detector(rng)]
                for _ in range(1024)
            ],
            "renorm": [qy() for _ in range(512)],
            "pns": [qy() for _ in range(512)],
            "detectors": [random_multiplexed(rng) for _ in range(256)],
        }

    @classmethod
    def record(cls, pool):
        """[input, reference output] of every pool entry, one call at a time."""
        return {
            kind: [[entry, cls.plain(kind, cls.CALL[kind](*cls.build(kind, entry)))] for entry in entries]
            for kind, entries in pool.items()
        }


# --- cli_session ----------------------------------------------------------------

CONFIG = DATA / "cli_config.json"
_OPT = {c: (checks.LAMBDA_TOL, 0.0) for c in ("lambda_opt", "p_exp", "qber", "y")}
_OPT["key_rate"] = (checks.K_TOL, 0.0)
_PRINT = (checks.PRINT_TOL, 0.0)
_CONST = (checks.CONSTANT_TOL, 0.0)
_ORACLE = (0.0, checks.ORACLE_ABS)

# id -> (argv, column tolerances, comment tolerance); every other numeric
# column gets PRINT_TOL.  Seven cases are start-up bound; tmin and the two
# scans are slower, and tmin, the fastest of those, holds p75 mid-class.
CLI_CASES = {
    "threshold_bb84": (["threshold", "--protocol", "bb84"],
                       {"q_threshold": _CONST, "xi": _CONST}, _CONST),
    "threshold_sarg04": (["threshold", "--protocol", "sarg04", "--format", "json"],
                         {"q_threshold": _CONST, "xi": _CONST}, _CONST),
    "detector_oracle": (["detector", "--stages", "4", "--eta-a", "0.6", "--dark-a", "1e-6",
                         "--eta-c", "0.98", "--oracle"],
                        {f"delta_q{i}": _ORACLE for i in range(3)}, (checks.PRINT_TOL, checks.ORACLE_ABS)),
    "keyrate_lam": (["keyrate", "--protocol", "sarg04", "--source", "multiplexed", "--stages", "2",
                     "--eta-a", "0.7", "--dark-a", "1e-6", "--t", "0.01", "--dark-b", "1e-5",
                     "--lam", "0.05"],
                    {"key_rate": (checks.PRINT_TOL, 0.0)}, _PRINT),
    "keyrate_opt": (["keyrate", "--protocol", "bb84", "--source", "binary", "--eta-a", "0.6",
                     "--dark-a", "1e-6", "--t", "0.003", "--dark-b", "1e-5"], _OPT, _PRINT),
    "scan50": (["scan", "--protocol", "bb84", "--source", "multiplexed", "--stages", "3",
                "--eta-a", "0.6", "--dark-a", "1e-6", "--eta-c", "0.98", "--dark-b", "1e-5",
                "--t-min", "1e-5", "--t-max", "0.3", "--points", "50"], _OPT, _CONST),
    "tmin": (["tmin", "--protocol", "sarg04", "--source", "multiplexed", "--stages", "2",
              "--eta-a", "0.7", "--dark-a", "1e-6", "--dark-b", "1e-5"],
             {"tmin_numerical": (checks.TMIN_TOL, 0.0), **{
                 c: _CONST for c in ("tmin_single_photon", "tmin_wcp", "lambda_opt_wcp",
                                     "tmin_heralded", "lambda_opt_heralded")}}, _CONST),
    "contour_json": (["contour", "--protocol", "sarg04", "--format", "json"],
                     {"renormalized_key_rate": (checks.SCALAR_TOL, checks.SCALAR_TOL)}, _CONST),
    "compare_stages": (["compare-stages", "--eta-a-list", "0.5", "0.7", "0.9", "--dark-a", "1e-6",
                        "--dark-b", "1e-5", "--n-max", "5"], {}, _PRINT),
    "config_scan": (["scan", "--config", str(CONFIG.relative_to(ROOT))], _OPT, _CONST),
}


def child_env() -> dict:
    """Environment for package subprocesses: this checkout's src, BLAS threads capped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    nproc = str(os.cpu_count() or 1)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    return env


class CliSession:
    """CLI subprocess invocations, one at a time, from a fixed set."""

    name = "cli_session"
    # fewer than 100 invocations fit in a run, so the tail is p75
    tail = 75
    aliases = ("cli_invocations_per_s", "cli_invocation_ms_p50", "cli_invocation_ms_p75")
    trace_rounds = 3
    # when set, invocations run through the traced shim in tracer.py
    traced = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        refs = load(self.name)
        self.cases = [Op(id=case_id, argv=argv, tols=tols, comment_tol=ctol, ref=refs[case_id])
                      for case_id, (argv, tols, ctol) in CLI_CASES.items()]
        self.child_env = child_env()
        self.trace_snapshots = []

    def next_round(self):
        """Every case once per round, in seeded order."""
        return self.rng.sample(self.cases, len(self.cases))

    @staticmethod
    def work(op) -> int:
        return 1

    def command(self, op):
        if self.traced:
            return [sys.executable, str(BENCH / "tracer.py"), *op.argv]
        return [sys.executable, "-m", "heralded_qkd", *op.argv]

    def run(self, op):
        proc = subprocess.run(self.command(op), cwd=ROOT, env=self.child_env,
                              capture_output=True, text=True, timeout=120)
        if self.traced:
            self.trace_snapshots.append(proc.stderr)
        return proc.returncode, proc.stdout

    @staticmethod
    def check(op, result) -> bool:
        code, stdout = result
        return code == 0 and checks.cli_output_close(
            stdout, op.ref, op.tols, _PRINT, op.comment_tol)


WORKLOADS = {w.name: w for w in (ScanSweep, TminSearch, PointEval, CliSession)}

