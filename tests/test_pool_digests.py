"""Bit-identity gate: digests of the package's outputs on the benchmark pools.

Reads the pool inputs in bench/data (and writes nothing there).  A change
meant to keep every output bit leaves both digests as they are; one that
moves a single T_min, lambda_opt, key rate or p_exp anywhere in the pools
changes them.  Each digest is the first 16 hex digits of the sha256 of
newline-joined float.hex() lines.
"""

import hashlib
import json
import math
from pathlib import Path

from heralded_qkd import analysis
from heralded_qkd.protocol import get_protocol
from heralded_qkd.source_detector import (
    MultiplexedDetectorParams,
    multiplexed_response,
    wcp_response,
)

DATA = Path(__file__).resolve().parent.parent / "bench" / "data"


def pool(name):
    with open(DATA / f"{name}.json") as f:
        return json.load(f)


def response(detector):
    """The herald response of a pool entry's detector (None for WCP)."""
    if detector is None:
        return wcp_response()
    stages, eta_a, dark_a, eta_c = detector
    return multiplexed_response(MultiplexedDetectorParams(
        stages=stages, eta_a=eta_a, dark_a=dark_a, eta_c=eta_c))


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def test_tmin_pool_digest():
    # tmin_numerical over the 512 tmin_search configs, in file order
    lines = [float(analysis.tmin_numerical(
        get_protocol(e["protocol"]), response(e["detector"]), e["dark_b"])).hex()
        for e in pool("tmin_search")]
    assert len(lines) == 512
    assert digest(lines) == "8175a1767e55219a"


def test_scan_pool_digest():
    # every scan_sweep config over a CPU-independent grid of its point count
    # on the benchmark's T range [1e-6, 0.5]
    lines, evaluations = [], 0
    for e in pool("scan_sweep"):
        t_grid = analysis._log_grid(math.log10(1e-6), math.log10(0.5), e["points"])
        series = analysis.scan_key_rate(
            get_protocol(e["protocol"]), response(e["detector"]), e["dark_b"], t_grid)
        for t, res in series.points:
            p_exp = "none" if res.report is None else float(res.report.p_exp).hex()
            lines.append(" ".join((float(t).hex(), float(res.lambda_opt).hex(),
                                   float(res.key_rate).hex(), p_exp, str(res.converged))))
            evaluations += res.evaluations
    assert digest(lines) == "8866c0144840bb20"
    assert evaluations == 41_462
