"""Tests of the benchmark itself: reference checks catch wrong answers, the
tracer counts and restores, and the metric names match BENCHMARK.json.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest

import run
import tracer
import worker
import workloads
from heralded_qkd import analysis, keyrate


def scaled(x, factor):
    return x * factor if isinstance(x, float) else x


# --- a perturbed result counts as a failure ------------------------------------


@pytest.fixture(scope="module")
def scan():
    w = workloads.ScanSweep(seed=3)
    op = w.pool[12][0]
    return w, op, w.run(op)


def test_scan_reference_passes(scan):
    w, op, series = scan
    assert w.check(op, series)


@pytest.mark.parametrize("column, factor, ok", [
    (2, 1 + 1e-7, True),    # key rate within rel_tol
    (2, 1 + 1e-5, False),   # key rate off by 10 rel_tol
    (0, 1 + 1e-4, True),    # lambda within sqrt(rel_tol)
    (0, 1 + 1e-2, False),
])
def test_scan_perturbed_key_rate_or_lambda(scan, column, factor, ok):
    w, op, series = scan
    points = w.summarize(series)
    i = next(i for i, p in enumerate(points) if p[2] is not None and abs(p[2]) > 1e-3 * p[1])
    points[i][column] = scaled(points[i][column], factor)
    assert w.compare(points, op.ref) is ok


def test_scan_flipped_flag_fails(scan):
    w, op, series = scan
    points = w.summarize(series)
    points[0][3] ^= 0b100  # converged
    assert not w.compare(points, op.ref)


def test_tmin_tolerances():
    w = workloads.TminSearch(seed=3)
    op = w.pool[0]
    values = w.run(op)
    assert w.check(op, values)
    assert w.check(op, [values[0] * (1 + 1e-3), *values[1:]])
    assert not w.check(op, [values[0] * (1 + 1e-2), *values[1:]])
    assert not w.check(op, [*values[:1], values[1] * (1 + 1e-6), *values[2:]])


def test_point_batch_perturbed_report_fails():
    w = workloads.PointEval(seed=3)
    op = w.next_round()[0]
    result = w.run(op)
    assert w.check(op, result)
    reports = result["key_rate"]
    i = next(i for i, r in enumerate(reports) if r is not None and not math.isnan(r.key_rate))
    wrong = list(reports)
    wrong[i] = dataclasses.replace(reports[i], key_rate=reports[i].key_rate * (1 + 1e-9))
    assert not w.check(op, {**result, "key_rate": wrong})
    assert not w.check(op, {**result, "pns": [not result["pns"][0], *result["pns"][1:]]})


def _perturb_last_row(text, factor):
    """Scale the first decimal number of a CSV table's last row."""
    lines = text.splitlines()
    lines[-1] = re.sub(r"\d+\.\d+(e[-+]?\d+)?", lambda m: repr(float(m.group(0)) * factor),
                       lines[-1], count=1)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case_id", list(workloads.CLI_CASES))
def test_cli_reference_passes_and_perturbation_fails(case_id):
    w = workloads.CliSession(seed=3)
    op = next(c for c in w.cases if c.id == case_id)
    assert w.check(op, (0, op.ref))
    assert not w.check(op, (1, op.ref))
    if op.ref.lstrip().startswith("{"):
        payload = json.loads(op.ref)
        row = payload["rows"][-1]
        j = max(i for i, v in enumerate(row) if isinstance(v, float) and v != 0.0)
        row[j] *= 1.01
        wrong = json.dumps(payload, indent=2) + "\n"
    else:
        wrong = _perturb_last_row(op.ref, 1.01)
    assert not w.check(op, (0, wrong))


def test_cli_sentinel_change_fails():
    w = workloads.CliSession(seed=3)
    op = next(c for c in w.cases if c.id == "scan50")
    assert "insecure" in op.ref or "invalid" in op.ref
    wrong = op.ref.replace("invalid", "insecure", 1) if "invalid" in op.ref else op.ref.replace("insecure", "invalid", 1)
    assert not w.check(op, (0, wrong))


def test_measurement_counts_failed_ops():
    w = workloads.TminSearch(seed=3)
    rounds = [w.next_round() for _ in range(3)]
    real_run = w.run
    w.run = lambda op: [real_run(op)[0] * 1.1, *real_run(op)[1:]]
    m = worker.Measurement(w, rounds)
    assert (len(m.ops), m.failed) == (3, 3)


# --- tracer -----------------------------------------------------------------------


def test_tracer_restores_functions_and_counts_match_evaluations():
    originals = (analysis.optimize_lambda, analysis.key_rate, keyrate.key_rate)
    spec, r = workloads.protocol.BB84, workloads.sd.wcp_response()
    with tracer.Tracer() as t:
        assert analysis.key_rate is not originals[1]
        series = analysis.scan_key_rate(spec, r, 1e-5, [1e-3, 1e-2])
    assert (analysis.optimize_lambda, analysis.key_rate, keyrate.key_rate) == originals
    evaluations = sum(res.evaluations for _, res in series.points)
    assert t.counts["keyrate.key_rate.calls"] == evaluations
    assert t.counts["analysis.optimize_lambda.evaluations"] == evaluations
    layers = tracer.layer_metrics(t.counts)
    assert layers["analysis.optimize_lambda.calls"] == (2, "count")
    assert layers["protocol.calls"][0] > 0
    assert 0.0 <= layers["analysis.optimize_lambda.self_ms"][0]


def test_import_probe_parses_importtime():
    numpy_ms, own_ms = tracer.import_times_ms(workloads.child_env())
    assert numpy_ms > own_ms > 0.0


# --- contract -----------------------------------------------------------------------


def benchmark_json():
    with open(workloads.ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def test_metric_names_match_benchmark_json(monkeypatch):
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)
    w = workloads.PointEval(seed=3)
    timed = worker.timed_run(w, seconds=0.2)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {**{k: v[1] for k, v in timed["metrics"].items()}, "setup_s": "s"} == units
    monkeypatch.setattr(workloads.PointEval, "trace_rounds", 3)
    traced = worker.traced_run(w)
    assert traced["correct"]
    assert {k: v[1] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}


def test_run_refuses_without_package(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "PACKAGE", tmp_path / "missing" / "__init__.py")
    assert run.main(["--workload", "point_eval", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
