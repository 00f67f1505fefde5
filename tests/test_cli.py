import argparse
import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heralded_qkd import analysis, cli
from heralded_qkd.cli import build_parser, main
from heralded_qkd.protocol import BB84, SARG04


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(rows))))


def exit_code(*argv):
    """Run the CLI; it must end in a result or in a one-line error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        # numpy's floating-point warnings would print beside the result
        warnings.simplefilter("error", RuntimeWarning)
        code = main([str(a) for a in argv])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
    return code


def assert_unread_rejected(capsys, tmp_path, argv, values, message):
    """argv runs; with values set by flag or by config key it fails with message.

    Returns argv's output.
    """
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    flags = [item for flag, value in values.items() for item in (f"--{flag}", value)]
    error = (1, "", f"error: {message}\n")
    assert run_cli(capsys, *argv, *flags) == error
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({k.replace("-", "_"): v for k, v in values.items()}))
    assert run_cli(capsys, *argv, "--config", str(cfg)) == error
    return plain


class TestThreshold:
    def test_bb84(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--protocol", "bb84")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["q_threshold"]) == pytest.approx(0.1100, abs=5e-4)
        assert float(row["xi"]) == pytest.approx(1.25, abs=0.01)
        assert float(row["i_ae_two"]) == 1.0
        assert float(row["p_sift"]) == 0.5

    def test_sarg04(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--protocol", "sarg04")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["q_threshold"]) == pytest.approx(0.0968, abs=5e-4)
        assert float(row["xi"]) == pytest.approx(0.64, abs=0.01)
        assert float(row["i_ae_two"]) == pytest.approx(0.6009, abs=1e-4)
        assert float(row["p_sift"]) == 0.25

    def test_unknown_protocol(self, capsys):
        with pytest.raises(SystemExit):
            main(["threshold", "--protocol", "b92"])


class TestDetector:
    def test_ideal_binary(self, capsys):
        code, out, _ = run_cli(
            capsys, "detector", "--stages", "0", "--eta-a", "1", "--dark-a", "0"
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert (float(row["q0"]), float(row["q1"]), float(row["q2"])) == (0, 1, 1)

    def test_oracle_deltas(self, capsys):
        code, out, _ = run_cli(
            capsys, "detector", "--stages", "3", "--eta-a", "0.6",
            "--dark-a", "1e-6", "--eta-c", "0.98", "--oracle",
        )
        assert code == 0
        row = parse_csv(out)[0]
        for col in ("delta_q0", "delta_q1", "delta_q2"):
            assert float(row[col]) < 1e-12

    def test_validation_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "detector", "--stages", "0", "--eta-a", "2", "--dark-a", "0"
        )
        assert code == 1
        assert "error" in err

    def test_json_infinity_is_standard(self, capsys, monkeypatch):
        # no multiplexed detector has q2 = 0 < q1, where q1**2/q2 is
        # infinite, so an infinite factor stands in; JSON has no token for it
        monkeypatch.setattr(cli, "short_distance_factor", lambda r: math.inf)
        argv = ["detector", "--eta-a", "0", "--dark-a", "0"]
        _, out, _ = run_cli(capsys, *argv, "--format", "json")

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        row = json.loads(out, parse_constant=reject)["rows"][0]
        assert row[3:5] == ["inf", "invalid"]
        _, out, _ = run_cli(capsys, *argv)
        assert out.splitlines()[-1] == "0,0,0,inf,invalid,1"

    def test_never_heralding_detector_has_no_factor(self, capsys):
        # q1 = q2 = 0 makes q1**2/q2 the undefined 0/0, as distance_factor
        argv = ["detector", "--stages", "0", "--eta-a", "0", "--dark-a", "0"]
        _, out, _ = run_cli(capsys, *argv)
        assert out.splitlines()[-1] == "0,0,0,invalid,invalid,1"


class TestKeyrate:
    def test_zero_lambda_max_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "keyrate", "--t", "0.01", "--dark-b", "1e-5",
            "--lambda-max", "0",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "bounds" in err

    @pytest.mark.parametrize("lambda_max", ["inf", "1.7976931348623157e308"])
    def test_overflowing_lambda_max_rejected(self, lambda_max):
        assert exit_code("keyrate", "--t", "0.01", "--dark-b", "1e-5",
                         "--lambda-max", lambda_max) == 1

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_pump_strength_rejected(self, capsys, lam):
        code, out, err = run_cli(
            capsys, "keyrate", "--t", "0.01", "--dark-b", "1e-5", "--lam", lam,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "pump strength" in err

    def test_single_evaluation(self, capsys):
        code, out, _ = run_cli(
            capsys, "keyrate", "--protocol", "bb84", "--source", "wcp",
            "--t", "0.1", "--dark-b", "1e-5", "--lam", "0.1",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["p_exp"]) == pytest.approx(0.01000414, abs=1e-6)
        assert row["secure"] == "true"

    def test_optimizes_without_lam(self, capsys):
        code, out, _ = run_cli(
            capsys, "keyrate", "--source", "binary", "--eta-a", "0.6",
            "--dark-a", "1e-6", "--t", "0.01", "--dark-b", "1e-5",
        )
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["key_rate"]) > 0

    def test_fixed_lam_rejects_lambda_max(self, capsys, tmp_path):
        argv = ["keyrate", "--t", "0.01", "--dark-b", "1e-5", "--lam", "0.1"]
        plain = assert_unread_rejected(capsys, tmp_path, argv, {"lambda-max": "0.5"},
                                       "a fixed --lam does not read --lambda-max")
        assert run_cli(capsys, *argv, "--lambda-max", "1") == (0, plain, "")

    def test_zero_detection_reported_invalid(self, capsys):
        argv = ["keyrate", "--source", "binary", "--eta-a", "0", "--dark-a", "0",
                "--t", "0.1", "--dark-b", "0"]
        for extra, lam in (["--lam", "0.1"], "0.1"), ([], "invalid"):
            code, out, _ = run_cli(capsys, *argv, *extra)
            assert code == 0
            assert out.splitlines()[-1] == (
                f"0.1,{lam},invalid,invalid,invalid,invalid,false,false"
            )

    def test_binary_source_has_no_stages(self, capsys, tmp_path):
        argv = ["keyrate", "--source", "binary", "--eta-a", "0.6",
                "--dark-a", "1e-6", "--t", "0.01", "--dark-b", "1e-5"]
        _, plain, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--stages", "0")
        assert (code, out) == (0, plain)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"stages": 4}))
        for extra in (["--stages", "4"], ["--config", str(cfg)]):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert code == 1
            assert out == ""
            assert err == ("error: a binary source has no stages, got 4 "
                           "(use --source multiplexed)\n")


class TestSourceFlags:
    """A source flag the chosen --source does not read is an error."""

    PLAIN = ["keyrate", "--t", "0.01", "--dark-b", "1e-5"]
    DETECTOR = {"stages": "4", "eta-a": "0.3", "dark-a": "0.5", "eta-c": "0.9"}
    CUSTOM = {"q0": "0.2", "q1": "0.5", "q2": "0.1"}
    UNREAD = {"wcp": {**DETECTOR, **CUSTOM}, "custom": DETECTOR,
              "binary": CUSTOM, "multiplexed": CUSTOM}

    @pytest.mark.parametrize("source, flag", [
        (source, flag) for source, flags in UNREAD.items() for flag in flags
    ])
    def test_unread_flag_and_key_rejected(self, capsys, tmp_path, source, flag):
        argv = [*self.PLAIN, "--source", source]
        for name, value in SOURCE_VALID[source].items():
            argv += [f"--{name}", str(value)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        message = f"error: a {source} source does not read --{flag}\n"
        code, out, err = run_cli(capsys, *argv, f"--{flag}", self.UNREAD[source][flag])
        assert (code, out, err) == (1, "", message)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({flag.replace("-", "_"): self.UNREAD[source][flag]}))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out, err) == (1, "", message)

    @pytest.mark.parametrize("command", ["keyrate", "scan", "tmin"])
    def test_every_unread_flag_named(self, capsys, command):
        argv = [command, "--source", "wcp", "--stages", "4", "--eta-a", "0.3",
                "--dark-a", "0.5", "--q0", "0.2", "--t", "0.01", "--dark-b", "1e-5"]
        if command == "tmin":
            argv.remove("--t")
            argv.remove("0.01")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == ("error: a wcp source does not read --stages, --eta-a, "
                       "--dark-a, --q0\n")

    def test_unset_values_accepted(self, capsys):
        _, plain, _ = run_cli(capsys, *self.PLAIN)
        code, out, _ = run_cli(capsys, *self.PLAIN, "--stages", "0", "--eta-c", "1")
        assert (code, out) == (0, plain)


class TestScan:
    ARGS = [
        "scan", "--protocol", "bb84", "--source", "binary", "--eta-a", "0.6",
        "--dark-a", "1e-6", "--dark-b", "1e-5",
        "--t-min", "1e-4", "--t-max", "1e-2", "--points", "8",
    ]

    def test_column_contract(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS)
        assert code == 0
        header = next(
            line for line in out.splitlines() if not line.startswith("#")
        )
        assert header == "T,lambda_opt,p_exp,qber,y,key_rate,secure,pns_valid"
        assert any("tmin" in line for line in out.splitlines() if line.startswith("#"))

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_csv_json_same_values(self, capsys):
        _, out_csv, _ = run_cli(capsys, *self.ARGS)
        _, out_json, _ = run_cli(capsys, *self.ARGS, "--format", "json")
        rows = parse_csv(out_csv)
        payload = json.loads(out_json)
        assert payload["columns"] == list(rows[0].keys())
        for csv_row, json_row in zip(rows, payload["rows"]):
            for col, json_val in zip(payload["columns"], json_row):
                if isinstance(json_val, float):
                    assert float(csv_row[col]) == pytest.approx(
                        json_val, rel=1e-11
                    )

    def test_csv_round_trip_12_digits(self, capsys):
        _, out, _ = run_cli(capsys, *self.ARGS)
        for row in parse_csv(out):
            for col in ("T", "p_exp", "key_rate"):
                value = row[col]
                if value in ("insecure", "invalid"):
                    continue
                assert f"{float(value):.12g}" == value

    def test_insecure_sentinel(self, capsys):
        # scan well below the minimum transmission: all points insecure
        code, out, _ = run_cli(
            capsys, "scan", "--source", "wcp", "--dark-b", "1e-5",
            "--t-min", "1e-5", "--t-max", "1e-4", "--points", "3",
        )
        assert code == 0
        for row in parse_csv(out):
            assert row["secure"] == "false"
            assert row["key_rate"] in ("insecure", "invalid")

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "scan.csv"
        code, out, _ = run_cli(capsys, *self.ARGS, "--output", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("#")

    def test_output_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, *self.ARGS, "--output", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_range(self, capsys):
        code, _, err = run_cli(
            capsys, "scan", "--source", "wcp", "--dark-b", "1e-5",
            "--t-min", "0.5", "--t-max", "0.1",
        )
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("points", ["1", "0", "-3"])
    def test_range_needs_two_points(self, capsys, points):
        code, out, err = run_cli(
            capsys, "scan", "--source", "wcp", "--dark-b", "1e-5",
            "--t-min", "1e-3", "--t-max", "1e-2", "--points", points,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: --points must be at least 2")

    @pytest.mark.parametrize("values, named", [
        ({"points": "7"}, "--points"),
        ({"t-min": "1e-3", "t-max": "0.1"}, "--t-min, --t-max"),
        ({"t-min": "1e-3", "t-max": "0.1", "points": "1"},
         "--t-min, --t-max, --points"),
    ], ids=["points", "range", "all"])
    def test_single_t_rejects_range_flags(self, capsys, tmp_path, values, named):
        argv = ["scan", "--source", "wcp", "--dark-b", "1e-5", "--t", "0.01"]
        plain = assert_unread_rejected(capsys, tmp_path, argv, values,
                                       f"a single --t does not read {named}")
        assert [r["T"] for r in parse_csv(plain)] == ["0.01"]
        assert run_cli(capsys, *argv, "--points", "50") == (0, plain, "")


class TestTmin:
    def test_binary_detector(self, capsys):
        code, out, _ = run_cli(
            capsys, "tmin", "--protocol", "bb84", "--source", "binary",
            "--eta-a", "0.6", "--dark-a", "1e-6", "--dark-b", "1e-5",
        )
        assert code == 0
        row = parse_csv(out)[0]
        analytic = float(row["tmin_heralded"])
        numerical = float(row["tmin_numerical"])
        assert analytic == pytest.approx(numerical, rel=0.15)
        assert float(row["tmin_wcp"]) > analytic


class TestContour:
    def test_bb84_origin_cell(self, capsys):
        code, out, _ = run_cli(
            capsys, "contour", "--protocol", "bb84",
            "--q-min", "0", "--q-max", "0.25", "--q-points", "6",
            "--y-min", "0.5", "--y-max", "1", "--y-points", "6",
        )
        assert code == 0
        rows = parse_csv(out)
        origin = next(r for r in rows if r["Q"] == "0" and r["y"] == "1")
        assert float(origin["renormalized_key_rate"]) == 0.5

    def test_sarg_blanking_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "contour", "--protocol", "sarg04",
            "--q-min", "0", "--q-max", "0.25", "--q-points", "11",
            "--y-min", "0.5", "--y-max", "1", "--y-points", "2",
        )
        assert code == 0
        rows = [r for r in parse_csv(out) if r["y"] == "0.5"]
        # blanked cells appear once Q/y crosses the applicability boundary
        markers = [r["renormalized_key_rate"] == "invalid" for r in rows]
        assert any(markers)
        boundary_ratio = next(
            float(r["Q"]) / 0.5 for r, m in zip(rows, markers) if m
        )
        from heralded_qkd.protocol import eve_info_single

        assert eve_info_single(SARG04, boundary_ratio) >= SARG04.i_ae_two * 0.99

    def test_linearized_line_through_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "contour", "--protocol", "bb84")
        assert code == 0
        line = next(l for l in out.splitlines() if "linearized_bound" in l)
        last_pair = line.split("=")[1].strip().split(",")[-1]
        y, q = (float(v) for v in last_pair.split(":"))
        assert y == 1.0
        assert q == pytest.approx(BB84.q_threshold, rel=1e-9)

    def test_grid_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "contour", "--q-min", "0", "--q-max", "0.4"
        )
        assert code == 1

    @pytest.mark.parametrize("flag", ["--q-points", "--y-points"])
    @pytest.mark.parametrize("points", ["1", "0"])
    def test_grid_needs_two_points(self, capsys, flag, points):
        code, out, err = run_cli(capsys, "contour", flag, points)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag} must be at least 2")


class TestCompareStages:
    def test_argmax_stage_counts(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare-stages", "--protocol", "bb84",
            "--eta-a-list", "0.4", "0.8", "--eta-c", "0.98",
            "--dark-a", "1e-6", "--dark-b", "1e-5", "--n-max", "5",
        )
        assert code == 0
        rows = parse_csv(out)
        best = {
            (row["eta_a"], row["stages"])
            for row in rows if row["is_optimal"] == "true"
        }
        assert ("0.4", "3") in best
        assert ("0.8", "4") in best

    def test_never_heralding_stages_are_not_optimal(self, capsys):
        # at dark_a = 1 every bin of a tree of 2 or more bins always fires,
        # so those stage counts never herald (q1 = q2 = 0)
        code, out, _ = run_cli(
            capsys, "compare-stages", "--eta-a-list", "0.5", "--dark-a", "1",
            "--n-max", "2",
        )
        assert code == 0
        rows = [(row["ratio_vs_binary"], row["is_optimal"]) for row in parse_csv(out)]
        assert rows == [("1", "true"), ("invalid", "false"), ("invalid", "false")]

    def test_fitted_ratio_close_to_analytic(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare-stages", "--eta-a-list", "0.6", "--eta-c", "0.98",
            "--dark-a", "1e-6", "--dark-b", "1e-5", "--n-max", "3", "--fit",
        )
        assert code == 0
        row = next(r for r in parse_csv(out) if r["stages"] == "3")
        assert float(row["fitted_ratio_vs_binary"]) == pytest.approx(
            float(row["ratio_vs_binary"]), rel=0.10
        )

    @pytest.mark.parametrize("dark_b", ["nan", "-5"])
    def test_dark_b_checked_without_fit(self, capsys, dark_b):
        code, out, err = run_cli(
            capsys, "compare-stages", "--eta-a-list", "0.6", "--dark-a", "1e-6",
            f"--dark-b={dark_b}",
        )
        assert (code, out) == (1, "")
        assert err == f"error: dark_b must be in [0, 1), got {float(dark_b)}\n"

    def test_dark_b_optional_without_fit(self, capsys):
        flags = ("compare-stages", "--eta-a-list", "0.6", "--dark-a", "1e-6")
        code, out, err = run_cli(capsys, *flags)
        assert (code, err) == (0, "")
        assert run_cli(capsys, *flags, "--dark-b", "1e-5") == (0, out, "")

    def test_dark_b_required_with_fit(self, capsys):
        code, out, err = run_cli(
            capsys, "compare-stages", "--eta-a-list", "0.6", "--dark-a", "1e-6",
            "--n-max", "1", "--fit",
        )
        assert (code, out) == (1, "")
        assert err == "error: missing required option --dark-b\n"
        code, out, err = run_cli(
            capsys, "compare-stages", "--eta-a-list", "0.6", "--dark-a", "1e-6",
            "--n-max", "1", "--fit", "--dark-b", "nan",
        )
        assert (code, out, err) == (1, "", "error: dark_b must be in [0, 1), got nan\n")


    def test_one_fit_per_stage(self, capsys, monkeypatch):
        fits = []
        scan = analysis.scan_key_rate

        def counting_scan(*args, **kwargs):
            fits.append(args[1])
            return scan(*args, **kwargs)

        monkeypatch.setattr(analysis, "scan_key_rate", counting_scan)
        code, _, _ = run_cli(
            capsys, "compare-stages", "--eta-a-list", "0.4", "0.8",
            "--dark-a", "1e-6", "--dark-b", "1e-5", "--n-max", "2", "--fit",
        )
        assert code == 0
        # stages 0..2 for each of the two efficiencies, stage 0 included once
        assert len(fits) == 2 * 3


class TestConfigFile:
    def test_nested_config_sections(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "protocol": {"protocol": "bb84"},
            "detector": {"source": "binary", "eta_a": 0.6, "dark_a": 1e-6},
            "channel": {"dark_b": 1e-5, "t": 0.01},
        }))
        code, out, _ = run_cli(capsys, "keyrate", "--config", str(cfg))
        assert code == 0
        assert float(parse_csv(out)[0]["key_rate"]) > 0

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"channel": {"dark_b": 1e-5, "t": 0.01}}))
        _, out_base, _ = run_cli(
            capsys, "keyrate", "--source", "wcp", "--config", str(cfg)
        )
        _, out_override, _ = run_cli(
            capsys, "keyrate", "--source", "wcp", "--config", str(cfg),
            "--t", "0.05",
        )
        assert float(parse_csv(out_override)[0]["T"]) == 0.05
        assert out_base != out_override

    def test_config_selects_protocol(self, capsys, tmp_path):
        cfg = tmp_path / "sarg.json"
        cfg.write_text(json.dumps({"protocol": {"protocol": "sarg04"}}))
        code, out, _ = run_cli(capsys, "threshold", "--config", str(cfg))
        assert code == 0
        assert parse_csv(out)[0]["protocol"] == "sarg04"
        # a flag still overrides the config
        _, out, _ = run_cli(
            capsys, "threshold", "--config", str(cfg), "--protocol", "bb84"
        )
        assert parse_csv(out)[0]["protocol"] == "bb84"

    def test_benchmark_config_keys(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "detector": {"source": "multiplexed", "stages": 2, "eta_a": 0.8,
                         "dark_a": 1e-06, "eta_c": 0.97},
            "channel": {"dark_b": 2e-05, "t_min": 1e-03, "t_max": 0.1,
                        "points": 3},
            "output": {"format": "json"},
        }))
        code, from_config, _ = run_cli(capsys, "scan", "--config", str(cfg))
        _, from_flags, _ = run_cli(
            capsys, "scan", "--source", "multiplexed", "--stages", "2",
            "--eta-a", "0.8", "--dark-a", "1e-06", "--eta-c", "0.97",
            "--dark-b", "2e-05", "--t-min", "1e-03", "--t-max", "0.1",
            "--points", "3", "--format", "json",
        )
        assert code == 0
        assert from_config == from_flags

    def test_values_convert_like_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"source": "wcp", "dark_b": "1e-5", "t": 0.01}))
        code, from_config, _ = run_cli(capsys, "keyrate", "--config", str(cfg))
        _, from_flags, _ = run_cli(
            capsys, "keyrate", "--source", "wcp", "--dark-b", "1e-5", "--t", "0.01"
        )
        assert code == 0
        assert from_config == from_flags

    def test_defaulted_and_boolean_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"q_points": 3, "y_points": 2}))
        _, from_config, _ = run_cli(capsys, "contour", "--config", str(cfg))
        _, from_flags, _ = run_cli(
            capsys, "contour", "--q-points", "3", "--y-points", "2"
        )
        assert from_config == from_flags
        # a flag still overrides the config
        _, out, _ = run_cli(
            capsys, "contour", "--config", str(cfg), "--q-points", "4"
        )
        assert len(parse_csv(out)) == 8
        cfg.write_text(json.dumps({"stages": 1, "eta_a": 0.6, "dark_a": 1e-6,
                                   "oracle": True}))
        code, out, _ = run_cli(capsys, "detector", "--config", str(cfg))
        assert code == 0
        assert "delta_q0" in out

    @pytest.mark.parametrize("config, message", [
        ({"dark_b": "abc"}, "config key 'dark_b': invalid float value"),
        ({"stages": 2.5}, "config key 'stages': invalid int value"),
        ({"stages": True}, "config key 'stages': invalid value"),
        ({"dark_b": [1e-5]}, "config key 'dark_b': invalid value"),
        ({"format": "xml"}, "config key 'format': 'xml' is not one of"),
        ({"oracle": "yes"}, "config key 'oracle': expected true or false"),
        ({"bogus_key": 3, "channel": {"t": 0.1}}, "unknown config key(s) for "
                                                   "keyrate: bogus_key"),
        ({"n_max": 3}, "unknown config key(s) for keyrate: n_max"),
        ({"detector": "binary"}, "unknown config key(s) for keyrate: detector"),
        ({"a\nb": 1}, "unknown config key(s) for keyrate: 'a\\nb'"),
    ])
    def test_bad_config(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        # --oracle is a detector flag; keyrate rejects it as an unknown key
        argv = (["detector", "--eta-a", "0.6", "--dark-a", "1e-6"] if "oracle" in config
                else ["keyrate", "--source", "wcp", "--t", "0.01", "--dark-b", "1e-5"])
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("text, message", [
        ('{"detector": {"dark_b": 1e-3}, "channel": {"dark-b": 2e-5}, '
         '"dark_b": 3e-5}', "config sets dark_b twice, as 'dark_b' and 'dark-b'"),
        ('{"dark-b": 2e-5, "channel": {"dark_b": 1e-5}}',
         "config sets dark_b twice, as 'dark_b' and 'dark-b'"),
        ('{"channel": {"dark_b": 1e-5, "dark_b": 1e-3}}',
         "config key 'dark_b' appears twice in one object"),
    ], ids=["across_sections", "top_level_and_section", "one_object"])
    def test_repeated_key(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "tmin", "--config", str(cfg))
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_top_level_list(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps([{"dark_b": 1e-5}]))
        code, _, err = run_cli(capsys, "threshold", "--config", str(cfg))
        assert code == 1
        assert err == f"error: config {cfg} must hold a JSON object, got list\n"

    def test_missing_config(self, capsys):
        code, _, err = run_cli(
            capsys, "keyrate", "--source", "wcp", "--config", "/nonexistent.json"
        )
        assert code == 1


class TestIntegerFlags:
    """Any integer count reaches the user as a result or a one-line error."""

    def test_stage_bound(self, capsys):
        base = ("detector", "--eta-a", "0.6", "--dark-a", "1e-6")
        assert run_cli(capsys, *base, "--stages", "1023")[0] == 0
        code, _, err = run_cli(capsys, *base, "--stages", "2000")
        assert code == 1
        assert err == "error: stages must be an integer in [0, 1023], got 2000\n"

    @settings(max_examples=60, deadline=None)
    @given(st.integers())
    def test_stages(self, stages):
        exit_code("detector", "--eta-a", "0.6", "--dark-a", "1e-6",
                       "--stages", stages)

    # point counts above the cap are tested in test_point_cap
    @settings(max_examples=30, deadline=None)
    @given(st.integers(max_value=8))
    @example(1)
    def test_scan_points(self, points):
        code = exit_code("scan", "--source", "wcp", "--dark-b", "1e-5",
                              "--t-min", "1e-3", "--t-max", "1e-2",
                              "--points", points)
        assert code == (0 if points >= 2 else 1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(max_value=40), st.integers(max_value=40))
    def test_contour_points(self, q_points, y_points):
        code = exit_code("contour", "--q-points", q_points,
                              "--y-points", y_points)
        assert code == (0 if min(q_points, y_points) >= 2 else 1)

    @pytest.mark.parametrize("argv, message", [
        (["scan", "--source", "wcp", "--dark-b", "1e-5", "--t-min", "1e-3",
          "--t-max", "1e-2", "--points", "1000001"],
         "--points must be at most 1000000, got 1000001"),
        (["scan", "--source", "wcp", "--dark-b", "1e-5", "--t-min", "1e-3",
          "--t-max", "1e-2", "--points", str(10**30)],
         f"--points must be at most 1000000, got {10**30}"),
        (["contour", "--q-points", "1001", "--y-points", "1000"],
         "--q-points x --y-points must be at most 1000000, got 1001 x 1000"),
        (["contour", "--q-points", "2", "--y-points", "500001"],
         "--q-points x --y-points must be at most 1000000, got 2 x 500001"),
    ])
    def test_point_cap(self, capsys, argv, message):
        # a count above the cap is rejected before any grid is built
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


_SOURCE = {"source", "stages", "eta-a", "eta-c", "dark-a", "q0", "q1", "q2"}
_IO = {"format", "output", "config"}

# the flags each subcommand reads, and so accepts
READS = {
    "threshold": {"protocol"} | _IO,
    "detector": {"stages", "eta-a", "eta-c", "dark-a", "oracle"} | _IO,
    "keyrate": {"protocol", "dark-b", "t", "lam", "lambda-max"} | _SOURCE | _IO,
    "scan": {"protocol", "dark-b", "t", "t-min", "t-max", "points", "lambda-max"}
            | _SOURCE | _IO,
    "tmin": {"protocol", "dark-b", "lambda-max"} | _SOURCE | _IO,
    "contour": {"protocol", "q-min", "q-max", "q-points", "y-min", "y-max",
                "y-points"} | _IO,
    "compare-stages": {"protocol", "eta-a-list", "eta-c", "dark-a", "dark-b",
                       "n-max", "fit"} | _IO,
}

# a value for each flag that every subcommand used to accept (None: a switch)
OLD_COMMON = {
    "protocol": "bb84", "source": "wcp", "stages": "1", "eta-a": "0.5",
    "eta-c": "0.9", "dark-a": "1e-6", "dark-b": "1e-5", "q0": "0.1",
    "q1": "0.5", "q2": "0.2", "t": "0.01", "t-min": "1e-3", "t-max": "0.1",
    "points": "3", "lambda-max": "0.5", "lam": "0.05", "oracle": None,
    "format": "csv", "output": "out.csv",
}

# command lines that together take every branch that reads a flag
READ_CASES = {
    "threshold": [["threshold"]],
    "detector": [["detector", "--eta-a", "0.6", "--dark-a", "1e-6"]],
    "keyrate": [
        ["keyrate", "--source", "custom", "--q0", "1e-6", "--q1", "0.5",
         "--q2", "0.3", "--t", "0.01", "--dark-b", "1e-5", "--lam", "0.05"],
        ["keyrate", "--source", "binary", "--eta-a", "0.6", "--dark-a", "1e-6",
         "--t", "0.01", "--dark-b", "1e-5"],
    ],
    "scan": [
        ["scan", "--source", "custom", "--q0", "1e-6", "--q1", "0.5",
         "--q2", "0.3", "--t", "0.01", "--dark-b", "1e-5"],
        ["scan", "--source", "binary", "--eta-a", "0.6", "--dark-a", "1e-6",
         "--dark-b", "1e-5", "--t-min", "1e-3", "--t-max", "1e-2", "--points", "2"],
    ],
    "tmin": [
        ["tmin", "--source", "custom", "--q0", "1e-6", "--q1", "0.5", "--q2", "0.3",
         "--dark-b", "1e-5"],
        ["tmin", "--source", "binary", "--eta-a", "0.6", "--dark-a", "1e-6",
         "--dark-b", "1e-5"],
    ],
    "contour": [["contour", "--q-points", "2", "--y-points", "2"]],
    "compare-stages": [["compare-stages", "--eta-a-list", "0.6", "--dark-a", "1e-6",
                        "--dark-b", "1e-5", "--n-max", "1"]],
}


class _ReadRecorder(argparse.Namespace):
    """A namespace that notes the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        self._read = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


def _subparsers():
    parser = build_parser()
    return next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices


class TestFlagTable:
    def test_each_subcommand_takes_the_flags_it_reads(self):
        flags = {
            name: {a.option_strings[0][2:] for a in sub._actions
                   if a.option_strings and a.dest != "help"}
            for name, sub in _subparsers().items()
        }
        assert flags == READS
        assert sum(len(f) for f in flags.values()) == 80

    @pytest.mark.parametrize("command", sorted(READS))
    def test_command_reads_every_flag(self, capsys, command):
        read = {"config"}  # read by main
        for argv in READ_CASES[command]:
            args = build_parser().parse_args(argv, namespace=_ReadRecorder())
            args._read = set()
            assert args.func(args) == 0
            read |= args._read - {"func"}
        capsys.readouterr()
        assert read == {flag.replace("-", "_") for flag in READS[command]}

    @pytest.mark.parametrize("command, flag", [
        (command, flag)
        for command in sorted(READS)
        for flag in sorted(OLD_COMMON.keys() - READS[command])
    ])
    def test_unread_flag_and_key_rejected(self, capsys, tmp_path, command, flag):
        value = OLD_COMMON[flag]
        argv = [command, f"--{flag}"] + ([] if value is None else [value])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the subcommand's usage, which lists the flags it takes
        assert err.startswith(f"usage: heralded-qkd {command} [-h]")
        assert f"heralded-qkd {command}: error: unrecognized arguments: --{flag}" in err
        cfg = tmp_path / "run.json"
        key = flag.replace("-", "_")
        cfg.write_text(json.dumps({key: True if value is None else value}))
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert (code, out) == (1, "")
        assert err == f"error: unknown config key(s) for {command}: {key}\n"


# values that take each subcommand past validation; the properties replace
# some of them.  Point counts stay small so each example runs in milliseconds.
VALID = {
    "threshold": {},
    "detector": {"stages": 2, "eta-a": 0.6, "dark-a": 1e-6},
    "keyrate": {"t": 0.01, "dark-b": 1e-5},
    "scan": {"dark-b": 1e-5, "t-min": 1e-3, "t-max": 0.1, "points": 3},
    "tmin": {"dark-b": 1e-5},
    "contour": {"q-points": 3, "y-points": 3},
    "compare-stages": {"eta-a-list": [0.6], "dark-a": 1e-6, "dark-b": 1e-5,
                       "n-max": 1},
}

# and the source flags each source kind reads
SOURCE_VALID = {
    "wcp": {},
    "custom": {"q0": 1e-6, "q1": 0.6, "q2": 0.3},
    "binary": {"eta-a": 0.6, "dark-a": 1e-6},
    "multiplexed": {"stages": 2, "eta-a": 0.6, "dark-a": 1e-6},
}

FLOAT_FLAGS = {
    "detector": ["eta-a", "eta-c", "dark-a"],
    "keyrate": ["eta-a", "eta-c", "dark-a", "q0", "q1", "q2", "t", "dark-b",
                "lam", "lambda-max"],
    "scan": ["eta-a", "eta-c", "dark-a", "q0", "q1", "q2", "t", "t-min", "t-max",
             "dark-b", "lambda-max"],
    "tmin": ["eta-a", "eta-c", "dark-a", "q0", "q1", "q2", "dark-b", "lambda-max"],
    "contour": ["q-min", "q-max", "y-min", "y-max"],
    "compare-stages": ["eta-a-list", "eta-c", "dark-a", "dark-b"],
}

COUNTS = {"stages", "points", "q-points", "y-points", "n-max"}

_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.floats().map(repr) | st.text(max_size=5))
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
# a count from a config must not ask for a long run: small integers, and
# text without digits
_count_values = (st.integers(max_value=3) | st.floats() | st.booleans()
                 | st.none() | st.text(alphabet="abe.-+ ", max_size=4)
                 | st.lists(st.integers(max_value=3), max_size=2))


def _flag_argv(values):
    argv = []
    for flag, value in values.items():
        for item in value if isinstance(value, list) else [value]:
            # "--flag=value" keeps a value such as -inf from reading as a flag
            argv.append(f"--{flag}={item!r}")
    return argv


class TestInputProperties:
    """Any float flag or config value ends in a result or a one-line error."""

    @pytest.mark.parametrize("command", sorted(FLOAT_FLAGS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_float_flags(self, command, data):
        floats = data.draw(st.dictionaries(
            st.sampled_from(FLOAT_FLAGS[command]), st.floats(), max_size=3
        ))
        valid, extra = VALID[command], []
        if "source" in READS[command]:
            source = data.draw(st.sampled_from(sorted(SOURCE_VALID)))
            valid = {**valid, **SOURCE_VALID[source]}
            extra += ["--source", source]
        if command == "compare-stages" and data.draw(st.booleans()):
            extra.append("--fit")
        exit_code(command, *_flag_argv({**valid, **floats}), *extra)

    @pytest.mark.parametrize("command", sorted(READS))
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_config_values(self, command, data):
        # output names a file to write, so it is left out
        keys = sorted(READS[command] - {"config", "output"})
        config = data.draw(st.fixed_dictionaries({}, optional={
            key: _count_values if key in COUNTS else _json_values for key in keys
        }))
        valid = VALID[command]
        if "source" in READS[command]:
            source = data.draw(st.sampled_from(sorted(SOURCE_VALID)))
            valid = {**valid, "source": source, **SOURCE_VALID[source]}
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "run.json"
            cfg.write_text(json.dumps({**valid, **config}))
            exit_code(command, "--config", cfg)
