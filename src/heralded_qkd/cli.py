"""Command-line front end emitting machine-readable CSV/JSON plot data.

Subcommands: threshold, detector, keyrate, scan, tmin, contour,
compare-stages.  CSV output uses 12 significant digits, JSON the full repr;
insecure or model-invalid cells are emitted as the explicit sentinels
"insecure" and "invalid" rather than empty fields.  Commands are
deterministic: the same configuration yields byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence

from . import analysis
from .keyrate import ChannelParams, KeyRateReport, key_rate, renormalized_key_rate
from .protocol import PROTOCOLS, ProtocolSpec, get_protocol
from .source_detector import (
    HeraldResponse,
    MultiplexedDetectorParams,
    advantage_threshold,
    brute_force_response,
    distance_factor,
    multiplexed_response,
    poisson_pair_stats,
    short_distance_factor,
    wcp_response,
)

INSECURE = "insecure"
INVALID = "invalid"
_MAX_CELLS = 10**6  # rows of a scan or contour table; more would run for hours


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return INVALID
        return f"{x:.12g}"
    return str(x)


def _jsonable(x):
    # as in CSV: NaN is "invalid", an infinity "inf" or "-inf"
    if isinstance(x, float) and not math.isfinite(x):
        return _fmt(x)
    return x


class CliError(Exception):
    """Configuration or validation failure; maps to a nonzero exit code."""


_SECTIONS = ("protocol", "detector", "channel", "solver", "output")


def _unique_keys(pairs: list[tuple]) -> dict:
    """A JSON object that names no key twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise CliError(f"config key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def _load_config(path: str) -> dict:
    """{dest: (key, value)} of a config file's nested sections and top level.

    Each dest is set by at most one key, whatever its section or spelling.
    """
    try:
        with open(path) as f:
            cfg = json.load(f, object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(
            f"config {path} must hold a JSON object, got {type(cfg).__name__}"
        )
    sections = [cfg[s] for s in _SECTIONS if isinstance(cfg.get(s), dict)]
    top = {k: v for k, v in cfg.items() if not (k in _SECTIONS and isinstance(v, dict))}
    flat = {}
    for part in (*sections, top):
        for key, value in part.items():
            dest = key.replace("-", "_")
            if dest in flat:
                raise CliError(
                    f"config sets {dest} twice, as {flat[dest][0]!r} and {key!r}"
                )
            flat[dest] = key, value
    return flat


def _config_value(flag: str, key: str, value):
    """A config value checked and converted as its command-line flag would be."""
    spec = _FLAGS[flag]
    if spec.get("action") == "store_true":
        if not isinstance(value, bool):
            raise CliError(f"config key {key!r}: expected true or false, got {value!r}")
        return value
    many = spec.get("nargs") == "+"
    items = value if many else [value]
    if not isinstance(items, list) or not items:
        raise CliError(f"config key {key!r}: expected a nonempty list, got {value!r}")
    converted = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise CliError(f"config key {key!r}: invalid value {item!r}")
        convert = spec.get("type", str)
        try:
            # through the text form, so 2.5 is no more an int here than on
            # the command line
            item = convert(str(item))
        except ValueError:
            raise CliError(
                f"config key {key!r}: invalid {convert.__name__} value {item!r}"
            ) from None
        if "choices" in spec and item not in spec["choices"]:
            raise CliError(
                f"config key {key!r}: {item!r} is not one of {sorted(spec['choices'])}"
            )
        converted.append(item)
    return converted if many else converted[0]


def _parse(parser: argparse.ArgumentParser, argv) -> argparse.Namespace:
    """Parse argv; an unknown flag is reported with its subcommand's usage."""
    args, extras = parser.parse_known_args(argv)
    if extras:
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _apply_config(args: argparse.Namespace) -> None:
    """Make the config file's values the subcommand's defaults, below its flags."""
    flags = {flag.replace("-", "_"): flag
             for flag in _COMMANDS[args.command][1] if flag != "config"}
    flat = _load_config(args.config)
    unknown = sorted(key for dest, (key, _) in flat.items() if dest not in flags)
    if unknown:
        # repr keeps a key with a line break on the error's one line
        names = ", ".join(k if k.isprintable() else repr(k) for k in unknown)
        raise CliError(f"unknown config key(s) for {args.command}: {names}")
    args.parser.set_defaults(**{
        dest: _config_value(flags[dest], key, value)
        for dest, (key, value) in flat.items()
    })


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise CliError(f"missing required option --{name.replace('_', '-')}")


def _detector_params(args) -> MultiplexedDetectorParams:
    _require(args, "eta_a", "dark_a")
    return MultiplexedDetectorParams(
        stages=args.stages, eta_a=args.eta_a, dark_a=args.dark_a, eta_c=args.eta_c
    )


def _reject_unread(args, branch: str, flags) -> None:
    """Fail unless each flag the branch does not read keeps its unset value."""
    unread = [
        f"--{flag}"
        for flag in flags
        if getattr(args, flag.replace("-", "_")) != _FLAGS[flag].get("default")
    ]
    if unread:
        raise CliError(f"{branch} does not read {', '.join(unread)}")


# per source kind, the source flags it does not read
_DETECTOR_FLAGS = ("stages", "eta-a", "dark-a", "eta-c")
_CUSTOM_FLAGS = ("q0", "q1", "q2")
_UNREAD_BY_SOURCE = {
    "wcp": _DETECTOR_FLAGS + _CUSTOM_FLAGS, "custom": _DETECTOR_FLAGS,
    "binary": _CUSTOM_FLAGS, "multiplexed": _CUSTOM_FLAGS,
}


def _build_response(args) -> HeraldResponse:
    _reject_unread(args, f"a {args.source} source", _UNREAD_BY_SOURCE[args.source])
    if args.source == "wcp":
        return wcp_response()
    if args.source == "custom":
        _require(args, "q0", "q1", "q2")
        return HeraldResponse(q0=args.q0, q1=args.q1, q2=args.q2)
    if args.source == "binary" and args.stages != 0:
        raise CliError(
            f"a binary source has no stages, got {args.stages} "
            f"(use --source multiplexed)"
        )
    return multiplexed_response(_detector_params(args))


def _t_grid(args) -> list[float]:
    if args.t is not None:
        _reject_unread(args, "a single --t", ("t-min", "t-max", "points"))
        return [args.t]
    _require(args, "t_min", "t_max")
    if args.points < 2:
        raise CliError(
            f"--points must be at least 2 for a T range, got {args.points} "
            f"(use --t for one T)"
        )
    if args.points > _MAX_CELLS:
        raise CliError(f"--points must be at most {_MAX_CELLS}, got {args.points}")
    if not 0.0 < args.t_min < args.t_max <= 1.0:
        raise CliError(
            f"T range must satisfy 0 < t_min < t_max <= 1, "
            f"got [{args.t_min}, {args.t_max}]"
        )
    return analysis._log_grid(math.log10(args.t_min), math.log10(args.t_max), args.points)


def _emit_table(args, header: Sequence[str], rows: list[list], comments: list[str]):
    """Write a table as CSV (with # comments) or JSON, same values either way,
    to --output or stdout."""
    if args.format == "csv":
        lines = [f"# {c}" for c in comments]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "comments": comments,
            "columns": header,
            "rows": [[_jsonable(v) for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands: each returns (header, rows, comments) for main to write --


def cmd_threshold(args) -> tuple:
    spec = get_protocol(args.protocol)
    header = ["protocol", "q_threshold", "xi", "i_ae_two", "p_sift"]
    rows = [[spec.name, spec.q_threshold, spec.xi, spec.i_ae_two, spec.p_sift]]
    return header, rows, [f"protocol constants for {spec.name}"]


def cmd_detector(args) -> tuple:
    params = _detector_params(args)
    r = multiplexed_response(params)
    header = [
        "q0", "q1", "q2", "short_distance_factor", "distance_factor",
        "advantage_threshold",
    ]
    dist = distance_factor(r) if r.q1 > 0.0 else math.nan
    row = [
        r.q0, r.q1, r.q2, short_distance_factor(r), dist,
        advantage_threshold(args.stages),
    ]
    comments = [
        f"stages={args.stages} eta_a={_fmt(params.eta_a)} dark_a={_fmt(params.dark_a)}"
        f" eta_c={_fmt(params.eta_c)}"
    ]
    if args.oracle:
        deltas = [
            abs(q - brute_force_response(params, n))
            for n, q in enumerate((r.q0, r.q1, r.q2))
        ]
        header += ["delta_q0", "delta_q1", "delta_q2"]
        row += deltas
        comments.append(f"oracle max |delta q| = {_fmt(max(deltas))}")
    return header, [row], comments


_SCAN_HEADER = ("T", "lambda_opt", "p_exp", "qber", "y", "key_rate",
                "secure", "pns_valid")


def _scan_row(t: float, lam: float, rep: KeyRateReport | None) -> list:
    if rep is None or math.isnan(rep.key_rate):
        return [t, lam, INVALID, INVALID, INVALID, INVALID, False, False]
    k = rep.key_rate if rep.secure else (INVALID if not rep.pns_valid else INSECURE)
    return [t, lam, rep.p_exp, rep.qber, rep.y, k, rep.secure, rep.pns_valid]


def cmd_keyrate(args) -> tuple:
    spec = get_protocol(args.protocol)
    r = _build_response(args)
    _require(args, "t", "dark_b")
    ch = ChannelParams(transmission=args.t, dark_b=args.dark_b)
    if args.lam is not None:
        _reject_unread(args, "a fixed --lam", ("lambda-max",))
        row = _scan_row(args.t, args.lam,
                        key_rate(spec, poisson_pair_stats(args.lam), r, ch))
    else:
        res = analysis.optimize_lambda(spec, r, ch, args.lambda_max)
        row = _scan_row(args.t, res.lambda_opt, res.report)
    return _SCAN_HEADER, [row], [f"protocol={spec.name} dark_b={_fmt(args.dark_b)}"]


def cmd_scan(args) -> tuple:
    spec = get_protocol(args.protocol)
    r = _build_response(args)
    _require(args, "dark_b")
    grid = _t_grid(args)
    series = analysis.scan_key_rate(spec, r, args.dark_b, grid, args.lambda_max)
    comments = [
        f"protocol={spec.name} source={args.source} "
        f"dark_b={_fmt(args.dark_b)} q0={_fmt(r.q0)} q1={_fmt(r.q1)} q2={_fmt(r.q2)}",
    ]
    if r.q1 > 0.0:
        comments.append(
            f"tmin_heralded={_fmt(analysis.tmin_heralded(spec, r, args.dark_b))}"
        )
    tmin_c, _ = analysis.tmin_wcp(spec, args.dark_b)
    comments.append(
        f"tmin_single_photon={_fmt(analysis.tmin_single_photon(spec, args.dark_b))}"
        f" tmin_wcp={_fmt(tmin_c)}"
    )
    if r.q2 > 0.0:
        approx = ",".join(
            f"{_fmt(t)}:{_fmt(analysis.short_distance_approx_rate(spec, r, t))}"
            for t in grid
            if analysis._short_distance_penalty(spec, t) > 0.0
        )
        comments.append(f"short_distance_approx T:K = {approx}")
    rows = [_scan_row(t, res.lambda_opt, res.report) for t, res in series.points]
    return _SCAN_HEADER, rows, comments


def cmd_tmin(args) -> tuple:
    spec = get_protocol(args.protocol)
    r = _build_response(args)
    _require(args, "dark_b")
    tmin_c, lam_c = analysis.tmin_wcp(spec, args.dark_b)
    header = ["tmin_single_photon", "tmin_wcp", "lambda_opt_wcp",
              "tmin_heralded", "lambda_opt_heralded", "tmin_numerical"]
    lam_h = analysis.lambda_opt_heralded(spec, r, args.dark_b) if r.q2 > 0 else math.nan
    row = [
        analysis.tmin_single_photon(spec, args.dark_b),
        tmin_c,
        lam_c,
        analysis.tmin_heralded(spec, r, args.dark_b),
        lam_h,
        analysis.tmin_numerical(spec, r, args.dark_b, args.lambda_max),
    ]
    return header, [row], [f"protocol={spec.name} dark_b={_fmt(args.dark_b)}"]


def cmd_contour(args) -> tuple:
    spec = get_protocol(args.protocol)
    if not (0.0 <= args.q_min < args.q_max <= 0.25):
        raise CliError("Q grid must lie within [0, 0.25]")
    if not (0.0 < args.y_min < args.y_max <= 1.0):
        raise CliError("y grid must lie within (0, 1]")
    for flag, points in (("--q-points", args.q_points), ("--y-points", args.y_points)):
        if points < 2:
            raise CliError(f"{flag} must be at least 2, got {points}")
    if args.q_points * args.y_points > _MAX_CELLS:
        raise CliError(f"--q-points x --y-points must be at most {_MAX_CELLS}, "
                       f"got {args.q_points} x {args.y_points}")
    q_grid = analysis._linear_grid(args.q_min, args.q_max, args.q_points)
    y_grid = analysis._linear_grid(args.y_min, args.y_max, args.y_points)
    header = ["Q", "y", "renormalized_key_rate"]
    rows = [[q, y, renormalized_key_rate(spec, q, y)] for q in q_grid for y in y_grid]
    # the linearized security boundary Q = Q_th (1 - xi (1 - y))
    boundary = ",".join(
        f"{_fmt(y)}:{_fmt(spec.q_threshold * (1.0 - spec.xi * (1.0 - y)))}"
        for y in y_grid
    )
    comments = [
        f"protocol={spec.name} q_threshold={_fmt(spec.q_threshold)} xi={_fmt(spec.xi)}",
        f"linearized_bound y:Q = {boundary}",
    ]
    return header, rows, comments


def cmd_compare_stages(args) -> tuple:
    spec = get_protocol(args.protocol)
    _require(args, "eta_a_list", "dark_a")
    if args.fit:
        _require(args, "dark_b")  # only --fit reads dark_b
    if args.dark_b is not None:
        ChannelParams(1.0, args.dark_b)  # its range check
    header = ["eta_a", "stages", "ratio_vs_binary", "is_optimal"]
    if args.fit:
        header.append("fitted_ratio_vs_binary")
    rows = []
    for eta_a in args.eta_a_list:
        best_n = analysis.optimal_stage_count(
            eta_a, args.eta_c, args.dark_a, args.n_max
        )
        # stage 0, the binary detector, is the base of every ratio
        responses = [
            multiplexed_response(
                MultiplexedDetectorParams(stages=n, eta_a=eta_a,
                                          dark_a=args.dark_a, eta_c=args.eta_c)
            )
            for n in range(args.n_max + 1)
        ]
        factors = [short_distance_factor(r) for r in responses]
        if args.fit:
            fitted = [_fitted_prefactor(spec, r, args.dark_b) for r in responses]
        for n in range(args.n_max + 1):
            row = [eta_a, n, factors[n] / factors[0], n == best_n]
            if args.fit:
                row.append(fitted[n] / fitted[0])
            rows.append(row)
    return header, rows, [f"protocol={spec.name} eta_c={_fmt(args.eta_c)} "
                          f"dark_a={_fmt(args.dark_a)} n_max={args.n_max}"]


def _fitted_prefactor(
    spec: ProtocolSpec, r: HeraldResponse, dark_b: float
) -> float:
    """Quadratic-model prefactor fitted to a numerically optimized scan."""
    grid = analysis._log_grid(-3.5, -2.0, 12)
    series = analysis.scan_key_rate(spec, r, dark_b, grid)
    _, prefactor = analysis.fit_power_law(series)
    return prefactor


# --- argument parsing ------------------------------------------------------


# Every flag of every subcommand, with its one definition: flag name ->
# add_argument keywords.  A flag without a default reads None when unset.
_FLAGS = {
    "protocol": {"choices": sorted(PROTOCOLS), "default": "bb84"},
    "source": {"choices": ["wcp", "binary", "multiplexed", "custom"],
               "default": "wcp"},
    "stages": {"type": int, "default": 0},
    "eta-a": {"type": float},
    "eta-c": {"type": float, "default": 1.0},
    "dark-a": {"type": float},
    "dark-b": {"type": float},
    "q0": {"type": float},
    "q1": {"type": float},
    "q2": {"type": float},
    "t": {"type": float},
    "t-min": {"type": float},
    "t-max": {"type": float},
    "points": {"type": int, "default": 50},
    "lambda-max": {"type": float, "default": analysis.DEFAULT_LAMBDA_MAX},
    "lam": {"type": float, "help": "fixed pump strength (skip optimization)"},
    "oracle": {"action": "store_true"},
    "q-min": {"type": float, "default": 0.0},
    "q-max": {"type": float, "default": 0.25},
    "q-points": {"type": int, "default": 26},
    "y-min": {"type": float, "default": 0.5},
    "y-max": {"type": float, "default": 1.0},
    "y-points": {"type": int, "default": 26},
    "eta-a-list": {"type": float, "nargs": "+"},
    "n-max": {"type": int, "default": 5},
    "fit": {"action": "store_true"},
    "format": {"choices": ["csv", "json"], "default": "csv"},
    "output": {},
    "config": {"help": "JSON config file; flags override it"},
}

_SOURCE = ("source", "stages", "eta-a", "eta-c", "dark-a", "q0", "q1", "q2")
_IO = ("format", "output", "config")

# subcommand -> (handler, exactly the flags it reads)
_COMMANDS = {
    "threshold": (cmd_threshold, ("protocol", *_IO)),
    "detector": (cmd_detector,
                 ("stages", "eta-a", "eta-c", "dark-a", "oracle", *_IO)),
    "keyrate": (cmd_keyrate,
                ("protocol", *_SOURCE, "dark-b", "t", "lam", "lambda-max", *_IO)),
    "scan": (cmd_scan,
             ("protocol", *_SOURCE, "dark-b", "t", "t-min", "t-max", "points",
              "lambda-max", *_IO)),
    "tmin": (cmd_tmin, ("protocol", *_SOURCE, "dark-b", "lambda-max", *_IO)),
    "contour": (cmd_contour,
                ("protocol", "q-min", "q-max", "q-points", "y-min", "y-max",
                 "y-points", *_IO)),
    "compare-stages": (cmd_compare_stages,
                       ("protocol", "eta-a-list", "eta-c", "dark-a", "dark-b",
                        "n-max", "fit", *_IO)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heralded-qkd",
        description="Key rates and secure-distance limits for BB84/SARG04 "
                    "with weak coherent pulses or heralded single-photon sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, flags) in _COMMANDS.items():
        # no prefix matching: "--lam" must not pass for "--lambda-max"
        p = sub.add_parser(name, allow_abbrev=False)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(func=func, parser=p)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = _parse(parser, argv)
    try:
        if args.config:
            _apply_config(args)
            args = _parse(parser, argv)
        _emit_table(args, *args.func(args))
    except (CliError, ValueError, ZeroDivisionError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
