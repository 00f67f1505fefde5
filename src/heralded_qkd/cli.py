"""Command-line front end emitting machine-readable CSV/JSON plot data.

Subcommands: threshold, detector, keyrate, scan, tmin, contour,
compare-stages.  All numeric output uses 12 significant digits; insecure or
model-invalid cells are emitted as the explicit sentinels "insecure" and
"invalid" rather than empty fields.  Commands are deterministic: the same
configuration yields byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis
from .keyrate import ChannelParams, key_rate, renormalized_key_rate
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


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return INVALID
        return f"{x:.12g}"
    return str(x)


def _jsonable(x):
    if isinstance(x, float) and math.isnan(x):
        return INVALID
    return x


class CliError(Exception):
    """Configuration or validation failure; maps to a nonzero exit code."""


_SECTIONS = ("protocol", "detector", "channel", "solver", "output")

# applied after the config merge: an argparse default would block the
# config file's value
_DEFAULTS = {
    "protocol": "bb84",
    "q_min": 0.0, "q_max": 0.25, "q_points": 26,
    "y_min": 0.5, "y_max": 1.0, "y_points": 26,
}


def _load_config(path: str) -> dict:
    """Flat {key: value} of a config file's nested sections and top level."""
    try:
        with open(path) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise CliError(
            f"config {path} must hold a JSON object, got {type(cfg).__name__}"
        )
    flat = {}
    for section in _SECTIONS:
        if isinstance(cfg.get(section), dict):
            flat.update(cfg[section])
    flat.update(
        {k: v for k, v in cfg.items() if not (k in _SECTIONS and isinstance(v, dict))}
    )
    return flat


def _config_value(action: argparse.Action, key: str, value):
    """A config value checked and converted as its command-line flag would be."""
    if action.nargs == 0:
        if not isinstance(value, bool):
            raise CliError(f"config key {key!r}: expected true or false, got {value!r}")
        return value
    items = value if action.nargs == "+" else [value]
    if not isinstance(items, list) or not items:
        raise CliError(f"config key {key!r}: expected a nonempty list, got {value!r}")
    converted = []
    for item in items:
        if isinstance(item, bool) or not isinstance(item, (str, int, float)):
            raise CliError(f"config key {key!r}: invalid value {item!r}")
        try:
            # through the text form, so 2.5 is no more an int here than on
            # the command line
            item = action.type(str(item)) if action.type else str(item)
        except ValueError:
            raise CliError(
                f"config key {key!r}: invalid {action.type.__name__} value {item!r}"
            ) from None
        if action.choices is not None and item not in action.choices:
            raise CliError(
                f"config key {key!r}: {item!r} is not one of {sorted(action.choices)}"
            )
        converted.append(item)
    return converted if action.nargs == "+" else converted[0]


def _merge_config(args: argparse.Namespace, parser) -> argparse.Namespace:
    """Fill unset flags from the config file, checked like the flags themselves."""
    if not getattr(args, "config", None):
        return args
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    actions = {
        a.dest: a
        for a in subparsers.choices[args.command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    flat = _load_config(args.config)
    unknown = sorted(k for k in flat if k.replace("-", "_") not in actions)
    if unknown:
        raise CliError(
            f"unknown config key(s) for {args.command}: {', '.join(unknown)}"
        )
    for key, value in flat.items():
        action = actions[key.replace("-", "_")]
        value = _config_value(action, key, value)
        current = getattr(args, action.dest)
        if current is None or current is False:
            setattr(args, action.dest, value)
    return args


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"missing required option --{name.replace('_', '-')}")


def _build_response(args) -> HeraldResponse:
    source = args.source or "wcp"
    if source == "wcp":
        return wcp_response()
    if source == "custom":
        _require(args, "q0", "q1", "q2")
        return HeraldResponse(q0=args.q0, q1=args.q1, q2=args.q2)
    if source in ("binary", "multiplexed"):
        _require(args, "eta_a", "dark_a")
        stages = 0 if source == "binary" else (args.stages if args.stages is not None else 0)
        return multiplexed_response(
            MultiplexedDetectorParams(
                stages=stages,
                eta_a=args.eta_a,
                dark_a=args.dark_a,
                eta_c=args.eta_c if args.eta_c is not None else 1.0,
            )
        )
    raise CliError(f"unknown source kind {source!r}")


def _lambda_bounds(args) -> tuple[float, float]:
    upper = args.lambda_max if getattr(args, "lambda_max", None) is not None else 1.0
    return (1e-8, upper)


def _t_grid(args) -> list[float]:
    if getattr(args, "t", None) is not None:
        return [args.t]
    _require(args, "t_min", "t_max")
    points = args.points if args.points is not None else 50
    if points < 2:
        raise CliError(
            f"--points must be at least 2 for a T range, got {points} "
            f"(use --t for one T)"
        )
    if not 0.0 < args.t_min < args.t_max <= 1.0:
        raise CliError(
            f"T range must satisfy 0 < t_min < t_max <= 1, "
            f"got [{args.t_min}, {args.t_max}]"
        )
    return [
        float(t)
        for t in np.logspace(math.log10(args.t_min), math.log10(args.t_max), points)
    ]


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _emit_table(args, header: list[str], rows: list[list], comments: list[str]):
    """Write a table as CSV (with # comments) or JSON, same values either way."""
    fmt = args.format or "csv"
    if fmt == "csv":
        lines = [f"# {c}" for c in comments]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        _emit(args, "\n".join(lines) + "\n")
    else:
        payload = {
            "comments": comments,
            "columns": header,
            "rows": [[_jsonable(v) for v in row] for row in rows],
        }
        _emit(args, json.dumps(payload, indent=2) + "\n")


# --- subcommands -----------------------------------------------------------


def cmd_threshold(args) -> int:
    spec = get_protocol(args.protocol)
    header = ["protocol", "q_threshold", "xi", "i_ae_two", "p_sift"]
    rows = [[spec.name, spec.q_threshold, spec.xi, spec.i_ae_two, spec.p_sift]]
    _emit_table(args, header, rows, [f"protocol constants for {spec.name}"])
    return 0


def cmd_detector(args) -> int:
    _require(args, "eta_a", "dark_a")
    stages = args.stages if args.stages is not None else 0
    params = MultiplexedDetectorParams(
        stages=stages,
        eta_a=args.eta_a,
        dark_a=args.dark_a,
        eta_c=args.eta_c if args.eta_c is not None else 1.0,
    )
    r = multiplexed_response(params)
    header = [
        "q0", "q1", "q2", "short_distance_factor", "distance_factor",
        "advantage_threshold",
    ]
    dist = distance_factor(r) if r.q1 > 0.0 else math.nan
    row = [
        r.q0, r.q1, r.q2, short_distance_factor(r), dist,
        advantage_threshold(stages),
    ]
    comments = [
        f"stages={stages} eta_a={_fmt(params.eta_a)} dark_a={_fmt(params.dark_a)}"
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
    _emit_table(args, header, [row], comments)
    return 0


def _scan_row(t: float, res: analysis.OptimizationResult) -> list:
    if res.report is None or math.isnan(res.report.key_rate):
        return [t, res.lambda_opt, INVALID, INVALID, INVALID, INVALID,
                False, False]
    rep = res.report
    k = rep.key_rate if rep.secure else (INVALID if not rep.pns_valid else INSECURE)
    return [t, res.lambda_opt, rep.p_exp, rep.qber, rep.y, k,
            rep.secure, rep.pns_valid]


def cmd_keyrate(args) -> int:
    spec = get_protocol(args.protocol)
    r = _build_response(args)
    _require(args, "t", "dark_b")
    ch = ChannelParams(transmission=args.t, dark_b=args.dark_b)
    if args.lam is not None:
        rep = key_rate(spec, poisson_pair_stats(args.lam), r, ch)
        res = analysis.OptimizationResult(
            lambda_opt=args.lam, report=rep, converged=True, evaluations=1
        )
    else:
        res = analysis.optimize_lambda(spec, r, ch, bounds=_lambda_bounds(args))
    header = ["T", "lambda_opt", "p_exp", "qber", "y", "key_rate",
              "secure", "pns_valid"]
    _emit_table(args, header, [_scan_row(args.t, res)],
                [f"protocol={spec.name} dark_b={_fmt(args.dark_b)}"])
    return 0


def cmd_scan(args) -> int:
    spec = get_protocol(args.protocol)
    r = _build_response(args)
    _require(args, "dark_b")
    grid = _t_grid(args)
    series = analysis.scan_key_rate(
        spec, r, args.dark_b, grid, bounds=_lambda_bounds(args)
    )
    comments = [
        f"protocol={spec.name} source={args.source or 'wcp'} "
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
            if spec.i_ae_two - 2.0 * t > 0.0
        )
        comments.append(f"short_distance_approx T:K = {approx}")
    header = ["T", "lambda_opt", "p_exp", "qber", "y", "key_rate",
              "secure", "pns_valid"]
    rows = [_scan_row(t, res) for t, res in series.points]
    _emit_table(args, header, rows, comments)
    return 0


def cmd_tmin(args) -> int:
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
        analysis.tmin_numerical(spec, r, args.dark_b, bounds=_lambda_bounds(args)),
    ]
    _emit_table(args, header, [row],
                [f"protocol={spec.name} dark_b={_fmt(args.dark_b)}"])
    return 0


def cmd_contour(args) -> int:
    spec = get_protocol(args.protocol)
    if not (0.0 <= args.q_min < args.q_max <= 0.25):
        raise CliError("Q grid must lie within [0, 0.25]")
    if not (0.0 < args.y_min < args.y_max <= 1.0):
        raise CliError("y grid must lie within (0, 1]")
    for flag, points in (("--q-points", args.q_points), ("--y-points", args.y_points)):
        if points < 2:
            raise CliError(f"{flag} must be at least 2, got {points}")
    q_grid = np.linspace(args.q_min, args.q_max, args.q_points)
    y_grid = np.linspace(args.y_min, args.y_max, args.y_points)
    header = ["Q", "y", "renormalized_key_rate"]
    rows = []
    for q in q_grid:
        for y in y_grid:
            rows.append([float(q), float(y),
                         renormalized_key_rate(spec, float(q), float(y))])
    # the linearized security boundary Q = Q_th (1 - xi (1 - y))
    boundary = ",".join(
        f"{_fmt(float(y))}:{_fmt(spec.q_threshold * (1.0 - spec.xi * (1.0 - float(y))))}"
        for y in y_grid
    )
    comments = [
        f"protocol={spec.name} q_threshold={_fmt(spec.q_threshold)} xi={_fmt(spec.xi)}",
        f"linearized_bound y:Q = {boundary}",
    ]
    _emit_table(args, header, rows, comments)
    return 0


def cmd_compare_stages(args) -> int:
    spec = get_protocol(args.protocol)
    _require(args, "eta_a_list", "dark_a", "dark_b")
    eta_c = args.eta_c if args.eta_c is not None else 1.0
    n_max = args.n_max if args.n_max is not None else 5
    header = ["eta_a", "stages", "ratio_vs_binary", "is_optimal"]
    if args.fit:
        header.append("fitted_ratio_vs_binary")
    rows = []
    for eta_a in args.eta_a_list:
        binary = multiplexed_response(
            MultiplexedDetectorParams(stages=0, eta_a=eta_a, dark_a=args.dark_a,
                                      eta_c=eta_c)
        )
        base = short_distance_factor(binary)
        best_n = analysis.optimal_stage_count(eta_a, eta_c, args.dark_a, n_max)
        fitted_base = _fitted_prefactor(spec, binary, args) if args.fit else None
        for n in range(n_max + 1):
            r = multiplexed_response(
                MultiplexedDetectorParams(stages=n, eta_a=eta_a,
                                          dark_a=args.dark_a, eta_c=eta_c)
            )
            row = [eta_a, n, short_distance_factor(r) / base, n == best_n]
            if args.fit:
                row.append(_fitted_prefactor(spec, r, args) / fitted_base)
            rows.append(row)
    _emit_table(args, header, rows,
                [f"protocol={spec.name} eta_c={_fmt(eta_c)} "
                 f"dark_a={_fmt(args.dark_a)} n_max={n_max}"])
    return 0


def _fitted_prefactor(spec: ProtocolSpec, r: HeraldResponse, args) -> float:
    """Quadratic-model prefactor fitted to a numerically optimized scan."""
    grid = np.logspace(-3.5, -2, 12)
    series = analysis.scan_key_rate(spec, r, args.dark_b, grid)
    _, prefactor = analysis.fit_power_law(series)
    return prefactor


# --- argument parsing ------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--protocol", choices=sorted(PROTOCOLS))
    p.add_argument("--source", choices=["wcp", "binary", "multiplexed", "custom"])
    p.add_argument("--stages", type=int)
    p.add_argument("--eta-a", dest="eta_a", type=float)
    p.add_argument("--eta-c", dest="eta_c", type=float)
    p.add_argument("--dark-a", dest="dark_a", type=float)
    p.add_argument("--dark-b", dest="dark_b", type=float)
    p.add_argument("--q0", type=float)
    p.add_argument("--q1", type=float)
    p.add_argument("--q2", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--t-min", dest="t_min", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--lambda-max", dest="lambda_max", type=float)
    p.add_argument("--lam", type=float, help="fixed pump strength (skip optimization)")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--output")
    p.add_argument("--config", help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heralded-qkd",
        description="Key rates and secure-distance limits for BB84/SARG04 "
                    "with weak coherent pulses or heralded single-photon sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func in [
        ("threshold", cmd_threshold),
        ("detector", cmd_detector),
        ("keyrate", cmd_keyrate),
        ("scan", cmd_scan),
        ("tmin", cmd_tmin),
    ]:
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=func)

    p = sub.add_parser("contour")
    _add_common(p)
    p.add_argument("--q-min", dest="q_min", type=float)
    p.add_argument("--q-max", dest="q_max", type=float)
    p.add_argument("--q-points", dest="q_points", type=int)
    p.add_argument("--y-min", dest="y_min", type=float)
    p.add_argument("--y-max", dest="y_max", type=float)
    p.add_argument("--y-points", dest="y_points", type=int)
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("compare-stages")
    _add_common(p)
    p.add_argument("--eta-a-list", dest="eta_a_list", type=float, nargs="+")
    p.add_argument("--n-max", dest="n_max", type=int)
    p.add_argument("--fit", action="store_true")
    p.set_defaults(func=cmd_compare_stages)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, parser)
        for name, default in _DEFAULTS.items():
            if hasattr(args, name) and getattr(args, name) is None:
                setattr(args, name, default)
        return args.func(args)
    except (CliError, ValueError, ZeroDivisionError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
