"""Comparison of benchmark outputs with the recorded reference outputs.

Every tolerance is tied to the tolerance of the solver that produced the
number, so that a correct rewrite (vectorized, re-bracketed, arithmetic in
another order) passes and a wrong answer counts as a failed op.
"""

from __future__ import annotations

import json
import math
import re

# optimize_lambda refines lambda to rel_tol = 1e-6 (its default).  The key
# rate is flat in lambda at the optimum, so the optimized rate is pinned to
# that tolerance, while lambda itself, and p_exp, qber and y, which move with
# it to first order, are pinned only to sqrt(rel_tol).
K_TOL = 1e-6
LAMBDA_TOL = math.sqrt(K_TOL)
# tmin_numerical bisects T to rel_tol = 1e-3 (its default).
TMIN_TOL = 2 * 1e-3
# q_threshold and xi are bisection roots to 1e-12 absolute, and xi divides a
# difference of roots by eps = 1e-4, so closed forms built on them agree to
# about 1e-8 between two correct root finders.
CONSTANT_TOL = 1e-7
# Scalar arithmetic: near machine precision.
SCALAR_TOL = 1e-12
# The CLI prints 12 significant digits: one unit in the last place.
PRINT_TOL = 2e-11
# K = p_exp * p_sift * (a difference of information terms of order 1), so its
# rounding error scales with p_exp, not with K.  Within this band times p_exp
# of zero the sign of K, and with it the secure/insecure verdict, is noise.
ZERO_BAND = 1e-12
# The closed-form vs enumeration deltas of `detector --oracle` are rounding
# noise; they only have to stay that small.
ORACLE_ABS = 1e-12


def close(a, b, rel: float, abs_tol: float = 0.0) -> bool:
    """Equal within tolerance for floats (NaN equals NaN); exact otherwise."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)
    return type(a) is type(b) and a == b


def all_close(values, refs, tols) -> bool:
    """Element-wise `close` with one (rel, abs) pair per element."""
    return len(values) == len(refs) and all(
        close(v, r, *tol) for v, r, tol in zip(values, refs, tols)
    )


def near_zero(k, p_exp) -> bool:
    return isinstance(k, float) and isinstance(p_exp, float) and abs(k) <= ZERO_BAND * p_exp


def key_rate_close(k, k_ref, p_exp_ref, rel: float) -> bool:
    if not isinstance(p_exp_ref, float):
        return close(k, k_ref, rel)
    return close(k, k_ref, rel, ZERO_BAND * p_exp_ref)


# --- CLI output -------------------------------------------------------------

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _json_cell(x):
    # CSV cells parse as floats, so JSON integers compare as floats too
    return float(x) if isinstance(x, int) and not isinstance(x, bool) else x


def parse_table(text: str):
    """(comments, columns, rows) of a table printed by the CLI as CSV or JSON."""
    if text.lstrip().startswith("{"):
        payload = json.loads(text)
        rows = [[_json_cell(v) for v in row] for row in payload["rows"]]
        return payload["comments"], payload["columns"], rows
    lines = text.splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    table = [line for line in lines if not line.startswith("#")]
    if not table:
        raise ValueError("no table in CLI output")
    rows = [[_cell(c) for c in line.split(",")] for line in table[1:]]
    return comments, table[0].split(","), rows


def _comment_close(text: str, ref: str, rel: float, abs_tol: float) -> bool:
    """Same words, and numbers within tolerance."""
    parts, ref_parts = _NUMBER.split(text), _NUMBER.split(ref)
    if len(parts) != len(ref_parts):
        return False
    # split() with one capture group alternates text, number, text, ...
    return all(
        close(float(p), float(r), rel, abs_tol) if i % 2 else p == r
        for i, (p, r) in enumerate(zip(parts, ref_parts))
    )


def _row_close(columns, row, ref, tols, default) -> bool:
    if len(row) != len(ref):
        return False
    cells = dict(zip(columns, row))
    ref_cells = dict(zip(columns, ref))
    zero = False
    if "key_rate" in cells:
        p_exp = ref_cells.get("p_exp")
        zero = near_zero(cells["key_rate"], p_exp) or near_zero(ref_cells["key_rate"], p_exp)
    for col, value, ref_value in zip(columns, row, ref):
        rel, abs_tol = tols.get(col, default)
        if col == "key_rate":
            ok = (
                key_rate_close(value, ref_value, ref_cells.get("p_exp"), rel)
                if isinstance(value, float) and isinstance(ref_value, float)
                else value == ref_value or zero
            )
        elif col in ("secure", "pns_valid") and zero:
            ok = True
        else:
            ok = close(value, ref_value, rel, abs_tol)
        if not ok:
            return False
    return True


def cli_output_close(text: str, ref: str, tols: dict, default, comment_tol) -> bool:
    """Compare a CLI table field by field with the reference table.

    tols maps a column to its (rel, abs) tolerance; other columns get
    default, and numbers inside comment lines get comment_tol.
    """
    try:
        comments, columns, rows = parse_table(text)
    except (ValueError, KeyError, TypeError):
        return False
    ref_comments, ref_columns, ref_rows = parse_table(ref)
    return (
        columns == ref_columns
        and len(comments) == len(ref_comments)
        and all(_comment_close(c, r, *comment_tol) for c, r in zip(comments, ref_comments))
        and len(rows) == len(ref_rows)
        and all(_row_close(columns, r, rr, tols, default) for r, rr in zip(rows, ref_rows))
    )
