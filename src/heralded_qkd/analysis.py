"""Pump-strength optimization, closed-form limits and scaling fits.

Numerical optimization of the key rate over the pump strength is done per
channel transmission with a coarse logarithmic grid, scored in one array
pass, followed by golden-section refinement (unimodality is not assumed up
front; the grid locates the global bracket).  A scan over many
transmissions scores their grids, and runs their golden sections in
lockstep, as array passes across T.  The short-distance and
minimum-transmission closed forms from the analytical treatment are provided
alongside numerical oracles for both.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .keyrate import ChannelParams, KeyRateReport, _detection, key_rate
from .protocol import ProtocolSpec, _binary_entropy, _edge_info, _margin, _security_terms
from .source_detector import (
    _MAX_STAGES,
    HeraldResponse,
    MultiplexedDetectorParams,
    _pair_probabilities,
    distance_factor,
    multiplexed_response,
    poisson_pair_stats,
    short_distance_factor,
)

__all__ = [
    "OptimizationResult",
    "ScanSeries",
    "optimize_lambda",
    "short_distance_key_rate",
    "short_distance_lambda",
    "short_distance_approx_rate",
    "tmin_single_photon",
    "tmin_wcp",
    "lambda_opt_heralded",
    "tmin_bound_heralded",
    "tmin_heralded",
    "tmin_numerical",
    "scan_key_rate",
    "fit_power_law",
    "optimal_stage_count",
]

DEFAULT_LAMBDA_MAX = 1.0
_LAMBDA_MIN = 1e-8  # lower end of every pump-strength search
_LAMBDA_GRID_POINTS = 200  # size of the coarse logarithmic pump-strength grid
_LAMBDA_REL_TOL = 1e-6  # relative tolerance of the golden-section refinement
_TMIN_REL_TOL = 1e-3  # relative tolerance of tmin_numerical's bisection in T
# Where tmin_numerical has no tangency root T* (SARG04, and the fallbacks: no
# Newton start, or no convergence), it probes the bisection midpoints in
# [est/1.6, 1.05 est], est the closed-form T_min, so the root is inside while
# est is 0.952-1.6 times it; measured on the 512 tmin_search pool configs:
# 0.9995-1.503.  It goes once SARG04 has a root of its own.
_TMIN_BAND = (1.0 / 1.6, 1.05)
# _tangency_root's Newton: the difference step in log T and log lam, the
# largest move of either per step, the step in log T that ends it, and the
# most steps it takes (on the 242 BB84 tmin_search pool configs it ends on
# every one, in 3-4)
_TANGENCY_H = 1e-4
_TANGENCY_MAX_STEP = 0.5
_TANGENCY_TOL = 1e-9
_TANGENCY_STEPS = 30
# A golden-section step in lockstep costs one array pass however few T it
# moves, so a scan with fewer single-candidate T than this runs none of them
# in lockstep.  Measured on the scan_sweep pool, whose every T has one
# candidate, in process time: entering at 8, or at any cut-off up to 12, made
# its 64 12-point scans 1.4x slower than 16, which runs them scalar (130 ->
# 185 ms), and the whole pool 5% slower, although every point then costs 2
# key_rate calls; its 50- and 200-point scans enter at any cut-off up to 50.
_LOCKSTEP_MIN_ROWS = 16
# T rows per coarse-grid array pass of a scan: bounds the pass's temporaries
# (measured on 200-point scans: peak memory +3.6 MB in one pass, +0.6 MB in
# 50-row passes)
_SCAN_BLOCK_ROWS = 50

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# a _margin_bound below this proves its cell holds no positive key_rate
_PROVEN_NONPOSITIVE = -1e-9


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of maximizing the key rate over the pump strength.

    evaluations counts only scalar key_rate calls, not array passes;
    converged is False on every sign-only result (see optimize_lambda).
    """

    lambda_opt: float
    report: KeyRateReport | None
    converged: bool
    evaluations: int

    @property
    def key_rate(self) -> float:
        """Optimized key rate; -inf when every probed point was model-invalid."""
        return -math.inf if self.report is None else self.report.key_rate


@dataclass(frozen=True)
class ScanSeries:
    """Per-transmission optimization results for one protocol/detector setup."""

    points: list[tuple[float, OptimizationResult]]


def _linear_grid(lo: float, hi: float, n: int) -> list[float]:
    """n >= 2 evenly spaced floats from lo to hi, np.linspace's arithmetic bit
    for bit: lo + i*step, the last one pinned to hi."""
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n - 1)] + [hi]


def _log_grid(lo_exp: float, hi_exp: float, n: int) -> list[float]:
    """The package's log grids: 10.0 ** x of _linear_grid's exponents, libm's
    pow, which unlike numpy's power is the same on every CPU."""
    return [10.0**x for x in _linear_grid(lo_exp, hi_exp, n)]


def _libm(f):
    """The math function f mapped over a float array: libm's results, which
    unlike numpy's ufuncs (np.exp runs AVX-512 code where the CPU has it)
    are the same on every CPU."""
    return lambda x: np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


_EXP, _EXPM1 = _libm(math.exp), _libm(math.expm1)


def _LOG2(x) -> np.ndarray:
    """libm's log2 of |x|, x a float array: math.log2 bit for bit where
    x > 0, as in every model-valid entry (the information functions map a 0
    to 1); |x| spares math.log2 the negatives of entries the validity mask
    discards."""
    return _libm(math.log2)(np.abs(x))


@lru_cache(maxsize=8)
def _lambda_grid(lambda_max: float) -> tuple[tuple[float, ...], np.ndarray]:
    """Coarse logarithmic pump-strength grid, and its pair statistics as a
    read-only (p0, p1, p2) array of shape (3, grid size).

    Depends only on lambda_max, so one build serves every optimization that
    shares it; the array is read-only because every caller gets the same one.
    Each column is _pair_probabilities's float result at its grid point.
    """
    if not _LAMBDA_MIN < lambda_max < math.inf:  # a NaN is rejected too
        raise ValueError(f"bounds need finite lambda_max > {_LAMBDA_MIN}, got {lambda_max}")
    try:
        grid = tuple(_log_grid(
            math.log10(_LAMBDA_MIN), math.log10(lambda_max), _LAMBDA_GRID_POINTS))
    except OverflowError:  # lambda_max within rounding of the largest float
        raise ValueError(f"bounds need a finite lambda grid, got {lambda_max}") from None
    pairs = np.array(_pair_probabilities(np.array(grid), _EXP, _EXPM1))
    pairs.flags.writeable = False
    return grid, pairs


# each finite score of _key_rate_array with np.log2 is within this times its
# p_exp of key_rate's at the same inputs, whatever the arrays' shapes.  The
# two run the same elementwise arithmetic and differ only in np.log2 against
# math.log2, taken to be at most k = 4 ulp apart on the margin's arguments in
# [0, 1] (tested; numpy's own log2 validation data allows 1).  Each
# x log2 x-type term, |x log2 x| <= 0.531 on [0, 1], then moves by at most
# (k + 1) 2^-52 0.531; the margin adds at most five such terms, and its
# about eight roundings of O(1) sums may each round the other way, so it
# moves by at most (5 (k + 1) 0.531 + 8) 2^-52 = 4.7e-15, and
# K = p_exp p_sift margin, p_sift <= 1/2, by 2.4e-15 p_exp: 1e-14 keeps a
# margin of 4x.  _beats is its one reader.
_KEY_RATE_ARRAY_TOL = 1e-14


def _key_rate_array(
    spec: ProtocolSpec, pairs, r: HeraldResponse, t, dark_b: float, log2=np.log2,
) -> tuple[np.ndarray, np.ndarray]:
    """(p_exp, score) of key_rate over pair statistics pairs = (p0, p1, p2),
    three arrays or one of shape (3, ...), and transmissions t, broadcast
    together elementwise.

    pairs[i] and t may have any shapes that broadcast (a (rows, 1) column of
    transmissions against one grid scores a (rows, grid) block).  Each entry
    runs the same _detection and margin as key_rate at its own (p0, p1, p2,
    t, dark_b), so p_exp, QBER, y and Q/y equal the scalar ones bit for bit.
    A score is -inf exactly where key_rate is NaN (model-invalid), the
    optimizer's score for it.  log2 is the one difference from key_rate:
    with np.log2, the default, whose SIMD code follows the CPU, any other
    score is within _KEY_RATE_ARRAY_TOL times its own p_exp of key_rate's,
    and scores are compared only through _beats; with _LOG2 every score is
    key_rate's bit for bit.
    """
    # invalid entries hold NaN, inf or garbage until masked; numpy stays quiet
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p_exp, _, q, y = _detection(*pairs, r, t, dark_b)
        ratio = q / y
        valid = (p_exp != 0.0) & (y > 0.0) & (ratio <= spec.q_max)
        margin = _margin(spec, q, y, spec.eve_info(ratio, log2), log2)
        return p_exp, np.where(valid, p_exp * spec.p_sift * margin, -np.inf)


def _beats(x, p_x, y, p_y):
    """key_rate at array score x (p_exp p_x) is proven above key_rate at y
    (p_exp p_y), NaN counting as -inf: each finite score is within
    _KEY_RATE_ARRAY_TOL times its p_exp of key_rate's, and y is below x by
    more than both.  Floats or arrays that broadcast; no -inf - -inf is
    formed."""
    return y < x - _KEY_RATE_ARRAY_TOL * (p_x + p_y)


def _grid_pass(
    spec: ProtocolSpec, r: HeraldResponse, ch: ChannelParams, lambda_max: float
) -> tuple[int, ...]:
    """The grid indices, in order, that key_rate's first maximum over the
    coarse pump-strength grid can be at, from one _key_rate_array pass: those
    the array maximum does not _beat (empty when no point is model-valid)."""
    p_exp, scores = _key_rate_array(spec, _lambda_grid(lambda_max)[1], r,
                                    ch.transmission, ch.dark_b)
    top = int(np.argmax(scores))
    if scores[top] == -np.inf:  # the validity mask is key_rate's, bit for bit
        return ()
    return tuple(np.flatnonzero(~_beats(scores[top], p_exp[top], scores, p_exp)).tolist())


def _searching(a, b):
    """The golden section's bracket [a, b] is still wider than its tolerance;
    a and b are floats or arrays."""
    return (b - a) > _LAMBDA_REL_TOL * b


def _pair_ranges(a: float, b: float) -> tuple[tuple[float, float], ...]:
    """((p0_lo, p0_hi), (p1_lo, p1_hi), (p2_lo, p2_hi)): the range of each of
    _pair_probabilities over pump strengths [a, b], 0 <= a <= b.

    p0 = e^-lam falls, p2 = 1 - (1 + lam) e^-lam rises (its derivative is
    lam e^-lam >= 0), and p1 = lam e^-lam rises to its peak e^-1 at lam = 1
    and falls after it, so each range is set by the values at a and b, and
    by the peak when the cell holds lam = 1 inside.  p0 and p1 are rounded
    to a few ulp; p2 = -expm1(-lam) - p1 cancels at small lam, and its
    rounding error, each operand's ulp and the difference's, stays below
    1e-15 lam, by which its range is widened.
    """
    p0_hi, p1_a, p2_a = _pair_probabilities(a)
    p0_lo, p1_b, p2_b = _pair_probabilities(b)
    p1_lo, p1_hi = (p1_a, p1_b) if p1_a < p1_b else (p1_b, p1_a)
    if a < 1.0 < b:
        p1_hi = _pair_probabilities(1.0)[1]
    return (p0_lo, p0_hi), (p1_lo, p1_hi), (max(p2_a - 1e-15 * a, 0.0), p2_b + 1e-15 * b)


def _margin_bound(
    spec: ProtocolSpec, r: HeraldResponse, ch: ChannelParams, a: float, b: float
) -> float:
    """An upper bound on key_rate's margin K/(p_exp p_sift), which has K's
    sign, at every pump strength in [a, b], 0 < a <= b, NaN counting as
    -inf: -inf where the cell is model-invalid throughout, inf where there
    is no bound.  A bound below _PROVEN_NONPOSITIVE proves key_rate <= 0 or
    NaN throughout the cell.

    dark and p_exp rise in each of p0, p1, p2, so _detection at the ends
    of their _pair_ranges bounds them, and Q = dark/p_exp is in
    [dark_lo/p_exp_hi, dark_hi/p_exp_lo] and y = 1 - p2 q2/p_exp in
    [1 - p2_hi q2/p_exp_lo, 1 - p2_lo q2/p_exp_hi].  Where y <= 0 or
    Q/y > q_max key_rate is NaN, so the cell is invalid throughout when
    y_hi <= 0 or r_lo = Q_lo/y_hi > q_max.  At every other point
    y >= max(y_lo, 0) and Q/y is in [r_lo, r_hi = min(Q_hi/y_lo, q_max)],
    and the margin is at most
    1 - H(Q_lo) - max(y_lo, 0) min(I1(r_lo), I1(r_hi)) - (1 - y_hi) I_AE2,
    by three shape facts:
    - Q <= 1/2, because p_exp >= 2 dark, and H rises on [0, 1/2]
      (H' = log2((1 - Q)/Q) >= 0), so H(Q) >= H(Q_lo);
    - y <= 1, because p2 q2/p_exp >= 0, so 1 - y >= 1 - y_hi >= 0;
    - I1 = I_AE^(1) >= 0 has a single peak on [0, q_max], so its minimum
      over an interval is at an end.  BB84's I1 is H, which rises
      throughout.  SARG04's has slope ln[2 (1 - 2q)^2 / (q (1 - q))] / ln 2,
      whose argument falls on (0, 1/2) and is 1 at the root q = 1/3 of
      9q^2 - 9q + 2: it rises to 1/3, then falls to I1(1/2) = 1/2, and
      I1(0) = 0.
    K = p_exp p_sift margin then has the margin's sign.  The proof needs
    the bound below -1e-9: a rounding margin, not a tuning constant; the
    terms are O(1) and, with p2's cancellation inside its range, the bound
    and key_rate each round them by errors around 1e-15.

    The bound exceeds the margin's supremum over the cell by an amount
    first order in the cell's width, so along a golden section it falls
    toward the best margin scored by about _INV_GOLDEN per step;
    optimize_lambda schedules its checks by that (see there).
    """
    (p0_lo, p0_hi), (p1_lo, p1_hi), (p2_lo, p2_hi) = _pair_ranges(a, b)
    p_exp_lo, dark_lo = _detection(p0_lo, p1_lo, p2_lo, r, ch.transmission, ch.dark_b)[:2]
    p_exp_hi, dark_hi = _detection(p0_hi, p1_hi, p2_hi, r, ch.transmission, ch.dark_b)[:2]
    if p_exp_lo == 0.0:  # key_rate may be valid where p_exp > 0: no bound
        return math.inf
    q_lo = dark_lo / p_exp_hi
    y_lo, y_hi = 1.0 - p2_hi * r.q2 / p_exp_lo, 1.0 - p2_lo * r.q2 / p_exp_hi
    if y_hi <= 0.0 or (r_lo := q_lo / y_hi) > spec.q_max:
        return -math.inf
    bound = 1.0 - _binary_entropy(q_lo) - (1.0 - y_hi) * spec.i_ae_two
    if y_lo > 0.0:  # else the single-photon term is bounded by 0
        r_hi = min(dark_hi / p_exp_lo / y_lo, spec.q_max)
        bound -= y_lo * min(spec.eve_info(r_lo), spec.eve_info(r_hi))
    return bound


def optimize_lambda(
    spec: ProtocolSpec,
    r: HeraldResponse,
    ch: ChannelParams,
    lambda_max: float = DEFAULT_LAMBDA_MAX,
    *,
    _plan: tuple | None = None,
    _sign_only: bool = False,
) -> OptimizationResult:
    """Maximize the key rate over the pump strength in [1e-8, lambda_max].

    A 200-point logarithmic grid over that range locates the best bracket,
    which is then refined by golden-section search to relative tolerance
    1e-6 in the pump strength.  The grid is scored in one array pass
    (_grid_pass), and only the candidate points near its best are rescored
    with key_rate, so the bracket is the one a key_rate call at every grid
    point would give.  Every score goes into one table, {lam: (score,
    report)}, and key_rate runs only for a pump strength not yet in it; the
    result, the sign-only proof and evaluations all read the table.  So
    evaluations counts the scalar key_rate calls made by this call, one per
    pump strength scored: 0 when no grid point is model-valid, unless a
    sign-only call scored the closed-form point first.  Array passes are
    not counted, so a call given a plan does not count the search's total
    work.  converged is False when the optimum sits at a bound, when no
    probed point was model-valid, and on every _sign_only result.

    _plan, for scan_key_rate, is (candidates, interval) already worked out
    for this call's inputs: the grid candidates _grid_pass gives, and None
    or the converged golden-section interval (a, b) that the scan's
    lockstep reached from them; the result equals the one computed without
    it.  A call given an interval scores its one candidate and the
    interval's midpoint, and runs no golden step.

    _sign_only, for tmin_numerical, which reads only the sign of key_rate,
    returns as soon as that sign is known, in three stages:
    1. unless q2 = 0, the grid point nearest lambda_opt_heralded (for WCP,
       q0 = q1 = q2 = 1, tmin_wcp's pump strength) is scored before any
       array pass, and returned if its key_rate is positive;
    2. else the grid pass's candidates are rescored in order, and the first
       positive one is returned;
    3. else the golden section runs, and stops once _margin_bound proves
       that its bracket [a, b] holds no positive rate (a bound below
       -1e-9).  The full search's key_rate is the better of the best grid
       point and the rate at (a + b)/2, which lies in every later bracket,
       so it is <= 0 too; the result is the table's best entry.  The
       bound is checked at the head of the golden loop: before the first
       step, and after a step only when a check could succeed.  A failed
       bound's excess over the best margin K/(p_exp p_sift) scored by then
       is taken to shrink by _INV_GOLDEN per step, and the next check waits
       for the first step at which that extrapolation falls below -1e-9
       (none while the best margin is above it or the bound was inf; every
       step while no scored point is model-valid).  A skipped check can
       only delay a stop: a search never stopped returns the full search's
       result, so the sign is the same either way.
    A positive key_rate at grid index i proves the full search's result
    positive: if i is a candidate, the full search's best grid score is at
    least key_rate at i; if not, the array maximum top _beats it, so
    key_rate at top is above it, and top is always a candidate; and the full
    search never returns less than its best grid score.  A pump strength
    off the grid has no such guarantee, which is why stage 1 scores a grid
    point.  So every sign-only result has the full search's sign, converged
    False and evaluations the key_rate calls made; one that stops at a
    positive grid point carries that point's report.
    """
    grid = _lambda_grid(lambda_max)[0]
    table: dict[float, tuple[float, KeyRateReport]] = {}  # lam: (score, report)

    def score(lam: float) -> float:
        """Key rate at lam as an optimization score, model-invalid -inf;
        key_rate runs only for a lam not yet in the table."""
        if lam not in table:
            report = key_rate(spec, poisson_pair_stats(lam), r, ch)
            table[lam] = (-math.inf if math.isnan(report.key_rate) else report.key_rate,
                          report)
        return table[lam][0]

    def result(lam=None, converged=False) -> OptimizationResult:
        """The result at lam, by default the table's first best entry; NaN,
        for no candidate, has no report."""
        if lam is None:
            lam = max(table, key=lambda x: table[x][0])
        return OptimizationResult(lambda_opt=lam, report=table.get(lam, (0.0, None))[1],
                                  converged=converged, evaluations=len(table))

    if _sign_only and not math.isnan(hint := lambda_opt_heralded(spec, r, ch.dark_b)):
        i = min(bisect.bisect_left(grid, hint), _LAMBDA_GRID_POINTS - 1)
        if i > 0 and hint / grid[i - 1] < grid[i] / hint:  # nearer on the log grid
            i -= 1
        if score(grid[i]) > 0.0:
            return result(grid[i])

    # ((), None), the plan where no grid point is model-valid, is truthy
    candidates, interval = _plan or (_grid_pass(spec, r, ch, lambda_max), None)
    if not candidates:
        return result(math.nan)
    for i in candidates:
        if score(grid[i]) > 0.0 and _sign_only:
            return result(grid[i])
    # first maximum in grid order, as np.argmax; scores are never NaN
    best_idx = max(candidates, key=lambda i: table[grid[i]][0])

    # the plan's converged interval, or the best grid point's neighbours
    a, b = interval or (grid[max(best_idx - 1, 0)],
                        grid[min(best_idx + 1, _LAMBDA_GRID_POINTS - 1)])
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)

    # golden-section refinement on the bracket (a converged one needs no
    # more scores), checked for a sign-only proof at its head on a
    # schedule: floor is the best margin scored when the last check failed,
    # excess that check's bound above it, shrunk by _INV_GOLDEN per step since
    floor, excess, fc = -math.inf, 0.0, None
    while True:
        if _sign_only:
            excess *= _INV_GOLDEN
            if floor + excess < _PROVEN_NONPOSITIVE:  # else the check must fail
                if (bound := _margin_bound(spec, r, ch, a, b)) < _PROVEN_NONPOSITIVE:
                    return result()
                floor = max((k / (report.p_exp * spec.p_sift)
                             for k, report in table.values() if k > -math.inf),
                            default=-math.inf)
                excess = bound - floor if floor > -math.inf else 0.0
        if not _searching(a, b):
            break
        if fc is None:
            fc, fd = score(c), score(d)
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = score(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = score(d)

    # keep the best of refinement and coarse grid (refinement can only help
    # inside the bracket, but guard against flat -inf plateaus at the edges)
    best, mid = grid[best_idx], 0.5 * (a + b)
    lam = best if table[best][0] > score(mid) else mid
    at_bound = (
        best_idx in (0, _LAMBDA_GRID_POINTS - 1)
        and (lam <= _LAMBDA_MIN * (1.0 + 1e-5) or lam >= lambda_max * (1.0 - 1e-5))
    )
    return result(lam, converged=not (at_bound or _sign_only))


def _short_distance_penalty(spec: ProtocolSpec, t: float) -> float:
    """I_AE2 - 2T: the short-distance cost of a multiphoton event."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {t}")
    return spec.i_ae_two - 2.0 * t


def short_distance_key_rate(
    spec: ProtocolSpec, r: HeraldResponse, t: float, lam: float
) -> float:
    """Key rate with Bob's dark counts neglected entirely.

    p_sift * [T p1 q1 - p2 q2 (I_AE2 - 2T)] with exact Poisson p1, p2;
    identical to the full rate at d_B = 0.
    """
    penalty = _short_distance_penalty(spec, t)
    stats = poisson_pair_stats(lam)
    return spec.p_sift * (t * stats.p1 * r.q1 - stats.p2 * r.q2 * penalty)


def short_distance_lambda(spec: ProtocolSpec, r: HeraldResponse, t: float) -> float:
    """Pump strength maximizing the dark-count-free key rate.

    T q1 / (T q1 + (I_AE2 - 2T) q2): 1 at q2 = 0 < q1 and 0 at q1 = 0 < q2.
    NaN where I_AE2 <= 2T, where the rate has no interior optimum in the
    pump strength, and at q1 = q2 = 0, where it is 0 at every pump strength.
    """
    penalty = _short_distance_penalty(spec, t)
    if not (penalty > 0.0 and (top := max(r.q1, r.q2)) > 0.0):
        return math.nan
    # q1 and q2 over the larger one, so that the two terms never both underflow
    gain = t * (r.q1 / top)
    return gain / (gain + penalty * (r.q2 / top))


def short_distance_approx_rate(
    spec: ProtocolSpec, r: HeraldResponse, t: float
) -> float:
    """Leading-order key rate at the optimal pump strength, quadratic in T.

    (q1**2/q2) * p_sift * T**2 / (2 (I_AE2 - 2T)).  Dividing by the WCP
    counterpart recovers the q1**2/q2 enhancement factor.  NaN where
    I_AE2 <= 2T, where the rate has no interior optimum in the pump strength,
    and at q2 = 0, where lambda_opt = 1 and the small-lambda expansion fails.
    """
    if not (penalty := _short_distance_penalty(spec, t)) > 0.0 or r.q2 == 0.0:
        return math.nan
    if (factor := short_distance_factor(r)) == math.inf:
        # q1**2/q2 overflows at a subnormal q2: x = q1 T/sqrt(q2) is finite,
        # x*x overflows (to inf, where ** would raise) only where the rate
        # does, and T**2 no longer underflows against it
        x = r.q1 * t / math.sqrt(r.q2)
        return x * x * spec.p_sift / (2.0 * penalty)
    return factor * spec.p_sift * t**2 / (2.0 * penalty)


def tmin_single_photon(spec: ProtocolSpec, dark_b: float) -> float:
    """Minimum transmission T_min1 = d_B (1 - 2 Q_th) / Q_th, ideal source.

    The WCP and heralded closed forms are built on it.  d_B must be in
    [0, 1), as in ChannelParams.
    """
    ChannelParams(1.0, dark_b)  # its dark_b range check
    q_th = spec.q_threshold
    return dark_b * (1.0 - 2.0 * q_th) / q_th


def tmin_wcp(spec: ProtocolSpec, dark_b: float) -> tuple[float, float]:
    """Minimum transmission and optimal mean photon number for WCPs.

    Returns (T_min, lambda_opt); both scale as sqrt(dark_b).
    """
    base = 2.0 * tmin_single_photon(spec, dark_b)
    return math.sqrt(base * spec.xi), math.sqrt(base / spec.xi)


def lambda_opt_heralded(
    spec: ProtocolSpec, r: HeraldResponse, dark_b: float
) -> float:
    """Pump strength minimizing the heralded-source transmission bound.

    sqrt(2 T_min1 q0 / (xi q2)).  Returns 0 at q0 = 0 (vacuum
    heralds absent, drive the pump down); NaN at q2 = 0, where multipair
    events are perfectly sifted out and the bound decreases monotonically.
    """
    t1 = tmin_single_photon(spec, dark_b)
    return math.sqrt(2.0 * t1 * r.q0 / (spec.xi * r.q2)) if r.q2 else math.nan


def tmin_bound_heralded(
    spec: ProtocolSpec, r: HeraldResponse, dark_b: float, lam: float
) -> float:
    """Transmission lower bound for a heralded source at pump strength lam.

    (q2/2q1) xi lam + T_min1 (1 + (q0/q1)/lam); its minimum over lam is the
    heralded minimum transmission.  NaN at q1 = 0; lam must be finite.
    """
    if not 0.0 < lam < math.inf:  # a NaN is rejected too
        raise ValueError(f"pump strength must be positive and finite, got {lam}")
    t1 = tmin_single_photon(spec, dark_b)
    if r.q1 == 0.0:
        return math.nan
    return (
        r.q2 / (2.0 * r.q1) * spec.xi * lam
        + t1
        + t1 * (r.q0 / r.q1) / lam
    )


def tmin_heralded(spec: ProtocolSpec, r: HeraldResponse, dark_b: float) -> float:
    """Closed-form minimum transmission for a heralded source.

    T_min1 + sqrt(q0 q2)/q1 * T_minC: the ideal-source floor plus the WCP
    bound scaled by the detector's distance factor; NaN at q1 = 0.
    """
    t_min_c, _ = tmin_wcp(spec, dark_b)
    t1 = tmin_single_photon(spec, dark_b)
    if (factor := distance_factor(r)) == math.inf:
        # sqrt(q0 q2)/q1 overflows at a subnormal q1: the product in the other
        # order, which is finite where T_minH is, and 0 at d_B = 0
        return t1 + math.sqrt(r.q0 * r.q2) * t_min_c / r.q1
    return t1 + factor * t_min_c


def _tangency_root(
    spec: ProtocolSpec, r: HeraldResponse, dark_b: float, lambda_max: float
) -> float:
    """T*, where the margin m = K/(p_exp p_sift) maximized over lam touches 0
    at an interior pump strength; NaN where there is no estimate.

    (T*, lam*) solves m = 0 and dm/dlog lam = 0, the tangency system whose
    leading-order root is (tmin_heralded, lambda_opt_heralded).  From there
    a damped Newton in (log T, log lam) refines it, with the Jacobian from
    differences of m at step _TANGENCY_H: central ones, and a forward one in
    log T for the mixed derivative.  Each step moves either coordinate by at
    most _TANGENCY_MAX_STEP, and keeps T in (0, 1] and lam in [1e-8,
    lambda_max]; the Newton ends when a step moves log T by less than
    _TANGENCY_TOL.  m is key_rate's margin, formed by its own _detection
    and _security_terms, with no key_rate call.  NaN where the Newton has no
    start (q0, q1 or q2 = 0, or lambda_opt_heralded above lambda_max), meets
    a value that is not finite, ends with lam held at a bound (a root of
    m = 0 alone), or has not ended after _TANGENCY_STEPS steps.
    """
    t, lam = tmin_heralded(spec, r, dark_b), lambda_opt_heralded(spec, r, dark_b)
    if not (0.0 < t < math.inf and 0.0 < lam <= lambda_max):  # a NaN fails too
        return math.nan

    def margin(u: float, v: float) -> float:
        # key_rate's margin at T = e^u, lam = e^v, NaN where nothing is detected
        p_exp, _, q, y = _detection(*_pair_probabilities(math.exp(v)), r, math.exp(u), dark_b)
        return _security_terms(spec, q, y)[0] if p_exp > 0.0 else math.nan

    h, v_lo, v_hi = _TANGENCY_H, math.log(_LAMBDA_MIN), math.log(lambda_max)
    u, v = math.log(min(t, 1.0)), max(math.log(lam), v_lo)
    try:
        for _ in range(_TANGENCY_STEPS):
            m, m_vp, m_vm, m_up, m_um, m_up_vp, m_up_vm = (margin(u + du, v + dv) for du, dv in (
                (0.0, 0.0), (0.0, h), (0.0, -h), (h, 0.0), (-h, 0.0), (h, h), (h, -h)))
            # F = (m, g), g = dm/dv, and its Jacobian [[m_u, g], [g_u, g_v]]
            g, m_u = (m_vp - m_vm) / (2.0 * h), (m_up - m_um) / (2.0 * h)
            g_v = (m_vp - 2.0 * m + m_vm) / (h * h)
            g_u = ((m_up_vp - m_up_vm) / (2.0 * h) - g) / h
            det = m_u * g_v - g * g_u
            du, dv = (g * g - m * g_v) / det, (m * g_u - m_u * g) / det
            if not (math.isfinite(du) and math.isfinite(dv)):
                return math.nan
            du = min(max(du, -_TANGENCY_MAX_STEP), _TANGENCY_MAX_STEP)
            dv = min(max(dv, -_TANGENCY_MAX_STEP), _TANGENCY_MAX_STEP)
            u, v = min(u + du, 0.0), min(max(v + dv, v_lo), v_hi)
            if abs(du) < _TANGENCY_TOL:
                return math.exp(u) if v_lo < v < v_hi else math.nan
    except (OverflowError, ZeroDivisionError):
        pass
    return math.nan


def _descent_band(
    spec: ProtocolSpec, r: HeraldResponse, dark_b: float, lambda_max: float
) -> tuple[float, float] | None:
    """The T band whose bisection midpoints tmin_numerical's descent probes
    (see there): (T*, T*) from _tangency_root where _edge_info is at least
    1, else the closed-form band; None where neither has an estimate."""
    if _edge_info(spec) >= 1.0 and (t := _tangency_root(spec, r, dark_b, lambda_max)) == t:
        return t, t
    est = tmin_heralded(spec, r, dark_b)
    if lambda_opt_heralded(spec, r, dark_b) > lambda_max:
        # the closed-form pump strength is out of reach: the bound at lambda_max
        est = tmin_bound_heralded(spec, r, dark_b, lambda_max)
    # a NaN est, at q1 = 0, is no estimate
    return (est * _TMIN_BAND[0], est * _TMIN_BAND[1]) if est < math.inf else None


def tmin_numerical(
    spec: ProtocolSpec,
    r: HeraldResponse,
    dark_b: float,
    lambda_max: float = DEFAULT_LAMBDA_MAX,
) -> float:
    """Smallest transmission with positive optimized key rate, by bisection.

    Oracle for the closed-form minimum transmission: the sign change of
    K(T, lambda) maximized by optimize_lambda over lambda in
    [1e-8, lambda_max] is located on T in [1e-8, 1] to relative tolerance
    1e-3, by bisecting at the midpoints sqrt(t_lo t_hi).  A probe only needs
    that sign, so each is one optimize_lambda call with _sign_only, which
    stops as soon as the sign is known: at the closed-form pump strength's
    grid point, at the first positive grid candidate, or at a proof that
    the rest of the search is nonpositive.

    One rule decides the result: the upper end of a probed sign change,
    t_hi positive and t_lo not, at most 1e-3 wide; where no bisection
    brackets one, the RuntimeError.  So an end of [1e-8, 1] is probed only
    when a final bracket reaches it.  The first bisection descends through
    the band that _descent_band gives, probing only midpoints inside it and
    taking those above it as positive and those below as negative.  Where
    _edge_info = min(I_AE^(1)(q_max), I_AE^(2)) is at least 1 (BB84), the
    band is the single T* of _tangency_root: at the validity edge Q/y =
    q_max the margin is at most 1 - H(Q) - _edge_info <= 0, so a positive
    maximum over lambda is interior, where T_min has m = K/(p_exp p_sift)
    and dm/dlog lambda both 0, or at a bound, where a wrong T* fails the
    bracket check; a solve then probes only its final bracket.  SARG04's
    maximum at T_min can sit at the edge, so it keeps the closed-form band,
    as do solves where the Newton has no start or does not converge:
    [est/1.6, 1.05 est], est tmin_heralded, or tmin_bound_heralded at
    lambda_max where lambda_opt_heralded is above lambda_max.  Where the
    check fails, or there is no band, the plain bisection probing every
    midpoint runs, reusing the signs probed so far.  Each probe's sign is a
    full optimize_lambda's, so the result is the plain bisection's wherever
    the sign is monotone.  A bisection that raises unless 1.0 is positive
    and 1e-8 is not differs only where the sign at an end disagrees with a
    change inside: it raises, and this returns the change.  On the
    benchmark's 512 T_min pool configs a BB84 solve makes 2 sign-only calls
    and a SARG04 solve 10.22, 6.34 on average.

    For BB84 the sign is monotone, by a lemma: at fixed lambda its margin
    m = y (1 - H(z)) - H(Q), z = Q/y, does not fall as T rises.  dark does
    not depend on T, while p_exp and w = p_exp y = p_exp - p2 q2 rise with
    it, so Q = dark/p_exp and z = dark/w fall and y rises; with Q and z in
    [0, 1/2], where H rises, no term of m falls, and the valid set z <= 1/2
    only grows.  So the sign at every lambda, and that of the maximum over
    lambda, changes at most once in T, and BB84's result is the plain
    bisection's wherever each probe's sign is that maximum's, which only
    the optimizer's tolerance near T_min can miss.  SARG04's I_AE^(1)
    falls on [1/3, 1/2], so where z is above 1/3 a rise in T can lower m:
    by up to 0.038 on its 270 pool configs.
    """
    if dark_b <= 0.0:
        raise ValueError(f"dark_b must be positive, got {dark_b}")
    # the channel, then the pump-strength range, before any closed form
    ChannelParams(transmission=1.0, dark_b=dark_b)
    _lambda_grid(lambda_max)
    probed: dict[float, bool] = {}

    def positive(t: float) -> bool:
        if t not in probed:
            ch = ChannelParams(transmission=t, dark_b=dark_b)
            probed[t] = optimize_lambda(
                spec, r, ch, lambda_max, _sign_only=True).key_rate > 0.0
        return probed[t]

    def bisection(sign) -> tuple[float, float]:
        t_lo, t_hi = 1e-8, 1.0
        while t_hi / t_lo - 1.0 > _TMIN_REL_TOL:
            t_mid = math.sqrt(t_lo * t_hi)
            if sign(t_mid):
                t_hi = t_mid
            else:
                t_lo = t_mid
        return t_lo, t_hi

    signs = [positive]
    if band := _descent_band(spec, r, dark_b, lambda_max):
        signs.insert(0, lambda t: t > band[1] or (t >= band[0] and positive(t)))
    for sign in signs:
        t_lo, t_hi = bisection(sign)
        if positive(t_hi) and not positive(t_lo):
            return t_hi
    raise RuntimeError("no sign change of the optimized key rate on [1e-8, 1]")


def scan_key_rate(
    spec: ProtocolSpec,
    r: HeraldResponse,
    dark_b: float,
    t_grid,
    lambda_max: float = DEFAULT_LAMBDA_MAX,
) -> ScanSeries:
    """Optimize the pump strength, up to lambda_max, at each grid transmission.

    Each point is optimize_lambda's result at its transmission, bit for bit
    (evaluations aside).  The scan scores the coarse grids of all its
    transmissions in (T x lambda) array passes.  When at least
    _LOCKSTEP_MIN_ROWS T have one grid candidate, whose bracket the grid
    fixes, those T run optimize_lambda's golden-section steps in lockstep,
    one _key_rate_array pass per step, with np.log2.  A step takes the
    scalar loop's fc >= fd only where it is proven: false where _beats
    proves d above c, true where it proves c above d or both scores are
    -inf, an exact tie, since the validity mask is key_rate's.  The rows
    that neither proof settles, mostly near convergence, are rescored at c
    and d through _LOG2, key_rate's scores bit for bit, and decided by
    fc >= fd.  So every step is the scalar loop's.  The worst case is a row
    that ties within the tolerance at every step, such as a flat or plateau
    row: each of its steps pays one np.log2 pass and two exact scores.  A T
    leaves only when its bracket has converged, so its plan does not depend
    on the other T in the scan.  optimize_lambda then finishes each T from
    its plan, its candidates and the converged interval (a, b) it left the
    lockstep with (None if it never entered), with key_rate: a T that ran
    the lockstep costs two calls, its candidate and the interval's
    midpoint.  A point's evaluations counts only those calls, not the
    array passes.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("transmission grid must be nonempty")
    for t in t_grid:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"transmission must be in (0, 1], got {t}")
    channels = [ChannelParams(transmission=t, dark_b=dark_b) for t in t_grid]
    grid, pairs = _lambda_grid(lambda_max)
    candidates = []  # each T's grid candidates, those _grid_pass gives
    for i in range(0, len(t_grid), _SCAN_BLOCK_ROWS):
        block = np.array(t_grid[i:i + _SCAN_BLOCK_ROWS])[:, None]
        p_exp, scores = _key_rate_array(spec, pairs, r, block, dark_b)
        rows, top = np.arange(len(scores)), np.argmax(scores, axis=1)
        best = scores[rows, top]
        near = ~_beats(best[:, None], p_exp[rows, top][:, None], scores, p_exp)
        near[best == -np.inf] = False  # model-invalid throughout: no candidate
        # one nonzero over the block: its row-major columns, split per row
        columns, ends = np.nonzero(near)[1].tolist(), np.cumsum(near.sum(axis=1)).tolist()
        candidates += [tuple(columns[start:end]) for start, end in zip([0] + ends, ends)]
    intervals = [None] * len(t_grid)
    rows = np.array([i for i, found in enumerate(candidates) if len(found) == 1])
    if len(rows) >= _LOCKSTEP_MIN_ROWS:
        top, t = np.array([candidates[i][0] for i in rows]), np.array(t_grid)[rows]
        # optimize_lambda's arithmetic, elementwise, so every bracket is its
        # own, and its fc >= fd, proven or exact, so every step is its own
        a = np.array(grid)[np.maximum(top - 1, 0)]
        b = np.array(grid)[np.minimum(top + 1, _LAMBDA_GRID_POINTS - 1)]
        c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)

        def lockstep_scores(lams, t, log2=np.log2):
            pairs = _pair_probabilities(lams, _EXP, _EXPM1)
            return _key_rate_array(spec, pairs, r, t, dark_b, log2)

        (pc, fc), (pd, fd) = lockstep_scores(c, t), lockstep_scores(d, t)
        while True:
            stay = _searching(a, b)
            if not stay.all():  # rows leave on few steps: compress only on those
                for i, a_i, b_i in zip(*(x[~stay].tolist() for x in (rows, a, b))):
                    intervals[i] = (a_i, b_i)
                if not stay.any():
                    break
                rows, t, a, b, c, d, fc, fd, pc, pd = (
                    x[stay] for x in (rows, t, a, b, c, d, fc, fd, pc, pd))
            # fc >= fd is false where d is proven above c, and true where c is
            # proven above d or both are -inf (a tie); where neither settles
            # it, it is taken on key_rate's scores at c and d, through _LOG2
            right = _beats(fd, pd, fc, pc)
            left = _beats(fc, pc, fd, pd) | (np.maximum(fc, fd) == -np.inf)
            if (undecided := ~(left | right)).any():
                exact_c, exact_d = lockstep_scores(
                    np.stack((c[undecided], d[undecided])), t[undecided], _LOG2)[1]
                left[undecided] = exact_c >= exact_d
            a, b = np.where(left, a, c), np.where(left, d, b)
            c, d = (np.where(left, b - _INV_GOLDEN * (b - a), d),
                    np.where(left, c, a + _INV_GOLDEN * (b - a)))
            p_new, f_new = lockstep_scores(np.where(left, c, d), t)
            fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)
            pc, pd = np.where(left, p_new, pd), np.where(left, pc, p_new)
    return ScanSeries(points=[
        (ch.transmission, optimize_lambda(spec, r, ch, lambda_max, _plan=plan))
        for ch, plan in zip(channels, zip(candidates, intervals))])


def fit_power_law(series: ScanSeries) -> tuple[float, float]:
    """Fit K = prefactor * T**exponent over secure scan points.

    Least squares on log K versus log T over the top decade of secure
    transmissions, where the quadratic scaling holds; that decade needs at
    least 3 distinct T.  Returns (exponent, prefactor).
    """
    secure = [
        (t, res.report.key_rate)
        for t, res in series.points
        if res.report is not None and res.report.secure
    ]
    if not secure:
        raise ValueError("no secure points in the scan")
    t_max = max(t for t, _ in secure)
    selected = [(t, k) for t, k in secure if t_max / 10.0 <= t]
    if (distinct := len({t for t, _ in selected})) < 3:  # too few T for a line
        raise ValueError(f"need at least 3 distinct secure transmissions in window "
                         f"({t_max / 10.0}, {t_max}), got {distinct}")
    # the least-squares line through (log10 T, log10 K), about the means,
    # with libm's log10 and fsum's exactly rounded sums
    log_t = [math.log10(t) for t, _ in selected]
    log_k = [math.log10(k) for _, k in selected]
    mean_t, mean_k = math.fsum(log_t) / len(log_t), math.fsum(log_k) / len(log_k)
    exponent = (math.fsum((x - mean_t) * (y - mean_k) for x, y in zip(log_t, log_k))
                / math.fsum((x - mean_t) ** 2 for x in log_t))
    return exponent, 10.0 ** (mean_k - exponent * mean_t)


def _stage_responses(
    eta_a: float, eta_c: float, dark_a: float, n_max: int
) -> list[HeraldResponse]:
    """multiplexed_response at each stage count 0..n_max, n_max an integer (2.0
    is 2) at most the largest stage count a detector takes, checked first."""
    if not 0 <= n_max <= _MAX_STAGES:
        raise ValueError(f"n_max must be in [0, {_MAX_STAGES}], got {n_max}")
    if n_max != int(n_max):
        raise ValueError(f"n_max must be an integer, got {n_max}")
    return [multiplexed_response(MultiplexedDetectorParams(
        stages=n, eta_a=eta_a, dark_a=dark_a, eta_c=eta_c)) for n in range(int(n_max) + 1)]


def _best_stage(factors) -> int | None:
    """Index of the first largest of the factors: ties go to the smaller
    stage count, and a NaN factor never wins, so None if every one is NaN."""
    best_n, best_factor = None, -math.inf
    for n, factor in enumerate(factors):
        if factor > best_factor:
            best_n, best_factor = n, factor
    return best_n


def optimal_stage_count(
    eta_a: float, eta_c: float, dark_a: float, n_max: int
) -> int:
    """Stage count maximizing the short-distance factor q1**2/q2.

    Exhaustive argmax over 0..n_max, n_max at most the largest stage count
    a detector takes; ties go to the smaller stage count.  A ValueError if
    no stage count has a factor (a detector that never heralds a pair).
    """
    best_n = _best_stage(
        [short_distance_factor(r) for r in _stage_responses(eta_a, eta_c, dark_a, n_max)])
    if best_n is None:
        raise ValueError("no stage count has a short-distance factor: q1 = q2 = 0")
    return best_n
