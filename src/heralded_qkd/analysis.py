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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .keyrate import ChannelParams, KeyRateReport, _detection, key_rate
from .protocol import ProtocolSpec, _binary_entropy, _margin
from .source_detector import (
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
# A golden-section step in lockstep costs one array pass however few T it
# moves, so fewer searching T points than this finish in the scalar loop.
# Measured: 8 made 12-point scans about 1.5x slower than 16, which runs them
# scalar; 12 to 24 scored 50- and 200-point scans alike.
_LOCKSTEP_MIN_ROWS = 16
# T rows per coarse-grid array pass of a scan: bounds the pass's temporaries
# (measured on 200-point scans: peak memory +3.6 MB in one pass, +0.6 MB in
# 50-row passes)
_SCAN_BLOCK_ROWS = 50

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of maximizing the key rate over the pump strength."""

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


def _pair_array(lams) -> np.ndarray:
    """poisson_pair_stats's (p0, p1, p2) of each of lams, as a (3, n) array."""
    return np.array(list(map(_pair_probabilities, lams))).T


@lru_cache(maxsize=8)
def _lambda_grid(lambda_max: float) -> tuple[tuple[float, ...], np.ndarray]:
    """Coarse logarithmic pump-strength grid, and its pair statistics as a
    read-only (p0, p1, p2) array of shape (3, grid size).

    Depends only on lambda_max, so one build serves every optimization that
    shares it; the array is read-only because every caller gets the same one.
    """
    if not _LAMBDA_MIN < lambda_max < math.inf:  # a NaN is rejected too
        raise ValueError(f"bounds need finite lambda_max > {_LAMBDA_MIN}, got {lambda_max}")
    try:
        grid = tuple(_log_grid(
            math.log10(_LAMBDA_MIN), math.log10(lambda_max), _LAMBDA_GRID_POINTS))
    except OverflowError:  # lambda_max within rounding of the largest float
        raise ValueError(f"bounds need a finite lambda grid, got {lambda_max}") from None
    pairs = _pair_array(grid)
    pairs.flags.writeable = False
    return grid, pairs


# each finite score of _key_rate_array is within this times its p_exp of
# key_rate's at the same inputs, whatever the arrays' shapes: the two run the
# same elementwise arithmetic and differ only in np.log2 against math.log2 in
# the margin, whose terms are O(1), so by a few dozen ulp of 1 at most, and K
# is p_exp * p_sift times the margin.  _beats is its one reader.
_KEY_RATE_ARRAY_TOL = 1e-13


def _key_rate_array(
    spec: ProtocolSpec, pairs: np.ndarray, r: HeraldResponse, t, dark_b: float
) -> tuple[np.ndarray, np.ndarray]:
    """(p_exp, score) of key_rate over pair statistics pairs = (p0, p1, p2)
    and transmissions t, broadcast together elementwise.

    pairs[i] and t may have any shapes that broadcast (a (rows, 1) column of
    transmissions against one grid scores a (rows, grid) block).  Each entry
    runs the same _detection and margin as key_rate at its own (p0, p1, p2,
    t, dark_b), so p_exp, QBER, y and Q/y equal the scalar ones bit for bit.
    A score is -inf exactly where key_rate is NaN (model-invalid), the
    optimizer's score for it; any other is within _KEY_RATE_ARRAY_TOL times
    its own p_exp of key_rate's.  Compare scores only through _beats.
    """
    # invalid entries hold NaN, inf or garbage until masked; numpy stays quiet
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        p_exp, q, y = _detection(*pairs, r, t, dark_b)
        ratio = q / y
        valid = (p_exp != 0.0) & (y > 0.0) & (ratio <= spec.q_max)
        i_ab = 1.0 - _binary_entropy(q, np.log2)
        margin = _margin(spec, i_ab, y, spec.eve_info(ratio, np.log2))
        return p_exp, np.where(valid, p_exp * spec.p_sift * margin, -np.inf)


def _beats(x, p_x, y, p_y):
    """key_rate at array score x (p_exp p_x) is proven above key_rate at y
    (p_exp p_y), NaN counting as -inf: each finite score is within
    _KEY_RATE_ARRAY_TOL times its p_exp of key_rate's, and y is below x by
    more than both.  Against y = 0 at p_y = 0 it proves key_rate > 0 at x.
    Floats or arrays that broadcast; no -inf - -inf is formed."""
    return y < x - _KEY_RATE_ARRAY_TOL * (p_x + p_y)


def _grid_pass(
    spec: ProtocolSpec, r: HeraldResponse, ch: ChannelParams, lambda_max: float
) -> tuple[tuple[int, ...], bool]:
    """(candidates, certified) from one _key_rate_array pass over the coarse
    pump-strength grid.

    candidates are the grid indices, in order, that key_rate's first maximum
    can be at: those the array maximum does not _beat (empty when no point
    is model-valid).  certified is True when a point's key_rate, and so the
    optimum, is proven positive.
    """
    p_exp, scores = _key_rate_array(spec, _lambda_grid(lambda_max)[1], r,
                                    ch.transmission, ch.dark_b)
    top = int(np.argmax(scores))
    if scores[top] == -np.inf:  # the validity mask is key_rate's, bit for bit
        return (), False
    near = ~_beats(scores[top], p_exp[top], scores, p_exp)
    certified = bool(_beats(scores, p_exp, 0.0, 0.0).any())
    return tuple(np.flatnonzero(near).tolist()), certified


def _searching(a, b):
    """The golden section's bracket [a, b] is still wider than its tolerance;
    a and b are floats or arrays."""
    return (b - a) > _LAMBDA_REL_TOL * b


def optimize_lambda(
    spec: ProtocolSpec,
    r: HeraldResponse,
    ch: ChannelParams,
    lambda_max: float = DEFAULT_LAMBDA_MAX,
    *,
    _plan: tuple | None = None,
) -> OptimizationResult:
    """Maximize the key rate over the pump strength in [1e-8, lambda_max].

    A 200-point logarithmic grid over that range locates the best bracket,
    which is then refined by golden-section search to relative tolerance
    1e-6 in the pump strength.  The grid is scored in one array pass
    (_grid_pass), and only the candidate points near its best are rescored
    with key_rate, so the bracket is the one a key_rate call at every grid
    point would give.  Every score comes from one evaluator, so evaluations
    is the number of key_rate calls made by this call, each pump strength
    evaluated once (0 when no grid point is model-valid); array passes are
    not counted, so a call given a plan does not count the search's total
    work.  converged is False when the optimum sits at a bound or when no
    probed point was model-valid.

    _plan, for the package's own callers, is (candidates, bracket) already
    worked out for this call's inputs: the grid candidates _grid_pass gives,
    and None or the golden-section state (a, b, c, d) to continue from.
    scan_key_rate passes each T's plan, tmin_numerical its step's grid pass;
    the result equals the one computed without it.
    """
    if _plan is None:  # ((), None) is a plan: no grid point is model-valid
        _plan = _grid_pass(spec, r, ch, lambda_max)[0], None
    candidates, bracket = _plan
    if not candidates:
        return OptimizationResult(
            lambda_opt=math.nan, report=None, converged=False, evaluations=0,
        )
    grid = _lambda_grid(lambda_max)[0]
    reports: list[KeyRateReport] = []

    def evaluate(lam: float) -> float:
        """Key rate at lam as an optimization score; model-invalid is -inf."""
        report = key_rate(spec, poisson_pair_stats(lam), r, ch)
        reports.append(report)
        return -math.inf if math.isnan(report.key_rate) else report.key_rate

    scores = [evaluate(grid[i]) for i in candidates]
    # first maximum in grid order, as np.argmax; scores are never NaN
    k = max(range(len(scores)), key=scores.__getitem__)
    best_idx, best_score, best_report = candidates[k], scores[k], reports[k]

    if bracket is None:
        a = grid[max(best_idx - 1, 0)]
        b = grid[min(best_idx + 1, _LAMBDA_GRID_POINTS - 1)]
        c = b - _INV_GOLDEN * (b - a)
        d = a + _INV_GOLDEN * (b - a)
    else:  # where the plan's lockstep left this T
        a, b, c, d = bracket

    # golden-section refinement on the bracket; one the lockstep converged
    # needs no more scores
    if _searching(a, b):
        fc = evaluate(c)
        fd = evaluate(d)
    while _searching(a, b):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = evaluate(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = evaluate(d)

    lam_opt = 0.5 * (a + b)
    final = evaluate(lam_opt)
    report = reports[-1]
    # keep the best of refinement and coarse grid (refinement can only help
    # inside the bracket, but guard against flat -inf plateaus at the edges)
    if best_score > final:
        lam_opt, report = grid[best_idx], best_report

    at_bound = (
        best_idx in (0, _LAMBDA_GRID_POINTS - 1)
        and (lam_opt <= _LAMBDA_MIN * (1.0 + 1e-5)
             or lam_opt >= lambda_max * (1.0 - 1e-5))
    )
    return OptimizationResult(
        lambda_opt=lam_opt, report=report, converged=not at_bound,
        evaluations=len(reports),
    )


def _scan_plan(
    spec: ProtocolSpec, r: HeraldResponse, channels: list[ChannelParams], lambda_max: float
) -> list[tuple]:
    """optimize_lambda's _plan for each of channels, all at one d_B, in
    order: each T's grid candidates, those _grid_pass gives, from (T x lambda)
    array passes of at most _SCAN_BLOCK_ROWS rows, and its
    _lockstep_brackets state."""
    pairs = _lambda_grid(lambda_max)[1]
    dark_b = channels[0].dark_b
    ts = [ch.transmission for ch in channels]
    candidates = []
    for i in range(0, len(ts), _SCAN_BLOCK_ROWS):
        block = np.array(ts[i:i + _SCAN_BLOCK_ROWS])[:, None]
        p_exp, scores = _key_rate_array(spec, pairs, r, block, dark_b)
        rows, top = np.arange(len(scores)), np.argmax(scores, axis=1)
        best = scores[rows, top]
        near = ~_beats(best[:, None], p_exp[rows, top][:, None], scores, p_exp)
        # a row at -inf is model-invalid throughout: no candidate
        candidates += [tuple(np.flatnonzero(row).tolist()) if row_best > -math.inf else ()
                       for row, row_best in zip(near, best.tolist())]
    return list(zip(candidates, _lockstep_brackets(spec, r, dark_b, ts, candidates,
                                                    lambda_max)))


def _lockstep_brackets(
    spec: ProtocolSpec,
    r: HeraldResponse,
    dark_b: float,
    ts: list[float],
    candidates: list[tuple[int, ...]],
    lambda_max: float,
) -> list[tuple[float, float, float, float] | None]:
    """Golden-section state (a, b, c, d) at which each T left the lockstep;
    None for a T that never entered it.

    The T points with exactly one grid candidate, whose bracket the grid
    fixes, run optimize_lambda's golden-section steps together: each step
    scores one new point per T in one _key_rate_array pass.  A step's
    fc >= fd is taken from the array scores only where one _beats the other,
    or both are -inf (the validity mask is key_rate's), so it is key_rate's
    decision.  A T leaves when its bracket has converged, when its decision
    is not proven, or when fewer than _LOCKSTEP_MIN_ROWS T points would go
    on; optimize_lambda continues it.
    """
    brackets = [None] * len(ts)
    rows = np.array([i for i, found in enumerate(candidates) if len(found) == 1])
    if len(rows) < _LOCKSTEP_MIN_ROWS:
        return brackets
    grid = np.array(_lambda_grid(lambda_max)[0])
    top = np.array([candidates[i][0] for i in rows])
    t = np.array(ts)[rows]

    def score(lams, t):  # (p_exp, score) at one pump strength per row
        return _key_rate_array(spec, _pair_array(lams.tolist()), r, t, dark_b)

    # optimize_lambda's arithmetic, elementwise, so every bracket is its own
    a = grid[np.maximum(top - 1, 0)]
    b = grid[np.minimum(top + 1, _LAMBDA_GRID_POINTS - 1)]
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    (pc, fc), (pd, fd) = score(c, t), score(d, t)
    while True:
        proven = (_beats(fc, pc, fd, pd) | _beats(fd, pd, fc, pc)
                  | ((fc == -np.inf) & (fd == -np.inf)))
        stay = _searching(a, b) & proven
        if np.count_nonzero(stay) < _LOCKSTEP_MIN_ROWS:
            stay[:] = False
        leave = ~stay
        for i, state in zip(rows[leave].tolist(),
                            zip(*(x[leave].tolist() for x in (a, b, c, d)))):
            brackets[i] = state
        if not stay.any():
            return brackets
        rows, t, a, b, c, d, fc, fd, pc, pd = (
            x[stay] for x in (rows, t, a, b, c, d, fc, fd, pc, pd))
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        c, d = (np.where(left, b - _INV_GOLDEN * (b - a), d),
                np.where(left, c, a + _INV_GOLDEN * (b - a)))
        p_new, f_new = score(np.where(left, c, d), t)
        pc, pd = np.where(left, p_new, pd), np.where(left, pc, p_new)
        fc, fd = np.where(left, f_new, fd), np.where(left, fc, f_new)


def _short_distance_penalty(spec: ProtocolSpec, t: float) -> float:
    """I_AE2 - 2T: the short-distance cost of a multiphoton event."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {t}")
    return spec.i_ae_two - 2.0 * t


def _regime_penalty(spec: ProtocolSpec, t: float) -> float:
    """I_AE2 - 2T, required positive: only there does the short-distance
    expansion have an interior optimum in the pump strength."""
    if not (penalty := _short_distance_penalty(spec, t)) > 0.0:
        raise ValueError(f"short-distance approximation needs I_AE2 > 2T, got T = {t}")
    return penalty


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

    T q1 / (T q1 + (I_AE2 - 2T) q2), defined for I_AE2 > 2T.
    """
    if r.q1 == 0.0 and r.q2 == 0.0:
        raise ValueError("degenerate response: q1 = q2 = 0")
    penalty = _regime_penalty(spec, t)
    return t * r.q1 / (t * r.q1 + penalty * r.q2)


def short_distance_approx_rate(
    spec: ProtocolSpec, r: HeraldResponse, t: float
) -> float:
    """Leading-order key rate at the optimal pump strength, quadratic in T.

    (q1**2/q2) * p_sift * T**2 / (2 (I_AE2 - 2T)), defined for I_AE2 > 2T.
    Dividing by the WCP counterpart recovers the q1**2/q2 enhancement factor.
    """
    if r.q2 == 0.0:
        raise ZeroDivisionError("approximation undefined for q2 = 0")
    penalty = _regime_penalty(spec, t)
    return short_distance_factor(r) * spec.p_sift * t**2 / (2.0 * penalty)


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
    heralds absent, drive the pump down); singular at q2 = 0, where multipair
    events are perfectly sifted out and the bound decreases monotonically.
    """
    if r.q2 == 0.0:
        raise ZeroDivisionError(
            "optimal pump strength unbounded for q2 = 0 (perfect sifting)"
        )
    t1 = tmin_single_photon(spec, dark_b)
    return math.sqrt(2.0 * t1 * r.q0 / (spec.xi * r.q2))


def tmin_bound_heralded(
    spec: ProtocolSpec, r: HeraldResponse, dark_b: float, lam: float
) -> float:
    """Transmission lower bound for a heralded source at pump strength lam.

    (q2/2q1) xi lam + T_min1 (1 + (q0/q1)/lam); its minimum over lam is the
    heralded minimum transmission.
    """
    if r.q1 == 0.0:
        raise ZeroDivisionError("bound undefined for q1 = 0")
    if not lam > 0.0:  # a NaN is rejected too
        raise ValueError(f"pump strength must be positive, got {lam}")
    t1 = tmin_single_photon(spec, dark_b)
    return (
        r.q2 / (2.0 * r.q1) * spec.xi * lam
        + t1
        + t1 * (r.q0 / r.q1) / lam
    )


def tmin_heralded(spec: ProtocolSpec, r: HeraldResponse, dark_b: float) -> float:
    """Closed-form minimum transmission for a heralded source.

    T_min1 + sqrt(q0 q2)/q1 * T_minC: the ideal-source floor plus the WCP
    bound scaled by the detector's distance factor.
    """
    t_min_c, _ = tmin_wcp(spec, dark_b)
    return tmin_single_photon(spec, dark_b) + distance_factor(r) * t_min_c


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
    1e-3.  A step only needs that sign.  When the step's _grid_pass
    certifies a positive key_rate at a grid point, the optimum is positive
    too, so the step skips the golden section; only the other steps call
    optimize_lambda, handing it the step's grid candidates as its _plan, so
    each step makes one array pass.  The result is the one optimize_lambda
    at every step gives.
    """
    if dark_b <= 0.0:
        raise ValueError(f"dark_b must be positive, got {dark_b}")

    def positive(t: float) -> bool:
        ch = ChannelParams(transmission=t, dark_b=dark_b)
        candidates, certified = _grid_pass(spec, r, ch, lambda_max)
        # optimize_lambda never returns less than the grid's best key_rate
        return certified or optimize_lambda(
            spec, r, ch, lambda_max, _plan=(candidates, None)).key_rate > 0.0

    t_lo, t_hi = 1e-8, 1.0
    if not positive(t_hi) or positive(t_lo):
        raise RuntimeError(
            "no sign change of the optimized key rate on [1e-8, 1]"
        )
    while t_hi / t_lo - 1.0 > _TMIN_REL_TOL:
        t_mid = math.sqrt(t_lo * t_hi)
        if positive(t_mid):
            t_hi = t_mid
        else:
            t_lo = t_mid
    return t_hi


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
    transmissions in (T x lambda) array passes, and runs their golden
    sections in lockstep as array passes while enough T points search and
    each step's decision is proven (_lockstep_brackets).  It then calls
    optimize_lambda once per point with that T's plan, which rescores the
    grid candidates and finishes the T's search with key_rate; a point's
    evaluations counts only those calls, not the array passes.
    """
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("transmission grid must be nonempty")
    for t in t_grid:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"transmission must be in (0, 1], got {t}")
    channels = [ChannelParams(transmission=t, dark_b=dark_b) for t in t_grid]
    distinct = list(dict.fromkeys(channels))  # a repeated T is planned once
    plans = dict(zip(distinct, _scan_plan(spec, r, distinct, lambda_max)))
    return ScanSeries(points=[
        (ch.transmission, optimize_lambda(spec, r, ch, lambda_max, _plan=plans[ch]))
        for ch in channels])


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
    log_t = np.log10([t for t, _ in selected])
    log_k = np.log10([k for _, k in selected])
    exponent, intercept = np.polyfit(log_t, log_k, 1)
    return float(exponent), float(10.0**intercept)


def optimal_stage_count(
    eta_a: float, eta_c: float, dark_a: float, n_max: int
) -> int:
    """Stage count maximizing the short-distance factor q1**2/q2.

    Exhaustive argmax over 0..n_max; ties go to the smaller stage count.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    best_n, best_factor = 0, -math.inf
    for n in range(n_max + 1):
        params = MultiplexedDetectorParams(
            stages=n, eta_a=eta_a, dark_a=dark_a, eta_c=eta_c
        )
        factor = short_distance_factor(multiplexed_response(params))
        if factor > best_factor:
            best_n, best_factor = n, factor
    return best_n
