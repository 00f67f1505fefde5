"""Pump-strength optimization, closed-form limits and scaling fits.

Numerical optimization of the key rate over the pump strength is done per
channel transmission with a coarse logarithmic grid, scored in one array
pass, followed by golden-section refinement (unimodality is not assumed up
front; the grid locates the global bracket).  The short-distance and
minimum-transmission closed forms from the analytical treatment are provided
alongside numerical oracles for both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .keyrate import (
    _KEY_RATE_ARRAY_TOL, ChannelParams, KeyRateReport, _key_rate_array, key_rate,
)
from .protocol import ProtocolSpec
from .source_detector import (
    HeraldResponse,
    MultiplexedDetectorParams,
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


@lru_cache(maxsize=8)
def _lambda_grid(lambda_max: float) -> tuple[tuple[float, ...], np.ndarray]:
    """Coarse logarithmic pump-strength grid, and its pair statistics as a
    read-only (p0, p1, p2) array of shape (3, grid size).

    Depends only on lambda_max, so one build serves every optimization that
    shares it; the array is read-only because every caller gets the same one.
    """
    # an inf from overflow is rejected by poisson_pair_stats; no numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.logspace(math.log10(_LAMBDA_MIN), math.log10(lambda_max),
                           _LAMBDA_GRID_POINTS)
    grid = tuple(float(x) for x in grid)
    stats = [poisson_pair_stats(lam) for lam in grid]
    pairs = np.array([[getattr(s, p) for s in stats] for p in ("p0", "p1", "p2")])
    pairs.flags.writeable = False
    return grid, pairs


@lru_cache(maxsize=1)
def _grid_pass(
    spec: ProtocolSpec, r: HeraldResponse, ch: ChannelParams, lambda_max: float
) -> tuple[tuple[int, ...], bool]:
    """(candidates, certified) from one _key_rate_array pass over the coarse
    pump-strength grid.

    An array rate is within _KEY_RATE_ARRAY_TOL * p_exp of key_rate's where
    the point is model-valid, and scores -inf where it is not.  candidates
    are the grid indices, in order, that key_rate's first maximum can be at
    (empty when no point is model-valid); certified is True when a point's
    key_rate, and so the optimum, is proven positive.  The last setting is
    memoized, so a tmin_numerical sign test and the optimize_lambda call
    after it share one pass.
    """
    if not _LAMBDA_MIN < lambda_max:  # a NaN is rejected too
        raise ValueError(f"bounds need lambda_max > {_LAMBDA_MIN}, got {lambda_max}")
    p_exp, rates = _key_rate_array(spec, _lambda_grid(lambda_max)[1], r, ch)
    scores = np.where(np.isnan(rates), -np.inf, rates)
    top = int(np.argmax(scores))
    if scores[top] == -np.inf:  # the validity mask is key_rate's, bit for bit
        return (), False
    # Each array score is within tol * p_exp of key_rate's, so key_rate's first
    # maximum is among the points within both points' tolerances of the array
    # maximum, and every point outside them scores strictly below it.
    near = scores >= scores[top] - _KEY_RATE_ARRAY_TOL * (p_exp + p_exp[top])
    # a point clearing its own tolerance has key_rate > 0 there
    certified = bool((scores > _KEY_RATE_ARRAY_TOL * p_exp).any())
    return tuple(np.flatnonzero(near).tolist()), certified


def optimize_lambda(
    spec: ProtocolSpec,
    r: HeraldResponse,
    ch: ChannelParams,
    lambda_max: float = DEFAULT_LAMBDA_MAX,
) -> OptimizationResult:
    """Maximize the key rate over the pump strength in [1e-8, lambda_max].

    A 200-point logarithmic grid over that range locates the best bracket,
    which is then refined by golden-section search to relative tolerance
    1e-6 in the pump strength.  The grid is scored in one array pass
    (_grid_pass), and only the candidate points near its best are rescored
    with key_rate, so the bracket is the one a key_rate call at every grid
    point would give.  Every score comes from one evaluator, so evaluations
    is the number of key_rate calls by construction, each pump strength
    evaluated once (0 when no grid point is model-valid).  converged is
    False when the optimum sits at a bound or when no probed point was
    model-valid.
    """
    candidates = _grid_pass(spec, r, ch, lambda_max)[0]
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

    a = grid[max(best_idx - 1, 0)]
    b = grid[min(best_idx + 1, _LAMBDA_GRID_POINTS - 1)]

    # golden-section refinement on the bracket
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = evaluate(c)
    fd = evaluate(d)
    while (b - a) > _LAMBDA_REL_TOL * b:
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


def _short_distance_penalty(spec: ProtocolSpec, t: float) -> float:
    """I_AE2 - 2T: the short-distance cost of a multiphoton event."""
    if not 0.0 < t <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {t}")
    return spec.i_ae_two - 2.0 * t


def _regime_penalty(spec: ProtocolSpec, t: float) -> float:
    """I_AE2 - 2T, required positive: only there does the short-distance
    expansion have an interior optimum in the pump strength."""
    penalty = _short_distance_penalty(spec, t)
    if not penalty > 0.0:
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
    optimize_lambda, which reuses the step's memoized pass.  The result is
    the one optimize_lambda at every step gives.
    """
    if dark_b <= 0.0:
        raise ValueError(f"dark_b must be positive, got {dark_b}")

    def positive(t: float) -> bool:
        ch = ChannelParams(transmission=t, dark_b=dark_b)
        # optimize_lambda never returns less than the grid's best key_rate
        return (_grid_pass(spec, r, ch, lambda_max)[1]
                or optimize_lambda(spec, r, ch, lambda_max).key_rate > 0.0)

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
    """Optimize the pump strength, up to lambda_max, at each grid transmission."""
    t_grid = list(t_grid)
    if not t_grid:
        raise ValueError("transmission grid must be nonempty")
    for t in t_grid:
        if not 0.0 < t <= 1.0:
            raise ValueError(f"transmission must be in (0, 1], got {t}")
    points = []
    for t in t_grid:
        ch = ChannelParams(transmission=t, dark_b=dark_b)
        points.append((t, optimize_lambda(spec, r, ch, lambda_max)))
    return ScanSeries(points=points)


def fit_power_law(series: ScanSeries) -> tuple[float, float]:
    """Fit K = prefactor * T**exponent over secure scan points.

    Least squares on log K versus log T over the top decade of secure
    transmissions, where the quadratic scaling holds.
    Returns (exponent, prefactor).
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
    if len(selected) < 3:
        raise ValueError(f"need at least 3 secure points in window "
                         f"({t_max / 10.0}, {t_max}), got {len(selected)}")
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
