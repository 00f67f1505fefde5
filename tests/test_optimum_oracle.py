"""An optimizer-independent oracle for optimize_lambda's maximum.

optimize_lambda is checked elsewhere against a scalar rerun of its own grid
and golden section, which shares that search's blind spots.  The reference
here shares none of it: the supremum of key_rate over a dense logarithmic
scan of [1e-8, lambda_edge], and lambda_edge itself, where lambda_edge is
the largest model-valid pump strength up to lambda_max, found by bisecting
on whether key_rate is NaN (the valid pump strengths form one interval).
The optimizer's K must reach that supremum to within TOL_REL of its
magnitude, a tolerance fixed before any run: the golden section stops at a
relative width of 1e-6 in the pump strength, where K is flat to about 1e-12.

The positive side is that no scanned pump strength beats the optimizer.
The negative side is checked where tmin_numerical relies on it: at t_lo,
the lower end of the returned T_min's bisection bracket, whose sign is only
the optimizer's word, every pump strength must be proven nonpositive by
analysis._margin_bound over a cover of log-lambda cells, unless a sign
change just above t_lo leaves its margin too close to 0 for any cover.
For BB84 both hold as properties.  For SARG04 they do not yet: K is bimodal in the pump
strength, with a second rise up to the NaN edge, and the known misses are
pinned as strict xfails until the SARG04 edge item of ROADMAP.md makes the
optimizer score the edge.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heralded_qkd import analysis
from heralded_qkd.analysis import optimize_lambda, tmin_heralded, tmin_numerical
from heralded_qkd.keyrate import ChannelParams, key_rate
from heralded_qkd.protocol import BB84, SARG04
from heralded_qkd.source_detector import (
    MultiplexedDetectorParams,
    _pair_probabilities,
    multiplexed_response,
    poisson_pair_stats,
    wcp_response,
)

DENSE_POINTS = 1500
TOL_REL = 1e-9
LAMBDA_MIN = 1e-8


def score(spec, r, ch, lam):
    """key_rate at lam, model-invalid (NaN) as -inf."""
    k = key_rate(spec, poisson_pair_stats(lam), r, ch).key_rate
    return -math.inf if math.isnan(k) else k


def lambda_edge(spec, r, ch, lambda_max):
    """The largest pump strength in [1e-8, lambda_max] at which key_rate is
    model-valid, to the float, by bisection in log lambda; None when 1e-8
    is invalid already."""
    def valid(lam):
        return score(spec, r, ch, lam) > -math.inf

    if valid(lambda_max):
        return lambda_max
    if not valid(LAMBDA_MIN):
        return None
    lo, hi = LAMBDA_MIN, lambda_max
    while (mid := math.sqrt(lo * hi)) not in (lo, hi):
        lo, hi = (mid, hi) if valid(mid) else (lo, mid)
    return lo


def dense_supremum(spec, r, ch, lambda_max):
    """(supremum of key_rate over the dense scan and lambda_edge, lambda_edge);
    -inf and None when no pump strength is model-valid."""
    edge = lambda_edge(spec, r, ch, lambda_max)
    if edge is None:
        return -math.inf, None
    lo, hi = math.log10(LAMBDA_MIN), math.log10(edge)
    lams = [10.0 ** (lo + i * (hi - lo) / (DENSE_POINTS - 1)) for i in range(DENSE_POINTS)]
    return max(score(spec, r, ch, lam) for lam in lams + [edge]), edge


def reaches(k, supremum):
    return k >= supremum - TOL_REL * abs(supremum)


def detector(stages, eta_a, dark_a, eta_c):
    return multiplexed_response(MultiplexedDetectorParams(stages, eta_a, dark_a, eta_c))


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# WCP, binary (0 stages) and multiplexed sources over the bench pools' ranges
sources = st.one_of(
    st.just(wcp_response()),
    st.builds(detector, st.integers(0, 5), st.floats(0.3, 0.9), log_uniform(1e-7, 1e-5),
              st.floats(0.95, 1.0)),
)


@settings(max_examples=80, deadline=None)
@given(r=sources, t=log_uniform(1e-6, 0.5), dark_b=log_uniform(1e-6, 1e-4),
       lambda_max=log_uniform(1e-3, 1.0))
def test_bb84_optimum_reaches_dense_supremum(r, t, dark_b, lambda_max):
    ch = ChannelParams(t, dark_b)
    supremum, _ = dense_supremum(BB84, r, ch, lambda_max)
    assert reaches(optimize_lambda(BB84, r, ch, lambda_max).key_rate, supremum)


def moves(k, p_exp, tol=1e-11):
    """The directions, 1 a rise and -1 a fall, of k's moves by more than
    tol p_exp (at the point a move reaches), in order: each is measured
    from the extreme of the move before it, so a wiggle within the
    tolerance never counts, and each direction differs from the last."""
    dirs, ref = [], k[0] if k else None
    for x, p in zip(k[1:], p_exp[1:]):
        if dirs and (x - ref) * dirs[-1] > 0:  # the move goes on
            ref = x
        elif abs(x - ref) > tol * p:  # a move begins, or turns
            dirs.append(1 if x > ref else -1)
            ref = x
    return dirs


@settings(max_examples=200, deadline=None)
@given(r=sources, t=log_uniform(1e-7, 1.0), dark_b=log_uniform(1e-8, 1e-3),
       lambda_max=st.sampled_from([1e-2, 1.0, 3.0]))
def test_bb84_rate_falls_rises_falls_in_lambda(r, t, dark_b, lambda_max):
    # ROADMAP item 15's conjecture on BB84's shape in the pump strength,
    # on a 4,001-point log grid of [1e-8, lambda_max]: the model-valid
    # lambda form one interval, on which K turns at most twice, in the
    # order fall, rise, fall, and a final rise ends at lambda_max, never
    # at a validity edge below it
    lams = np.array(analysis._log_grid(math.log10(LAMBDA_MIN), math.log10(lambda_max), 4001))
    pairs = _pair_probabilities(lams, analysis._EXP, analysis._EXPM1)
    p_exp, k = analysis._key_rate_array(BB84, pairs, r, t, dark_b)
    valid = np.flatnonzero(k > -np.inf)
    assert valid.size == 0 or valid[-1] - valid[0] + 1 == valid.size
    span = slice(valid[0], valid[-1] + 1) if valid.size else slice(0)
    dirs = moves(k[span].tolist(), p_exp[span].tolist())
    assert dirs in [[-1, 1, -1][i:j] for i in range(4) for j in range(i, 4)]
    if dirs[-1:] == [1]:
        assert valid[-1] == lams.size - 1


# (T, multiplexed detector (stages, eta_a, dark_a, eta_c), d_B) at which
# SARG04's optimum is at the NaN edge and optimize_lambda stops on the
# interior peak below it.  At SIGN_FLIP, K = -4.2e-11 at lambda 1e-8, and
# the edge 1.822e-4 gives +1.13e-10: the sign flips
SIGN_FLIP = (1e-4, (4, 0.566601, 1.62464e-6, 0.952191), 6.27743e-6)
SARG04_EDGE_MISSES = [
    # K = 1.871e-8 at lambda 1.118e-3, converged; the edge 3.671e-3 gives 4.565e-8
    pytest.param(1e-3, (4, 0.845793, 5.0032e-6, 0.970667), 7.54658e-5, id="above-peak"),
    pytest.param(*SIGN_FLIP, id="sign-flip"),
]


@pytest.mark.parametrize("t, params, dark_b", SARG04_EDGE_MISSES)
def test_sarg04_misses_are_at_the_edge(t, params, dark_b):
    # what the xfails below fail on: K at the edge alone beats the
    # optimizer beyond the tolerance, from a pump strength far below it
    r, ch = detector(*params), ChannelParams(t, dark_b)
    edge = lambda_edge(SARG04, r, ch, 1.0)
    res = optimize_lambda(SARG04, r, ch)
    assert not reaches(res.key_rate, score(SARG04, r, ch, edge))
    assert res.lambda_opt < edge / 2.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the SARG04 edge item in ROADMAP.md: optimize_lambda does "
                          "not score the NaN edge, where this optimum is")
@pytest.mark.parametrize("t, params, dark_b", SARG04_EDGE_MISSES)
def test_sarg04_optimum_reaches_dense_supremum(t, params, dark_b):
    r, ch = detector(*params), ChannelParams(t, dark_b)
    supremum, _ = dense_supremum(SARG04, r, ch, 1.0)
    assert reaches(optimize_lambda(SARG04, r, ch).key_rate, supremum)


# bound evaluations a certificate may take: a guard on the search's time,
# not on what it proves, since a cover that completes is a proof whatever
# its size.  The cover's size is heavy-tailed and grows as t_lo nears the
# sign change above it: on the benchmark's 242 BB84 T_min pool configs the
# largest takes 12,971, but among 3,600 random draws of the property below
# 24 take more than 20,000 and the largest, 1.6 s at 389,385, lies 4.8e-8
# below the sign change
CERTIFICATE_CELLS = 1_000_000
# relative distance above t_lo within which a sign change leaves t_lo's
# margin too close to 0 for a cover within CERTIFICATE_CELLS: 1% of the
# bisection's tolerance, 200 times the distance of that largest cover
NEAR_SIGN_CHANGE = 1e-5


def certifies(spec, r, ch, lambda_max):
    """Whether key_rate is proven <= 0 or NaN at every pump strength in
    [1e-8, lambda_max]: a cover of log-lambda cells, each halved at
    sqrt(a b) until analysis._margin_bound over it falls below
    _PROVEN_NONPOSITIVE, within CERTIFICATE_CELLS bound evaluations.  A
    cell whose bound stays above that when it can no longer be halved in
    floats holds a margin within the bound's rounding of 0 or above it,
    which no cover proves."""
    cells, evaluated = [(LAMBDA_MIN, lambda_max)], 0
    while cells:
        if evaluated == CERTIFICATE_CELLS:
            return False
        a, b = cells.pop()
        evaluated += 1
        if not analysis._margin_bound(spec, r, ch, a, b) < analysis._PROVEN_NONPOSITIVE:
            if (mid := math.sqrt(a * b)) in (a, b):
                return False
            cells += [(a, mid), (mid, b)]
    return True


def bisection_lower_end(t_min):
    """t_lo of the plain bisection of [1e-8, 1] that ends at t_min: its
    sqrt(lo hi) midpoints replayed with the sign t >= t_min."""
    lo, hi = 1e-8, 1.0
    while hi / lo - 1.0 > analysis._TMIN_REL_TOL:
        mid = math.sqrt(lo * hi)
        lo, hi = (lo, mid) if mid >= t_min else (mid, hi)
    assert hi == t_min  # tmin_numerical returns a node of that bisection
    return lo


@settings(max_examples=80, deadline=None)
@given(r=sources, dark_b=log_uniform(1e-7, 1e-3), lambda_max=log_uniform(1e-2, 1.0))
def test_bb84_tmin_lower_end_certifies(r, dark_b, lambda_max):
    try:
        t_min = tmin_numerical(BB84, r, dark_b, lambda_max)
    except RuntimeError:  # no sign change on [1e-8, 1]
        assume(False)
    t_lo = bisection_lower_end(t_min)
    if not certifies(BB84, r, ChannelParams(t_lo, dark_b), lambda_max):
        # only a sign change just above t_lo leaves its margin within reach
        # of 0; then no scanned pump strength is positive at t_lo, and the
        # optimizer's positive key_rate just above it is an evaluated witness
        above = ChannelParams(t_lo * (1.0 + NEAR_SIGN_CHANGE), dark_b)
        assert dense_supremum(BB84, r, ChannelParams(t_lo, dark_b), lambda_max)[0] <= 0.0
        assert optimize_lambda(BB84, r, above, lambda_max).key_rate > 0.0


def test_certificate_fails_where_the_rate_is_positive():
    # at T_min itself some grid point has a positive key_rate, so no cover
    # can prove the cell that holds it
    r, dark_b = detector(3, 0.6, 1e-6, 0.98), 1e-5
    t_min = tmin_numerical(BB84, r, dark_b)
    assert certifies(BB84, r, ChannelParams(bisection_lower_end(t_min), dark_b), 1.0)
    assert not certifies(BB84, r, ChannelParams(t_min, dark_b), 1.0)


# SARG04 T_min pool configs (detector (stages, eta_a, dark_a, eta_c), None for
# WCP, and d_B) at whose t_lo the key rate at the NaN edge is positive: the
# maximized rate changes sign below the returned T_min, and no budget can
# certify t_lo.  On the pool 73 of 270 SARG04 configs certify (40 within
# 4,000 cells), and every one of the other 197 is positive at the edge
SARG04_UNCERTIFIED = [
    pytest.param(None, 1.83948e-05, id="wcp"),
    pytest.param((0, 0.343207, 4.04004e-06, 0.956233), 1.93281e-05, id="binary"),
    pytest.param((5, 0.310526, 1.45615e-07, 0.973249), 1.80269e-06, id="multiplexed"),
]


def sarg04_lower_end(params, dark_b):
    """(response, channel at t_lo) of a SARG04 config's returned T_min."""
    r = wcp_response() if params is None else detector(*params)
    t_min = tmin_numerical(SARG04, r, dark_b)
    return r, ChannelParams(bisection_lower_end(t_min), dark_b)


@pytest.mark.parametrize("params, dark_b", SARG04_UNCERTIFIED)
def test_sarg04_lower_end_is_positive_at_the_edge(params, dark_b):
    # what the xfails below fail on
    r, ch = sarg04_lower_end(params, dark_b)
    assert score(SARG04, r, ch, lambda_edge(SARG04, r, ch, 1.0)) > 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 2 of ROADMAP.md, the SARG04 edge: tmin_numerical "
                          "inherits optimize_lambda's miss at the NaN edge")
@pytest.mark.parametrize("params, dark_b", SARG04_UNCERTIFIED)
def test_sarg04_tmin_lower_end_certifies(params, dark_b):
    r, ch = sarg04_lower_end(params, dark_b)
    assert certifies(SARG04, r, ch, 1.0)


@settings(max_examples=80, deadline=None)
@given(r=sources, dark_b=log_uniform(1e-7, 1e-3), lambda_max=log_uniform(1e-2, 1.0),
       # T itself, or its relative distance delta below tmin_heralded
       draw=st.one_of(st.tuples(st.just("T"), log_uniform(1e-6, 0.5)),
                      st.tuples(st.just("delta"), log_uniform(1e-7, 0.5))))
def test_bb84_nonpositive_optimum_certifies(r, dark_b, lambda_max, draw):
    # the oracle's negative side at any T: where optimize_lambda's K is <= 0
    # (-inf included), no pump strength gives a positive key_rate
    kind, x = draw
    t = x if kind == "T" else (1.0 - x) * tmin_heralded(BB84, r, dark_b)
    assume(t <= 0.5)
    ch = ChannelParams(t, dark_b)
    assume(optimize_lambda(BB84, r, ch, lambda_max).key_rate <= 0.0)
    if not certifies(BB84, r, ch, lambda_max):
        # as at t_lo above: only a sign change just above T escapes a cover
        above = ChannelParams(t * (1.0 + NEAR_SIGN_CHANGE), dark_b)
        assert dense_supremum(BB84, r, ch, lambda_max)[0] <= 0.0
        assert optimize_lambda(BB84, r, above, lambda_max).key_rate > 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 2 of ROADMAP.md, the SARG04 edge: the nonpositive "
                          "optimum misses the positive rate at the NaN edge")
def test_sarg04_nonpositive_optimum_certifies():
    t, params, dark_b = SIGN_FLIP
    r, ch = detector(*params), ChannelParams(t, dark_b)
    assert optimize_lambda(SARG04, r, ch).key_rate > 0.0 or certifies(SARG04, r, ch, 1.0)


# a SARG04 scan_sweep pool config, lone: its converged bracket's midpoint
# lies past the NaN edge, so optimize_lambda falls back on the best grid
# point, below the best rate its golden section scored
BELOW_BEST = ((2, 0.578264, 8.94815e-06, 0.961248), 7.259190017171386e-05, 3.08045e-06)


def scored_lone_call(monkeypatch, params, t, dark_b):
    """(result, [(lam, report)] in scoring order) of a lone SARG04 call."""
    r, ch, scored = detector(*params), ChannelParams(t, dark_b), []

    def recording_key_rate(spec, stats, r, ch):
        scored.append((lams.pop(), key_rate(spec, stats, r, ch)))
        return scored[-1][1]

    def recording_pair_stats(lam):
        lams.append(lam)
        return poisson_pair_stats(lam)

    lams = []
    monkeypatch.setattr(analysis, "key_rate", recording_key_rate)
    monkeypatch.setattr(analysis, "poisson_pair_stats", recording_pair_stats)
    return optimize_lambda(SARG04, r, ch), scored


def test_returns_the_grid_point_when_the_midpoint_is_past_the_edge(monkeypatch):
    res, scored = scored_lone_call(monkeypatch, *BELOW_BEST)
    grid = analysis._lambda_grid(1.0)[0]
    assert res.lambda_opt == grid[102] == pytest.approx(1.2604e-4, rel=1e-4)
    assert res.key_rate == pytest.approx(1.320e-11, rel=1e-3) and res.converged
    best = max(report.key_rate for _, report in scored if not math.isnan(report.key_rate))
    assert best == pytest.approx(1.466e-10, rel=1e-3)
    assert (best - res.key_rate) / res.report.p_exp == pytest.approx(0.024, rel=0.02)
    # the last score is the bracket's midpoint, NaN past the edge
    r, ch = detector(*BELOW_BEST[0]), ChannelParams(*BELOW_BEST[1:])
    edge = lambda_edge(SARG04, r, ch, 1.0)
    assert edge == pytest.approx(1.36345e-4, rel=1e-5)
    mid, report = scored[-1]
    assert mid > edge and math.isnan(report.key_rate)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="item 2 of ROADMAP.md, the SARG04 edge: optimize_lambda "
                          "returns below the best rate it scored")
def test_returns_the_best_rate_it_scored(monkeypatch):
    res, scored = scored_lone_call(monkeypatch, *BELOW_BEST)
    assert res.key_rate == max(
        report.key_rate for _, report in scored if not math.isnan(report.key_rate))
