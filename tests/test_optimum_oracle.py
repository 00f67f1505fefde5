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

Only the positive side is here: that no scanned pump strength beats the
optimizer.  For BB84 it holds as a property.  For SARG04 it does not yet:
K is bimodal in the pump strength, with a second rise up to the NaN edge,
and the known misses are pinned as strict xfails until the SARG04 edge item
of ROADMAP.md makes the optimizer score the edge.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heralded_qkd.analysis import optimize_lambda
from heralded_qkd.keyrate import ChannelParams, key_rate
from heralded_qkd.protocol import BB84, SARG04
from heralded_qkd.source_detector import (
    MultiplexedDetectorParams,
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


# (T, multiplexed detector (stages, eta_a, dark_a, eta_c), d_B) at which
# SARG04's optimum is at the NaN edge and optimize_lambda stops on the
# interior peak below it
SARG04_EDGE_MISSES = [
    # K = 1.871e-8 at lambda 1.118e-3, converged; the edge 3.671e-3 gives 4.565e-8
    pytest.param(1e-3, (4, 0.845793, 5.0032e-6, 0.970667), 7.54658e-5, id="above-peak"),
    # K = -4.2e-11 at lambda 1e-8; the edge 1.822e-4 gives +1.13e-10: the
    # sign flips
    pytest.param(1e-4, (4, 0.566601, 1.62464e-6, 0.952191), 6.27743e-6, id="sign-flip"),
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
