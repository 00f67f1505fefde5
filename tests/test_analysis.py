import dataclasses
import decimal
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heralded_qkd import analysis, protocol
from heralded_qkd.analysis import (
    _KEY_RATE_ARRAY_TOL,
    _key_rate_array,
    fit_power_law,
    lambda_opt_heralded,
    optimal_stage_count,
    optimize_lambda,
    scan_key_rate,
    short_distance_approx_rate,
    short_distance_key_rate,
    short_distance_lambda,
    tmin_bound_heralded,
    tmin_heralded,
    tmin_numerical,
    tmin_single_photon,
    tmin_wcp,
)
from heralded_qkd.keyrate import ChannelParams, KeyRateReport, key_rate
from heralded_qkd.protocol import BB84, SARG04, binary_entropy
from heralded_qkd.source_detector import (
    HeraldResponse,
    MultiplexedDetectorParams,
    _pair_probabilities,
    approx_distance_factor,
    distance_factor,
    multiplexed_response,
    poisson_pair_stats,
    short_distance_factor,
    wcp_response,
)

IDEAL_HERALD = HeraldResponse(q0=0.0, q1=1.0, q2=0.0)


def binary_response(eta_a=0.6, dark_a=1e-6):
    return multiplexed_response(
        MultiplexedDetectorParams(stages=0, eta_a=eta_a, dark_a=dark_a)
    )


def grid_stats(lambda_max):
    """Pair statistics of the coarse grid's points, built as the optimizer
    builds the ones it rescores."""
    return [poisson_pair_stats(lam) for lam in analysis._lambda_grid(lambda_max)[0]]


class TestOptimizeLambda:
    def test_high_transmission_matches_short_distance_formula(self):
        r = binary_response()
        ch = ChannelParams(0.1, 1e-5)
        res = optimize_lambda(BB84, r, ch)
        lam_short = short_distance_lambda(BB84, r, 0.1)
        assert res.converged
        assert res.lambda_opt == pytest.approx(lam_short, rel=0.15)

    def test_near_tmin_matches_heralded_formula(self):
        r = binary_response()
        d_b = 1e-5
        t = 1.05 * tmin_heralded(BB84, r, d_b)
        res = optimize_lambda(BB84, r, ChannelParams(t, d_b))
        formula = lambda_opt_heralded(BB84, r, d_b)
        assert abs(res.lambda_opt - formula) / res.lambda_opt < 0.25

    def test_ideal_heralding_pushes_to_poisson_peak(self):
        # K = p_sift T lam e^-lam peaks at lam = 1, the upper bound
        res = optimize_lambda(BB84, IDEAL_HERALD, ChannelParams(0.1, 0.0))
        assert res.lambda_opt == pytest.approx(1.0, rel=1e-4)
        assert not res.converged  # optimum at the bound

    def test_true_maximizer(self):
        rng = random.Random(3)
        r = binary_response()
        ch = ChannelParams(0.01, 1e-5)
        res = optimize_lambda(BB84, r, ch)
        for _ in range(100):
            lam = math.exp(rng.uniform(math.log(1e-8), 0.0))
            probe = key_rate(BB84, poisson_pair_stats(lam), r, ch)
            if math.isnan(probe.key_rate):
                continue
            assert res.key_rate >= probe.key_rate - 1e-12

    def test_all_invalid_scan(self):
        # zero detection probability everywhere: T=0 and no dark counts
        res = optimize_lambda(BB84, wcp_response(), ChannelParams(0.0, 0.0))
        assert not res.converged
        assert res.key_rate == -math.inf

    @pytest.mark.parametrize("lambda_max", [1e-8, 0.0, -1.0, math.nan, math.inf,
                                            1.7976931348623157e308])
    def test_bad_bounds(self, lambda_max):
        with pytest.raises(ValueError, match="bounds"):
            optimize_lambda(BB84, wcp_response(), ChannelParams(0.1, 0.0), lambda_max)

    @pytest.mark.parametrize("spec, t, on_grid", [
        pytest.param(BB84, 1e-5, True, id="spec0-1e-05"),
        pytest.param(SARG04, 1.0, True, id="spec1-1.0"),
        pytest.param(BB84, 9e-5, False, id="spec0-9e-05"),
        pytest.param(SARG04, 0.0, False, id="spec1-0.0"),
    ])
    def test_grid_optimum_scored_once(self, monkeypatch, spec, t, on_grid):
        # a lone, a sign-only and a planned call (the plan scan_key_rate
        # gives this T in a 21-point scan, whose lockstep brackets it) score
        # each pump strength once.  Sub-threshold (lambda at the lower bound)
        # and lambda at the upper bound, the optimum is a grid point, whose
        # report is reused.  Just below T_min the sign-only call's
        # closed-form point is also its one grid candidate.  At T = 0 a WCP
        # source has no model-valid grid point, and only the sign-only call
        # scores a point: the closed-form one, before it finds no candidate.
        r = binary_response() if t > 0.0 else wcp_response()
        ch = ChannelParams(t, 1e-5)
        calls = {"lone": {}, "sign-only": {"_sign_only": True}}
        if t > 0.0:
            plans, ts = recorded_plans(monkeypatch), analysis._log_grid(-5.0, 0.0, 20) + [t]
            scan_key_rate(spec, r, ch.dark_b, ts)
            calls["planned"] = {"_plan": plans[ts.index(t)]}
            assert calls["planned"]["_plan"][1] is not None  # a lockstep bracket
        scored = []

        def recording_key_rate(spec, stats, r, ch):
            scored.append(stats)
            return key_rate(spec, stats, r, ch)

        monkeypatch.setattr(analysis, "key_rate", recording_key_rate)
        for name, kwargs in calls.items():
            scored.clear()
            res = optimize_lambda(spec, r, ch, **kwargs)
            # no pump strength reaches key_rate twice, and each call counts
            assert len(set(scored)) == len(scored) == res.evaluations, name
            if t == 0.0:
                assert (res.report, res.evaluations) == (None, int("_sign_only" in kwargs))
                continue
            if on_grid:
                assert res.lambda_opt in TestLambdaGrid.fresh_grid(1e-8, 1.0, 200)[0], name
            assert res.report == key_rate(spec, poisson_pair_stats(res.lambda_opt), r, ch)


class TestLambdaGrid:
    """The cached coarse grid must equal a fresh build, bit for bit."""

    @staticmethod
    def fresh_grid(lo, hi, n):
        # libm's pow of np.linspace's exponents: numpy's own power would round
        # differently on CPUs with AVX-512
        exponents = np.linspace(math.log10(lo), math.log10(hi), n).tolist()
        grid = [10.0**x for x in exponents]
        return grid, [poisson_pair_stats(lam) for lam in grid]

    @settings(max_examples=300, deadline=None)
    @given(lo=st.floats(-1e3, 1e3), hi=st.floats(-1e3, 1e3), n=st.integers(2, 500))
    def test_linear_grid_is_linspace(self, lo, hi, n):
        # np.linspace has a second formula for a step that underflows to 0;
        # no grid comes near it
        assume(lo == hi or (hi - lo) / (n - 1) != 0.0)
        grid = analysis._linear_grid(lo, hi, n)
        assert [x.hex() for x in grid] == [x.hex() for x in np.linspace(lo, hi, n).tolist()]

    def test_matches_logspace_and_pair_stats(self):
        grid, pairs = analysis._lambda_grid(1.0)
        assert isinstance(grid, tuple)
        expected_grid, expected_stats = self.fresh_grid(1e-8, 1.0, 200)
        assert list(grid) == expected_grid
        # the (p0, p1, p2) arrays hold fresh pair statistics bit for bit, and
        # no caller can write to them
        assert pairs.shape == (3, 200) and pairs.dtype == np.float64
        for row, name in zip(pairs, ("p0", "p1", "p2")):
            assert row.tolist() == [getattr(s, name) for s in expected_stats]
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.0

    def test_cold_and_warm_cache_agree(self):
        r = multiplexed_response(
            MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=1e-6, eta_c=0.98)
        )
        ch = ChannelParams(0.01, 1e-5)
        analysis._lambda_grid.cache_clear()
        cold = optimize_lambda(BB84, r, ch)
        assert analysis._lambda_grid.cache_info().misses == 1
        warm = optimize_lambda(BB84, r, ch)
        assert analysis._lambda_grid.cache_info().hits >= 1
        assert warm == cold
        # one scalar key_rate call for the near-best grid point, 2 + 26 in the
        # golden section, one at the final midpoint
        assert cold.evaluations == 30

    def test_custom_lambda_max(self, monkeypatch):
        # all three searches share one grid, and no optimum passes lambda_max
        # (K = p_sift T lam e^-lam for an ideal herald peaks at lam = 1)
        results = []

        def recording_optimize(*args, _plan=None, _sign_only=False):
            results.append(optimize_lambda(*args, _plan=_plan, _sign_only=_sign_only))
            return results[-1]

        monkeypatch.setattr(analysis, "optimize_lambda", recording_optimize)
        analysis._lambda_grid.cache_clear()
        analysis.optimize_lambda(BB84, IDEAL_HERALD, ChannelParams(0.1, 1e-5), 0.5)
        scan_key_rate(BB84, IDEAL_HERALD, 1e-5, [0.01, 0.1, 1.0], lambda_max=0.5)
        tmin_numerical(BB84, IDEAL_HERALD, 1e-5, lambda_max=0.5)
        info = analysis._lambda_grid.cache_info()
        assert (info.currsize, info.misses) == (1, 1)
        lams = [res.lambda_opt for res in results]
        assert len(lams) > 4 and max(lams) == pytest.approx(0.5, rel=1e-5)
        assert all(lam <= 0.5 for lam in lams)
        grid, pairs = analysis._lambda_grid(0.5)
        expected_grid, expected_stats = self.fresh_grid(1e-8, 0.5, 200)
        assert list(grid) == expected_grid
        assert pairs.T.tolist() == [[s.p0, s.p1, s.p2] for s in expected_stats]


# Configurations for the array-kernel and argmax oracle properties: both
# protocols; WCP, binary, multiplexed and custom responses; T including 0
# and 1, and d_B including 0.
unit = st.floats(0.0, 1.0)
tiny = st.floats(0.0, sys.float_info.min)  # 0, the subnormals and the least normal
log_small = st.floats(-10.0, 0.0).map(lambda e: 10.0**e)
source_responses = st.one_of(
    st.just(wcp_response()),
    st.builds(binary_response, unit, log_small),
    st.builds(
        lambda n, eta_a, dark_a, eta_c: multiplexed_response(
            MultiplexedDetectorParams(n, eta_a, dark_a, eta_c)),
        st.integers(1, 8), unit, log_small, unit,
    ),
)
responses = st.one_of(source_responses, st.builds(HeraldResponse, unit, unit, unit))
transmissions = st.one_of(st.sampled_from([0.0, 1.0]), unit, log_small)
dark_counts = st.one_of(st.just(0.0), log_small.map(lambda d: 0.1 * d))
lambda_maxes = st.sampled_from([1.0, 0.5, 10.0])


def optimizer_score(k):
    """A key rate as the optimizer scores it: a model-invalid NaN is -inf."""
    return -math.inf if math.isnan(k) else k


def assert_array_agrees(spec, r, ch, lambda_max=1.0):
    """_key_rate_array against key_rate at every grid point: p_exp exactly, a
    score of -inf exactly where key_rate is NaN, any other score within
    _KEY_RATE_ARRAY_TOL * p_exp of key_rate."""
    p_exp, scores = _key_rate_array(spec, analysis._lambda_grid(lambda_max)[1], r,
                                    ch.transmission, ch.dark_b)
    for i, s in enumerate(grid_stats(lambda_max)):
        rep = key_rate(spec, s, r, ch)
        assert p_exp[i] == rep.p_exp
        assert (scores[i] == -math.inf) == math.isnan(rep.key_rate)
        if not math.isnan(rep.key_rate):
            assert abs(scores[i] - rep.key_rate) <= _KEY_RATE_ARRAY_TOL * rep.p_exp


def exact_log2(x):
    """math.log2 elementwise, with np.log2's -inf at 0 and NaN below 0."""
    def one(v):
        return -math.inf if v == 0.0 else math.log2(v) if v > 0.0 else math.nan

    return np.vectorize(one, otypes=[float])(x)


def sarg04_edge_transmission(stats, r, dark_b):
    """Smallest float T in (0, 1] at which key_rate is SARG04-valid, or None.

    Validity only grows with T (Q/y falls), so bisection over the floats
    lands where Q/y first reaches q_max.
    """
    def valid(t):
        rep = key_rate(SARG04, stats, r, ChannelParams(t, dark_b))
        return not math.isnan(rep.key_rate)

    lo, hi = 0.0, 1.0
    if valid(lo) or not valid(hi):
        return None
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (lo, mid) if valid(mid) else (mid, hi)
    return hi


class TestKeyRateArray:
    @settings(max_examples=150, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=responses, t=transmissions,
           dark_b=dark_counts, lambda_max=lambda_maxes)
    def test_agrees_with_key_rate(self, spec, r, t, dark_b, lambda_max):
        assert_array_agrees(spec, r, ChannelParams(t, dark_b), lambda_max)

    @settings(max_examples=60, deadline=None)
    @given(r=responses, dark_b=log_small.map(lambda d: 0.1 * d),
           i=st.integers(0, 199), ulps=st.integers(-3, 3))
    def test_agrees_at_sarg04_domain_edge(self, r, dark_b, i, ulps):
        # T where Q/y reaches q_max at grid point i, and its float neighbours
        t = sarg04_edge_transmission(grid_stats(1.0)[i], r, dark_b)
        assume(t is not None)
        for _ in range(abs(ulps)):
            t = math.nextafter(t, math.copysign(math.inf, ulps))
        assume(0.0 <= t <= 1.0)
        assert_array_agrees(SARG04, r, ChannelParams(t, dark_b))

    def test_domain_edge_is_hit_exactly(self):
        # at least one of these rows has a grid point with Q/y == q_max
        stats = grid_stats(1.0)
        hits = 0
        for i in range(0, 200, 10):
            t = sarg04_edge_transmission(stats[i], wcp_response(), 1e-5)
            rep = key_rate(SARG04, stats[i], wcp_response(), ChannelParams(t, 1e-5))
            hits += rep.qber / rep.y == SARG04.q_max
            assert_array_agrees(SARG04, wcp_response(), ChannelParams(t, 1e-5))
        assert hits > 0

    @settings(max_examples=150, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=responses, t=transmissions,
           dark_b=dark_counts, lambda_max=lambda_maxes)
    def test_equals_key_rate_with_exact_log2(self, spec, r, t, dark_b, lambda_max):
        # the premise of _KEY_RATE_ARRAY_TOL and of the scan's lockstep: log2
        # is the kernels' only difference, so with math.log2, as exact_log2
        # or as the lockstep's _LOG2, every score is key_rate's optimizer
        # score bit for bit
        ch = ChannelParams(t, dark_b)
        reports = [key_rate(spec, s, r, ch) for s in grid_stats(lambda_max)]
        for log2 in (exact_log2, analysis._LOG2):
            p_exp, scores = _key_rate_array(spec, analysis._lambda_grid(lambda_max)[1],
                                            r, t, dark_b, log2)
            assert p_exp.tolist() == [rep.p_exp for rep in reports]
            assert [x.hex() for x in scores.tolist()] == [
                optimizer_score(rep.key_rate).hex() for rep in reports]

    @settings(max_examples=150, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=responses, dark_b=dark_counts,
           points=st.lists(st.tuples(transmissions, st.floats(-8.0, 1.0).map(
               lambda e: 10.0**e)), min_size=1, max_size=40))
    def test_lockstep_shapes_equal_key_rate(self, spec, r, dark_b, points):
        # a lockstep pass: a vector of T against as many off-grid lambda,
        # and a rescoring pass: those T against a (2, T) stack of lambda,
        # each scored through _LOG2, is key_rate at each (T, lambda) bit for bit
        t, lams = (list(x) for x in zip(*points))
        for lam_rows in ([lams], [lams, lams[::-1]]):
            pairs = _pair_probabilities(np.array(lam_rows), analysis._EXP, analysis._EXPM1)
            p_exp, scores = _key_rate_array(spec, pairs, r, np.array(t), dark_b,
                                            analysis._LOG2)
            reports = [key_rate(spec, poisson_pair_stats(lam), r, ChannelParams(ti, dark_b))
                       for row in lam_rows for ti, lam in zip(t, row)]
            assert p_exp.ravel().tolist() == [rep.p_exp for rep in reports]
            assert [x.hex() for x in scores.ravel().tolist()] == [
                optimizer_score(rep.key_rate).hex() for rep in reports]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                    min_size=1, max_size=60))
    def test_log2_is_libm_log2(self, xs):
        # bit for bit on positive floats, subnormals included; a negative x
        # (only in entries the validity mask discards) takes log2 |x|
        expected = [math.log2(x).hex() for x in xs]
        assert [y.hex() for y in analysis._LOG2(np.array(xs)).tolist()] == expected
        assert [y.hex() for y in analysis._LOG2(-np.array(xs)).tolist()] == expected
        assert [y.hex() for y in analysis._LOG2(np.array([xs, xs])).ravel().tolist()] == (
            2 * expected)
        assert math.isnan(analysis._LOG2(np.array([math.nan]))[0])

    @settings(max_examples=150, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=source_responses,
           t=transmissions, dark_b=dark_counts, lambda_max=lambda_maxes)
    def test_beats_proves_key_rate_order(self, spec, r, t, dark_b, lambda_max):
        # the one proof rule for array scores, over every pair of grid points:
        # a point that _beats another has the higher key_rate, NaN counting
        # as -inf, and a point that _beats 0 at p_exp 0 has key_rate > 0
        ch = ChannelParams(t, dark_b)
        p_exp, scores = _key_rate_array(spec, analysis._lambda_grid(lambda_max)[1], r,
                                        t, dark_b)
        k = np.array([optimizer_score(key_rate(spec, s, r, ch).key_rate)
                      for s in grid_stats(lambda_max)])
        beats = analysis._beats(scores[:, None], p_exp[:, None], scores, p_exp)
        assert not (beats & ~(k[:, None] > k)).any()
        assert not (analysis._beats(scores, p_exp, 0.0, 0.0) & ~(k > 0.0)).any()

    def test_zero_and_undefined_points(self):
        # nothing detected (p_exp 0), Q = 0 (0*log2(0)), and y <= 0
        for spec in (BB84, SARG04):
            assert_array_agrees(spec, wcp_response(), ChannelParams(0.0, 0.0))
            assert_array_agrees(spec, IDEAL_HERALD, ChannelParams(0.3, 0.0))
            assert_array_agrees(spec, HeraldResponse(0.0, 1e-6, 1.0),
                                ChannelParams(1e-6, 1e-6), lambda_max=10.0)

    def test_log2_within_derived_ulps(self):
        # the premise of _KEY_RATE_ARRAY_TOL's derivation: np.log2 and
        # math.log2 are at most 4 ulp apart over the kernel's arguments in
        # [0, 1], sampled log-uniform down to 1e-300 and float by float
        # around 1, 1/2 and 1/3, where the information functions' terms sit
        centres = np.array([1.0, 0.5, 1.0 / 3.0]).view(np.int64)
        near = (centres[:, None] + np.arange(-64, 65)).ravel().view(np.float64)
        x = np.concatenate([
            10.0 ** np.random.default_rng(0).uniform(-300.0, 0.0, 200_000), near])
        x = x[x <= 1.0]
        exact = np.fromiter(map(math.log2, x.tolist()), float, len(x))
        # every log2 here is <= 0, so their bits as integers are 1 apart per
        # ulp (a sign mismatch would read as a huge distance)
        assert np.abs(np.log2(x).view(np.int64) - exact.view(np.int64)).max() <= 4

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(-8.0, 1.0).map(lambda e: 10.0**e),
        # 0, the smallest float, and where -expm1(-lam) - p1 cancels
        st.sampled_from([0.0, 5e-324, 1e-16, 1e-8, 1.0])), min_size=1, max_size=80))
    def test_pair_probabilities_over_an_array(self, lams):
        # each entry of the arrays is the float result at its lam, bit for bit
        pairs = _pair_probabilities(np.array(lams), analysis._EXP, analysis._EXPM1)
        for column, lam in zip(zip(*(x.tolist() for x in pairs)), lams):
            assert [x.hex() for x in column] == [
                x.hex() for x in _pair_probabilities(lam)]

    @pytest.mark.parametrize("lambda_max", [1e-6, 0.26, 1.0, 10.0])
    def test_lambda_grid_pairs_are_pair_probabilities(self, lambda_max):
        # _lambda_grid's read-only (3, n) array holds each grid point's float
        # (p0, p1, p2) in its column
        grid, pairs = analysis._lambda_grid(lambda_max)
        assert pairs.shape == (3, len(grid)) and not pairs.flags.writeable
        for column, lam in zip(pairs.T.tolist(), grid):
            assert [x.hex() for x in column] == [
                x.hex() for x in _pair_probabilities(lam)]


def scalar_optimize_lambda(spec, r, ch, lambda_max=1.0):
    """The full-scalar optimizer: key_rate at every grid point, then the same
    golden section.  The reference that optimize_lambda must equal."""
    grid = analysis._lambda_grid(lambda_max)[0]
    n = len(grid)

    def score(lam):
        report = analysis.key_rate(spec, poisson_pair_stats(lam), r, ch)
        return (-math.inf if math.isnan(report.key_rate) else report.key_rate), report

    scored = [score(lam) for lam in grid]
    evaluations = n
    best_idx = max(range(n), key=lambda i: scored[i][0])
    best_score, best_report = scored[best_idx]
    if best_score == -math.inf:
        return analysis.OptimizationResult(math.nan, None, False, evaluations)
    a, b = grid[max(best_idx - 1, 0)], grid[min(best_idx + 1, n - 1)]
    g = analysis._INV_GOLDEN
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = score(c)[0], score(d)[0]
    evaluations += 2
    while (b - a) > analysis._LAMBDA_REL_TOL * b:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = score(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = score(d)[0]
        evaluations += 1
    lam_opt = 0.5 * (a + b)
    final, report = score(lam_opt)
    evaluations += 1
    if best_score > final:
        lam_opt, report = grid[best_idx], best_report
    at_bound = best_idx in (0, n - 1) and (
        lam_opt <= 1e-8 * (1.0 + 1e-5) or lam_opt >= lambda_max * (1.0 - 1e-5))
    return analysis.OptimizationResult(lam_opt, report, not at_bound, evaluations)


def assert_matches_scalar_optimizer(spec, r, ch, lambda_max=1.0):
    # key_rate calls counted by a patch here, not a fixture: this runs under
    # @given, and the patch wraps whatever key_rate the test installed
    calls = []

    def counting_key_rate(*args):
        calls.append(args)
        return scored_key_rate(*args)

    scored_key_rate = analysis.key_rate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "key_rate", counting_key_rate)
        got = optimize_lambda(spec, r, ch, lambda_max)
    assert len(calls) == got.evaluations
    ref = scalar_optimize_lambda(spec, r, ch, lambda_max)
    # repr compares NaN fields too; evaluations differ by design
    assert repr(dataclasses.replace(got, evaluations=0)) == repr(
        dataclasses.replace(ref, evaluations=0))
    if ref.report is None:
        assert got.evaluations == 0
    else:  # the same golden section; the rest are the rescored grid points
        assert 1 <= got.evaluations - (ref.evaluations - 200) <= 200
        # a returned report is model-valid, so key_rate is its rate
        assert not math.isnan(got.report.key_rate)
        assert got.key_rate == got.report.key_rate
    return got


def plateau_key_rate(spec, stats, r, ch):
    """A synthetic rate min(p1, 0.2), with a plateau of exact ties, at p_exp = 1."""
    k = min(stats.p1, 0.2)
    return KeyRateReport(1.0, 0.0, 1.0, k, True, k > 0.0)


def plateau_key_rate_array(spec, pairs, r, t, dark_b, log2=np.log2):
    """plateau_key_rate's array form, as the kernel's contract allows:
    through _LOG2 exact, and through np.log2 off by 0.9 of the array bound,
    down everywhere but up at the last entry of each row (the grid's top
    point)."""
    shape = np.broadcast_shapes(np.shape(t), pairs[1].shape)
    error = np.full(shape, -0.9 * _KEY_RATE_ARRAY_TOL)
    error[..., -1] = 0.9 * _KEY_RATE_ARRAY_TOL
    return np.ones(shape), np.minimum(pairs[1], 0.2) + (0.0 if log2 is analysis._LOG2
                                                         else error)


class TestArgmaxOracle:
    @settings(max_examples=100, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=responses, t=transmissions,
           dark_b=dark_counts, lambda_max=lambda_maxes)
    def test_equals_scalar_optimizer(self, spec, r, t, dark_b, lambda_max):
        assert_matches_scalar_optimizer(spec, r, ChannelParams(t, dark_b), lambda_max)

    def test_flat_sub_threshold_row(self):
        # no signal (T = 0) and q2 = 0: K = -d_B q0 (p0 + p1) / 2, and
        # p0 + p1 = 1 - lam**2/2 takes only 28 float values over [1e-8, 1e-7],
        # so the row holds exact ties and every point is within the
        # rescoring bound of the maximum
        r, ch = HeraldResponse(0.3, 0.3, 0.0), ChannelParams(0.0, 1e-5)
        res = assert_matches_scalar_optimizer(BB84, r, ch, lambda_max=1e-7)
        assert res.key_rate < 0.0 and not res.converged
        assert res.evaluations > 200  # all 200 grid points rescored

    def test_first_of_tied_maxima_wins(self, monkeypatch):
        # the rescoring must still find the first scalar maximum of
        # plateau_key_rate, whose array form peaks at the last grid point
        monkeypatch.setattr(analysis, "key_rate", plateau_key_rate)
        monkeypatch.setattr(analysis, "_key_rate_array", plateau_key_rate_array)
        res = assert_matches_scalar_optimizer(BB84, wcp_response(),
                                              ChannelParams(0.1, 0.0))
        assert res.converged and 0.2 < res.lambda_opt < 0.3  # p1 = 0.2 at 0.259

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    def test_sub_threshold_row_at_lower_bound(self, spec):
        res = assert_matches_scalar_optimizer(spec, binary_response(),
                                              ChannelParams(1e-5, 1e-5))
        assert res.key_rate < 0.0 and res.lambda_opt == 1e-8

    @pytest.mark.parametrize("spec, t", [(BB84, 0.1), (SARG04, 1.0)])
    def test_lambda_at_upper_bound(self, spec, t):
        res = assert_matches_scalar_optimizer(spec, IDEAL_HERALD, ChannelParams(t, 0.0))
        assert res.lambda_opt == pytest.approx(1.0, rel=1e-5) and not res.converged

    @pytest.mark.parametrize("spec, r, ch", [
        (BB84, wcp_response(), ChannelParams(0.0, 0.0)),  # nothing detected
        (SARG04, wcp_response(), ChannelParams(0.0, 1e-5)),  # Q/y = 1/2 > q_max
    ])
    def test_all_invalid_row(self, spec, r, ch, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "key_rate",
                            lambda *args: calls.append(args) or key_rate(*args))
        res = optimize_lambda(spec, r, ch)
        assert (res.report, res.converged, res.evaluations) == (None, False, 0)
        assert calls == [] and math.isnan(res.lambda_opt)
        assert_matches_scalar_optimizer(spec, r, ch)


THREE_STAGE = multiplexed_response(
    MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=1e-6, eta_c=0.98)
)
IDEAL_THREE_STAGE = multiplexed_response(
    MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=1e-6)
)


def assert_scan_matches_scalar_optimizer(spec, r, dark_b, t_grid, lambda_max=1.0):
    """scan_key_rate against the full-scalar optimizer at every T; every
    scalar key_rate call of the scan is counted in some point's evaluations."""
    calls = []

    def counting_key_rate(*args):
        calls.append(args)
        return scored_key_rate(*args)

    scored_key_rate = analysis.key_rate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analysis, "key_rate", counting_key_rate)
        series = scan_key_rate(spec, r, dark_b, t_grid, lambda_max)
    assert len(calls) == sum(res.evaluations for _, res in series.points)
    assert [t for t, _ in series.points] == list(t_grid)
    for t, got in series.points:
        ref = scalar_optimize_lambda(spec, r, ChannelParams(t, dark_b), lambda_max)
        assert repr(dataclasses.replace(got, evaluations=0)) == repr(
            dataclasses.replace(ref, evaluations=0))
    return series


@st.composite
def scan_grids(draw):
    """T grids below and above the lockstep's cut-off, with repeated T."""
    n = draw(st.integers(1, 3 * analysis._LOCKSTEP_MIN_ROWS))
    ts = draw(st.lists(st.floats(-8.0, 0.0).map(lambda e: 10.0**e),
                       min_size=n, max_size=n))
    repeats = draw(st.lists(st.sampled_from(ts), max_size=4))
    return draw(st.permutations(ts + repeats))


def recorded_plans(monkeypatch):
    """Patch optimize_lambda to record the plan each call is given, if any."""
    plans = []

    def recording_optimize(spec, r, ch, lambda_max, *, _plan=None):
        plans.append(_plan)
        return optimize_lambda(spec, r, ch, lambda_max, _plan=_plan)

    monkeypatch.setattr(analysis, "optimize_lambda", recording_optimize)
    return plans


def seeded_response(rng, source):
    """A herald response over the benchmark pool's detector ranges."""
    eta_a, dark_a = rng.uniform(0.3, 0.9), 10.0 ** rng.uniform(-7.0, -5.0)
    return {
        "wcp": wcp_response,
        "binary": lambda: binary_response(eta_a, dark_a),
        "multiplexed": lambda: multiplexed_response(MultiplexedDetectorParams(
            rng.randint(1, 5), eta_a, dark_a, rng.uniform(0.95, 1.0))),
    }[source]()


def jittered_key_rate_array(seed, exact_passes):
    """_key_rate_array at the edge of its contract: through _LOG2 key_rate's
    scores, recording each such pass's size in exact_passes, and through
    np.log2 key_rate's scores moved by 0.9 _KEY_RATE_ARRAY_TOL p_exp, up or
    down by seeded random signs."""
    signs = np.random.default_rng(seed)

    def kernel(spec, pairs, r, t, dark_b, log2=np.log2):
        p_exp, scores = _key_rate_array(spec, pairs, r, t, dark_b, exact_log2)
        if log2 is analysis._LOG2:
            exact_passes.append(scores.size)
            return p_exp, scores
        error = signs.choice([-0.9, 0.9], size=scores.shape) * _KEY_RATE_ARRAY_TOL
        return p_exp, scores + error * p_exp

    return kernel


class TestScanLockstep:
    """scan_key_rate's (T x lambda) array passes and lockstep golden section
    against the per-T scalar optimizer."""

    @settings(max_examples=30, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=source_responses,
           dark_b=dark_counts, t_grid=scan_grids(), lambda_max=lambda_maxes)
    def test_equals_scalar_optimizer(self, spec, r, dark_b, t_grid, lambda_max):
        assert_scan_matches_scalar_optimizer(spec, r, dark_b, t_grid, lambda_max)

    @settings(max_examples=40, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=responses, dark_b=dark_counts,
           t_grid=scan_grids(), lambda_max=lambda_maxes)
    def test_candidates_are_the_grid_pass_ones(self, spec, r, dark_b, t_grid, lambda_max):
        # the (T x lambda) block passes give each T the candidates, empty for a
        # row with no model-valid point, that its own _grid_pass gives
        with pytest.MonkeyPatch.context() as mp:
            plans = recorded_plans(mp)
            scan_key_rate(spec, r, dark_b, t_grid, lambda_max)
        for t, (candidates, _) in zip(t_grid, plans):
            ch = ChannelParams(t, dark_b)
            assert candidates == analysis._grid_pass(spec, r, ch, lambda_max)

    @pytest.mark.parametrize("spec, r", [(BB84, THREE_STAGE), (SARG04, wcp_response())])
    def test_every_block_is_planned(self, spec, r):
        # more distinct T than two blocks of rows, so the third block holds 7
        t_grid = analysis._log_grid(-8.0, 0.0, 2 * analysis._SCAN_BLOCK_ROWS + 7)
        with pytest.MonkeyPatch.context() as mp:
            plans = recorded_plans(mp)
            series = scan_key_rate(spec, r, 1e-5, t_grid)
        assert len(set(t_grid)) == len(plans) == len(t_grid)
        for (t, got), plan in zip(series.points, plans):
            ch = ChannelParams(t, 1e-5)
            cold = optimize_lambda(spec, r, ch)
            assert repr(dataclasses.replace(got, evaluations=0)) == repr(
                dataclasses.replace(cold, evaluations=0))
            assert plan is not None and plan[0] == analysis._grid_pass(spec, r, ch, 1.0)

    def test_plateau_ties_are_decided_in_the_lockstep(self, monkeypatch):
        # plateau_key_rate with lambda_max = 0.26: only the top grid point
        # reaches the plateau, so every T has one candidate and enters the
        # lockstep; once c and d both sit on the plateau their rates tie
        # exactly, no proof settles the step, and the lockstep rescores c and
        # d through _LOG2, whose scores are key_rate's, and takes the tie as
        # fc >= fd, as the scalar loop does, until the bracket converges
        monkeypatch.setattr(analysis, "key_rate", plateau_key_rate)
        monkeypatch.setattr(analysis, "_key_rate_array", plateau_key_rate_array)
        plans = recorded_plans(monkeypatch)
        t_grid = np.linspace(0.05, 0.5, analysis._LOCKSTEP_MIN_ROWS + 4).tolist()
        series = assert_scan_matches_scalar_optimizer(BB84, wcp_response(), 0.0,
                                                      t_grid, lambda_max=0.26)
        grid = analysis._lambda_grid(0.26)[0]
        for (t, res), (candidates, bracket) in zip(series.points, plans):
            assert candidates == (199,)
            a, b = bracket
            assert grid[198] <= a < b <= grid[199] and not analysis._searching(a, b)
            assert res.evaluations == 2  # the candidate and the bracket's midpoint
            assert res.converged and 0.259 < res.lambda_opt < 0.26  # p1 = 0.2 at 0.2592

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("source", ["wcp", "binary", "multiplexed"])
    @pytest.mark.parametrize("spec", [BB84, SARG04], ids=["bb84", "sarg04"])
    def test_acts_only_on_proven_decisions(self, spec, source, seed):
        # the np.log2 scores moved as far as the kernel's contract allows,
        # 0.9 _KEY_RATE_ARRAY_TOL p_exp up or down at random: a step decided
        # on a score that _beats does not prove would move its bracket, and
        # the point would leave the lone call's result
        rng = random.Random(f"proven-{spec.name}-{source}-{seed}")
        r = seeded_response(rng, source)
        dark_b = 10.0 ** rng.uniform(-6.0, -4.0)
        t_grid = analysis._log_grid(-6.0, math.log10(0.5), rng.randint(16, 60))
        exact_passes = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "_key_rate_array",
                       jittered_key_rate_array(rng.getrandbits(32), exact_passes))
            plans = recorded_plans(mp)
            series = scan_key_rate(spec, r, dark_b, t_grid)
        assert exact_passes  # the proofs left some steps to exact rescoring
        assert sum(bracket is not None for _, bracket in plans) >= analysis._LOCKSTEP_MIN_ROWS
        for t, got in series.points:
            lone = optimize_lambda(spec, r, ChannelParams(t, dark_b))
            assert repr(dataclasses.replace(got, evaluations=0)) == repr(
                dataclasses.replace(lone, evaluations=0))

    @pytest.mark.parametrize("points", [50, 200])
    @pytest.mark.parametrize("source", ["wcp", "binary", "multiplexed"])
    @pytest.mark.parametrize("spec", [BB84, SARG04], ids=["bb84", "sarg04"])
    def test_every_lockstep_bracket_is_converged(self, monkeypatch, spec, source, points):
        # seeded configs over the benchmark pool's ranges and T grid: every T
        # that ran the lockstep reaches optimize_lambda with a converged
        # bracket, and costs two key_rate calls, its candidate and the
        # bracket's midpoint
        rng = random.Random(f"{spec.name}-{source}-{points}")
        r = seeded_response(rng, source)
        dark_b = 10.0 ** rng.uniform(-6.0, -4.0)
        t_grid = analysis._log_grid(-6.0, math.log10(0.5), points)
        plans = recorded_plans(monkeypatch)
        series = scan_key_rate(spec, r, dark_b, t_grid)
        locked = [(res, bracket) for (_, res), (_, bracket) in zip(series.points, plans)
                  if bracket is not None]
        assert len(locked) >= analysis._LOCKSTEP_MIN_ROWS
        for res, (a, b) in locked:
            assert not analysis._searching(a, b)
            assert res.evaluations == 2

    def test_steps_between_invalid_points(self, monkeypatch):
        # a synthetic rate at p_exp = 1, model-valid only in two windows of
        # p1 / P, P being the p1 of grid point 150: within 0.5% of 1, where
        # it peaks at 0 on that grid point, every T's one candidate; and in
        # [0.93, 0.97], between grid points, where it is 1e-3.  The first two
        # golden-section points fall in neither: no proof orders their two
        # -inf scores, so the first exact pass scores them, and its
        # fc >= fd moves the bracket down onto the higher window.
        peak = grid_stats(1.0)[150].p1
        exact_passes = []

        def window_rate(p1, invalid):
            off = p1 / peak - 1.0
            return np.where(abs(off) < 0.005, -abs(off),
                            np.where((-0.07 <= off) & (off <= -0.03), 1e-3, invalid))

        def window_key_rate(spec, stats, r, ch):
            k = float(window_rate(stats.p1, math.nan))
            return KeyRateReport(1.0, 0.0, 1.0, k, True, False)

        def window_key_rate_array(spec, pairs, r, t, dark_b, log2=np.log2):
            # the kernel's scores: -inf where key_rate is NaN
            scores = window_rate(pairs[1] + np.zeros(np.shape(t)), -np.inf)
            if log2 is analysis._LOG2:
                exact_passes.append(scores)
            return np.ones(scores.shape), scores

        monkeypatch.setattr(analysis, "key_rate", window_key_rate)
        monkeypatch.setattr(analysis, "_key_rate_array", window_key_rate_array)
        plans = recorded_plans(monkeypatch)
        t_grid = np.linspace(0.05, 0.5, analysis._LOCKSTEP_MIN_ROWS).tolist()
        series = assert_scan_matches_scalar_optimizer(BB84, wcp_response(), 0.0, t_grid)
        assert all(candidates == (150,) and bracket is not None
                   for candidates, bracket in plans)
        assert (exact_passes[0] == -np.inf).all()
        assert all(res.key_rate == 1e-3 for _, res in series.points)

    @pytest.mark.parametrize("spec, r, dark_b", [
        # a scan_sweep pool config
        (SARG04, multiplexed_response(MultiplexedDetectorParams(
            stages=3, eta_a=0.633339, dark_a=1.31433e-07, eta_c=0.99946)), 1.34737e-06),
        (BB84, THREE_STAGE, 1e-5),
    ], ids=["sarg04-multiplexed", "bb84-three-stage"])
    def test_plan_does_not_depend_on_the_other_t(self, monkeypatch, spec, r, dark_b):
        # a T leaves the lockstep on its own bracket and its own step alone,
        # so 150 more T in the scan leave each of the first 50 its plan
        ts = analysis._log_grid(-5.0, 0.0, 50)
        alone = recorded_plans(monkeypatch)
        scan_key_rate(spec, r, dark_b, ts)
        joined = recorded_plans(monkeypatch)
        scan_key_rate(spec, r, dark_b, ts + analysis._log_grid(-4.99, -0.01, 150))
        assert len(alone) == 50 and joined[:50] == alone

    def test_no_plan_outlives_a_scan(self, monkeypatch):
        r = THREE_STAGE
        t_grid = np.logspace(-4, -1, 40).tolist()
        plans = recorded_plans(monkeypatch)
        scan_key_rate(BB84, r, 1e-5, t_grid)
        # every T was planned, and left the lockstep with its bracket
        # narrowed from the grid's (about 20% of lambda) to below 1e-4
        assert len(plans) == 40
        assert all(b - a < 1e-4 * b for _, (a, b) in plans)

        def failing_optimize(spec, r, ch, lambda_max, *, _plan=None):
            if ch.transmission == t_grid[3]:
                raise RuntimeError("mid-scan failure")
            return optimize_lambda(spec, r, ch, lambda_max, _plan=_plan)

        monkeypatch.setattr(analysis, "optimize_lambda", failing_optimize)
        with pytest.raises(RuntimeError, match="mid-scan failure"):
            scan_key_rate(BB84, r, 1e-5, t_grid)

    def test_optimize_after_a_scan_equals_a_cold_call(self):
        t_grid = np.logspace(-4, -1, 40).tolist()
        series = scan_key_rate(SARG04, THREE_STAGE, 1e-5, t_grid)
        ch = ChannelParams(t_grid[17], 1e-5)
        after = optimize_lambda(SARG04, THREE_STAGE, ch)
        cold = optimize_lambda(SARG04, THREE_STAGE, ch)
        assert after == cold
        scanned = series.points[17][1]
        assert dataclasses.replace(scanned, evaluations=cold.evaluations) == cold
        # the scan's lockstep left fewer scalar key_rate calls to this T
        assert scanned.evaluations < cold.evaluations

    @pytest.mark.parametrize("dark_b, lambda_max, message", [
        (1e-5, 1e-8, "bounds"), (1e-5, math.nan, "bounds"),
        (1.0, 0.0, r"dark_b must be in \[0, 1\)"),  # the channel is checked first
    ])
    def test_bad_settings_rejected(self, dark_b, lambda_max, message):
        with pytest.raises(ValueError, match=message):
            scan_key_rate(BB84, wcp_response(), dark_b, [0.01, 0.1], lambda_max)


@pytest.mark.parametrize("short_distance", [
    lambda t: short_distance_key_rate(BB84, THREE_STAGE, t, 0.1),
    lambda t: short_distance_lambda(BB84, THREE_STAGE, t),
    lambda t: short_distance_approx_rate(BB84, THREE_STAGE, t),
], ids=["key_rate", "lambda", "approx_rate"])
@pytest.mark.parametrize("t", [math.nan, 0.0, -0.5, 2.0])
def test_short_distance_rejects_transmission_outside_unit_interval(short_distance, t):
    with pytest.raises(ValueError, match=r"transmission must be in \(0, 1\]"):
        short_distance(t)


class TestShortDistanceKeyRate:
    def test_perfect_rejection(self):
        stats = poisson_pair_stats(0.2)
        k = short_distance_key_rate(BB84, IDEAL_HERALD, 0.3, 0.2)
        assert k == pytest.approx(0.5 * 0.3 * stats.p1, abs=1e-15)

    def test_equals_full_rate_without_dark_counts(self):
        rng = random.Random(5)
        for _ in range(50):
            r = HeraldResponse(rng.random(), rng.uniform(0.1, 1.0), rng.random())
            t = rng.uniform(1e-4, 1.0)
            lam = rng.uniform(1e-4, 0.8)
            rep = key_rate(BB84, poisson_pair_stats(lam), r, ChannelParams(t, 0.0))
            if math.isnan(rep.key_rate):
                continue  # multiphoton fraction above 1: full model declines
            assert short_distance_key_rate(BB84, r, t, lam) == pytest.approx(
                rep.key_rate, abs=1e-12
            )

    def test_derived_value(self):
        # BB84, WCP, T=0.25, lambda=0.1 (frozen mpmath evaluation)
        k = short_distance_key_rate(BB84, wcp_response(), 0.25, 0.1)
        assert k == pytest.approx(0.010140757685338377, abs=1e-4)


class TestShortDistanceLambda:
    def test_perfect_rejection(self):
        assert short_distance_lambda(BB84, IDEAL_HERALD, 0.3) == 1.0

    def test_wcp_derived_value(self):
        got = short_distance_lambda(BB84, wcp_response(), 0.01)
        assert got == pytest.approx(0.010101010101010102, abs=1e-5)
        # a fine grid search of the dark-count-free rate peaks nearby
        lams = np.linspace(1e-4, 0.1, 2000)
        rates = [
            short_distance_key_rate(BB84, wcp_response(), 0.01, lam) for lam in lams
        ]
        assert lams[int(np.argmax(rates))] == pytest.approx(got, rel=0.02)

    def test_vanishing_transmission(self):
        assert short_distance_lambda(BB84, wcp_response(), 1e-12) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_regime_warning(self):
        assert math.isnan(short_distance_lambda(SARG04, wcp_response(), 0.4))

    @pytest.mark.parametrize("spec, r, t", [
        (BB84, HeraldResponse(0.0, 0.1, 1.0), 0.9),
        (SARG04, IDEAL_THREE_STAGE, 0.5),
    ])
    def test_outside_regime_rejected(self, spec, r, t):
        # I_AE2 <= 2T: the formula gives no pump strength (below 0 or above
        # 1), so the form has no value there
        assert math.isnan(short_distance_lambda(spec, r, t))

    def test_degenerate_response_rejected(self):
        # q1 = q2 = 0: the rate is 0 at every pump strength
        assert math.isnan(short_distance_lambda(BB84, HeraldResponse(0.5, 0.0, 0.0), 0.01))

    @settings(deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]),
           q1=st.one_of(unit, tiny), q2=st.one_of(unit, tiny),
           t=st.floats(0.0, 1.0, exclude_min=True))
    @example(spec=BB84, q1=1e-300, q2=0.0, t=1e-30)  # T q1 underflows to 0
    @example(spec=BB84, q1=0.0, q2=5e-324, t=0.3)  # so does the penalty's term
    def test_never_raises_inside_the_unit_interval(self, spec, q1, q2, t):
        lam = short_distance_lambda(spec, HeraldResponse(0.5, q1, q2), t)
        if not spec.i_ae_two > 2.0 * t or q1 == q2 == 0.0:
            assert math.isnan(lam)
        elif q2 == 0.0:
            assert lam == 1.0
        elif q1 == 0.0:
            assert lam == 0.0
        else:
            assert 0.0 <= lam <= 1.0


class TestShortDistanceApproxRate:
    def test_ratio_is_detector_factor(self):
        r = multiplexed_response(
            MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=1e-6, eta_c=0.98)
        )
        t = 0.005
        ratio = short_distance_approx_rate(BB84, r, t) / short_distance_approx_rate(
            BB84, wcp_response(), t
        )
        assert ratio == pytest.approx(short_distance_factor(r), abs=1e-12)

    def test_wcp_derived_value(self):
        got = short_distance_approx_rate(BB84, wcp_response(), 0.01)
        assert got == pytest.approx(2.5510204081632654e-05, abs=1e-8)

    def test_matches_numerical_optimum(self):
        got = short_distance_approx_rate(BB84, wcp_response(), 0.01)
        res = optimize_lambda(BB84, wcp_response(), ChannelParams(0.01, 0.0))
        assert got == pytest.approx(res.key_rate, rel=0.05)

    def test_quadratic_scaling(self):
        r1 = short_distance_approx_rate(BB84, wcp_response(), 1e-6)
        r2 = short_distance_approx_rate(BB84, wcp_response(), 2e-6)
        assert r2 / r1 == pytest.approx(4.0, rel=1e-4)

    def test_singularities(self):
        # q2 = 0: lambda_opt = 1, outside the small-lambda expansion
        assert math.isnan(short_distance_approx_rate(BB84, IDEAL_HERALD, 0.01))
        # I_AE2 = 2T: the rate's penalty term vanishes
        assert math.isnan(short_distance_approx_rate(BB84, wcp_response(), 0.5))

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    @pytest.mark.parametrize("q1, q2, t", [
        (0.5, 5e-324, 1e-170),  # q1**2/q2 overflows and T**2 underflows
        (1e-3, 5e-324, 1e-160),  # q1**2/q2 overflows, T**2 does not
        (0.5, 1e-310, 1e-5),  # q1**2/q2 overflows, the rate is ~6e298
        (1.0, 5e-324, 0.1),  # the rate itself overflows: inf, not a raise
    ])
    def test_subnormal_q2(self, spec, q1, q2, t):
        # q1**2/q2 overflows to inf; the rate is (q1 T)**2/q2 p_sift/(2 (I_AE2
        # - 2T)), against 60 digits: it was inf times 0, NaN, at the first
        r = HeraldResponse(q0=1e-3, q1=q1, q2=q2)
        assert short_distance_factor(r) == math.inf
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            d = decimal.Decimal
            exact = ((d(q1) * d(t)) ** 2 / d(q2) * d(spec.p_sift)
                     / (2 * (d(spec.i_ae_two) - 2 * d(t))))
        got = short_distance_approx_rate(spec, r, t)
        if exact > d(sys.float_info.max):
            assert got == math.inf
        else:
            assert got == pytest.approx(float(exact), rel=1e-14)

    @pytest.mark.parametrize("spec, r, t", [
        (BB84, IDEAL_THREE_STAGE, 0.9),
        (SARG04, wcp_response(), 0.4),
    ])
    def test_outside_regime_rejected(self, spec, r, t):
        # I_AE2 < 2T: the formula gives a negative rate, so the form has no
        # value there
        assert math.isnan(short_distance_approx_rate(spec, r, t))


def approx_over_exact(s):
    """R(s) = s**2 e**s / (2 (1 - s)**2 (s**2/(1 - s) + 1 + s - e**s)), the
    stated ratio of short_distance_approx_rate to short_distance_key_rate at
    lambda* = s; e**s - 1 - s is formed from expm1, since 1 + s - e**s
    cancels to O(s**2)."""
    em1 = math.expm1(s)
    return s * s * (1.0 + em1) / (2.0 * (1.0 - s) * (s * s - (1.0 - s) * (em1 - s)))


def short_distance_detector(stages, eta_a):
    """WCP at stages None, else a tree (3 stages with 0.98 couplers) or a
    binary detector with dark_a 1e-6."""
    if stages is None:
        return wcp_response()
    return multiplexed_response(MultiplexedDetectorParams(
        stages=stages, eta_a=eta_a, dark_a=1e-6, eta_c=0.98 if stages else 1.0))


short_distance_cases = dict(
    spec=st.sampled_from([BB84, SARG04]),
    r=st.builds(short_distance_detector, st.sampled_from([None, 0, 3]),
                st.floats(0.3, 0.9)),
    t=st.floats(1e-3, 0.3),
)


class TestShortDistanceErrorLaw:
    # the short-distance pair against the dark-count-free rate it approximates

    def test_law_is_one_plus_four_thirds_lambda(self):
        # the O(s**2) term is 49 s**2/36
        for s in (1e-4, 1e-3, 1e-2):
            assert abs(approx_over_exact(s) - (1.0 + 4.0 * s / 3.0)) < 1.5 * s * s

    @settings(max_examples=300, deadline=None)
    @given(**short_distance_cases)
    def test_approx_rate_errs_by_the_stated_law(self, spec, r, t):
        lam = short_distance_lambda(spec, r, t)
        ratio = short_distance_approx_rate(spec, r, t) / short_distance_key_rate(
            spec, r, t, lam)
        assert ratio == pytest.approx(approx_over_exact(lam), rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(**short_distance_cases)
    def test_optimizer_reaches_the_exact_maximizer(self, spec, r, t):
        # wherever the full model is valid at lambda*, the optimizer at d_B = 0
        # finds lambda* and its rate
        lam = short_distance_lambda(spec, r, t)
        ch = ChannelParams(t, 0.0)
        assume(not math.isnan(key_rate(spec, poisson_pair_stats(lam), r, ch).key_rate))
        res = optimize_lambda(spec, r, ch)
        assert res.key_rate == pytest.approx(
            short_distance_key_rate(spec, r, t, lam), rel=1e-9)
        assert res.lambda_opt == pytest.approx(lam, rel=1e-5)

    def test_optimizer_stops_at_the_validity_edge_below_lambda_star(self):
        # SARG04, binary detector, T = 0.2: lambda* = 0.4156 drives y below
        # 0, so the optimum is the y = 0 edge, about 3e-5 below K(lambda*)
        r, ch = binary_response(), ChannelParams(0.2, 0.0)
        lam = short_distance_lambda(SARG04, r, 0.2)
        assert lam == pytest.approx(0.4156, abs=1e-4)
        assert math.isnan(key_rate(SARG04, poisson_pair_stats(lam), r, ch).key_rate)
        res = optimize_lambda(SARG04, r, ch)
        exact = short_distance_key_rate(SARG04, r, 0.2, lam)
        assert res.lambda_opt < lam
        assert res.key_rate / exact - 1.0 == pytest.approx(-3e-5, rel=0.5)


class TestMinimumTransmissions:
    def test_tmin_single_photon(self):
        assert tmin_single_photon(BB84, 0.0) == 0.0
        assert tmin_single_photon(BB84, 1e-5) == pytest.approx(7.09e-5, rel=0.01)
        assert tmin_single_photon(BB84, 2e-5) == pytest.approx(
            2.0 * tmin_single_photon(BB84, 1e-5), abs=1e-15
        )

    def test_tmin_single_photon_numerical_crosscheck(self):
        # bisect the sign of the ideal-source key rate over T
        d_b = 1e-5
        lo, hi = 1e-8, 1.0
        stats = poisson_pair_stats(1e-6)
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            rep = key_rate(BB84, stats, IDEAL_HERALD, ChannelParams(mid, d_b))
            if rep.key_rate > 0:
                hi = mid
            else:
                lo = mid
        assert tmin_single_photon(BB84, d_b) == pytest.approx(hi, rel=0.01)

    def test_tmin_wcp(self):
        assert tmin_wcp(BB84, 0.0) == (0.0, 0.0)
        t_min, lam = tmin_wcp(BB84, 1e-5)
        assert t_min == pytest.approx(1.33e-2, rel=0.02)
        t_min4, _ = tmin_wcp(BB84, 4e-5)
        assert t_min4 == pytest.approx(2.0 * t_min, rel=1e-12)

    def test_tmin_wcp_numerical_crosscheck(self):
        t_min, _ = tmin_wcp(BB84, 1e-5)
        assert t_min == pytest.approx(
            tmin_numerical(BB84, wcp_response(), 1e-5), rel=0.10
        )

    def test_lambda_opt_heralded_reductions(self):
        assert lambda_opt_heralded(BB84, HeraldResponse(0.0, 0.8, 0.5), 1e-5) == 0.0
        _, lam_c = tmin_wcp(BB84, 1e-5)
        assert lambda_opt_heralded(BB84, wcp_response(), 1e-5) == pytest.approx(
            lam_c, abs=1e-12
        )
        assert math.isnan(lambda_opt_heralded(BB84, IDEAL_HERALD, 1e-5))

    def test_lambda_opt_rejects_negative_dark_counts(self):
        # the check of tmin_single_photon, not a math domain error
        with pytest.raises(ValueError, match="dark_b"):
            lambda_opt_heralded(BB84, binary_response(), -1e-5)

    @pytest.mark.parametrize("closed_form", [
        lambda r, d_b: tmin_single_photon(BB84, d_b),
        lambda r, d_b: tmin_wcp(BB84, d_b),
        lambda r, d_b: tmin_heralded(BB84, r, d_b),
        lambda r, d_b: lambda_opt_heralded(BB84, r, d_b),
        lambda r, d_b: tmin_bound_heralded(BB84, r, d_b, 0.01),
    ], ids=["tmin_single_photon", "tmin_wcp", "tmin_heralded",
            "lambda_opt_heralded", "tmin_bound_heralded"])
    def test_closed_forms_reject_nan_dark_counts(self, closed_form):
        # ChannelParams's range: the numerical paths reject the same d_B, and
        # so do the closed forms at q1 = 0 and q2 = 0, where they are NaN
        for r in (binary_response(), HeraldResponse(1e-3, 0.0, 1.0),
                  HeraldResponse(1e-3, 0.6, 0.0)):
            for dark_b in (math.nan, 1.0, 5.0, math.inf):
                with pytest.raises(ValueError, match=r"dark_b must be in \[0, 1\)"):
                    closed_form(r, dark_b)

    def test_bound_undefined_without_single_photon_heralds(self):
        assert math.isnan(
            tmin_bound_heralded(BB84, HeraldResponse(0.1, 0.0, 0.3), 1e-5, 0.01))
        # the pump strength is still checked there
        with pytest.raises(ValueError, match="pump strength must be positive"):
            tmin_bound_heralded(BB84, HeraldResponse(0.1, 0.0, 0.3), 1e-5, 0.0)

    @settings(deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]),
           r=st.one_of(st.builds(HeraldResponse, unit, st.just(0.0), unit),
                       st.builds(HeraldResponse, unit, unit, st.just(0.0)),
                       st.builds(HeraldResponse, unit, st.just(0.0), st.just(0.0))),
           dark_b=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
           lam=st.floats(0.0, exclude_min=True, allow_infinity=False),
           regime=st.floats(1e-12, 1.99),
           eta_a=st.one_of(st.just(0.0), unit), stages=st.integers(0, 1023),
           eta_c=unit)
    @example(spec=BB84, r=HeraldResponse(0.0, 0.0, 0.0), dark_b=0.0, lam=1.0,
             regime=0.5, eta_a=0.0, stages=1, eta_c=1.0)
    @example(spec=BB84, r=HeraldResponse(1e-6, 0.0, 0.5), dark_b=0.0, lam=1.0,
             regime=1.0, eta_a=0.6, stages=400, eta_c=0.1)  # I_AE2 = 2T
    def test_closed_forms_nan_where_the_detector_leaves_them_undefined(
            self, spec, r, dark_b, lam, regime, eta_a, stages, eta_c):
        # q1 = 0: the distance factor and the T_min forms built on it; q2 = 0:
        # the optimal pump strength and the short-distance rate; q1 = q2 = 0:
        # the short-distance pump strength; I_AE2 <= 2T: both short-distance
        # forms; effective efficiency 0: the approximate distance factor
        t = min(regime * spec.i_ae_two / 2.0, 1.0)
        outside = not spec.i_ae_two > 2.0 * t
        params = MultiplexedDetectorParams(stages, eta_a, r.q0, eta_c)
        undefined = []
        if params.effective_efficiency == 0.0:  # eta_a = 0, or eta_c**stages underflows
            undefined.append(approx_distance_factor(params))
        if r.q1 == 0.0:
            undefined += [distance_factor(r), tmin_heralded(spec, r, dark_b),
                          tmin_bound_heralded(spec, r, dark_b, lam)]
        if r.q2 == 0.0:
            undefined.append(lambda_opt_heralded(spec, r, dark_b))
        if r.q2 == 0.0 or outside:
            undefined.append(short_distance_approx_rate(spec, r, t))
        if r.q1 == r.q2 == 0.0 or outside:
            undefined.append(short_distance_lambda(spec, r, t))
        assert undefined and all(math.isnan(x) for x in undefined)

    @pytest.mark.parametrize("lam", [0.0, -0.01, math.nan, math.inf])
    def test_bound_rejects_nonpositive_pump_strength(self, lam):
        with pytest.raises(ValueError, match="pump strength must be positive"):
            tmin_bound_heralded(BB84, binary_response(), 1e-5, lam)

    @pytest.mark.parametrize("r, dark_b", [
        (wcp_response(), 0.99),  # no T is secure
        (IDEAL_HERALD, 1e-12),  # T = 1e-8 is already secure
    ], ids=["never_secure", "secure_at_lowest_t"])
    def test_tmin_numerical_without_sign_change(self, r, dark_b):
        with pytest.raises(RuntimeError) as exc:
            tmin_numerical(BB84, r, dark_b)
        # tmin_outcome compares this message with reference_tmin's
        assert str(exc.value) == "no sign change of the optimized key rate on [1e-8, 1]"

    def test_lambda_opt_minimizes_bound(self):
        r = binary_response()
        d_b = 1e-5
        lam_star = lambda_opt_heralded(BB84, r, d_b)
        lams = np.linspace(lam_star / 5, lam_star * 5, 4000)
        bounds = [tmin_bound_heralded(BB84, r, d_b, lam) for lam in lams]
        assert lams[int(np.argmin(bounds))] == pytest.approx(lam_star, rel=0.01)

    def test_bound_minimum_equals_tmin(self):
        for spec in (BB84, SARG04):
            for params in [
                MultiplexedDetectorParams(stages=0, eta_a=0.6, dark_a=1e-6),
                MultiplexedDetectorParams(stages=3, eta_a=0.8, dark_a=1e-5,
                                          eta_c=0.98),
            ]:
                r = multiplexed_response(params)
                d_b = 1e-5
                lam = lambda_opt_heralded(spec, r, d_b)
                assert tmin_bound_heralded(spec, r, d_b, lam) == pytest.approx(
                    tmin_heralded(spec, r, d_b), rel=0.01
                )

    def test_tmin_heralded_limits(self):
        # perfect number resolution reaches the ideal-source floor
        assert tmin_heralded(BB84, IDEAL_HERALD, 1e-5) == tmin_single_photon(
            BB84, 1e-5
        )
        # WCP response recovers T_min1 + T_minC
        t_c, _ = tmin_wcp(BB84, 1e-5)
        assert tmin_heralded(BB84, wcp_response(), 1e-5) == pytest.approx(
            tmin_single_photon(BB84, 1e-5) + t_c, abs=1e-15
        )

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    @pytest.mark.parametrize("q1", [5e-324, 1e-310])
    def test_tmin_heralded_at_a_subnormal_q1(self, spec, q1):
        # sqrt(q0 q2)/q1 overflows to inf: at d_B = 0 the closed form is 0
        # (it was inf times T_minC = 0, NaN), and at d_B > 0 it is T_min1 +
        # sqrt(q0 q2) T_minC/q1 against 60 digits (it was inf); q1 = 0 stays NaN
        r = HeraldResponse(q0=1e-3, q1=q1, q2=0.5)
        assert distance_factor(r) == math.inf
        assert tmin_heralded(spec, r, 0.0) == 0.0
        t_c, _ = tmin_wcp(spec, 1e-300)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            d = decimal.Decimal
            exact = (d(tmin_single_photon(spec, 1e-300))
                     + (d(r.q0) * d(r.q2)).sqrt() * d(t_c) / d(q1))
        assert tmin_heralded(spec, r, 1e-300) == pytest.approx(float(exact), rel=1e-14)
        assert math.isnan(tmin_heralded(spec, dataclasses.replace(r, q1=0.0), 0.0))

    def test_tmin_heralded_vs_numerical(self):
        r = binary_response()
        assert tmin_heralded(BB84, r, 1e-5) == pytest.approx(
            tmin_numerical(BB84, r, 1e-5), rel=0.10
        )

    def test_tmin_numerical_ideal_heralding(self):
        got = tmin_numerical(BB84, IDEAL_HERALD, 1e-5)
        assert got == pytest.approx(tmin_single_photon(BB84, 1e-5), rel=0.05)

    def test_tmin_numerical_monotone_in_dark_counts(self):
        r = binary_response()
        assert tmin_numerical(BB84, r, 5e-6) < tmin_numerical(BB84, r, 1e-5)

    def test_tmin_ordering(self):
        # T_min1 <= T_minH <= T_min1 + T_minC whenever the distance factor <= 1
        d_b = 1e-5
        for spec in (BB84, SARG04):
            t1 = tmin_single_photon(spec, d_b)
            t_c, _ = tmin_wcp(spec, d_b)
            for q0 in (0.0, 1e-6, 1e-3, 1.0):
                for q1 in (0.2, 0.6, 1.0):
                    for q2 in (0.0, 0.3, 1.0):
                        r = HeraldResponse(q0, q1, q2)
                        if distance_factor(r) > 1.0:
                            continue
                        t_h = tmin_heralded(spec, r, d_b)
                        assert t1 <= t_h <= t1 + t_c + 1e-15

    def test_oracle_agreement_random_draws(self):
        rng = random.Random(20)
        for _ in range(20):
            params = MultiplexedDetectorParams(
                stages=rng.randint(0, 4),
                eta_a=rng.uniform(0.3, 0.9),
                dark_a=10 ** rng.uniform(-7, -5),
                eta_c=rng.uniform(0.95, 1.0),
            )
            d_b = 10 ** rng.uniform(-6, -4)
            r = multiplexed_response(params)
            assert tmin_heralded(BB84, r, d_b) == pytest.approx(
                tmin_numerical(BB84, r, d_b), rel=0.15
            )


def reference_tmin(spec, r, dark_b, lambda_max=1.0):
    """tmin_numerical's bisection with a full optimize_lambda at every step.
    The reference that tmin_numerical must equal."""
    def optimized_rate(t):
        return optimize_lambda(spec, r, ChannelParams(t, dark_b), lambda_max).key_rate

    t_lo, t_hi = 1e-8, 1.0
    if optimized_rate(t_hi) <= 0.0 or optimized_rate(t_lo) > 0.0:
        raise RuntimeError("no sign change of the optimized key rate on [1e-8, 1]")
    while t_hi / t_lo - 1.0 > analysis._TMIN_REL_TOL:
        t_mid = math.sqrt(t_lo * t_hi)
        if optimized_rate(t_mid) > 0.0:
            t_hi = t_mid
        else:
            t_lo = t_mid
    return t_hi


def tmin_outcome(solve, *args):
    """A solve's value, or the message of its no-sign-change error."""
    try:
        return solve(*args)
    except RuntimeError as exc:
        return str(exc)


def tmin_pool(seed, per_kind):
    """Seeded, unfiltered (spec, response, d_B) draws: per_kind each of BB84
    and SARG04 times WCP, binary and 1- to 5-stage multiplexed sources."""
    rng = random.Random(seed)

    def detector(stages):
        return multiplexed_response(MultiplexedDetectorParams(
            stages=stages, eta_a=rng.uniform(0.3, 0.9),
            dark_a=10 ** rng.uniform(-7, -5), eta_c=rng.uniform(0.95, 1.0)))

    sources = [wcp_response, lambda: detector(0), lambda: detector(rng.randint(1, 5))]
    return [
        (spec, source(), 10 ** rng.uniform(-6, -4))
        for _ in range(per_kind) for spec in (BB84, SARG04) for source in sources
    ]


def closed_form_index(spec, r, dark_b, lambda_max=1.0):
    """Index of the grid point nearest lambda_opt_heralded on the log grid:
    the pump strength a sign-only optimize_lambda scores first."""
    grid = analysis._lambda_grid(lambda_max)[0]
    lam = lambda_opt_heralded(spec, r, dark_b)
    if lam == 0.0:
        return 0
    return min(range(len(grid)), key=lambda i: abs(math.log(grid[i] / lam)))


def traced_tmin(monkeypatch, spec, r, dark_b, lambda_max=1.0):
    """tmin_numerical's outcome, with the T of each array pass, (T, result)
    of each optimize_lambda call and (T, pair statistics) of each key_rate
    call."""
    passes, optimized, scored = [], [], []

    def counting_array(spec, pairs, r, t, dark_b):
        passes.append(t)
        return _key_rate_array(spec, pairs, r, t, dark_b)

    def counting_optimize(spec, r, ch, lambda_max, *, _plan=None, _sign_only=False):
        optimized.append((ch.transmission, optimize_lambda(
            spec, r, ch, lambda_max, _plan=_plan, _sign_only=_sign_only)))
        return optimized[-1][1]

    def counting_key_rate(spec, stats, r, ch):
        scored.append((ch.transmission, stats))
        return key_rate(spec, stats, r, ch)

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_key_rate_array", counting_array)
        patch.setattr(analysis, "optimize_lambda", counting_optimize)
        patch.setattr(analysis, "key_rate", counting_key_rate)
        got = tmin_outcome(tmin_numerical, spec, r, dark_b, lambda_max)
    return got, passes, optimized, scored


def plain_bisection(positive):
    """tmin_numerical's bisection of [1e-8, 1], deciding each midpoint by
    positive(t): (its midpoints in order, t_lo, t_hi)."""
    midpoints, t_lo, t_hi = [], 1e-8, 1.0
    while t_hi / t_lo - 1.0 > analysis._TMIN_REL_TOL:
        midpoints.append(t_mid := math.sqrt(t_lo * t_hi))
        if positive(t_mid):
            t_hi = t_mid
        else:
            t_lo = t_mid
    return midpoints, t_lo, t_hi


def synthetic_sign(monkeypatch, sign):
    """Replace key_rate and its array form by a rate of 1 at T where sign(T)
    and -1 elsewhere, at p_exp = 1; the list returned records the T of each
    optimize_lambda call tmin_numerical makes."""
    def fake_key_rate(spec, stats, r, ch):
        k = 1.0 if sign(ch.transmission) else -1.0
        return KeyRateReport(1.0, 0.0, 1.0, k, True, k > 0.0)

    def fake_key_rate_array(spec, pairs, r, t, dark_b):
        shape = np.broadcast_shapes(np.shape(t), pairs[1].shape)
        k = np.where(np.vectorize(sign)(t), 1.0, -1.0)
        return np.ones(shape), np.broadcast_to(k, shape)

    probed = []

    def counting_optimize(spec, r, ch, lambda_max, *, _sign_only=False):
        probed.append(ch.transmission)
        return optimize_lambda(spec, r, ch, lambda_max, _sign_only=_sign_only)

    monkeypatch.setattr(analysis, "key_rate", fake_key_rate)
    monkeypatch.setattr(analysis, "_key_rate_array", fake_key_rate_array)
    monkeypatch.setattr(analysis, "optimize_lambda", counting_optimize)
    return probed


def descent_probes(spec, r, dark_b, lambda_max=1.0, tangency=False):
    """The T, in order, that tmin_numerical probes when its descent needs no
    fallback: the midpoints of the full-search bisection inside
    [est/1.6, 1.05 est] (est = tmin_heralded), or none of them when it
    descends from a tangency root, then each end of the final bracket not
    probed yet, the upper first."""
    def positive(t):
        return optimize_lambda(spec, r, ChannelParams(t, dark_b), lambda_max).key_rate > 0.0

    est = tmin_heralded(spec, r, dark_b)
    midpoints, t_lo, t_hi = plain_bisection(positive)
    probes = [t for t in midpoints if not tangency and est / 1.6 <= t <= 1.05 * est]
    return probes + [t for t in (t_hi, t_lo) if t not in probes]


def margin_at(spec, lam, r, t, dark_b):
    """key_rate's margin K/(p_exp p_sift) at (T, lam), NaN where model-invalid."""
    rep = key_rate(spec, poisson_pair_stats(lam), r, ChannelParams(t, dark_b))
    return protocol._security_terms(spec, rep.qber, rep.y)[0]


class TestMarginInTransmission:
    """The lemma in tmin_numerical's docstring: at fixed lambda, BB84's
    margin does not fall as T rises, and SARG04's can."""

    @settings(max_examples=300, deadline=None)
    @given(r=responses, lam=st.floats(-8.0, 1.0).map(lambda e: 10.0**e),
           t=transmissions, rise=st.floats(-16.0, 0.0).map(lambda e: 10.0**e),
           dark_b=dark_counts)
    def test_bb84_margin_does_not_fall(self, r, lam, t, rise, dark_b):
        # up to rounding: the margin's O(1) terms each round by about 1e-16
        m_lo, m_hi = (margin_at(BB84, lam, r, x, dark_b) for x in (t, min(t + rise, 1.0)))
        if not math.isnan(m_lo):  # a valid point stays valid
            assert m_hi >= m_lo - 4e-15

    def test_sarg04_margin_falls(self):
        # Q/y near q_max, where SARG04's I_AE^(1) falls toward 1/2 as Q/y
        # rises: a higher T lowers Q/y, raises I_AE^(1) and lowers the
        # margin, while BB84's rises at the same point
        r, dark_b, lam = wcp_response(), 1e-5, 0.01
        for t in (0.00498, 0.00502):
            rep = key_rate(SARG04, poisson_pair_stats(lam), r, ChannelParams(t, dark_b))
            assert 1.0 / 3.0 < rep.qber / rep.y < 0.5
        assert margin_at(SARG04, lam, r, 0.00502, dark_b) < margin_at(
            SARG04, lam, r, 0.00498, dark_b) - 0.02
        assert margin_at(BB84, lam, r, 0.00502, dark_b) > margin_at(
            BB84, lam, r, 0.00498, dark_b)


class TestTminCertificate:
    """tmin_numerical's steps are sign-only optimize_lambda calls, which read
    a positive sign off the first grid point whose key_rate is positive; it
    probes only the bisection midpoints near the closed-form estimate, or,
    from a tangency root (TestTangencyDescent), none of them."""

    def test_equals_reference_bisection(self):
        pool = tmin_pool(seed=11, per_kind=11)
        assert len(pool) == 66
        at_edge = 0
        for spec, r, dark_b in pool:
            got = tmin_outcome(tmin_numerical, spec, r, dark_b)
            assert got == tmin_outcome(reference_tmin, spec, r, dark_b)
            if spec is SARG04 and isinstance(got, float):
                rep = optimize_lambda(spec, r, ChannelParams(1.001 * got, dark_b)).report
                at_edge += rep.qber / rep.y > 0.4999
        # the pool reaches SARG04 optima on the Q/y = 1/2 domain edge
        assert at_edge > 0

    @settings(max_examples=150, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=source_responses, t=transmissions,
           dark_b=dark_counts, lambda_max=st.sampled_from([1.0, 0.5, 1e-2, 1e-4]))
    @example(spec=BB84, r=binary_response(dark_a=0.0), t=0.01, dark_b=1e-5,
             lambda_max=1.0)  # q0 = 0: the closed-form point is grid[0]
    @example(spec=BB84, r=wcp_response(), t=0.5, dark_b=1e-5,
             lambda_max=1e-3)  # the closed-form point is the last grid point
    def test_positive_grid_point_proves_positive_optimum(self, spec, r, t, dark_b,
                                                         lambda_max):
        # the sign-only proof: a positive key_rate at any grid point makes the
        # full search positive, so the sign-only search may stop there
        ch = ChannelParams(t, dark_b)
        grid = analysis._lambda_grid(lambda_max)[0]
        full = optimize_lambda(spec, r, ch, lambda_max)
        if any(key_rate(spec, s, r, ch).key_rate > 0.0 for s in grid_stats(lambda_max)):
            assert full.key_rate > 0.0
        fast = optimize_lambda(spec, r, ch, lambda_max, _sign_only=True)
        assert (fast.key_rate > 0.0) == (full.key_rate > 0.0)
        # a positive sign-only result is a grid point's, or the full search's
        # when no grid point is positive; either way its report is key_rate's
        # at its pump strength, bit for bit
        if fast.key_rate > 0.0:
            assert fast.lambda_opt in grid or repr((fast.lambda_opt, fast.report)) == repr(
                (full.lambda_opt, full.report))
            assert repr(fast.report) == repr(
                key_rate(spec, poisson_pair_stats(fast.lambda_opt), r, ch))

    @settings(max_examples=150, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=source_responses, t=transmissions,
           dark_b=dark_counts, lambda_max=lambda_maxes)
    @example(spec=BB84, r=wcp_response(), t=0.0, dark_b=0.0, lambda_max=1.0)  # plan ((), None)
    def test_step_plan_equals_no_plan(self, spec, r, t, dark_b, lambda_max):
        # a plan of _grid_pass's candidates and no bracket is the one
        # optimize_lambda works out for itself: the results agree bit for
        # bit, evaluations included
        ch = ChannelParams(t, dark_b)
        plan = (analysis._grid_pass(spec, r, ch, lambda_max), None)
        assert repr(optimize_lambda(spec, r, ch, lambda_max, _plan=plan)) == repr(
            optimize_lambda(spec, r, ch, lambda_max))

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    def test_one_array_pass_per_sign_test(self, spec, monkeypatch):
        r = multiplexed_response(
            MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=1e-6, eta_c=0.98))
        expected = reference_tmin(spec, r, 1e-5)
        got, passes, optimized, scored = traced_tmin(monkeypatch, spec, r, 1e-5)
        assert got == expected
        # the descent's probes: for SARG04 the 10 of the 15 bisection
        # midpoints near the closed form, the final bracket's ends among
        # them, and for BB84, which descends from its tangency root without
        # a probe, only the final bracket's ends t_hi and t_lo; neither end
        # of [1e-8, 1] is probed.  Each takes one sign-only optimize_lambda,
        # which makes at most one array pass
        optimized_t = [t for t, _ in optimized]
        assert optimized_t == descent_probes(spec, r, 1e-5, tangency=spec is BB84)
        assert len(optimized_t) == len(set(optimized_t)) == {BB84: 2, SARG04: 10}[spec]
        if spec is BB84:
            _, t_lo, t_hi = plain_bisection(lambda t: t >= got)
            assert optimized_t == [t_hi, t_lo]
        assert len(passes) == len(set(passes)) and set(passes) <= set(optimized_t)
        # a step whose closed-form grid point is positive makes no array pass
        # and one key_rate call, and returns that point
        lam = analysis._lambda_grid(1.0)[0][closed_form_index(spec, r, 1e-5)]
        for t, res in optimized:
            assert not res.converged
            if t not in passes:
                assert (res.evaluations, res.lambda_opt) == (1, lam)
                assert res.key_rate > 0.0
        assert 0 < len(passes) < len(optimized_t)
        # each step scores a pump strength once, the closed-form point too
        assert len(set(scored)) == len(scored) == sum(
            res.evaluations for _, res in optimized)
        # the sign-only steps stop early: fewer key_rate calls than the full
        # optimizations reference_tmin makes at the same T
        full = [optimize_lambda(spec, r, ChannelParams(t, 1e-5)) for t in optimized_t]
        assert sum(res.evaluations for _, res in optimized) < sum(
            res.evaluations for res in full)

    def test_closed_form_point_above_lambda_max(self, monkeypatch):
        # WCP's closed-form pump strength, about 0.01 at d_B = 1e-5, is above
        # lambda_max = 1e-3, so the point scored first is the last grid point
        r = wcp_response()
        assert closed_form_index(BB84, r, 1e-5, 1e-3) == 199
        got, _, optimized, _ = traced_tmin(monkeypatch, BB84, r, 1e-5, 1e-3)
        assert got == tmin_outcome(reference_tmin, BB84, r, 1e-5, 1e-3)
        assert any(res.evaluations == 1 and res.lambda_opt == 1e-3 and res.key_rate > 0.0
                   for _, res in optimized)

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    @pytest.mark.parametrize("lambda_max", [1e-2, 3e-3, 1e-3, 1e-4])
    def test_estimate_honours_lambda_max(self, spec, lambda_max, monkeypatch):
        # WCP's closed-form pump strength at d_B = 1e-5, 0.011 (BB84) or 0.016
        # (SARG04), is above lambda_max, which moves the root above
        # tmin_heralded's band, so steering by it would be contradicted and
        # fall back to the plain bisection (19-23 probes); steered by the
        # bound at lambda_max, the descent probes no more than SARG04 does
        # at lambda_max = 1 (11)
        r = wcp_response()
        assert lambda_opt_heralded(spec, r, 1e-5) > lambda_max
        got, _, optimized, _ = traced_tmin(monkeypatch, spec, r, 1e-5, lambda_max)
        assert got == tmin_outcome(reference_tmin, spec, r, 1e-5, lambda_max)
        assert isinstance(got, float)
        assert len(optimized) <= 11

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    def test_closed_form_point_without_vacuum_heralds(self, spec, monkeypatch):
        # q0 = 0 (no herald dark counts): the closed-form pump strength is 0,
        # and the point scored first is grid[0] = 1e-8
        r = binary_response(dark_a=0.0)
        assert r.q0 == 0.0 and lambda_opt_heralded(spec, r, 1e-5) == 0.0
        got, _, optimized, _ = traced_tmin(monkeypatch, spec, r, 1e-5)
        assert got == tmin_outcome(reference_tmin, spec, r, 1e-5)
        assert any(res.evaluations == 1 and res.lambda_opt == 1e-8 and res.key_rate > 0.0
                   for _, res in optimized)

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    def test_no_closed_form_point_without_multiphoton_heralds(self, spec, monkeypatch):
        # q2 = 0 has no closed-form pump strength: every step starts with its
        # array pass.  The closed-form T_min is the ideal-source floor, and
        # the descent probes the 10 (BB84) or 11 (SARG04) of the 15
        # midpoints near it, the final bracket's ends among them
        r = HeraldResponse(q0=1e-3, q1=0.6, q2=0.0)
        got, passes, optimized, _ = traced_tmin(monkeypatch, spec, r, 1e-5)
        assert got == tmin_outcome(reference_tmin, spec, r, 1e-5)
        assert isinstance(got, float)
        optimized_t = [t for t, _ in optimized]
        assert optimized_t == descent_probes(spec, r, 1e-5)
        assert len(passes) == len(set(optimized_t)) == len(optimized_t) == {
            BB84: 10, SARG04: 11}[spec]

    @pytest.mark.parametrize("spec, r, dark_b, lambda_max, calls", [
        # q1 = 0: no estimate, so only the plain bisection probes
        (BB84, HeraldResponse(q0=1e-3, q1=0.0, q2=0.5), 1e-5, 1.0, 15),
        # lambda_opt_heralded above lambda_max: steered by tmin_bound_heralded
        (BB84, wcp_response(), 1e-5, 1e-3, 11),
        (SARG04, wcp_response(), 1e-5, 1e-3, 11),
        # no T is secure: a whole tree is walked before the raise
        (BB84, wcp_response(), 0.99, 1.0, 16),
    ], ids=["no_estimate", "bound_bb84", "bound_sarg04", "raises"])
    def test_sign_only_calls(self, spec, r, dark_b, lambda_max, calls, monkeypatch):
        # each walk through a band probes only midpoints inside it, and the
        # walk through (0, inf) after it reuses every sign probed: the count
        # of sign-only calls, each at a T of its own (q2 = 0's 10 and 11 are
        # pinned above)
        got, _, optimized, _ = traced_tmin(monkeypatch, spec, r, dark_b, lambda_max)
        assert got == tmin_outcome(reference_tmin, spec, r, dark_b, lambda_max)
        optimized_t = [t for t, _ in optimized]
        assert len(optimized_t) == len(set(optimized_t)) == calls

    def test_array_rate_within_the_bound_is_not_certified(self, monkeypatch):
        # a synthetic rate, 0 below T = 0.01 and 1 from there, at p_exp = 1,
        # whose array form is 0.9 of the bound too high: below 0.01 every
        # array rate is positive, yet only key_rate may decide the sign
        def fake_key_rate(spec, stats, r, ch):
            k = float(ch.transmission >= 0.01)
            return KeyRateReport(1.0, 0.0, 1.0, k, True, k > 0.0)

        def fake_key_rate_array(spec, pairs, r, t, dark_b):
            shape = np.broadcast_shapes(np.shape(t), pairs[1].shape)
            k = np.where(np.asarray(t) >= 0.01, 1.0, 0.0) + 0.9 * _KEY_RATE_ARRAY_TOL
            return np.ones(shape), np.broadcast_to(k, shape)

        monkeypatch.setattr(analysis, "key_rate", fake_key_rate)
        monkeypatch.setattr(analysis, "_key_rate_array", fake_key_rate_array)
        t_min = tmin_numerical(BB84, wcp_response(), 1e-5)
        assert t_min == reference_tmin(BB84, wcp_response(), 1e-5)
        assert 0.01 <= t_min < 0.01 * (1.0 + analysis._TMIN_REL_TOL)

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    @pytest.mark.parametrize("r", [
        HeraldResponse(q0=1e-3, q1=0.0, q2=1.0),  # distance_factor is NaN
        HeraldResponse(q0=1e-3, q1=0.6, q2=0.0),  # no multiphoton heralds
        HeraldResponse(q0=1.0, q1=1e-9, q2=1.0),  # est ~ 1e7, far above the root
    ], ids=["q1_zero", "q2_zero", "far_estimate"])
    def test_equals_reference_at_degenerate_estimates(self, spec, r):
        # the closed form is NaN (the plain bisection runs), is the ideal-source
        # floor, or lies far outside [1e-8, 1] (the descent is contradicted)
        got = tmin_outcome(tmin_numerical, spec, r, 1e-5)
        assert got == tmin_outcome(reference_tmin, spec, r, 1e-5)
        assert isinstance(got, float)  # the estimate was reached, not skipped
        if r.q1 == 0.0:
            assert math.isnan(tmin_heralded(spec, r, 1e-5))
        if r.q0 == 1.0:
            assert tmin_heralded(spec, r, 1e-5) > 1e7
            assert got > 0.5

    def test_contradicted_descent_falls_back_to_the_plain_bisection(self, monkeypatch):
        # a synthetic rate, positive on [1e-6, 1e-5) and from T = 0.02 up: its
        # sign is not monotone outside the WCP estimate's band, about
        # [0.0084, 0.0141], and its root near 0.02 lies above that band
        def sign(t):
            return 1e-6 <= t < 1e-5 or t >= 0.02

        r = wcp_response()
        est = tmin_heralded(BB84, r, 1e-5)
        assert est / 1.6 < 0.01 < 1.05 * est < 0.02
        probed = synthetic_sign(monkeypatch, sign)
        t_min = tmin_numerical(BB84, r, 1e-5)
        assert t_min == reference_tmin(BB84, r, 1e-5)
        assert 0.02 <= t_min < 0.02 * (1.0 + analysis._TMIN_REL_TOL)
        # the fallback probed every midpoint of the plain bisection, far
        # below the band too, reusing the descent's probes: each T once
        midpoints, t_lo, t_hi = plain_bisection(sign)
        assert t_hi == t_min
        assert len(probed) == len(set(probed)) > len(midpoints)
        assert set(probed) >= set(midpoints)
        assert min(midpoints) < est / 1.6  # a T the descent takes without probing
        # the returned bracket's ends were both probed, and neither end of
        # [1e-8, 1], which no final bracket reached
        assert {t_lo, t_hi} <= set(probed) and not sign(t_lo)
        assert not {1e-8, 1.0} & set(probed)

    def test_grid_scores_match_a_fresh_pass(self):
        r, ch = binary_response(), ChannelParams(0.01, 1e-5)
        candidates = analysis._grid_pass(SARG04, r, ch, 1.0)
        p_exp, scores = _key_rate_array(SARG04, analysis._lambda_grid(1.0)[1], r,
                                        ch.transmission, ch.dark_b)
        top = int(np.argmax(scores))
        bound = _KEY_RATE_ARRAY_TOL * (p_exp + p_exp[top])
        assert candidates == tuple(int(i) for i in np.flatnonzero(scores >= scores[top] - bound))
        assert 0 < len(candidates) < 200  # a nontrivial pass

    @pytest.mark.parametrize("lambda_max", [1e-8, 0.0, -1.0, math.nan, math.inf,
                                            1.7976931348623157e308])
    def test_bad_lambda_max(self, lambda_max):
        with pytest.raises(ValueError, match="bounds"):
            tmin_numerical(BB84, wcp_response(), 1e-5, lambda_max)

    @pytest.mark.parametrize("dark_b, lambda_max", [
        (1.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
        (1.0, 0.0),  # the channel is checked before the pump-strength range
    ])
    def test_bad_dark_counts(self, dark_b, lambda_max):
        with pytest.raises(ValueError, match=r"dark_b must be in \[0, 1\)"):
            tmin_numerical(BB84, wcp_response(), dark_b, lambda_max)

    @pytest.mark.parametrize("dark_b", [0.0, -1e-5])
    def test_nonpositive_dark_counts(self, dark_b):
        with pytest.raises(ValueError, match="dark_b must be positive"):
            tmin_numerical(BB84, wcp_response(), dark_b)


# The T_min pool's sources, as tmin_pool draws them: WCP, binary and 1- to
# 5-stage multiplexed detectors
tmin_sources = st.one_of(
    st.just(wcp_response()),
    st.builds(
        lambda n, eta_a, dark_a, eta_c: multiplexed_response(
            MultiplexedDetectorParams(n, eta_a, dark_a, eta_c)),
        st.integers(0, 5), st.floats(0.3, 0.9),
        st.floats(-7.0, -5.0).map(lambda e: 10.0**e), st.floats(0.95, 1.0),
    ),
)
TANGENCY_R = multiplexed_response(
    MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=1e-6, eta_c=0.98))


class TestTangencyDescent:
    """Where _edge_info is at least 1 (BB84), tmin_numerical walks the
    bisection tree by the tangency root T* of m = 0 and dm/dlog lam = 0,
    and probes only the final bracket."""

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    def test_every_key_rate_call_is_an_evaluation(self, spec, monkeypatch):
        # the benchmark's traced cross-check: the Newton forms its margins
        # without key_rate, so every key_rate call during a solve is one of
        # the evaluations its optimize_lambda calls count
        got, _, optimized, scored = traced_tmin(monkeypatch, spec, TANGENCY_R, 1e-5)
        assert isinstance(got, float)
        assert len(scored) == sum(res.evaluations for _, res in optimized) > 0
        assert len(optimized) == {BB84: 2, SARG04: 10}[spec]  # BB84 took the Newton's path

    def test_root_is_the_tangency(self):
        # T* is inside the plain bisection's final bracket, where the
        # optimized rate changes sign, and the sign changes within 1e-6 of it
        t_star = analysis._tangency_root(BB84, TANGENCY_R, 1e-5, 1.0)
        _, t_lo, t_hi = plain_bisection(
            lambda t: optimize_lambda(BB84, TANGENCY_R, ChannelParams(t, 1e-5)).key_rate > 0.0)
        assert t_lo < t_star < t_hi
        rates = [optimize_lambda(BB84, TANGENCY_R, ChannelParams(t_star * f, 1e-5)).key_rate
                 for f in (1.0 - 1e-6, 1.0 + 1e-6)]
        assert rates[0] <= 0.0 < rates[1]

    @settings(max_examples=100, deadline=None)
    @given(r=tmin_sources, dark_b=st.floats(-6.0, -3.0).map(lambda e: 10.0**e),
           lambda_max=st.sampled_from([3.0, 1.0, 0.5, 1e-2, 1e-4]))
    @example(r=binary_response(dark_a=0.0), dark_b=1e-5, lambda_max=1.0)  # q0 = 0
    @example(r=HeraldResponse(q0=1e-3, q1=0.6, q2=0.0), dark_b=1e-5, lambda_max=1.0)  # q2 = 0
    @example(r=wcp_response(), dark_b=1e-5, lambda_max=1e-3)  # lambda_opt_heralded > lambda_max
    def test_equals_reference_bisection(self, r, dark_b, lambda_max):
        assert tmin_outcome(tmin_numerical, BB84, r, dark_b, lambda_max) == tmin_outcome(
            reference_tmin, BB84, r, dark_b, lambda_max)

    @pytest.mark.parametrize("r, lambda_max", [
        (binary_response(dark_a=0.0), 1.0),  # q0 = 0: lambda_opt_heralded is 0
        (HeraldResponse(q0=1e-3, q1=0.0, q2=1.0), 1.0),  # q1 = 0: tmin_heralded is NaN
        (HeraldResponse(q0=1e-3, q1=0.6, q2=0.0), 1.0),  # q2 = 0: lambda_opt_heralded is NaN
        (wcp_response(), 1e-3),  # lambda_opt_heralded, 0.011, above lambda_max
    ], ids=["q0_zero", "q1_zero", "q2_zero", "above_lambda_max"])
    def test_no_newton_start(self, r, lambda_max):
        assert math.isnan(analysis._tangency_root(BB84, r, 1e-5, lambda_max))

    def test_root_held_at_lambda_max_is_no_estimate(self):
        # lambda_opt_heralded, 0.0097, is below lambda_max = 0.01, but the
        # tangency's pump strength is above it: the Newton converges in T
        # with lam held at lambda_max, which solves only m = 0 there
        r, dark_b = wcp_response(), 8.391138872547444e-06
        assert lambda_opt_heralded(BB84, r, dark_b) < 1e-2
        assert math.isnan(analysis._tangency_root(BB84, r, dark_b, 1e-2))
        assert 0.0 < analysis._tangency_root(BB84, r, dark_b, 1.0) < 1.0

    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=responses,
           dark_b=st.one_of(tiny.filter(lambda d: d > 0.0), st.floats(1e-300, 0.99)),
           lambda_max=st.sampled_from([3.0, 1.0, 1e-4, 2e-8]))
    def test_newton_never_raises(self, spec, r, dark_b, lambda_max):
        # any valid input gives a T in (0, 1] or NaN, no exception
        t = analysis._tangency_root(spec, r, dark_b, lambda_max)
        assert math.isnan(t) or 0.0 < t <= 1.0

    @pytest.mark.parametrize("r, dark_b", [
        (binary_response(eta_a=0.6), 1e-5),
        (TANGENCY_R, 1e-5),
        (multiplexed_response(MultiplexedDetectorParams(0, 0.898131, 7.03942e-06, 0.95625)),
         2.79353e-06),
    ], ids=["binary", "multiplexed", "edge"])
    def test_sarg04_keeps_the_closed_form_band(self, r, dark_b, monkeypatch):
        # SARG04's min(I_AE^(1)(q_max), I_AE^(2)) is 1/2: its maximum at
        # T_min may sit on the validity edge, where dm/dlam is not 0, and T*
        # then lies above T_min (at the edge config by 7%, so that its walk
        # would be contradicted).  So the gate keeps its descent on the
        # band, probe for probe, though its Newton has a root
        assert analysis._edge_info(SARG04) < 1.0 <= analysis._edge_info(BB84)
        t_star = analysis._tangency_root(SARG04, r, dark_b, 1.0)
        got, _, optimized, _ = traced_tmin(monkeypatch, SARG04, r, dark_b)
        assert got == tmin_outcome(reference_tmin, SARG04, r, dark_b)
        assert [t for t, _ in optimized] == descent_probes(SARG04, r, dark_b)
        assert 0.0 < t_star <= 1.0
        assert (t_star > 1.05 * got) == (dark_b < 1e-5)


class TestProbedSignChange:
    """tmin_numerical returns the upper end of a sign change it probed, and
    raises where no bisection brackets one; it probes an end of [1e-8, 1]
    only when a final bracket reaches it."""

    @settings(max_examples=100, deadline=None)
    @given(r=tmin_sources, dark_b=st.floats(-14.0, math.log10(0.5)).map(lambda e: 10.0**e))
    @example(r=wcp_response(), dark_b=0.5)  # no T is secure
    @example(r=binary_response(), dark_b=1e-14)  # T = 1e-8 is already secure
    def test_bb84_equals_reference_bisection(self, r, dark_b):
        # BB84's sign is monotone in T, so the reference, which probes both
        # ends first, has the same outcome, either raise included
        assert tmin_outcome(tmin_numerical, BB84, r, dark_b) == tmin_outcome(
            reference_tmin, BB84, r, dark_b)

    def test_returns_the_change_inside_where_the_reference_raises(self, monkeypatch):
        # a synthetic rate, positive on [1e-8, 2e-8) and from T = 0.02 up:
        # the sign at 1e-8 disagrees with the change near 0.02, which is
        # returned, with 1e-8 never probed
        def sign(t):
            return t < 2e-8 or t >= 0.02

        probed = synthetic_sign(monkeypatch, sign)
        t_min = tmin_numerical(BB84, wcp_response(), 1e-9)
        assert t_min == plain_bisection(sign)[2]
        assert 0.02 <= t_min < 0.02 * (1.0 + analysis._TMIN_REL_TOL)
        assert 1e-8 not in probed
        with pytest.raises(RuntimeError, match="no sign change"):
            reference_tmin(BB84, wcp_response(), 1e-9)

    @pytest.mark.parametrize("secure, end, other_end", [
        (True, 1e-8, 1.0), (False, 1.0, 1e-8),
    ], ids=["positive_everywhere", "positive_nowhere"])
    def test_one_sign_raises_after_probing_its_end(self, monkeypatch, secure, end,
                                                   other_end):
        probed = synthetic_sign(monkeypatch, lambda t: secure)
        with pytest.raises(RuntimeError) as exc:
            tmin_numerical(BB84, wcp_response(), 1e-9)
        assert str(exc.value) == "no sign change of the optimized key rate on [1e-8, 1]"
        assert end in probed and other_end not in probed


sign_test_transmissions = st.floats(-8.0, 0.0).map(lambda e: 10.0**e)
sign_test_lambda_maxes = st.sampled_from([0.5, 1.0, 3.0, 10.0])


def dense_unit_grid(hi):
    """Dense points of [0, hi]: 20,001 evenly spaced, and the decades down to
    1e-300, where H and I1 are steepest."""
    even = [hi * i / 20_000 for i in range(20_001)]
    return sorted(set(even + [10.0**e for e in range(-300, 0) if 10.0**e < hi]))


def rises_then_falls(values, tol=1e-15):
    """values rise to their maximum and fall after it, up to tol of rounding."""
    top = max(range(len(values)), key=values.__getitem__)
    return (all(y >= x - tol for x, y in zip(values[:top], values[1:top + 1]))
            and all(y <= x + tol for x, y in zip(values[top:], values[top + 1:])))


class TestSignOnlySteps:
    """tmin_numerical's sign-only optimizations, which stop at the first
    positive grid point or once _margin_bound proves the golden-section
    bracket nonpositive."""

    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=source_responses,
           t=sign_test_transmissions, dark_b=dark_counts,
           lambda_max=sign_test_lambda_maxes)
    def test_sign_equals_full_search(self, spec, r, t, dark_b, lambda_max):
        ch = ChannelParams(t, dark_b)
        full = optimize_lambda(spec, r, ch, lambda_max)
        fast = optimize_lambda(spec, r, ch, lambda_max, _sign_only=True)
        assert (fast.key_rate > 0.0) == (full.key_rate > 0.0)
        assert not fast.converged
        # the closed-form grid point is one key_rate call more than the full
        # search makes, unless it is one of the grid candidates
        hint = None if r.q2 == 0.0 else closed_form_index(spec, r, dark_b, lambda_max)
        extra = int(hint is not None and hint not in analysis._grid_pass(
            spec, r, ch, lambda_max))
        assert fast.evaluations <= full.evaluations + extra
        # a search runs in full, or stops early at a positive grid point or
        # at a nonpositive point
        grid = analysis._lambda_grid(lambda_max)[0]
        ran_in_full = (repr((fast.lambda_opt, fast.report)) == repr(
            (full.lambda_opt, full.report)) and fast.evaluations == full.evaluations + extra)
        stopped = fast.evaluations < full.evaluations + extra and (
            fast.key_rate <= 0.0 or fast.lambda_opt in grid)
        assert ran_in_full or stopped

    @settings(max_examples=300, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=source_responses,
           t=sign_test_transmissions, dark_b=dark_counts,
           lambda_max=sign_test_lambda_maxes, lo=st.floats(0.0, 1.0),
           width=st.floats(0.0, 1.0))
    def test_proven_cell_holds_no_positive_rate(self, spec, r, t, dark_b, lambda_max,
                                                lo, width):
        # a cell [a, b] of [1e-8, lambda_max], log-uniform in its ends
        log_min, log_max = -8.0, math.log10(lambda_max)
        log_a = log_min + lo * (log_max - log_min)
        # sorted: at width 0 or log_a = log_max rounding can swap the ends
        a, b = sorted((10.0**log_a, 10.0 ** (log_a + width * (log_max - log_a))))
        # 31 interior points, kept inside [a, b] against rounding, and the ends
        lams = [min(max(a * (b / a) ** (i / 32), a), b) for i in range(1, 32)] + [a, b]
        # the pair statistics the bound starts from enclose every point's,
        # p1's peak and p2's cancellation at small lam included, to the ulp
        ranges = analysis._pair_ranges(a, b)
        for lam in lams + ([1.0] if a <= 1.0 <= b else []):
            for p, (p_lo, p_hi) in zip(dataclasses.astuple(poisson_pair_stats(lam)), ranges):
                assert p_lo * (1.0 - 1e-15) <= p <= p_hi * (1.0 + 1e-15), lam
        ch = ChannelParams(t, dark_b)
        if not analysis._margin_bound(spec, r, ch, a, b) < analysis._PROVEN_NONPOSITIVE:
            return
        for lam in lams:
            k = key_rate(spec, poisson_pair_stats(lam), r, ch).key_rate
            assert math.isnan(k) or k <= 0.0, lam

    def test_binary_entropy_rises_to_one_half(self):
        qs = dense_unit_grid(0.5)
        h = [binary_entropy(q) for q in qs]
        assert all(y >= x - 1e-15 for x, y in zip(h, h[1:]))

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    def test_eve_info_is_nonnegative_with_one_peak(self, spec):
        qs = dense_unit_grid(spec.q_max)
        info = [spec.eve_info(q) for q in qs]
        assert min(info) >= 0.0
        assert rises_then_falls(info)

    def test_sarg04_eve_info_peaks_at_one_third(self):
        qs = [SARG04.q_max * i / 20_000 for i in range(20_001)]
        top = max(range(len(qs)), key=lambda i: SARG04.eve_info(qs[i]))
        assert abs(qs[top] - 1.0 / 3.0) <= qs[1]

    def test_equals_reference_bisection_at_lambda_max_3(self):
        # a grid of its own, up to lambda = 3; the sign tests stay at small
        # lambda, so the bound's p1-peak branch is left to the cell property
        for spec, r, dark_b in tmin_pool(seed=12, per_kind=6):
            assert tmin_outcome(tmin_numerical, spec, r, dark_b, 3.0) == tmin_outcome(
                reference_tmin, spec, r, dark_b, 3.0)


class TestScanAndFit:
    def test_single_point_reduces_to_optimize(self):
        r = binary_response()
        series = scan_key_rate(BB84, r, 1e-5, [0.01])
        direct = optimize_lambda(BB84, r, ChannelParams(0.01, 1e-5))
        assert series.points[0][1].key_rate == pytest.approx(
            direct.key_rate, rel=1e-9
        )

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_key_rate(BB84, wcp_response(), 1e-5, [])

    @pytest.mark.parametrize("t", [0.0, math.nan, -0.1, 1.5])
    def test_transmission_outside_unit_interval_rejected(self, t):
        with pytest.raises(ValueError, match=r"transmission must be in \(0, 1\]"):
            scan_key_rate(BB84, wcp_response(), 1e-5, [0.01, t])

    def test_source_crossover_ordering(self):
        # eta_A=0.6: WCP wins at high T, N=3 multiplexing wins at
        # intermediate T, only binary heralding survives at the lowest T
        d_b = 1e-5
        r_wcp = wcp_response()
        r_bin = binary_response(eta_a=0.6)
        r_mux = multiplexed_response(
            MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=1e-6, eta_c=0.98)
        )
        grid = np.logspace(-4.5, -1, 30)
        scans = {
            name: scan_key_rate(BB84, r, d_b, grid)
            for name, r in [("wcp", r_wcp), ("bin", r_bin), ("mux", r_mux)]
        }

        def rate(name, i):
            res = scans[name].points[i][1]
            return res.report.key_rate if res.report and res.report.secure else 0.0

        high = len(grid) - 1
        assert rate("wcp", high) > rate("mux", high) > rate("bin", high)
        mux_wins = [
            i for i in range(len(grid))
            if rate("mux", i) > rate("wcp", i) and rate("mux", i) > rate("bin", i)
        ]
        assert mux_wins
        lowest_secure_bin = min(
            i for i in range(len(grid)) if rate("bin", i) > 0.0
        )
        assert rate("mux", lowest_secure_bin) == 0.0
        assert rate("wcp", lowest_secure_bin) == 0.0

    def test_fit_exact_quadratic(self):
        # synthetic series with K = c T**2 exactly
        from heralded_qkd.analysis import OptimizationResult, ScanSeries
        from heralded_qkd.keyrate import KeyRateReport

        c = 0.37
        points = []
        for t in np.logspace(-3, -1, 10):
            rep = KeyRateReport(p_exp=t, qber=0.0, y=1.0, key_rate=c * t**2,
                                pns_valid=True, secure=True)
            points.append(
                (float(t),
                 OptimizationResult(lambda_opt=t, report=rep, converged=True,
                                    evaluations=1))
            )
        series = ScanSeries(points=points)
        exponent, prefactor = fit_power_law(series)
        assert exponent == pytest.approx(2.0, abs=1e-9)
        assert prefactor == pytest.approx(c, rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(steps=st.sets(st.integers(0, 19), min_size=3, max_size=12),
           t_max=st.floats(1e-4, 1.0), c=st.floats(1e-3, 1e3), power=st.floats(1.0, 3.0),
           noise=st.lists(st.floats(-0.3, 0.3), min_size=12, max_size=12))
    def test_fit_is_polyfit_on_the_window(self, steps, t_max, c, power, noise):
        # the fsum least-squares line is np.polyfit's over the top decade, to
        # rounding: T at t_max 10**(-k/20), all inside the decade, noisy
        # power-law K
        points = []
        for k, e in zip(sorted(steps), noise):
            t = t_max * 10.0 ** (-k / 20.0)
            rep = KeyRateReport(1.0, 0.0, 1.0, c * t**power * (1.0 + e), True, True)
            points.append((t, analysis.OptimizationResult(t, rep, True, 1)))
        exponent, prefactor = fit_power_law(analysis.ScanSeries(points))
        assert type(exponent) is float and type(prefactor) is float
        window = [(t, res.report.key_rate) for t, res in points]
        ref_exponent, ref_intercept = np.polyfit(np.log10([t for t, _ in window]),
                                                 np.log10([k for _, k in window]), 1)
        assert exponent == pytest.approx(ref_exponent, rel=1e-12, abs=1e-12)
        assert prefactor == pytest.approx(10.0**ref_intercept, rel=1e-12)

    def test_fit_binary_scan_quadratic(self):
        series = scan_key_rate(BB84, binary_response(), 1e-6,
                               np.logspace(-4, -2, 25))
        exponent, _ = fit_power_law(series)
        assert exponent == pytest.approx(2.0, abs=0.05)

    def test_fit_without_secure_points(self):
        # far below the WCP minimum transmission
        series = scan_key_rate(BB84, wcp_response(), 1e-5, [1e-5, 1e-4])
        with pytest.raises(ValueError, match="no secure points in the scan"):
            fit_power_law(series)

    def test_fit_insufficient_points(self):
        # too few distinct T in the top decade, however many points repeat them
        for r, t_grid in [(binary_response(), [0.01, 0.02]),
                          (THREE_STAGE, [0.01] * 5),
                          (THREE_STAGE, [0.01] * 4 + [0.011])]:
            series = scan_key_rate(BB84, r, 1e-5, t_grid)
            assert all(res.report.secure for _, res in series.points)
            with pytest.raises(ValueError, match="at least 3 distinct"):
                fit_power_law(series)

    def test_fitted_prefactor_ratio_matches_detector_factor(self):
        d_b = 1e-5
        grid = np.logspace(-3.5, -2, 12)
        for eta_a in (0.4, 0.6, 0.8):
            n_opt = optimal_stage_count(eta_a, 0.98, 1e-6, 5)
            r_mux = multiplexed_response(
                MultiplexedDetectorParams(stages=n_opt, eta_a=eta_a, dark_a=1e-6,
                                          eta_c=0.98)
            )
            r_bin = binary_response(eta_a=eta_a)
            _, pre_mux = fit_power_law(scan_key_rate(BB84, r_mux, d_b, grid))
            _, pre_bin = fit_power_law(scan_key_rate(BB84, r_bin, d_b, grid))
            analytic = short_distance_factor(r_mux) / short_distance_factor(r_bin)
            assert pre_mux / pre_bin == pytest.approx(analytic, rel=0.10)


class TestOptimalStageCount:
    def test_typical_efficiencies(self):
        assert optimal_stage_count(0.8, 0.98, 1e-6, 8) == 4
        assert optimal_stage_count(0.6, 0.98, 1e-6, 8) == 3
        assert optimal_stage_count(0.4, 0.98, 1e-6, 8) == 3

    def test_lossless_ideal_prefers_max(self):
        assert optimal_stage_count(1.0, 1.0, 0.0, 6) == 6

    def test_no_stage_count_heralds(self):
        # eta_a = dark_a = 0: q1 = q2 = 0 at every stage count, so every
        # short-distance factor is NaN and none is optimal
        for n_max in (0, 2):
            with pytest.raises(ValueError, match="^no stage count has a short-distance"):
                optimal_stage_count(0.0, 1.0, 0.0, n_max)
        # at dark_a = 1 only the binary detector heralds
        assert optimal_stage_count(0.5, 1.0, 1.0, 2) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            optimal_stage_count(0.5, 0.98, 1e-6, -1)

    def test_integer_rule_of_a_detector_stage_count(self):
        # as MultiplexedDetectorParams's stages: 2.0 is 2, and 2.5 is no count
        assert optimal_stage_count(0.6, 1.0, 1e-6, 2.0) == optimal_stage_count(
            0.6, 1.0, 1e-6, 2)
        with pytest.raises(ValueError, match=r"^n_max must be an integer, got 2.5$"):
            optimal_stage_count(0.6, 1.0, 1e-6, 2.5)

    def test_above_largest_stage_count_rejected(self):
        with pytest.raises(ValueError, match=r"^n_max must be in \[0, 1023\], got 1024$"):
            optimal_stage_count(0.5, 0.98, 1e-6, 1024)
