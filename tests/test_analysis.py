import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from heralded_qkd import analysis
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
from heralded_qkd.protocol import BB84, SARG04
from heralded_qkd.source_detector import (
    HeraldResponse,
    MultiplexedDetectorParams,
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

    @pytest.mark.parametrize("spec, t", [(BB84, 1e-5), (SARG04, 1.0)])
    def test_grid_optimum_scored_once(self, monkeypatch, spec, t):
        # sub-threshold (lambda at the lower bound) and lambda at the upper
        # bound: the optimum is a grid point, whose report is reused
        r, ch = binary_response(), ChannelParams(t, 1e-5)
        scored = []

        def recording_key_rate(spec, stats, r, ch):
            scored.append(stats)
            return key_rate(spec, stats, r, ch)

        monkeypatch.setattr(analysis, "key_rate", recording_key_rate)
        res = optimize_lambda(spec, r, ch)
        assert res.lambda_opt in TestLambdaGrid.fresh_grid(1e-8, 1.0, 200)[0]
        assert len(set(scored)) == len(scored) == res.evaluations
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

        def recording_optimize(*args, _plan=None):
            results.append(optimize_lambda(*args, _plan=_plan))
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


class NumpyWithExactLog2:
    """numpy, save that log2 is exact_log2."""

    log2 = staticmethod(exact_log2)

    def __getattr__(self, name):
        return getattr(np, name)


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
        # the premise of _KEY_RATE_ARRAY_TOL: np.log2 is the kernels' only
        # difference, so with math.log2 every score is key_rate's optimizer
        # score bit for bit
        ch = ChannelParams(t, dark_b)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(analysis, "np", NumpyWithExactLog2())
            p_exp, scores = _key_rate_array(spec, analysis._lambda_grid(lambda_max)[1],
                                            r, t, dark_b)
        reports = [key_rate(spec, s, r, ch) for s in grid_stats(lambda_max)]
        assert p_exp.tolist() == [rep.p_exp for rep in reports]
        assert [x.hex() for x in scores.tolist()] == [
            optimizer_score(rep.key_rate).hex() for rep in reports]

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


def plateau_key_rate_array(spec, pairs, r, t, dark_b):
    """plateau_key_rate's array form, off by 0.9 of the array bound: down
    everywhere but up at the last entry of each row (the grid's top point,
    or a lockstep pass's last T)."""
    shape = np.broadcast_shapes(np.shape(t), pairs[1].shape)
    error = np.full(shape, -0.9 * _KEY_RATE_ARRAY_TOL)
    error[..., -1] = 0.9 * _KEY_RATE_ARRAY_TOL
    return np.ones(shape), np.minimum(pairs[1], 0.2) + error


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
            assert candidates == analysis._grid_pass(spec, r, ch, lambda_max)[0]

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
            assert plan is not None and plan[0] == analysis._grid_pass(spec, r, ch, 1.0)[0]

    def test_undecided_steps_drop_out_to_the_scalar_loop(self, monkeypatch):
        # plateau_key_rate with lambda_max = 0.26: only the top grid point
        # reaches the plateau, so every T has one candidate and enters the
        # lockstep; once c and d both sit on the plateau their rates tie
        # exactly, the array scores differ by at most 1.8 of the bound, and
        # no step may be decided from them
        monkeypatch.setattr(analysis, "key_rate", plateau_key_rate)
        monkeypatch.setattr(analysis, "_key_rate_array", plateau_key_rate_array)
        plans = recorded_plans(monkeypatch)
        t_grid = np.linspace(0.05, 0.5, analysis._LOCKSTEP_MIN_ROWS + 4).tolist()
        series = assert_scan_matches_scalar_optimizer(BB84, wcp_response(), 0.0,
                                                      t_grid, lambda_max=0.26)
        grid = analysis._lambda_grid(0.26)[0]
        for (t, res), (candidates, bracket) in zip(series.points, plans):
            assert candidates == (199,)
            a, b, _, _ = bracket
            # left mid-way: narrower than the grid's bracket, not converged
            assert grid[198] <= a < b <= grid[199] and (a, b) != (grid[198], grid[199])
            assert analysis._searching(a, b)
            assert res.converged and 0.259 < res.lambda_opt < 0.26  # p1 = 0.2 at 0.2592

    def test_steps_between_invalid_points(self, monkeypatch):
        # a synthetic rate at p_exp = 1, model-valid only in two windows of
        # p1 / P, P being the p1 of grid point 150: within 0.5% of 1, where
        # it peaks at 0 on that grid point, every T's one candidate; and in
        # [0.93, 0.97], between grid points, where it is 1e-3.  The first two
        # golden-section points fall in neither, and fc >= fd between their
        # two -inf scores moves the bracket down onto the higher window.
        peak = grid_stats(1.0)[150].p1

        def window_rate(p1, invalid):
            off = p1 / peak - 1.0
            return np.where(abs(off) < 0.005, -abs(off),
                            np.where((-0.07 <= off) & (off <= -0.03), 1e-3, invalid))

        def window_key_rate(spec, stats, r, ch):
            k = float(window_rate(stats.p1, math.nan))
            return KeyRateReport(1.0, 0.0, 1.0, k, True, False)

        def window_key_rate_array(spec, pairs, r, t, dark_b):
            # the kernel's scores: -inf where key_rate is NaN
            scores = window_rate(pairs[1] + np.zeros(np.shape(t)), -np.inf)
            return np.ones(scores.shape), scores

        monkeypatch.setattr(analysis, "key_rate", window_key_rate)
        monkeypatch.setattr(analysis, "_key_rate_array", window_key_rate_array)
        plans = recorded_plans(monkeypatch)
        t_grid = np.linspace(0.05, 0.5, analysis._LOCKSTEP_MIN_ROWS).tolist()
        series = assert_scan_matches_scalar_optimizer(BB84, wcp_response(), 0.0, t_grid)
        assert all(candidates == (150,) and bracket is not None
                   for candidates, bracket in plans)
        assert all(res.key_rate == 1e-3 for _, res in series.points)

    def test_no_plan_outlives_a_scan(self, monkeypatch):
        r = THREE_STAGE
        t_grid = np.logspace(-4, -1, 40).tolist()
        plans = recorded_plans(monkeypatch)
        scan_key_rate(BB84, r, 1e-5, t_grid)
        # every T was planned, and left the lockstep with its bracket
        # narrowed from the grid's (about 20% of lambda) to below 1e-4
        assert len(plans) == 40
        assert all(b - a < 1e-4 * b for _, (a, b, _, _) in plans)

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
        with pytest.raises(ValueError, match="needs I_AE2 > 2T"):
            short_distance_lambda(SARG04, wcp_response(), 0.4)

    @pytest.mark.parametrize("spec, r, t", [
        (BB84, HeraldResponse(0.0, 0.1, 1.0), 0.9),
        (SARG04, IDEAL_THREE_STAGE, 0.5),
    ])
    def test_outside_regime_rejected(self, spec, r, t):
        # I_AE2 <= 2T: the formula gives no pump strength (below 0 or above 1)
        with pytest.raises(ValueError, match="needs I_AE2 > 2T"):
            short_distance_lambda(spec, r, t)

    def test_degenerate_response_rejected(self):
        with pytest.raises(ValueError, match="degenerate response: q1 = q2 = 0"):
            short_distance_lambda(BB84, HeraldResponse(0.5, 0.0, 0.0), 0.01)


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
        with pytest.raises(ZeroDivisionError):
            short_distance_approx_rate(BB84, IDEAL_HERALD, 0.01)
        with pytest.raises(ValueError, match="needs I_AE2 > 2T"):
            short_distance_approx_rate(BB84, wcp_response(), 0.5)

    @pytest.mark.parametrize("spec, r, t", [
        (BB84, IDEAL_THREE_STAGE, 0.9),
        (SARG04, wcp_response(), 0.4),
    ])
    def test_outside_regime_rejected(self, spec, r, t):
        # I_AE2 < 2T: the formula gives a negative rate
        with pytest.raises(ValueError, match="needs I_AE2 > 2T"):
            short_distance_approx_rate(spec, r, t)


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
        with pytest.raises(ZeroDivisionError):
            lambda_opt_heralded(BB84, IDEAL_HERALD, 1e-5)

    def test_lambda_opt_rejects_negative_dark_counts(self):
        # the check of tmin_single_photon, not a math domain error
        with pytest.raises(ValueError, match="dark_b"):
            lambda_opt_heralded(BB84, binary_response(), -1e-5)

    @pytest.mark.parametrize("closed_form", [
        lambda d_b: tmin_single_photon(BB84, d_b),
        lambda d_b: tmin_wcp(BB84, d_b),
        lambda d_b: tmin_heralded(BB84, binary_response(), d_b),
        lambda d_b: lambda_opt_heralded(BB84, binary_response(), d_b),
        lambda d_b: tmin_bound_heralded(BB84, binary_response(), d_b, 0.01),
    ], ids=["tmin_single_photon", "tmin_wcp", "tmin_heralded",
            "lambda_opt_heralded", "tmin_bound_heralded"])
    def test_closed_forms_reject_nan_dark_counts(self, closed_form):
        # ChannelParams's range: the numerical paths reject the same d_B
        for dark_b in (math.nan, 1.0, 5.0, math.inf):
            with pytest.raises(ValueError, match=r"dark_b must be in \[0, 1\)"):
                closed_form(dark_b)

    def test_bound_undefined_without_single_photon_heralds(self):
        with pytest.raises(ZeroDivisionError, match="bound undefined for q1 = 0"):
            tmin_bound_heralded(BB84, HeraldResponse(0.1, 0.0, 0.3), 1e-5, 0.01)

    @pytest.mark.parametrize("lam", [0.0, -0.01, math.nan])
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


class TestTminCertificate:
    """tmin_numerical reads the sign of a step off the array-scored grid
    whenever a grid point's array rate clears the array kernel's error bound."""

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
    @given(spec=st.sampled_from([BB84, SARG04]), r=responses, t=transmissions,
           dark_b=dark_counts, lambda_max=lambda_maxes)
    def test_certificate_proves_positive_rate(self, spec, r, t, dark_b, lambda_max):
        ch = ChannelParams(t, dark_b)
        p_exp, rates = _key_rate_array(spec, analysis._lambda_grid(lambda_max)[1], r,
                                       t, dark_b)
        certified = np.flatnonzero(rates > _KEY_RATE_ARRAY_TOL * p_exp)
        assert analysis._grid_pass(spec, r, ch, lambda_max)[1] == bool(certified.size)
        stats = grid_stats(lambda_max)
        for i in certified:
            assert key_rate(spec, stats[i], r, ch).key_rate > 0.0
        if certified.size:
            assert optimize_lambda(spec, r, ch, lambda_max).key_rate > 0.0

    @settings(max_examples=150, deadline=None)
    @given(spec=st.sampled_from([BB84, SARG04]), r=source_responses, t=transmissions,
           dark_b=dark_counts, lambda_max=lambda_maxes)
    @example(spec=BB84, r=wcp_response(), t=0.0, dark_b=0.0, lambda_max=1.0)  # plan ((), None)
    def test_step_plan_equals_no_plan(self, spec, r, t, dark_b, lambda_max):
        # the plan a sign test hands over is the one optimize_lambda works
        # out for itself: the results agree bit for bit, evaluations included
        ch = ChannelParams(t, dark_b)
        plan = (analysis._grid_pass(spec, r, ch, lambda_max)[0], None)
        assert repr(optimize_lambda(spec, r, ch, lambda_max, _plan=plan)) == repr(
            optimize_lambda(spec, r, ch, lambda_max))

    @pytest.mark.parametrize("spec", [BB84, SARG04])
    def test_one_array_pass_per_sign_test(self, spec, monkeypatch):
        r = multiplexed_response(
            MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=1e-6, eta_c=0.98))
        expected = reference_tmin(spec, r, 1e-5)
        passes, optimized, scored = [], [], []

        def counting_array(spec, pairs, r, t, dark_b):
            passes.append(t)
            return _key_rate_array(spec, pairs, r, t, dark_b)

        def counting_optimize(spec, r, ch, lambda_max, *, _plan=None):
            optimized.append((ch.transmission,
                              optimize_lambda(spec, r, ch, lambda_max, _plan=_plan)))
            return optimized[-1][1]

        def counting_key_rate(spec, stats, r, ch):
            scored.append(ch.transmission)
            return key_rate(spec, stats, r, ch)

        monkeypatch.setattr(analysis, "_key_rate_array", counting_array)
        monkeypatch.setattr(analysis, "optimize_lambda", counting_optimize)
        monkeypatch.setattr(analysis, "key_rate", counting_key_rate)
        assert tmin_numerical(spec, r, 1e-5) == expected
        # 2 endpoint tests and 15 bisection steps, one array pass each: the
        # optimize_lambda of an uncertified step reuses its step's pass
        assert len(passes) == len(set(passes)) == 17
        optimized_t = [t for t, _ in optimized]
        assert len(optimized_t) == len(set(optimized_t)) and set(optimized_t) < set(passes)
        # certified steps make no key_rate call; the rest are counted
        assert set(scored) <= set(optimized_t)
        assert len(scored) == sum(res.evaluations for _, res in optimized)
        assert 0 < len(optimized) < 17

    def test_array_rate_within_the_bound_is_not_certified(self, monkeypatch):
        # a synthetic rate, 0 below T = 0.01 and 1 from there, at p_exp = 1,
        # whose array form is 0.9 of the bound too high: below 0.01 every
        # array rate is positive, yet only optimize_lambda may decide the sign
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

    def test_grid_scores_match_a_fresh_pass(self):
        r, ch = binary_response(), ChannelParams(0.01, 1e-5)
        candidates, certified = analysis._grid_pass(SARG04, r, ch, 1.0)
        p_exp, scores = _key_rate_array(SARG04, analysis._lambda_grid(1.0)[1], r,
                                        ch.transmission, ch.dark_b)
        top = int(np.argmax(scores))
        bound = _KEY_RATE_ARRAY_TOL * (p_exp + p_exp[top])
        assert candidates == tuple(int(i) for i in np.flatnonzero(scores >= scores[top] - bound))
        assert certified == bool((scores > _KEY_RATE_ARRAY_TOL * p_exp).any())
        assert 0 < len(candidates) < 200 and certified  # a nontrivial pass

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

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            optimal_stage_count(0.5, 0.98, 1e-6, -1)
