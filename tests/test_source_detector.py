import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heralded_qkd.source_detector import (
    HeraldResponse,
    MultiplexedDetectorParams,
    _pair_probabilities,
    advantage_threshold,
    approx_distance_factor,
    brute_force_response,
    distance_factor,
    multiplexed_response,
    poisson_pair_stats,
    short_distance_factor,
    wcp_response,
)

# frozen oracle values (mpmath, 30 digits) at lambda = 0.1
P0_01 = 0.9048374180359596
P1_01 = 0.09048374180359596
P2_01 = 0.004678840160444469


class TestPoissonPairStats:
    def test_no_pumping(self):
        s = poisson_pair_stats(0.0)
        assert (s.p0, s.p1, s.p2) == (1.0, 0.0, 0.0)

    def test_derived_values(self):
        s = poisson_pair_stats(0.1)
        assert s.p0 == pytest.approx(P0_01, abs=1e-5)
        assert s.p1 == pytest.approx(P1_01, abs=1e-5)
        assert s.p2 == pytest.approx(P2_01, abs=1e-5)

    @pytest.mark.parametrize("lam", [0.0, 1e-8, 1e-3, 0.1, 0.5, 1.0, 3.0])
    def test_normalization(self, lam):
        s = poisson_pair_stats(lam)
        assert s.p0 + s.p1 + s.p2 == pytest.approx(1.0, abs=1e-14)
        assert 0.0 <= s.p0 <= 1.0 and 0.0 <= s.p1 <= 1.0 and 0.0 <= s.p2 <= 1.0

    def test_negative_rejected(self):
        for lam in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="pump strength"):
                poisson_pair_stats(lam)

    @pytest.mark.parametrize("lam", [
        *(pytest.param(lam, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: p2 = -expm1(-lam) - p1 cancels at small lam"))
          for lam in (1e-8, 1e-6, 1e-4, 1e-2, 0.1)),
        0.5, 1.0, 3.0,
    ])
    def test_p2_against_decimal(self, lam):
        # p2 = 1 - (1 + lam) e^-lam to the last bit, against 60 digits
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            x = decimal.Decimal(lam)
            exact = 1 - (1 + x) * (-x).exp()
            error = abs(decimal.Decimal(_pair_probabilities(lam)[2]) - exact) / exact
        assert error <= decimal.Decimal(2.2e-16)

    @given(st.one_of(st.floats(-8.0, 1.0).map(lambda e: 10.0**e),
                     st.sampled_from([0.0, 5e-324, 1e-16, 1e-8, 1.0])))
    def test_p2_clamp_is_max(self, lam):
        # the clamp (d + |d|)/2, which works on arrays too, against max(d, 0.0)
        p0, p1, p2 = _pair_probabilities(lam)
        assert (p0, p1) == (math.exp(-lam), lam * math.exp(-lam))
        assert p2.hex() == max(-math.expm1(-lam) - p1, 0.0).hex()

    @given(st.floats(-1.0, 1.0).filter(lambda d: math.copysign(1.0, d) > 0.0 or d != 0.0))
    def test_clamp_identity(self, d):
        # on every float in [-1, 1] but -0.0, including those rounding below 0
        assert ((d + abs(d)) * 0.5).hex() == max(d, 0.0).hex()


class TestMultiplexedResponse:
    def test_ideal_binary(self):
        r = multiplexed_response(
            MultiplexedDetectorParams(stages=0, eta_a=1.0, dark_a=0.0)
        )
        assert (r.q0, r.q1, r.q2) == (0.0, 1.0, 1.0)

    def test_matches_oracle(self):
        params = MultiplexedDetectorParams(
            stages=2, eta_a=0.6, dark_a=1e-3, eta_c=0.98
        )
        r = multiplexed_response(params)
        for n, q in enumerate((r.q0, r.q1, r.q2)):
            assert q == pytest.approx(brute_force_response(params, n), abs=1e-12)

    def test_large_n_approaches_number_resolution(self):
        # lossless ideal detectors: q2 = 2**-N -> 0
        for n in (1, 4, 8, 16):
            r = multiplexed_response(
                MultiplexedDetectorParams(stages=n, eta_a=1.0, dark_a=0.0)
            )
            assert r.q2 == pytest.approx(2.0**-n, abs=1e-15)

    def test_q0_independent_of_efficiency(self):
        base = multiplexed_response(
            MultiplexedDetectorParams(stages=2, eta_a=0.3, dark_a=1e-3, eta_c=0.9)
        )
        other = multiplexed_response(
            MultiplexedDetectorParams(stages=2, eta_a=0.9, dark_a=1e-3, eta_c=1.0)
        )
        assert base.q0 == other.q0

    def test_no_dark_counts_means_no_vacuum_heralds(self):
        r = multiplexed_response(
            MultiplexedDetectorParams(stages=3, eta_a=0.7, dark_a=0.0, eta_c=0.95)
        )
        assert r.q0 == 0.0

    def test_always_dark_binary_detector(self):
        # q2 = (1-eta)**2 + 2 eta (1-eta) + eta**2 = 1 rounds to 1 + 1 ulp here
        r = multiplexed_response(
            MultiplexedDetectorParams(stages=0, eta_a=0.0005, dark_a=1.0)
        )
        assert (r.q0, r.q1, r.q2) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("stages, dark_a", [(40, 1e-10), (50, 3e-16), (60, 1e-17)])
    def test_many_stages_against_decimal(self, stages, dark_a):
        # (1 - d)**(m - 1) from a rounded 1 - d was 9.1e-6 and 3.65e-2 off,
        # relative, at the first two, and at the third, where 1 - d rounds to
        # 1, gave q0 = 11.5, which HeraldResponse rejects
        params = MultiplexedDetectorParams(stages=stages, eta_a=0.6, dark_a=dark_a)
        r = multiplexed_response(params)
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            eta, d, m = (decimal.Decimal(x) for x in (params.eta_a, dark_a, params.n_bins))
            no_dark = (1 - d) ** (params.n_bins - 1)
            exact = (no_dark * m * d, no_dark * (m * d * (1 - eta) + eta),
                     no_dark * (m * d * (1 - eta) ** 2 + 2 * eta * (1 - eta) + eta**2 / m))
        for q, q_exact in zip((r.q0, r.q1, r.q2), exact):
            assert q == pytest.approx(float(q_exact), rel=1e-13, abs=0.0)

    def test_always_dark_detector_with_many_bins(self):
        # log1p(-1) raises: at dark_a = 1 a second bin always fires too
        r = multiplexed_response(MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=1.0))
        assert (r.q0, r.q1, r.q2) == (0.0, 0.0, 0.0)

    @given(st.integers(0, 12), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0))
    def test_every_valid_detector_has_a_response(self, stages, eta_a, dark_a, eta_c):
        params = MultiplexedDetectorParams(stages, eta_a, dark_a, eta_c)
        r = multiplexed_response(params)
        assert all(0.0 <= q <= 1.0 for q in (r.q0, r.q1, r.q2))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MultiplexedDetectorParams(stages=-1, eta_a=0.5, dark_a=0.0)
        with pytest.raises(ValueError):
            MultiplexedDetectorParams(stages=1, eta_a=1.5, dark_a=0.0)
        # 2**stages bins must convert to a float
        MultiplexedDetectorParams(stages=1023, eta_a=0.5, dark_a=0.0)
        for stages in (1024, 2000, math.inf, math.nan):
            with pytest.raises(ValueError, match="stages"):
                MultiplexedDetectorParams(stages=stages, eta_a=0.5, dark_a=0.0)


ORACLE_GRID = [
    (n, eta_a, dark_a, eta_c)
    for n in range(5)
    for eta_a in (0.2, 0.5, 0.8, 1.0)
    for dark_a in (0.0, 1e-6, 1e-3, 0.1)
    for eta_c in (0.9, 0.98, 1.0)
]


class TestBruteForceOracle:
    @pytest.mark.parametrize("n,eta_a,dark_a,eta_c", ORACLE_GRID)
    def test_grid_agreement(self, n, eta_a, dark_a, eta_c):
        params = MultiplexedDetectorParams(
            stages=n, eta_a=eta_a, dark_a=dark_a, eta_c=eta_c
        )
        r = multiplexed_response(params)
        for photons, q in enumerate((r.q0, r.q1, r.q2)):
            assert abs(q - brute_force_response(params, photons)) < 1e-12

    def test_vacuum_closed_form(self):
        params = MultiplexedDetectorParams(stages=3, eta_a=0.4, dark_a=0.02, eta_c=0.9)
        expected = (1 - 0.02) ** 7 * 8 * 0.02
        assert brute_force_response(params, 0) == pytest.approx(expected, abs=1e-12)

    def test_two_photons_single_ideal_detector(self):
        params = MultiplexedDetectorParams(stages=0, eta_a=1.0, dark_a=0.0)
        assert brute_force_response(params, 2) == pytest.approx(1.0, abs=1e-15)

    def test_two_photons_one_splitter(self):
        # both photons must land in the same arm: probability 1/2
        params = MultiplexedDetectorParams(stages=1, eta_a=1.0, dark_a=0.0)
        assert brute_force_response(params, 2) == pytest.approx(0.5, abs=1e-15)

    def test_guard(self):
        params = MultiplexedDetectorParams(stages=7, eta_a=0.5, dark_a=0.0)
        with pytest.raises(ValueError):
            brute_force_response(params, 1)
        with pytest.raises(ValueError):
            brute_force_response(
                MultiplexedDetectorParams(stages=1, eta_a=0.5, dark_a=0.0), 3
            )


class TestWcpResponse:
    def test_all_ones(self):
        r = wcp_response()
        assert (r.q0, r.q1, r.q2) == (1.0, 1.0, 1.0)

    def test_unit_factors(self):
        assert short_distance_factor(wcp_response()) == 1.0
        assert distance_factor(wcp_response()) == 1.0


class TestShortDistanceFactor:
    def test_dark_free_compact_formula(self):
        # with d_A = 0 the ratio reduces to 1/(2/eta - 2 + 2**-N)
        for n in range(5):
            for eta_a in (0.2, 0.5, 0.8, 1.0):
                for eta_c in (0.9, 0.98, 1.0):
                    params = MultiplexedDetectorParams(
                        stages=n, eta_a=eta_a, dark_a=0.0, eta_c=eta_c
                    )
                    eta = params.effective_efficiency
                    expected = 1.0 / (2.0 / eta - 2.0 + 2.0**-n)
                    got = short_distance_factor(multiplexed_response(params))
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_ideal_binary_is_unity(self):
        r = multiplexed_response(
            MultiplexedDetectorParams(stages=0, eta_a=1.0, dark_a=0.0)
        )
        assert short_distance_factor(r) == pytest.approx(1.0, abs=1e-15)

    def test_perfect_rejection_unbounded(self):
        assert short_distance_factor(HeraldResponse(0.0, 1.0, 0.0)) == math.inf

    @pytest.mark.parametrize("params", [
        MultiplexedDetectorParams(stages=0, eta_a=0.0, dark_a=0.0),
        MultiplexedDetectorParams(stages=2, eta_a=0.5, dark_a=1.0),
    ])
    def test_never_heralding_is_undefined(self, params):
        # q1 = q2 = 0: the factor is 0/0
        r = multiplexed_response(params)
        assert (r.q1, r.q2) == (0.0, 0.0)
        assert math.isnan(short_distance_factor(r))

    def test_monotone_in_efficiency(self):
        for n in range(5):
            factors = [
                short_distance_factor(
                    multiplexed_response(
                        MultiplexedDetectorParams(stages=n, eta_a=e, dark_a=0.0)
                    )
                )
                for e in np.linspace(0.05, 1.0, 20)
            ]
            assert all(b > a for a, b in zip(factors, factors[1:]))


class TestDistanceFactor:
    def test_vacuum_rejection(self):
        assert distance_factor(HeraldResponse(0.0, 0.7, 0.3)) == 0.0

    def test_q1_zero_is_nan(self):
        assert math.isnan(distance_factor(HeraldResponse(0.5, 0.0, 0.5)))
        assert math.isnan(distance_factor(HeraldResponse(0.0, 0.0, 0.0)))

    def test_approximation_agreement(self):
        params = MultiplexedDetectorParams(
            stages=3, eta_a=0.6, dark_a=1e-6, eta_c=0.98
        )
        exact = distance_factor(multiplexed_response(params))
        approx = approx_distance_factor(params)
        assert approx == pytest.approx(exact, rel=0.05)


class TestApproxDistanceFactor:
    def test_ideal_single_detector(self):
        params = MultiplexedDetectorParams(stages=0, eta_a=1.0, dark_a=0.04)
        assert approx_distance_factor(params) == pytest.approx(0.2, abs=1e-12)

    def test_no_dark_counts(self):
        params = MultiplexedDetectorParams(stages=2, eta_a=0.5, dark_a=0.0)
        assert approx_distance_factor(params) == 0.0

    def test_zero_efficiency_rejected(self):
        # no dark count rate is small against eta/(1 - eta) = 0, so the
        # approximation has no value: at eta_a = 0, and where eta_c**stages
        # underflows to 0
        for params in (MultiplexedDetectorParams(stages=1, eta_a=0.0, dark_a=1e-6),
                       MultiplexedDetectorParams(stages=400, eta_a=0.6, dark_a=1e-6,
                                                 eta_c=0.1)):
            assert params.effective_efficiency == 0.0
            assert math.isnan(approx_distance_factor(params))

    @pytest.mark.parametrize("stages, eta_a", [(2, 1e-320), (2, 5e-324), (1023, 0.5)])
    def test_no_dark_counts_at_a_subnormal_efficiency(self, stages, eta_a):
        # (1 - eta)/eta, or the factor's square root, overflows to inf, and
        # sqrt(dark_a) = 0 times it was NaN; the factor is 0, as the distance
        # factor of the detector's response is
        params = MultiplexedDetectorParams(stages=stages, eta_a=eta_a, dark_a=0.0)
        assert params.effective_efficiency > 0.0
        assert approx_distance_factor(params) == 0.0
        assert distance_factor(multiplexed_response(params)) == 0.0

    @staticmethod
    def assert_finite_against_decimal(params):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            eta = decimal.Decimal(params.effective_efficiency)
            exact = decimal.Decimal(params.dark_a).sqrt() * (
                1 + 2 ** decimal.Decimal(params.stages + 1) * (1 - eta) / eta
            ).sqrt()
        value = approx_distance_factor(params)
        assert math.isfinite(value)
        assert value == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("stages, eta_a", [(1023, 0.5), (1023, 1e-3), (1022, 0.05),
                                               (2, 1e-320), (2, 5e-324)])
    def test_large_stage_counts(self, stages, eta_a):
        # 2.0**(stages + 1) (1 - eta)/eta overflows a float, and so does
        # (1 - eta)/eta at a subnormal eta; the factor does not
        self.assert_finite_against_decimal(
            MultiplexedDetectorParams(stages=stages, eta_a=eta_a, dark_a=1e-6))

    @pytest.mark.parametrize("stages, eta_a, dark_a", [
        (2, 1e-320, 1e-300), (1000, 1e-320, 1e-300), (1023, 5e-309, 1e-10)])
    def test_tiny_dark_counts_at_a_subnormal_efficiency(self, stages, eta_a, dark_a):
        # 2**((stages + 1)/2) sqrt((1 - eta)/eta) overflows before the small
        # sqrt(dark_a) factor applies; the factor is finite
        self.assert_finite_against_decimal(
            MultiplexedDetectorParams(stages=stages, eta_a=eta_a, dark_a=dark_a))

    @pytest.mark.parametrize("stages", [0, 1, 2, 5, 17, 100, 511, 1000, 1022])
    @pytest.mark.parametrize("eta_a", [1.0, 0.999, 0.6, 0.4])
    def test_matches_direct_form(self, stages, eta_a):
        params = MultiplexedDetectorParams(stages=stages, eta_a=eta_a,
                                           dark_a=3e-6, eta_c=1.0)
        eta = params.effective_efficiency
        direct = math.sqrt(params.dark_a) * math.sqrt(
            1.0 + 2.0 ** (stages + 1) * (1.0 - eta) / eta
        )
        assert approx_distance_factor(params) == pytest.approx(direct, rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(stages=st.integers(0, 10), eta_a=st.floats(0.05, 1.0),
           eta_c=st.floats(0.9, 1.0), dark_a=st.floats(-9.0, -2.0).map(lambda e: 10.0**e))
    def test_error_bound(self, stages, eta_a, eta_c, dark_a):
        # the docstring's 0 <= approx/exact - 1 <= x, x = 2**N dark_a (1 -
        # eta)/eta, up to rounding, against the exact response's factor
        params = MultiplexedDetectorParams(stages, eta_a, dark_a, eta_c)
        eta = params.effective_efficiency
        x = 2.0**stages * dark_a * (1.0 - eta) / eta
        error = approx_distance_factor(params) / distance_factor(
            multiplexed_response(params)) - 1.0
        assert -1e-13 <= error <= x * (1.0 + 1e-13) + 1e-13


class TestAdvantageThreshold:
    def test_binary_unattainable(self):
        assert advantage_threshold(0) == 1.0

    def test_negative_stages_rejected(self):
        with pytest.raises(ValueError, match="stages must be nonnegative, got -1"):
            advantage_threshold(-1)

    @pytest.mark.parametrize("stages", [
        math.nan, 2.5, math.inf, -math.inf, "3", b"3", None,
        decimal.Decimal("Infinity"), decimal.Decimal("-Infinity"), decimal.Decimal("sNaN")])
    def test_non_integer_stages_rejected(self, stages):
        with pytest.raises(ValueError) as exc:
            advantage_threshold(stages)
        assert str(exc.value) == f"stages must be an integer, got {stages!r}"

    def test_integral_float_accepted(self):
        assert advantage_threshold(2.0) == advantage_threshold(2)

    def test_stage_count_beyond_float_range(self):
        assert advantage_threshold(10**400) == 2.0 / 3.0

    def test_limit_two_thirds(self):
        assert advantage_threshold(60) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_one_stage_crossing(self):
        assert advantage_threshold(1) == pytest.approx(0.8, abs=1e-15)
        # the factor crosses 1 exactly at the threshold efficiency
        for eps, expect_above in ((1e-3, True), (-1e-3, False)):
            params = MultiplexedDetectorParams(
                stages=1, eta_a=0.8 + eps, dark_a=0.0
            )
            factor = short_distance_factor(multiplexed_response(params))
            assert (factor > 1.0) == expect_above


class TestHeraldResponse:
    def test_custom_triple(self):
        r = HeraldResponse(q0=0.1, q1=0.9, q2=0.3)
        assert r.q1 == 0.9

    def test_range_validation(self):
        with pytest.raises(ValueError):
            HeraldResponse(q0=-0.1, q1=0.5, q2=0.5)
        with pytest.raises(ValueError):
            HeraldResponse(q0=0.1, q1=1.5, q2=0.5)
