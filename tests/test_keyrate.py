import dataclasses
import math
import random
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from heralded_qkd.keyrate import (
    ChannelParams,
    key_rate,
    renormalized_key_rate,
)
from heralded_qkd.protocol import BB84, SARG04, pns_applicable, positivity_margin
from heralded_qkd.source_detector import (
    HeraldResponse,
    poisson_pair_stats,
    wcp_response,
)

# frozen oracle values (mpmath, 30 digits): lambda=0.1, WCP, T=0.1, d_B=1e-5
PEXP_REF = 0.01000414221244849
QBER_REF = 0.0009995859502633484
Y_REF = 0.5323097112091798
K_REF_BB84 = 0.0025531189525985873

IDEAL_HERALD = HeraldResponse(q0=0.0, q1=1.0, q2=0.0)


# zero, the subnormals and the smallest normal float
SUBNORMAL = st.floats(0.0, sys.float_info.min)


def reference_setup():
    return poisson_pair_stats(0.1), wcp_response(), ChannelParams(0.1, 1e-5)


# p_exp, QBER and y are fields of the key-rate report (BB84; any protocol
# gives the same three)
class TestExpectedClickProb:
    def test_ideal_heralding(self):
        stats = poisson_pair_stats(0.3)
        ch = ChannelParams(0.4, 0.0)
        assert key_rate(BB84, stats, IDEAL_HERALD, ch).p_exp == pytest.approx(
            0.4 * stats.p1, abs=1e-15
        )

    def test_derived_reference(self):
        stats, r, ch = reference_setup()
        assert key_rate(BB84, stats, r, ch).p_exp == pytest.approx(PEXP_REF, abs=1e-5)


class TestQber:
    def test_no_dark_counts(self):
        stats = poisson_pair_stats(0.1)
        assert key_rate(BB84, stats, wcp_response(), ChannelParams(0.2, 0.0)).qber == 0.0

    def test_all_dark_counts(self):
        stats = poisson_pair_stats(0.1)
        rep = key_rate(BB84, stats, wcp_response(), ChannelParams(0.0, 1e-4))
        assert rep.qber == pytest.approx(0.5, abs=1e-15)

    def test_derived_reference(self):
        stats, r, ch = reference_setup()
        assert key_rate(BB84, stats, r, ch).qber == pytest.approx(QBER_REF, abs=1e-5)

    def test_zero_rate_error(self):
        stats = poisson_pair_stats(0.1)
        rep = key_rate(BB84, stats, wcp_response(), ChannelParams(0.0, 0.0))
        assert rep.p_exp == 0.0 and math.isnan(rep.qber)

    @given(
        lam=st.floats(0.0, 1.0),
        q=st.tuples(*[st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)] * 3),
        t=st.floats(0.0, 1.0) | SUBNORMAL,
        dark_b=st.floats(0.0, 1.0, exclude_max=True) | SUBNORMAL,
    )
    @example(lam=0.1, q=(1.0, 1.0, 1.0), t=5e-324, dark_b=5e-324)
    @example(lam=1.0, q=(0.0, 1.0, 1.0), t=1.0, dark_b=5e-324)
    @example(lam=5e-324, q=(1.0, 0.0, 0.0), t=0.0, dark_b=5e-324)
    @example(lam=0.1, q=(0.0, 0.0, 0.0), t=1.0, dark_b=0.5)
    def test_never_exceeds_half(self, lam, q, t, dark_b):
        # p_exp >= 2 dark in floats, so Q = dark/p_exp <= 1/2; p2 q2 >= 0,
        # so y <= 1; with nothing detected both are NaN
        rep = key_rate(BB84, poisson_pair_stats(lam), HeraldResponse(*q),
                       ChannelParams(t, dark_b))
        if rep.p_exp == 0.0:
            assert math.isnan(rep.qber) and math.isnan(rep.y)
        else:
            assert 0.0 <= rep.qber <= 0.5 and rep.y <= 1.0


class TestSinglePhotonFraction:
    def test_perfect_rejection(self):
        stats = poisson_pair_stats(0.3)
        ch = ChannelParams(0.2, 1e-5)
        assert key_rate(BB84, stats, IDEAL_HERALD, ch).y == 1.0

    def test_no_pairs(self):
        ch = ChannelParams(0.2, 1e-5)
        assert key_rate(BB84, poisson_pair_stats(0.0), wcp_response(), ch).y == 1.0

    def test_derived_reference(self):
        stats, r, ch = reference_setup()
        assert key_rate(BB84, stats, r, ch).y == pytest.approx(Y_REF, abs=1e-3)


class TestKeyRate:
    def test_ideal_heralding_no_noise(self):
        stats = poisson_pair_stats(0.1)
        ch = ChannelParams(0.4, 0.0)
        rep = key_rate(BB84, stats, IDEAL_HERALD, ch)
        assert rep.qber == 0.0
        assert rep.y == 1.0
        assert rep.key_rate == pytest.approx(0.4 * stats.p1 / 2.0, abs=1e-15)
        assert rep.secure

    def test_threshold_rate_vanishes(self):
        # y = 1 and Q = Q_th: ideal source, dark counts tuned to the threshold
        q_th = BB84.q_threshold
        t = 0.1
        d_b = q_th * t / (1.0 - 2.0 * q_th)
        rep = key_rate(BB84, poisson_pair_stats(1e-9), IDEAL_HERALD,
                       ChannelParams(t, d_b))
        assert rep.qber == pytest.approx(q_th, abs=1e-12)
        assert rep.key_rate == pytest.approx(0.0, abs=1e-9 * rep.p_exp)

    def test_derived_reference(self):
        stats, r, ch = reference_setup()
        rep = key_rate(BB84, stats, r, ch)
        assert rep.key_rate == pytest.approx(K_REF_BB84, abs=1e-6)
        assert rep.pns_valid and rep.secure

    def test_zero_rate_error(self):
        rep = key_rate(BB84, poisson_pair_stats(0.1), wcp_response(),
                       ChannelParams(0.0, 0.0))
        assert rep.p_exp == 0.0
        assert math.isnan(rep.qber) and math.isnan(rep.y) and math.isnan(rep.key_rate)
        assert not rep.pns_valid and not rep.secure

    def test_model_invalid_reported_not_raised(self):
        # SARG04 with Q/y beyond the information function domain
        stats = poisson_pair_stats(0.9)
        ch = ChannelParams(1e-6, 5e-3)
        rep = key_rate(SARG04, stats, wcp_response(), ch)
        assert not rep.secure
        if math.isnan(rep.key_rate):
            assert not rep.pns_valid

    def test_renormalized_consistency(self):
        rng = random.Random(11)
        for _ in range(100):
            spec = rng.choice([BB84, SARG04])
            stats = poisson_pair_stats(rng.uniform(1e-4, 0.5))
            r = HeraldResponse(rng.random(), rng.uniform(0.1, 1.0), rng.random())
            ch = ChannelParams(rng.uniform(1e-5, 1.0), rng.uniform(1e-8, 1e-3))
            rep = key_rate(spec, stats, r, ch)
            if math.isnan(rep.key_rate):
                continue
            renorm = renormalized_key_rate(spec, rep.qber, rep.y)
            if math.isnan(renorm):
                assert not rep.pns_valid
                continue
            assert rep.key_rate == pytest.approx(rep.p_exp * renorm, abs=1e-12)

    def test_linearized_bound_sign_agreement(self):
        # near threshold the linearized bound predicts the key-rate sign
        spec = BB84
        q_th = spec.q_threshold
        for y in (0.95, 0.97, 0.99, 1.0):
            q_bound = q_th * (1.0 - spec.xi * (1.0 - y))
            for rel_offset in (-0.1, -0.05, 0.05, 0.1):
                q = q_bound * (1.0 + rel_offset)
                renorm = renormalized_key_rate(spec, q, y)
                predicted_secure = q < q_bound
                if abs(rel_offset) <= 0.02:
                    continue
                assert (renorm > 0.0) == predicted_secure

    def test_monotone_in_transmission(self):
        # lambda well below 2T keeps the printed multiphoton fraction small
        stats = poisson_pair_stats(1e-3)
        rates = [
            key_rate(BB84, stats, wcp_response(), ChannelParams(t, 0.0)).key_rate
            for t in [0.01, 0.02, 0.05, 0.1, 0.2, 0.3]
        ]
        assert all(k >= 0.0 for k in rates)
        assert all(b > a for a, b in zip(rates, rates[1:]))


def counting(spec):
    """A copy of spec whose eve_info counts its calls in .calls."""
    calls = []

    def eve_info(q):
        calls.append(q)
        return spec.eve_info(q)

    counted = dataclasses.replace(spec, eve_info=eve_info)
    return counted, calls


class TestSecurityKernel:
    @pytest.mark.parametrize("spec", [BB84, SARG04])
    def test_one_eve_info_call_per_rate(self, spec):
        counted, calls = counting(spec)
        stats, r, ch = reference_setup()
        rep = key_rate(counted, stats, r, ch)
        assert rep == key_rate(spec, stats, r, ch)
        assert calls == [rep.qber / rep.y]
        calls.clear()
        assert renormalized_key_rate(counted, 0.05, 0.8) == renormalized_key_rate(
            spec, 0.05, 0.8
        )
        assert calls == [0.05 / 0.8]

    @given(
        spec=st.sampled_from([BB84, SARG04]),
        lam=st.floats(1e-8, 1.0),
        q=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
        t=st.floats(0.0, 1.0),
        dark_b=st.floats(0.0, 0.1),
    )
    def test_key_rate_is_margin_times_detections(self, spec, lam, q, t, dark_b):
        stats = poisson_pair_stats(lam)
        rep = key_rate(spec, stats, HeraldResponse(*q), ChannelParams(t, dark_b))
        if rep.p_exp == 0.0:
            assert math.isnan(rep.qber) and math.isnan(rep.y)
            assert math.isnan(rep.key_rate) and not rep.pns_valid and not rep.secure
            return
        if rep.y <= 0.0:
            assert math.isnan(rep.key_rate) and not rep.pns_valid
            return
        margin = positivity_margin(spec, rep.qber, rep.y)
        expected = rep.p_exp * spec.p_sift * margin
        assert math.isnan(rep.key_rate) == math.isnan(expected)
        if not math.isnan(expected):
            assert rep.key_rate == expected
        assert rep.pns_valid == pns_applicable(spec, rep.qber, rep.y)
        assert rep.secure == (rep.key_rate > 0.0 and rep.pns_valid)


class TestRenormalizedKeyRate:
    def test_perfect_channel(self):
        assert renormalized_key_rate(BB84, 0.0, 1.0) == 0.5

    def test_threshold(self):
        assert renormalized_key_rate(BB84, BB84.q_threshold, 1.0) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_sarg_blanked_region(self):
        assert math.isnan(renormalized_key_rate(SARG04, 0.2, 0.5))

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            renormalized_key_rate(BB84, -0.1, 1.0)
        with pytest.raises(ValueError):
            renormalized_key_rate(BB84, 0.1, 0.0)


class TestParams:
    def test_channel_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            ChannelParams(0.5, 1.0)
