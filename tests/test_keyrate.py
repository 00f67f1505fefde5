import math
import random

import pytest

from heralded_qkd.keyrate import (
    ChannelParams,
    expected_click_prob,
    key_rate,
    qber,
    renormalized_key_rate,
    single_photon_fraction,
)
from heralded_qkd.protocol import BB84, SARG04
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


def reference_setup():
    return poisson_pair_stats(0.1), wcp_response(), ChannelParams(0.1, 1e-5)


class TestExpectedClickProb:
    def test_dead_channel(self):
        stats = poisson_pair_stats(0.2)
        assert expected_click_prob(stats, wcp_response(), ChannelParams(0.0, 0.0)) == 0.0

    def test_ideal_heralding(self):
        stats = poisson_pair_stats(0.3)
        ch = ChannelParams(0.4, 0.0)
        assert expected_click_prob(stats, IDEAL_HERALD, ch) == pytest.approx(
            0.4 * stats.p1, abs=1e-15
        )

    def test_derived_reference(self):
        stats, r, ch = reference_setup()
        assert expected_click_prob(stats, r, ch) == pytest.approx(PEXP_REF, abs=1e-5)


class TestQber:
    def test_no_dark_counts(self):
        stats = poisson_pair_stats(0.1)
        assert qber(stats, wcp_response(), ChannelParams(0.2, 0.0)) == 0.0

    def test_all_dark_counts(self):
        stats = poisson_pair_stats(0.1)
        assert qber(stats, wcp_response(), ChannelParams(0.0, 1e-4)) == pytest.approx(
            0.5, abs=1e-15
        )

    def test_derived_reference(self):
        stats, r, ch = reference_setup()
        assert qber(stats, r, ch) == pytest.approx(QBER_REF, abs=1e-5)

    def test_zero_rate_error(self):
        stats = poisson_pair_stats(0.1)
        with pytest.raises(ZeroDivisionError):
            qber(stats, wcp_response(), ChannelParams(0.0, 0.0))

    def test_never_exceeds_half(self):
        rng = random.Random(7)
        for _ in range(200):
            stats = poisson_pair_stats(rng.uniform(1e-6, 1.0))
            r = HeraldResponse(rng.random(), rng.random(), rng.random())
            ch = ChannelParams(rng.uniform(0.0, 1.0), rng.uniform(1e-8, 1e-2))
            try:
                q = qber(stats, r, ch)
            except ZeroDivisionError:
                continue
            assert 0.0 <= q <= 0.5


class TestSinglePhotonFraction:
    def test_perfect_rejection(self):
        stats = poisson_pair_stats(0.3)
        ch = ChannelParams(0.2, 1e-5)
        assert single_photon_fraction(stats, IDEAL_HERALD, ch) == 1.0

    def test_no_pairs(self):
        ch = ChannelParams(0.2, 1e-5)
        assert single_photon_fraction(
            poisson_pair_stats(0.0), wcp_response(), ch
        ) == 1.0

    def test_derived_reference(self):
        stats, r, ch = reference_setup()
        assert single_photon_fraction(stats, r, ch) == pytest.approx(Y_REF, abs=1e-3)


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
        with pytest.raises(ZeroDivisionError):
            key_rate(BB84, poisson_pair_stats(0.1), wcp_response(),
                     ChannelParams(0.0, 0.0))

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
