"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import random
import time

import numpy as np
import pytest

from heralded_qkd.analysis import (
    fit_power_law,
    lambda_opt_heralded,
    optimal_stage_count,
    optimize_lambda,
    scan_key_rate,
    short_distance_key_rate,
    tmin_heralded,
    tmin_numerical,
    tmin_single_photon,
    tmin_wcp,
)
from heralded_qkd.keyrate import (
    ChannelParams,
    key_rate,
    renormalized_key_rate,
)
from heralded_qkd.protocol import (
    BB84,
    SARG04,
    binary_entropy,
)
from heralded_qkd.source_detector import (
    HeraldResponse,
    MultiplexedDetectorParams,
    brute_force_response,
    distance_factor,
    multiplexed_response,
    poisson_pair_stats,
    short_distance_factor,
    wcp_response,
)


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: criterion {criterion} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def detector(stages, eta_a, dark_a=1e-6, eta_c=0.98):
    return multiplexed_response(
        MultiplexedDetectorParams(stages=stages, eta_a=eta_a, dark_a=dark_a,
                                  eta_c=eta_c)
    )


def test_criterion_1_threshold_constants():
    checks = [
        ("BB84 Q_th", BB84.q_threshold, 0.1100, 5e-4),
        ("SARG04 Q_th", SARG04.q_threshold, 0.0968, 5e-4),
        ("BB84 xi", BB84.xi, 1.25, 0.01),
        ("SARG04 xi", SARG04.xi, 0.64, 0.01),
        ("SARG04 I_AE2", SARG04.i_ae_two, 0.6009, 1e-4),
    ]
    for label, got, expected, tol in checks:
        assert abs(got - expected) <= tol, f"{label}: {got} != {expected} +- {tol}"
    report(1, True, "threshold constants (Q_th, xi, I_AE2) at stated tolerances")


def test_criterion_2_detector_oracle_equivalence():
    start = time.monotonic()
    cases = 0
    worst = 0.0
    for stages in range(5):
        for eta_a in (0.2, 0.5, 0.8, 1.0):
            for dark_a in (0.0, 1e-6, 1e-3, 0.1):
                for eta_c in (0.9, 0.98, 1.0):
                    params = MultiplexedDetectorParams(
                        stages=stages, eta_a=eta_a, dark_a=dark_a, eta_c=eta_c
                    )
                    r = multiplexed_response(params)
                    for n, q in enumerate((r.q0, r.q1, r.q2)):
                        delta = abs(q - brute_force_response(params, n))
                        worst = max(worst, delta)
                        assert delta < 1e-12
                        cases += 1
    elapsed = time.monotonic() - start
    assert cases >= 720
    assert elapsed < 10.0
    report(2, True,
           f"closed form vs enumeration: {cases} cases, max |delta| = "
           f"{worst:.2e}, {elapsed:.2f} s")


def test_criterion_3_short_distance_ratio():
    for eta_a in (0.4, 0.6, 0.8):
        stages = optimal_stage_count(eta_a, 0.98, 1e-6, 5)
        r_mux = detector(stages, eta_a)
        factor = short_distance_factor(r_mux)
        for t in (1e-3, 3e-3, 1e-2):
            ch = ChannelParams(t, 0.0)
            k_mux = optimize_lambda(BB84, r_mux, ch).key_rate
            k_wcp = optimize_lambda(BB84, wcp_response(), ch).key_rate
            ratio = k_mux / k_wcp
            assert ratio == pytest.approx(factor, rel=0.05), (
                f"eta_a={eta_a} T={t}: ratio {ratio} vs q1^2/q2 {factor}"
            )
    report(3, True, "optimized key-rate ratio matches q1^2/q2 within 5%")


def test_criterion_4_optimal_stage_counts():
    assert optimal_stage_count(0.8, 0.98, 1e-6, 8) == 4
    assert optimal_stage_count(0.6, 0.98, 1e-6, 8) == 3
    assert optimal_stage_count(0.4, 0.98, 1e-6, 8) == 3
    report(4, True, "optimal stage counts N=4 (eta_a=0.8), N=3 (0.4, 0.6)")


def test_criterion_5_minimum_transmission():
    d_b = 1e-5
    for spec in (BB84, SARG04):
        for eta_a, stages in [(0.8, 0), (0.8, 4), (0.6, 0), (0.6, 3),
                              (0.4, 0), (0.4, 3)]:
            r = detector(stages, eta_a)
            analytic = tmin_heralded(spec, r, d_b)
            numerical = tmin_numerical(spec, r, d_b)
            assert abs(analytic - numerical) / numerical < 0.15, (
                f"{spec.name} eta_a={eta_a} N={stages}: "
                f"{analytic} vs {numerical}"
            )
        t_wcp, _ = tmin_wcp(spec, d_b)
        for eta_a in (0.4, 0.6, 0.8):
            t_binary = tmin_heralded(spec, detector(0, eta_a), d_b)
            assert t_wcp / t_binary >= 3.0
    report(5, True, "closed-form minimum transmission vs bisection oracle within 15%; "
                    "binary heralding beats WCP T_min by > 3x")


def test_criterion_6_power_law_scaling():
    series = scan_key_rate(BB84, detector(0, 0.6), 1e-6,
                           np.logspace(-4, -2, 25))
    exponent, _ = fit_power_law(series)
    assert exponent == pytest.approx(2.0, abs=0.05), f"exponent {exponent}"
    report(6, True, f"short-distance scaling exponent {exponent:.3f} = 2 +- 0.05")


def test_criterion_7_source_crossover():
    d_b = 1e-5
    r_wcp = wcp_response()
    r_bin = detector(0, 0.6)
    r_mux = detector(3, 0.6)

    def optimized(r, t):
        return optimize_lambda(BB84, r, ChannelParams(t, d_b))

    t_wcp_min, _ = tmin_wcp(BB84, d_b)
    # WCP insecure below its minimum transmission
    below = 0.7 * t_wcp_min
    res_wcp = optimized(r_wcp, below)
    assert res_wcp.key_rate <= 0.0 or not res_wcp.report.secure
    # binary heralding still secure a factor >= 10 lower
    assert optimized(r_bin, below / 10.0).report.secure
    # an interval where N=3 multiplexing strictly beats both alternatives
    mux_wins = []
    for t in np.logspace(math.log10(below / 20), math.log10(below), 12):
        k_mux = optimized(r_mux, t).key_rate
        k_bin = optimized(r_bin, t).key_rate
        k_wcp = max(optimized(r_wcp, t).key_rate, 0.0)
        if k_mux > k_bin and k_mux > k_wcp and k_mux > 0:
            mux_wins.append(t)
    assert mux_wins
    report(7, True, "WCP insecure below T_min while binary survives 10x lower; "
                    f"multiplexing wins on {len(mux_wins)} probed T values")


def test_criterion_8_consistency_identities():
    rng = random.Random(42)
    # key rate equals p_exp times the renormalized rate
    for _ in range(50):
        spec = rng.choice([BB84, SARG04])
        stats = poisson_pair_stats(rng.uniform(1e-4, 0.3))
        r = HeraldResponse(rng.random(), rng.uniform(0.2, 1.0), rng.random())
        ch = ChannelParams(rng.uniform(1e-4, 1.0), rng.uniform(1e-8, 1e-3))
        rep = key_rate(spec, stats, r, ch)
        if math.isnan(rep.key_rate):
            continue
        renorm = renormalized_key_rate(spec, rep.qber, rep.y)
        if math.isnan(renorm):
            continue
        assert abs(rep.key_rate - rep.p_exp * renorm) < 1e-12
    # dark-count-free limit equals the full rate at d_B = 0
    for _ in range(50):
        r = HeraldResponse(rng.random(), rng.uniform(0.2, 1.0), rng.random())
        t = rng.uniform(1e-3, 1.0)
        lam = rng.uniform(1e-4, min(1.0, t))
        rep = key_rate(BB84, poisson_pair_stats(lam), r, ChannelParams(t, 0.0))
        if math.isnan(rep.key_rate):
            continue
        assert abs(short_distance_key_rate(BB84, r, t, lam) - rep.key_rate) < 1e-12
    # heralded optimal pump strength reduces to the WCP one at q = (1,1,1)
    for spec in (BB84, SARG04):
        _, lam_c = tmin_wcp(spec, 1e-5)
        assert abs(lambda_opt_heralded(spec, wcp_response(), 1e-5) - lam_c) < 1e-12
    report(8, True, "K = p_exp * renormalized rate; d_B=0 limit; "
                    "WCP reduction of the optimal pump strength")


def test_criterion_9_property_suite():
    # entropy symmetry on a 1000-point grid
    for x in np.linspace(0.0, 1.0, 1000):
        assert abs(binary_entropy(x) - binary_entropy(1.0 - x)) < 1e-12
    # short-distance factor monotone in eta_a at fixed N, d_A = 0
    for stages in range(5):
        factors = [
            short_distance_factor(
                multiplexed_response(
                    MultiplexedDetectorParams(stages=stages, eta_a=e, dark_a=0.0)
                )
            )
            for e in np.linspace(0.05, 1.0, 20)
        ]
        assert all(b > a for a, b in zip(factors, factors[1:]))
    # maximizer property with 100 random probes
    rng = random.Random(9)
    r = detector(0, 0.6)
    ch = ChannelParams(0.01, 1e-5)
    res = optimize_lambda(BB84, r, ch)
    for _ in range(100):
        lam = math.exp(rng.uniform(math.log(1e-8), 0.0))
        probe = key_rate(BB84, poisson_pair_stats(lam), r, ch)
        if not math.isnan(probe.key_rate):
            assert res.key_rate >= probe.key_rate - 1e-12
    # T_min ordering for responses with distance factor <= 1
    for spec in (BB84, SARG04):
        t1 = tmin_single_photon(spec, 1e-5)
        t_c, _ = tmin_wcp(spec, 1e-5)
        for q0 in (0.0, 1e-4, 1.0):
            for q1 in (0.3, 1.0):
                for q2 in (0.0, 0.5, 1.0):
                    r = HeraldResponse(q0, q1, q2)
                    if distance_factor(r) > 1.0:
                        continue
                    t_h = tmin_heralded(spec, r, 1e-5)
                    assert t1 <= t_h <= t1 + t_c + 1e-15
    # QBER never exceeds 1/2 on random draws
    for _ in range(200):
        stats = poisson_pair_stats(rng.uniform(1e-6, 1.0))
        r = HeraldResponse(rng.random(), rng.random(), rng.random())
        ch = ChannelParams(rng.uniform(0.0, 1.0), rng.uniform(1e-8, 1e-2))
        q = key_rate(BB84, stats, r, ch).qber
        assert 0.0 <= q <= 0.5
    report(9, True, "entropy symmetry, monotonicity grids, maximizer probes, "
                    "T_min ordering, QBER bound")
