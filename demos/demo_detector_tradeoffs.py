#!/usr/bin/env python3
"""Compare multiplexed heralding detectors across stage counts.

Shows the two figures of merit for a tree of binary detectors: q1^2/q2
governs the short-distance key rate, sqrt(q0 q2)/q1 governs the maximum
secure distance.  More stages improve number resolution but multiply dark
counts and coupler loss.  Two last tables set the paper's approximations
against the exact forms, beside their stated error laws: the
small-dark-count distance factor, and the short-distance key rate.
"""

import math

from heralded_qkd import (
    BB84,
    MultiplexedDetectorParams,
    advantage_threshold,
    approx_distance_factor,
    distance_factor,
    multiplexed_response,
    optimal_stage_count,
    short_distance_approx_rate,
    short_distance_factor,
    short_distance_key_rate,
    short_distance_lambda,
    wcp_response,
)

ETA_C = 0.98
DARK_A = 1e-6

for eta_a in (0.4, 0.6, 0.8):
    print(f"--- heralding efficiency eta_A = {eta_a} "
          f"(couplers {ETA_C}, dark counts {DARK_A}) ---")
    print(f"{'N':>3} {'q1^2/q2':>10} {'sqrt(q0q2)/q1':>15}")
    for stages in range(6):
        r = multiplexed_response(
            MultiplexedDetectorParams(stages=stages, eta_a=eta_a,
                                      dark_a=DARK_A, eta_c=ETA_C)
        )
        print(f"{stages:>3} {short_distance_factor(r):>10.4f} "
              f"{distance_factor(r):>15.6f}")
    best = optimal_stage_count(eta_a, ETA_C, DARK_A, 8)
    print(f"best stage count for the short-distance rate: N = {best}")
    print(f"(beating WCPs at N = {best} needs effective efficiency > "
          f"{advantage_threshold(best):.3f})")
    print()

# approx_distance_factor's relative error, 0 <= approx/exact - 1 <= x, with
# x = 2^N dark_a (1 - eta)/eta and eta = eta_a eta_c^N the effective efficiency
print("--- approx_distance_factor against sqrt(q0q2)/q1 at eta_A = 0.6 ---")
print(f"{'N':>3} {'dark_a':>7} {'approx/exact-1':>15} {'bound x':>10}")
for dark_a in (1e-6, 1e-3):
    for stages in (0, 3, 6, 10):
        params = MultiplexedDetectorParams(stages=stages, eta_a=0.6,
                                           dark_a=dark_a, eta_c=ETA_C)
        error = approx_distance_factor(params) / distance_factor(
            multiplexed_response(params)) - 1.0
        eta = params.effective_efficiency
        bound = 2**stages * dark_a * (1.0 - eta) / eta
        print(f"{stages:>3} {dark_a:>7.0e} {error:>15.3e} {bound:>10.3e}")

# short_distance_approx_rate over the dark-count-free rate at its exact
# maximizer s = short_distance_lambda is R(s) = s^2 e^s / (2 (1 - s)^2
# (s^2/(1 - s) + 1 + s - e^s)) = 1 + 4s/3 + O(s^2), here with expm1
print()
print("--- short_distance_approx_rate against the exact optimum (BB84, d_B = 0) ---")
print(f"{'source':>7} {'T':>6} {'lambda*':>9} {'approx/exact':>13} {'R(lambda*)':>11}")
for name, r in (
    ("wcp", wcp_response()),
    ("binary", multiplexed_response(
        MultiplexedDetectorParams(stages=0, eta_a=0.6, dark_a=DARK_A))),
    ("N = 3", multiplexed_response(
        MultiplexedDetectorParams(stages=3, eta_a=0.6, dark_a=DARK_A, eta_c=ETA_C))),
):
    for t in (1e-3, 1e-2, 0.1):
        s = short_distance_lambda(BB84, r, t)
        ratio = short_distance_approx_rate(BB84, r, t) / short_distance_key_rate(
            BB84, r, t, s)
        em1 = math.expm1(s)
        law = s * s * (1.0 + em1) / (2.0 * (1.0 - s) * (s * s - (1.0 - s) * (em1 - s)))
        print(f"{name:>7} {t:>6.0e} {s:>9.5f} {ratio:>13.9f} {law:>11.9f}")
