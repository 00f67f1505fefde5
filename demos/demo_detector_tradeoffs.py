#!/usr/bin/env python3
"""Compare multiplexed heralding detectors across stage counts.

Shows the two figures of merit for a tree of binary detectors: q1^2/q2
governs the short-distance key rate, sqrt(q0 q2)/q1 governs the maximum
secure distance.  More stages improve number resolution but multiply dark
counts and coupler loss.  A last table sets the small-dark-count
approximation of the distance factor against the exact one, beside its
stated error bound.
"""

from heralded_qkd import (
    MultiplexedDetectorParams,
    advantage_threshold,
    approx_distance_factor,
    distance_factor,
    multiplexed_response,
    optimal_stage_count,
    short_distance_factor,
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
