"""The abstract's figure-of-merit claims, as ranking tests on seeded pools.

The paper names two detector characteristics that "define the attainable
key rate and the maximum secure distance": the short-distance factor
q1**2/q2 and the distance factor DF = sqrt(q0 q2)/q1.  Each test draws 60
multiplexed detectors (0 to 5 stages, eta_a in [0.3, 0.9], dark_a
log-uniform in [1e-7, 1e-5], eta_c in [0.95, 1], the benchmark pools'
ranges) at d_B = 1e-5, and checks every pair whose figure differs by more
than 5%:
- the optimized key rate at T = 0.05 ranks as q1**2/q2, for BB84 and
  SARG04;
- BB84's tmin_numerical ranks as DF (a lower DF, a lower T_min).
The bound, every such pair agreeing, was fixed before the runs; seed 4242
is held out.

SARG04's T_min is left out: its optimizer can miss the maximum at the
model's validity edge, where K(lambda) has a second peak, so tmin_numerical
ranks against DF the wrong way on a few pairs per pool (5 to 20 of about
1,720 on these seeds).  That is the SARG04 edge item of the ROADMAP, not a
claim of the paper.
"""

import itertools
import math
import random

import pytest

from heralded_qkd.analysis import optimize_lambda, tmin_numerical
from heralded_qkd.keyrate import ChannelParams
from heralded_qkd.protocol import BB84, SARG04
from heralded_qkd.source_detector import (
    MultiplexedDetectorParams,
    distance_factor,
    multiplexed_response,
    short_distance_factor,
)

DARK_B = 1e-5
POOL_SIZE = 60
MARGIN = 1.05  # pairs whose figures are closer than this are not ranked
SEEDS = [1, 2, 3, 4242]  # 4242 held out


def detector_pool(seed):
    rng = random.Random(seed)
    return [
        multiplexed_response(MultiplexedDetectorParams(
            stages=rng.randint(0, 5),
            eta_a=rng.uniform(0.3, 0.9),
            dark_a=10.0 ** rng.uniform(-7.0, -5.0),
            eta_c=rng.uniform(0.95, 1.0),
        ))
        for _ in range(POOL_SIZE)
    ]


def misranked(figures, values):
    """(pairs compared, pairs whose values rank the other way to their
    figures), over the pairs whose figures differ by more than MARGIN."""
    compared = wrong = 0
    for (f1, v1), (f2, v2) in itertools.combinations(zip(figures, values), 2):
        if max(f1, f2) > MARGIN * min(f1, f2):
            compared += 1
            wrong += (f1 > f2) != (v1 > v2)
    return compared, wrong


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", [BB84, SARG04], ids=["bb84", "sarg04"])
def test_key_rate_ranks_as_short_distance_factor(spec, seed):
    pool = detector_pool(seed)
    rates = [optimize_lambda(spec, r, ChannelParams(0.05, DARK_B)).key_rate for r in pool]
    assert all(k > 0.0 for k in rates)
    compared, wrong = misranked([short_distance_factor(r) for r in pool], rates)
    assert compared > 1000 and wrong == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_bb84_tmin_ranks_as_distance_factor(seed):
    pool = detector_pool(seed)
    tmins = [tmin_numerical(BB84, r, DARK_B) for r in pool]
    assert all(math.isfinite(t) for t in tmins)
    compared, wrong = misranked([distance_factor(r) for r in pool], tmins)
    assert compared > 1000 and wrong == 0
