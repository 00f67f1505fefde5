"""Photon-pair source statistics and heralding-detector response models.

The source is a weakly pumped SPDC process with Poissonian pair statistics.
The heralding detector is an N-stage balanced splitter tree terminated by
binary on/off detectors; its action on 0, 1, or 2 input photons is summarized
by the conditional-probability triple (q0, q1, q2) of reporting the
"exactly one click" outcome.  A closed-form response and an exhaustive
enumeration oracle are both provided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

__all__ = [
    "PhotonStatistics",
    "MultiplexedDetectorParams",
    "HeraldResponse",
    "poisson_pair_stats",
    "multiplexed_response",
    "wcp_response",
    "brute_force_response",
    "short_distance_factor",
    "distance_factor",
    "approx_distance_factor",
    "advantage_threshold",
]

_BRUTE_FORCE_MAX_STAGES = 6
# the largest stage count whose 2**stages bins still convert to a float
_MAX_STAGES = 1023


@dataclass(frozen=True)
class PhotonStatistics:
    """Probabilities of 0, 1 and >=2 generated pairs per pulse."""

    p0: float
    p1: float
    p2: float


@dataclass(frozen=True)
class MultiplexedDetectorParams:
    """Physical parameters of the N-stage multiplexing tree detector.

    stages=0 is the plain binary on/off detector.  Lossy couplers enter only
    through the effective efficiency eta_a * eta_c**stages.
    """

    stages: int
    eta_a: float
    dark_a: float
    eta_c: float = 1.0

    def __post_init__(self):
        if not 0 <= self.stages <= _MAX_STAGES or self.stages != int(self.stages):
            raise ValueError(
                f"stages must be an integer in [0, {_MAX_STAGES}], got {self.stages}"
            )
        for label, value in (
            ("eta_a", self.eta_a),
            ("dark_a", self.dark_a),
            ("eta_c", self.eta_c),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")

    @property
    def effective_efficiency(self) -> float:
        return self.eta_a * self.eta_c**self.stages

    @property
    def n_bins(self) -> int:
        return 2**self.stages


@dataclass(frozen=True)
class HeraldResponse:
    """Conditional probabilities of the single-click heralding outcome.

    q0, q1, q2 condition on 0, 1, 2 photons at the detector input.  May be
    constructed directly from measured values for an arbitrary detector; only
    range validation is applied.
    """

    q0: float
    q1: float
    q2: float

    def __post_init__(self):
        for label, value in (("q0", self.q0), ("q1", self.q1), ("q2", self.q2)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {value}")


def poisson_pair_stats(lam: float) -> PhotonStatistics:
    """Poisson pair-number statistics at mean pair number lam.

    p2 is the exact complement 1 - p0 - p1, not the quadratic approximation.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"pump strength must be finite and nonnegative, got {lam}")
    return PhotonStatistics(*_pair_probabilities(lam))


def _pair_probabilities(lam, exp=math.exp, expm1=math.expm1):
    """(p0, p1, p2) of poisson_pair_stats, without its range check.

    lam is a float, or a numpy array with exp and expm1 mapping math.exp and
    math.expm1 over it: the arithmetic has no branch on the value of lam, so
    each entry of the arrays equals the float result at that entry bit for bit.
    """
    p0 = exp(-lam)
    p1 = lam * p0
    # -expm1(-lam) avoids the catastrophic cancellation of 1 - p0 - p1 at
    # tiny lam, but the difference of two rounded values may still round
    # below 0; (d + |d|)/2 clamps it to 0, and is max(d, 0.0) bit for bit on
    # floats and arrays alike, since d here is within [-1, 1] and never -0.0
    d = -expm1(-lam) - p1
    return p0, p1, (d + abs(d)) * 0.5


def multiplexed_response(params: MultiplexedDetectorParams) -> HeraldResponse:
    """Closed-form single-click response of the multiplexing tree."""
    eta = params.effective_efficiency
    m = params.n_bins
    d = params.dark_a
    # (1 - d)**(m - 1) through log1p, since rounding 1 - d first costs m - 1
    # ulp: at 60 stages and d = 1e-17, 1 - d is 1.0 and q0 would be 11.5.
    # log1p(-1) raises; at d = 1 every other bin fires, unless there is none
    if d < 1.0:
        no_dark = math.exp((m - 1) * math.log1p(-d))
    else:
        no_dark = float(m == 1)
    q0 = no_dark * m * d
    q1 = no_dark * (m * d * (1.0 - eta) + eta)
    q2 = no_dark * (
        m * d * (1.0 - eta) ** 2 + 2.0 * eta * (1.0 - eta) + eta**2 / m
    )
    # at dark_a = 1 and one bin q2 is 1, but its rounded sum can be 1 + 1 ulp
    return HeraldResponse(q0=q0, q1=q1, q2=min(q2, 1.0))


def wcp_response() -> HeraldResponse:
    """The no-heralding (weak coherent pulse) response q0 = q1 = q2 = 1."""
    return HeraldResponse(q0=1.0, q1=1.0, q2=1.0)


def brute_force_response(params: MultiplexedDetectorParams, n_photons: int) -> float:
    """Exhaustive-enumeration probability of exactly one detector click.

    Each of the n_photons lands in one of 2**N bins with uniform probability,
    is detected there with probability eta_a * eta_c**N, and every bin can
    independently fire a dark count; a dark count on a bin already clicked by
    a photon merges with it.  All photon-bin assignments and detection
    outcomes are enumerated; the dark-count pattern probability for a given
    set of photon-clicked bins is exact.  Verification oracle for the closed
    form; independent of its algebra.
    """
    if params.stages > _BRUTE_FORCE_MAX_STAGES:
        raise ValueError(
            f"enumeration guard: stages must be <= {_BRUTE_FORCE_MAX_STAGES}"
        )
    if n_photons not in (0, 1, 2):
        raise ValueError(f"n_photons must be 0, 1 or 2, got {n_photons}")

    eta = params.effective_efficiency
    m = params.n_bins
    d = params.dark_a

    total = 0.0
    bins = range(m)
    # each photon: (bin, detected?) with detected in {True, False}
    for assignment in product(product(bins, (True, False)), repeat=n_photons):
        prob = 1.0
        clicked = set()
        for bin_idx, detected in assignment:
            prob *= (1.0 / m) * (eta if detected else 1.0 - eta)
            if detected:
                clicked.add(bin_idx)
        k = len(clicked)
        if k == 0:
            # exactly one dark count among the m empty bins
            prob *= m * d * (1.0 - d) ** (m - 1)
        elif k == 1:
            # no dark count on the other m-1 bins (dark on the clicked bin merges)
            prob *= (1.0 - d) ** (m - 1)
        else:
            prob = 0.0
        total += prob
    return total


def short_distance_factor(r: HeraldResponse) -> float:
    """Key-rate figure of merit q1**2/q2 for the high-transmission regime.

    Returns inf when q2 = 0 < q1 (perfect multiphoton rejection makes the
    factor unbounded), and NaN when q1 = q2 = 0 (a detector that never
    heralds a pair has no figure of merit: the ratio is 0/0).
    """
    if r.q2 == 0.0:
        return math.inf if r.q1 > 0.0 else math.nan
    return r.q1 * (r.q1 / r.q2)


def distance_factor(r: HeraldResponse) -> float:
    """Maximum-distance figure of merit sqrt(q0*q2)/q1, NaN at q1 = 0; lower is better."""
    return math.sqrt(r.q0 * r.q2) / r.q1 if r.q1 else math.nan


def approx_distance_factor(params: MultiplexedDetectorParams) -> float:
    """Small-dark-count approximation of the distance factor.

    sqrt(dark_a A), A = 1 + 2**(N+1) (1 - eta)/eta, eta the effective
    efficiency and N the stage count; NaN at eta = 0 (eta_a = 0, or
    eta_c**stages underflowing to 0), and 0 at dark_a = 0 otherwise.  With
    x = 2**N dark_a (1 - eta)/eta, its ratio to the exact factor
    sqrt(q0 q2)/q1 of multiplexed_response is bounded by
    0 <= approx/exact - 1 <= x.  The (1 - dark_a)**(2**N - 1) factor of
    q0, q1 and q2 cancels, and approx/exact = (1 + x)/sqrt(1 + x**2/A)
    with A >= 1.
    """
    eta = params.effective_efficiency
    if eta == 0.0:
        return math.nan
    # sqrt(dark_a) sqrt(1 + 2**(N+1) (1 - eta)/eta), with sqrt(dark_a)
    # applied first, so that neither 2**(N+1) at the largest stage count nor
    # (1 - eta)/eta at a subnormal eta overflows where the product is finite
    s = math.sqrt(params.dark_a)
    return math.hypot(s, s * 2.0 ** ((params.stages + 1) / 2)
                      * math.sqrt(1.0 - eta) / math.sqrt(eta))


def advantage_threshold(stages: int) -> float:
    """Minimum effective efficiency for q1**2/q2 > 1 at the given stage count.

    Below this value the heralded source cannot beat weak coherent pulses in
    the short-distance regime.
    """
    if stages < 0:
        raise ValueError(f"stages must be nonnegative, got {stages}")
    return 2.0 / (3.0 - 2.0 ** (-stages))
