"""Four-state QKD protocols and their security constants.

Implements the information-theoretic functions for BB84 and SARG04 under a
collective attack on single-photon pulses combined with photon number
splitting on multiphoton pulses, and numerically derives the threshold QBER
and the linearization factor used by the closed-form minimum-transmission
bounds.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "ProtocolSpec",
    "BB84",
    "SARG04",
    "PROTOCOLS",
    "get_protocol",
    "binary_entropy",
    "mutual_info_ab",
    "eve_info_single",
    "positivity_margin",
    "pns_applicable",
]

# The information functions below take a float or a numpy array x, with log2
# math.log2 or np.log2 to match: they have no branch on the value of x.


def _xlog2x(x, log2=math.log2):
    # x*log2(x) with the 0*log2(0) = 0 convention: a zero takes log2(1) = 0,
    # and adding False leaves every other x's bits as they are
    return x * log2(x + (x == 0.0))


def _binary_entropy(x, log2=math.log2):
    # binary_entropy without its range check
    return -_xlog2x(x, log2) - _xlog2x(1.0 - x, log2)


def binary_entropy(x: float) -> float:
    """Binary entropy H(x) in bits, with 0*log2(0) = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary entropy argument must be in [0, 1], got {x}")
    return _binary_entropy(x)


def mutual_info_ab(q: float) -> float:
    """Mutual information between Alice and Bob, 1 - H(Q), in bits."""
    if not 0.0 <= q <= 0.5:
        raise ValueError(f"QBER must be in [0, 1/2], got {q}")
    return 1.0 - _binary_entropy(q)


def _sarg04_eve_info(q, log2=math.log2):
    # (1-q)log2(1-q) - (1-2q)log2(1-2q) + q(1 - log2 q); every term is 0 at
    # q = 0, the q = 0 limit, with q(1 - log2 q) made branch-free as in _xlog2x
    return (
        _xlog2x(1.0 - q, log2)
        - _xlog2x(1.0 - 2.0 * q, log2)
        + q * (1.0 - log2(q + (q == 0.0)))
    )


@dataclass(frozen=True)
class ProtocolSpec:
    """A four-state protocol as data: sifting fraction and Eve's information.

    eve_info is Eve's single-photon information gain I_AE^(1)(Q), defined on
    the closed QBER domain [0, q_max]; it takes a float, or a numpy array
    with np.log2 as its second argument.  i_ae_two is her two-photon gain
    I_AE^(2).  The threshold QBER and the linearization factor follow from
    these and are computed lazily on first access, then cached.  Instances
    are immutable and safe to share across threads (a cache race merely
    recomputes the same value).
    """

    name: str
    p_sift: float
    eve_info: Callable[..., float]
    q_max: float
    i_ae_two: float

    @cached_property
    def q_threshold(self) -> float:
        """Threshold QBER where the single-photon key rate vanishes.

        The root of I_AB(Q) = I_AE^(1)(Q) on (0, 1/2), the zero contour at
        y = 1, by bisection: the entropy derivative diverges at 0.
        """
        return _contour_q(self, 1.0, 0.5 - _Q_TOL)

    @cached_property
    def xi(self) -> float:
        """Linearization factor tightening the threshold for multiphoton events.

        The slope (1 - Q/Q_th)/eps of the exact contour at y = 1 - eps,
        Richardson-extrapolated over eps in {1e-3, 1e-4}.
        """
        q_th = self.q_threshold

        # the contour sits just below q_th for y slightly under 1
        def slope(eps: float) -> float:
            q = _contour_q(self, 1.0 - eps, q_th)
            return (1.0 - q / q_th) / eps

        e1, e2 = 1e-3, 1e-4
        s1, s2 = slope(e1), slope(e2)
        # first-order Richardson: slope(eps) ~ xi + c*eps
        return (e1 * s2 - e2 * s1) / (e1 - e2)


# BB84: I_AE^(1) = H(Q) on [0, 1/2]; multiphoton pulses are fully insecure.
BB84 = ProtocolSpec(
    name="bb84", p_sift=0.5, eve_info=_binary_entropy, q_max=0.5, i_ae_two=1.0,
)
# SARG04: the collective-attack expression on [0, 1/2); the two-photon gain
# is bounded by the Holevo quantity H((2+sqrt(2))/4).
SARG04 = ProtocolSpec(
    name="sarg04",
    p_sift=0.25,
    eve_info=_sarg04_eve_info,
    q_max=math.nextafter(0.5, 0.0),
    i_ae_two=binary_entropy((2.0 + math.sqrt(2.0)) / 4.0),
)

PROTOCOLS = {"bb84": BB84, "sarg04": SARG04}


def get_protocol(name: str) -> ProtocolSpec:
    """Look up a built-in protocol by (case-insensitive) name."""
    if isinstance(name, str) and (spec := PROTOCOLS.get(name.lower())) is not None:
        return spec
    raise ValueError(f"unknown protocol {name!r}; expected one of {sorted(PROTOCOLS)}")


def eve_info_single(spec: ProtocolSpec, q: float) -> float:
    """Eve's single-photon information gain at QBER q, in bits.

    Raises ValueError outside the protocol's domain [0, spec.q_max].
    """
    if not 0.0 <= q <= spec.q_max:
        raise ValueError(
            f"{spec.name} QBER must be in [0, {spec.q_max!r}], got {q}"
        )
    return spec.eve_info(q)


def _edge_info(spec: ProtocolSpec) -> float:
    """min(I_AE^(1)(q_max), I_AE^(2)): at the validity edge Q/y = q_max the
    margin is 1 - H(Q) less a convex combination of the two, so at most
    1 - H(Q) - this; from 1 up (BB84) no margin there is positive."""
    return min(spec.eve_info(spec.q_max), spec.i_ae_two)


_Q_TOL = 1e-12  # bisection tolerance in Q, and the Q bracket's margin from 0 and 1/2


def _contour_q(spec: ProtocolSpec, y: float, q_hi: float) -> float:
    """Q in [_Q_TOL, q_hi] on the positivity margin's zero contour at fixed y.

    One monotone bisection, which raises RuntimeError unless the margin is
    positive at _Q_TOL and negative at q_hi.  [lo, hi] is halved on the sign
    of the margin at its midpoint while it is wider than _Q_TOL, and the
    midpoint of the last one is returned.
    """
    lo, hi = _Q_TOL, q_hi
    f_lo, f_hi = positivity_margin(spec, lo, y), positivity_margin(spec, hi, y)
    if not f_lo > 0.0 > f_hi:
        raise RuntimeError(
            f"no sign change bracketed on [{lo}, {hi}] (f={f_lo}, {f_hi})"
        )
    while hi - lo > _Q_TOL:
        mid = 0.5 * (lo + hi)
        if positivity_margin(spec, mid, y) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _margin(spec: ProtocolSpec, q, y, i_ae_one, log2=math.log2):
    """I_AB(Q) - y*I_AE^(1) - (1-y)*I_AE^(2) from Q, y and I_AE^(1)(Q/y).

    Takes floats, or numpy arrays with np.log2 as log2; checks no domain.
    """
    return 1.0 - _binary_entropy(q, log2) - y * i_ae_one - (1.0 - y) * spec.i_ae_two


def _security_terms(spec: ProtocolSpec, q: float, y: float) -> tuple[float, bool]:
    """(positivity margin, PNS model applies) at QBER q, single-photon fraction y.

    The one evaluation of I_AE^(1)(Q/y).  Unless y > 0 and Q/y is in its
    domain [0, q_max], the margin is NaN and the model does not apply.
    """
    # the printed multiphoton fraction can exceed 1 at large pump strength
    # and low transmission, driving y <= 0; a NaN y or Q/y fails the test too
    if not (y > 0.0 and (ratio := q / y) <= spec.q_max):
        return math.nan, False
    i_ae_one = eve_info_single(spec, ratio)  # public, so traced; Q >= 0 passes its check
    return _margin(spec, q, y, i_ae_one), i_ae_one <= spec.i_ae_two


def _checked_terms(spec: ProtocolSpec, q: float, y: float) -> tuple[float, bool]:
    """_security_terms at a caller's (Q, y), after checking their range."""
    if not q >= 0.0 or not 0.0 < y <= 1.0:  # a NaN is rejected too
        raise ValueError(f"require Q >= 0 and 0 < y <= 1, got Q={q}, y={y}")
    return _security_terms(spec, q, y)


def positivity_margin(spec: ProtocolSpec, q: float, y: float) -> float:
    """I_AB(Q) - y*I_AE^(1)(Q/y) - (1-y)*I_AE^(2); positive means secure.

    NaN when Q/y leaves the domain of the single-photon information function.
    Raises ValueError unless Q >= 0 and 0 < y <= 1.
    """
    return _checked_terms(spec, q, y)[0]


def pns_applicable(spec: ProtocolSpec, q: float, y: float) -> bool:
    """Whether the photon-number-splitting security model applies.

    True iff Q/y lies inside the single-photon information function's domain
    and I_AE^(1)(Q/y) <= I_AE^(2).  Out-of-domain ratios return False.
    """
    return _checked_terms(spec, q, y)[1]
