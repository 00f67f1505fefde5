"""Detection statistics and secure key rate for one source/channel setting.

Combines the pair statistics, the heralding response and the channel into the
observable quantities: detection probability per pulse, QBER, single-photon
fraction, and finally the secure key rate.  Double-count events of order
T*d_B, T**2 and d_B**2 are neglected throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import (
    ProtocolSpec, _checked_terms, _security_margin_array, _security_terms,
)
from .source_detector import HeraldResponse, PhotonStatistics

__all__ = [
    "ChannelParams",
    "KeyRateReport",
    "key_rate",
    "renormalized_key_rate",
]


@dataclass(frozen=True)
class ChannelParams:
    """Channel transmission (including Bob's detection efficiency) and Bob's
    per-detector dark-count probability."""

    transmission: float
    dark_b: float

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError(f"transmission must be in [0, 1], got {self.transmission}")
        if not 0.0 <= self.dark_b < 1.0:
            raise ValueError(f"dark_b must be in [0, 1), got {self.dark_b}")


@dataclass(frozen=True)
class KeyRateReport:
    """All intermediate quantities of one key-rate evaluation.

    key_rate is reported raw (possibly negative, NaN when the rescaled QBER
    leaves the information functions' domain).  secure requires both a
    positive rate and an applicable PNS security model.
    """

    p_exp: float
    qber: float
    y: float
    key_rate: float
    pns_valid: bool
    secure: bool


def _detection(
    stats: PhotonStatistics, r: HeraldResponse, ch: ChannelParams
) -> tuple[float, float, float]:
    """(p_exp, QBER, single-photon fraction y) of one setting.

    p_exp is the detection probability per pulse; half of the dark-count
    events (d_B per detector and heralded pulse) are errors.  QBER and y are
    NaN when nothing is detected.
    """
    t = ch.transmission
    dark = ch.dark_b * (stats.p0 * r.q0 + stats.p1 * r.q1 + stats.p2 * r.q2)
    p_exp = t * stats.p1 * r.q1 + 2.0 * t * stats.p2 * r.q2 + 2.0 * dark
    if p_exp == 0.0:
        return 0.0, math.nan, math.nan
    return p_exp, dark / p_exp, 1.0 - stats.p2 * r.q2 / p_exp


def key_rate(
    spec: ProtocolSpec,
    stats: PhotonStatistics,
    r: HeraldResponse,
    ch: ChannelParams,
) -> KeyRateReport:
    """Secure key rate in bits per pulse, with all intermediate quantities.

    K = p_exp * p_sift * [I_AB(Q) - y*I_AE^(1)(Q/y) - (1-y)*I_AE^(2)].
    Negative rates are reported, not clamped.  When Q/y leaves the domain of
    the single-photon information function, or nothing is detected, key_rate
    is NaN and secure is False.
    """
    p_exp, q, y = _detection(stats, r, ch)
    # the printed multiphoton fraction can exceed 1 at large pump strength
    # and low transmission, driving y <= 0; the model does not apply there
    margin, valid = (math.nan, False) if y <= 0.0 else _security_terms(spec, q, y)
    k = p_exp * spec.p_sift * margin
    return KeyRateReport(
        p_exp=p_exp, qber=q, y=y, key_rate=k, pns_valid=valid,
        secure=(k > 0.0 and valid),
    )


# _key_rate_array's valid rates are within this times p_exp of key_rate's: they
# differ only through the log2 terms of the margin, whose terms are O(1), so by
# a few dozen ulp of 1 at most, and K is p_exp * p_sift times the margin
_KEY_RATE_ARRAY_TOL = 1e-13


def _key_rate_array(
    spec: ProtocolSpec, pairs: np.ndarray, r: HeraldResponse, ch: ChannelParams
) -> tuple[np.ndarray, np.ndarray]:
    """(p_exp, key rate) of key_rate over arrays of pair statistics (p0, p1, p2).

    Repeats _detection's and key_rate's arithmetic in their operation order,
    so p_exp, QBER, y, Q/y and the model-invalid entries (key rate NaN) equal
    the scalar ones bit for bit.  A valid key rate is within
    _KEY_RATE_ARRAY_TOL * p_exp of key_rate's.
    """
    p0, p1, p2 = pairs
    t = ch.transmission
    dark = ch.dark_b * (p0 * r.q0 + p1 * r.q1 + p2 * r.q2)
    p_exp = t * p1 * r.q1 + 2.0 * t * p2 * r.q2 + 2.0 * dark
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        q = dark / p_exp
        y = 1.0 - p2 * r.q2 / p_exp
        ratio = q / y
        valid = (p_exp != 0.0) & (y > 0.0) & (ratio <= spec.q_max)
        margin = _security_margin_array(spec, q, y, ratio)
        return p_exp, np.where(valid, p_exp * spec.p_sift * margin, np.nan)


def renormalized_key_rate(spec: ProtocolSpec, q: float, y: float) -> float:
    """Key rate per detection event, p_sift * [I_AB - y I_AE1(Q/y) - (1-y) I_AE2].

    Returns NaN where the PNS security model does not apply (the blanked
    region of the SARG04 contour plot).
    """
    margin, valid = _checked_terms(spec, q, y)
    return spec.p_sift * margin if valid else math.nan
