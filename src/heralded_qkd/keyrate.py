"""Detection statistics and secure key rate for one source/channel setting.

Combines the pair statistics, the heralding response and the channel into the
observable quantities: detection probability per pulse, QBER, single-photon
fraction, and finally the secure key rate.  Double-count events of order
T*d_B, T**2 and d_B**2 are neglected throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .protocol import ProtocolSpec, _checked_terms, _security_terms
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


def _detection(p0, p1, p2, r: HeraldResponse, t, dark_b: float):
    """(p_exp, dark, QBER, single-photon fraction y) from the pair
    probabilities and the channel transmission t.

    p0, p1, p2 and t are floats or numpy arrays of any shapes that
    broadcast.  p_exp is the detection probability per pulse, and dark the
    dark-count probability per detector and pulse (d_B per heralded pulse);
    half of the dark-count events are errors.
    Where nothing is detected (p_exp = 0) QBER and y are undefined: the
    values returned there stand in, and the caller replaces or masks them.
    """
    dark = dark_b * (p0 * r.q0 + p1 * r.q1 + p2 * r.q2)
    p_exp = t * p1 * r.q1 + 2.0 * t * p2 * r.q2 + 2.0 * dark
    # a zero p_exp divides by 1 in place of a branch; any other keeps its bits
    per_click = p_exp + (p_exp == 0.0)
    return p_exp, dark, dark / per_click, 1.0 - p2 * r.q2 / per_click


def key_rate(
    spec: ProtocolSpec,
    stats: PhotonStatistics,
    r: HeraldResponse,
    ch: ChannelParams,
) -> KeyRateReport:
    """Secure key rate in bits per pulse, with all intermediate quantities.

    K = p_exp * p_sift * [I_AB(Q) - y*I_AE^(1)(Q/y) - (1-y)*I_AE^(2)].
    Negative rates are reported, not clamped.  Where nothing is detected,
    y <= 0 or Q/y is outside eve_info's domain, key_rate is NaN and not secure.
    """
    p_exp, _, q, y = _detection(stats.p0, stats.p1, stats.p2, r, ch.transmission, ch.dark_b)
    if p_exp == 0.0:
        q = y = math.nan
    margin, valid = _security_terms(spec, q, y)
    k = p_exp * spec.p_sift * margin
    return KeyRateReport(
        p_exp=p_exp, qber=q, y=y, key_rate=k, pns_valid=valid,
        secure=(k > 0.0 and valid),
    )


def renormalized_key_rate(spec: ProtocolSpec, q: float, y: float) -> float:
    """Key rate per detection event, p_sift * [I_AB - y I_AE1(Q/y) - (1-y) I_AE2].

    Returns NaN where the PNS security model does not apply (the blanked
    region of the SARG04 contour plot).
    """
    margin, valid = _checked_terms(spec, q, y)
    return spec.p_sift * margin if valid else math.nan
