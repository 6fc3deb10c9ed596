"""High-SNR behavior: slopes, saturation floors, and limiting channels.

Three regimes are covered for the outage probability:

* balanced - both relay-hop mean SNRs grow together; outage decays like
  ``coefficient / SNR`` with no floor;
* unbalanced case I - the first hop is fixed while the second grows; the
  floor is set by the decode-failure branch and is scheme independent;
* unbalanced case II - the second hop is fixed while the first grows; the
  floor is the decode-success branch itself and differs per scheme.

The perfect-decoding and pure-wiretap limits (threshold to zero or
infinity) and the two known rate limits are also provided.

Every value is a limit of :mod:`secrelay.closed_form`'s decode-branch
brackets (the slopes its ``sop_relay_slope``); no algebra is repeated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import closed_form
from .errors import NumericError
from .expint import eiexp  # noqa: F401 - module attribute perfbench/spans.py wraps
from .fading import CsiMode, Scheme, SystemParams, decode_weights

__all__ = [
    "UnbalancedCase",
    "Asymptote",
    "sop_asymptote_balanced",
    "sop_asymptote_unbalanced",
    "sop_perfect_decoding",
    "sop_wiretap",
    "esr_perfect_decoding",
    "esr_saturation_case2_mrc_sc",
]

class UnbalancedCase(Enum):
    I = "case_1"
    II = "case_2"


@dataclass(frozen=True)
class Asymptote:
    """Straight-line model ``constant_term + coefficient * rate`` where the
    rate is the reciprocal of the growing link's mean SNR."""

    constant_term: float
    coefficient: float

    def predict(self, beta: float) -> float:
        """The line at rate ``beta``; :class:`NumericError` where it does not
        evaluate to a finite number (an overflow, never a value)."""
        value = self.constant_term + self.coefficient * beta
        if not math.isfinite(value):
            raise NumericError(f"{self} evaluates to {value} at rate {beta!r}")
        return value


def _off_bracket(params: SystemParams, csi: CsiMode) -> float:
    return closed_form.sop_conditional(params, Scheme.MRC_MRC, csi, relay_on=False)


def sop_asymptote_balanced(params: SystemParams, scheme: Scheme, csi: CsiMode) -> Asymptote:
    """High-SNR slope when both relay hops grow together.

    ``beta_sr``/``beta_rd`` in ``params`` are ignored; the predicted outage
    is ``coefficient * beta`` for the common hop rate ``beta``.
    """
    off = _off_bracket(params, csi)
    coeff = params.gamma_th * off + closed_form.sop_relay_slope(params, scheme, csi)
    return Asymptote(0.0, coeff)


def sop_asymptote_unbalanced(
    params: SystemParams, scheme: Scheme, csi: CsiMode, case: UnbalancedCase
) -> Asymptote:
    """Floor plus first-order term when only one relay hop grows.

    Case I grows the relay-to-destination hop with the decode hop fixed
    (the floor keeps the decode-failure weight); case II grows the decode
    hop with the other fixed (the floor is the decode-success outage).
    """
    off = _off_bracket(params, csi)
    if case is UnbalancedCase.I:
        p_on, p_off = decode_weights(params)
        slope = closed_form.sop_relay_slope(params, scheme, csi)
        return Asymptote(p_off * off, p_on * slope)
    on = closed_form.sop_conditional(params, scheme, csi, relay_on=True)
    return Asymptote(on, params.gamma_th * (off - on))


def sop_wiretap(params: SystemParams) -> float:
    """Outage with the relay permanently silent (threshold to infinity)."""
    return _off_bracket(params, CsiMode.NOCSI)


def sop_perfect_decoding(params: SystemParams) -> float:
    """MRC-MRC outage without CSI when the relay always decodes.

    Independent of the decode-hop rate.
    """
    return closed_form.sop_conditional(params, Scheme.MRC_MRC, CsiMode.NOCSI, True)


def esr_perfect_decoding(params: SystemParams) -> float:
    """MRC-MRC rate without CSI when the relay always decodes (bpcu)."""
    return closed_form.esr_conditional(params, Scheme.MRC_MRC, CsiMode.NOCSI, True)


def esr_saturation_case2_mrc_sc(params: SystemParams) -> float:
    """MRC-SC rate with CSI in the case-II limit (decode hop perfect): one
    cell of the case-II rate floor, ``closed_form.esr_conditional(params,
    scheme, csi, relay_on=True)``.  Kept only because
    perfbench/spans.py wraps esr_saturation_case2_mrc_sc."""
    return closed_form.esr_conditional(params, Scheme.MRC_SC, CsiMode.CSI, True)
