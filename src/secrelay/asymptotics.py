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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from . import closed_form
from .errors import UnsupportedSchemeError
from .expint import eiexp  # noqa: F401 - module attribute perfbench/spans.py wraps
from .fading import CsiMode, Scheme, SystemParams, decode_probability

__all__ = [
    "AsymptoteKind",
    "UnbalancedCase",
    "Asymptote",
    "sop_asymptote_balanced",
    "sop_asymptote_unbalanced",
    "sop_perfect_decoding",
    "sop_wiretap",
    "esr_perfect_decoding",
    "esr_saturation_case2_mrc_sc",
]

_SUPPORTED = (Scheme.MRC_SC, Scheme.MRC_MRC, Scheme.SC_MRC)


class AsymptoteKind(Enum):
    BALANCED_SLOPE = "balanced_slope"
    UNBALANCED_CASE_I = "unbalanced_case_1"
    UNBALANCED_CASE_II = "unbalanced_case_2"


class UnbalancedCase(Enum):
    I = "case_1"
    II = "case_2"


@dataclass(frozen=True)
class Asymptote:
    """Straight-line model ``constant_term + coefficient * rate`` where the
    rate is the reciprocal of the growing link's mean SNR."""

    kind: AsymptoteKind
    constant_term: float
    coefficient: float

    def predict(self, beta: float) -> float:
        return self.constant_term + self.coefficient * beta


def _check_supported(scheme: Scheme) -> None:
    if scheme not in _SUPPORTED:
        raise UnsupportedSchemeError(
            f"no asymptote for {scheme.value}; its curves sit between mrc_sc and sc_mrc"
        )


def _off_bracket(params: SystemParams, csi: CsiMode) -> float:
    return closed_form.sop_conditional(params, Scheme.MRC_MRC, csi, relay_on=False)


def _relay_slope(params: SystemParams, scheme: Scheme, csi: CsiMode) -> float:
    """First-order coefficient of the decode-success outage as the relayed
    branch rate goes to zero."""
    a_se, a_re, b_sd = params.alpha_se, params.alpha_re, params.beta_sd
    rho = params.rho
    decay = math.exp(-b_sd * (rho - 1.0))
    lap, _ = closed_form._eaves_laplace(params, scheme, relay_on=True)
    # Mean combined eavesdropper SNR; SC (max) loses the overlap 1/(a_se + a_re).
    mean_e = 1.0 / a_se + 1.0 / a_re
    if not scheme.mrc_at_eavesdropper:
        mean_e -= 1.0 / (a_se + a_re)

    if csi is CsiMode.NOCSI:
        if scheme.mrc_at_destination:
            return (rho - 1.0) + rho * mean_e - 1.0 / b_sd + decay * lap(rho * b_sd) / b_sd
        # SC_MRC
        tail = decay * lap(rho * b_sd)
        return (rho - 1.0) + rho * mean_e - tail * (
            rho - 1.0 + rho / (a_se + rho * b_sd) + rho / (a_re + rho * b_sd)
        )

    if scheme.mrc_at_destination:
        return (rho - 1.0) * (1.0 + mean_e) - (lap(b_sd) - decay * lap(rho * b_sd)) / b_sd
    # SC_MRC
    tail = decay * lap(rho * b_sd)
    return (
        (rho - 1.0) * (1.0 + mean_e)
        + lap(b_sd) * (1.0 / (a_se + b_sd) + 1.0 / (a_re + b_sd))
        - tail * (rho - 1.0 + rho / (a_se + rho * b_sd) + rho / (a_re + rho * b_sd))
    )


def sop_asymptote_balanced(params: SystemParams, scheme: Scheme, csi: CsiMode) -> Asymptote:
    """High-SNR slope when both relay hops grow together.

    ``beta_sr``/``beta_rd`` in ``params`` are ignored; the predicted outage
    is ``coefficient * beta`` for the common hop rate ``beta``.
    """
    _check_supported(scheme)
    coeff = params.gamma_th * _off_bracket(params, csi) + _relay_slope(params, scheme, csi)
    return Asymptote(AsymptoteKind.BALANCED_SLOPE, 0.0, coeff)


def sop_asymptote_unbalanced(
    params: SystemParams, scheme: Scheme, csi: CsiMode, case: UnbalancedCase
) -> Asymptote:
    """Floor plus first-order term when only one relay hop grows.

    Case I grows the relay-to-destination hop with the decode hop fixed
    (the floor keeps the decode-failure weight); case II grows the decode
    hop with the other fixed (the floor is the decode-success outage).
    """
    _check_supported(scheme)
    off = _off_bracket(params, csi)
    if case is UnbalancedCase.I:
        p_on = decode_probability(params)
        return Asymptote(
            AsymptoteKind.UNBALANCED_CASE_I,
            (1.0 - p_on) * off,
            p_on * _relay_slope(params, scheme, csi),
        )
    on = closed_form.sop_conditional(params, scheme, csi, relay_on=True)
    return Asymptote(
        AsymptoteKind.UNBALANCED_CASE_II,
        on,
        params.gamma_th * (off - on),
    )


def sop_wiretap(params: SystemParams) -> float:
    """Outage with the relay permanently silent (threshold to infinity)."""
    a, b, rho = params.alpha_se, params.beta_sd, params.rho
    return 1.0 - a * math.exp(-b * (rho - 1.0)) / (a + rho * b)


def sop_perfect_decoding(params: SystemParams) -> float:
    """MRC-MRC outage without CSI when the relay always decodes.

    Independent of the decode-hop rate.
    """
    return closed_form.sop_conditional(params, Scheme.MRC_MRC, CsiMode.NOCSI, True)


def esr_perfect_decoding(params: SystemParams) -> float:
    """MRC-MRC rate without CSI when the relay always decodes (bpcu)."""
    return closed_form.esr_conditional(params, Scheme.MRC_MRC, CsiMode.NOCSI, True)


def esr_saturation_case2_mrc_sc(params: SystemParams) -> float:
    """MRC-SC rate with CSI in the case-II limit (decode hop perfect)."""
    return closed_form.esr_conditional(params, Scheme.MRC_SC, CsiMode.CSI, True)
