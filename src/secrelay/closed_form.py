"""Closed-form secrecy outage probability and ergodic secrecy rate.

Every combination of decode branch, combining scheme and CSI mode reduces
to the same small algebra.  A combiner's output CDF is a short exponential
mixture ``F(z) = 1 + sum_i c_i exp(-s_i z)``, and every metric is a mixture
functional ``sum_i c_i phi(s_i)``: outage probabilities need only the
Laplace transform of the other side's density, and ergodic rates only the
scaled exponential integral :func:`secrelay.expint.eiexp` at sums of
mixture rates.  The per-scheme expressions are assembled from those shared
blocks rather than written out term by term, which keeps the sixteen
formulas short and individually testable against quadrature.

The sum (MRC) combiner's weights ``-r2/(r2 - r1)`` and ``-r1/(r1 - r2)`` are
singular at equal rates, so its functional is written
``-phi(r1) + r1 * phi[r1, r2]`` with the divided difference
``phi[r1, r2]``: the plain quotient for well-separated rates, an analytic
form for close or equal ones (McCurdy, Ng & Parlett, "Accurate computation
of divided differences of the exponential function", Math. Comp. 43, 1984).
Every rate pair stays on the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from scipy.special import exprel

from .errors import DomainError
from .expint import eiexp
from .fading import (
    HALF_LOG2E,
    CsiMode,
    Scheme,
    SystemParams,
    decode_probability,
    rates_degenerate,
)

__all__ = [
    "Method",
    "SecrecyMetric",
    "sop",
    "esr",
    "sop_conditional",
    "esr_conditional",
]


class Method(Enum):
    CLOSED_FORM = "closed_form"
    # No longer produced (every rate pair stays on the closed form); kept
    # because perfbench/spans.py still splits its closed-form spans on it.
    LIMIT_FORM = "limit_form"


@dataclass(frozen=True)
class SecrecyMetric:
    """Metric value plus which evaluation path produced it."""

    value: float
    method: Method


# ---------------------------------------------------------------------------
# Exponential-mixture functionals.
# ---------------------------------------------------------------------------


class _Combiner(Enum):
    SINGLE = "single"  # silent relay: the direct link alone
    SUM = "mrc"
    MAX = "sc"


# A sum-combiner pair closer than this, relative to the smaller rate, takes
# the analytic divided difference.  Above it the plain quotient loses at most
# ~eps/0.05 relative; below it the eiexp Taylor series (odd terms to ninth
# order) is exact to ~1e-17.
_TAYLOR_GAP = 0.05
_ODD = (1, 3, 5, 7, 9)


def _mixture(comb, r1, r2, phi, phi_dd):
    """``sum_i c_i phi(s_i)`` for one combiner's CDF ``1 + sum_i c_i exp(-s_i z)``.

    ``phi_dd(r1, r2)`` is the divided difference ``phi[r1, r2]``; it is only
    called for close sum-combiner rates.
    """
    if comb is _Combiner.SINGLE:
        return -phi(r1)
    if comb is _Combiner.MAX:
        return -phi(r1) - phi(r2) + phi(r1 + r2)
    if abs(r2 - r1) > _TAYLOR_GAP * min(r1, r2):
        return (r1 * phi(r2) - r2 * phi(r1)) / (r2 - r1)
    return r1 * phi_dd(r1, r2) - phi(r1)


def _dest(params: SystemParams, scheme: Scheme, relay_on: bool):
    # (kind, r1, r2) of the destination's combiner; a silent relay leaves
    # the direct link alone.
    if not relay_on:
        return _Combiner.SINGLE, params.beta_sd, None
    kind = _Combiner.SUM if scheme.mrc_at_destination else _Combiner.MAX
    return kind, params.beta_sd, params.beta_rd


def _eaves(params: SystemParams, scheme: Scheme, relay_on: bool):
    if not relay_on:
        return _Combiner.SINGLE, params.alpha_se, None
    kind = _Combiner.SUM if scheme.mrc_at_eavesdropper else _Combiner.MAX
    return kind, params.alpha_se, params.alpha_re


def _pole_dd(a, t1, t2):
    # Divided difference of a / (a + t) over (t1, t2).
    return -a / ((a + t1) * (a + t2))


def _eaves_laplace(params: SystemParams, scheme: Scheme, relay_on: bool):
    """Laplace transform ``L(t)`` of the eavesdropper-side density and its
    divided difference ``L[t1, t2]``.

    Written directly per combiner rather than through the CDF mixture: the
    sum-combiner transform is a plain rational function with no equal-rate
    singularity, which keeps every outage formula stable for any rate pair.
    """
    a1, a2 = params.alpha_se, params.alpha_re
    if not relay_on:
        return (lambda t: a1 / (a1 + t)), (lambda t1, t2: _pole_dd(a1, t1, t2))
    if scheme.mrc_at_eavesdropper:
        return (
            lambda t: a1 * a2 / ((a1 + t) * (a2 + t)),
            lambda t1, t2: -a1 * a2 / ((a1 + t1) * (a2 + t2)) * (1.0 / (a1 + t2) + 1.0 / (a2 + t1)),
        )
    return (
        lambda t: a1 / (a1 + t) + a2 / (a2 + t) - (a1 + a2) / (a1 + a2 + t),
        lambda t1, t2: _pole_dd(a1, t1, t2) + _pole_dd(a2, t1, t2) - _pole_dd(a1 + a2, t1, t2),
    )


def _sop_bracket(params, scheme, csi, relay_on):
    # Expectation over the eavesdropper SNR of the destination CDF at the
    # outage boundary: phi(s) = exp(-s (rho - 1)) L(rho s); the CSI variant
    # subtracts the losing region, L(s).  phi[s1, s2] follows from the
    # product rule, exprel for the exponential and L's rational divided
    # difference, with no cancellation at any gap.
    rho = params.rho
    k = rho - 1.0
    lap, lap_dd = _eaves_laplace(params, scheme, relay_on)
    csi_on = csi is CsiMode.CSI

    def phi(s):
        v = math.exp(-s * k) * lap(rho * s)
        return v - lap(s) if csi_on else v

    def phi_dd(s1, s2):
        decay1 = math.exp(-s1 * k)
        decay_dd = -k * decay1 * exprel(-k * (s2 - s1))
        v = decay_dd * lap(rho * s2) + decay1 * rho * lap_dd(rho * s1, rho * s2)
        return v - lap_dd(s1, s2) if csi_on else v

    total = _mixture(*_dest(params, scheme, relay_on), phi, phi_dd)
    return total if csi_on else 1.0 + total


# Above this the derivatives come from the asymptotic series, whose smallest
# term is ~e^-x: the forward recurrence below would cancel to ~eps * x^j.
_ASYMPTOTIC_X = 40.0


def _scaled_derivatives(x, n):
    """``g[j] = x^(j-1) eiexp^(j)(x)`` for j = 1..n (``g[0]`` unused).

    Forward recurrence ``eiexp' = eiexp + 1/x``,
    ``eiexp^(j) = eiexp^(j-1) + (-1)^(j-1) (j-1)!/x^j`` for moderate x (the
    scaling keeps tiny x finite); for large x the termwise derivative of the
    asymptotic series ``eiexp(x) ~ -sum_k (-1)^k k!/x^(k+1)``.
    """
    if x <= _ASYMPTOTIC_X:
        g = [None, eiexp(x) + 1.0 / x]
        for j in range(2, n + 1):
            g.append(x * g[-1] + (-1) ** (j - 1) * math.factorial(j - 1) / x)
        return g
    g = [None]
    for j in range(1, n + 1):
        term = total = (-1) ** (j + 1) * math.factorial(j) / (x * x)
        k = 0
        while k + j + 1 < x and abs(term) > 1e-17 * abs(total):
            k += 1
            term *= -(k + j) / x
            total += term
        g.append(total)
    return g


def _eiexp_dd(x1, x2):
    """``eiexp[x1, x2]`` for close arguments: the Taylor series about the
    midpoint c, ``sum over odd i of eiexp^(i)(c) h^(i-1) / i!``, h = (x2 - x1)/2."""
    c = 0.5 * (x1 + x2)
    t = 0.5 * (x2 - x1) / c
    g = _scaled_derivatives(c, _ODD[-1])
    return sum(g[i] * t ** (i - 1) / math.factorial(i) for i in _ODD)


def _eiexp_dd2(s1, s2, a1, a2):
    """Mixed second divided difference of ``eiexp(s + a)``, over (s1, s2) in s
    and (a1, a2) in a, for close pairs: the double Taylor series about the
    centre c, ``sum over odd i, j of eiexp^(i+j)(c) h^(i-1) k^(j-1) / (i! j!)``."""
    c = 0.5 * (s1 + s2 + a1 + a2)
    th = 0.5 * (s2 - s1) / c
    tk = 0.5 * (a2 - a1) / c
    g = _scaled_derivatives(c, _ODD[-1] + 1)
    return sum(
        g[i + j] * th ** (i - 1) * tk ** (j - 1) / (math.factorial(i) * math.factorial(j))
        for i in _ODD
        for j in _ODD
        if i + j <= _ODD[-1] + 1
    ) / c


def _esr_bracket(params, scheme, csi, relay_on):
    # E[ln(1 + X)] of a mixture is -sum_i c_i eiexp(s_i).
    m = _dest(params, scheme, relay_on)
    e = _eaves(params, scheme, relay_on)
    if csi is CsiMode.NOCSI:
        return _mixture(*m, eiexp, _eiexp_dd) - _mixture(*e, eiexp, _eiexp_dd)

    # Conditioned on the destination winning, both one-sided moments share
    # the pattern sum_i c_i [eiexp(s_i) + sum_j eps_j eiexp(s_i + a_j)]: a
    # destination mixture of phi(s) = eiexp(s) + (eavesdropper mixture of
    # a -> eiexp(s + a)).  Its divided difference in s is the same pattern
    # one order up, with the mixed second difference at close pairs.
    def phi(s):
        return eiexp(s) + _mixture(
            *e, lambda a: eiexp(s + a), lambda a1, a2: _eiexp_dd(s + a1, s + a2)
        )

    def phi_dd(s1, s2):
        return _eiexp_dd(s1, s2) + _mixture(
            *e,
            lambda a: _eiexp_dd(s1 + a, s2 + a),
            lambda a1, a2: _eiexp_dd2(s1, s2, a1, a2),
        )

    return _mixture(*m, phi, phi_dd)


def _validate(params, scheme, csi):
    if not isinstance(params, SystemParams):
        raise DomainError(f"params must be SystemParams, got {type(params).__name__}")
    if not isinstance(scheme, Scheme) or not isinstance(csi, CsiMode):
        raise DomainError("scheme/csi must be Scheme and CsiMode members")


# ---------------------------------------------------------------------------
# Conditional (per decode branch) values, shared with the asymptotics.
# ---------------------------------------------------------------------------


def sop_conditional(
    params: SystemParams, scheme: Scheme, csi: CsiMode, relay_on: bool
) -> float:
    """Conditional outage probability given the relay decode outcome."""
    _validate(params, scheme, csi)
    return min(1.0, max(0.0, _sop_bracket(params, scheme, csi, relay_on)))


def esr_conditional(
    params: SystemParams, scheme: Scheme, csi: CsiMode, relay_on: bool
) -> float:
    """Conditional ergodic secrecy rate (bpcu) given the decode outcome."""
    _validate(params, scheme, csi)
    return HALF_LOG2E * _esr_bracket(params, scheme, csi, relay_on)


# ---------------------------------------------------------------------------
# Public metrics.
# ---------------------------------------------------------------------------


def sop(params: SystemParams, scheme: Scheme, csi: CsiMode) -> SecrecyMetric:
    """Secrecy outage probability.

    Mixes the conditional outage of the decode-success and decode-failure
    branches with the relay decode probability.
    """
    _validate(params, scheme, csi)
    p_on = decode_probability(params)
    value = p_on * sop_conditional(params, scheme, csi, True) + (1.0 - p_on) * sop_conditional(
        params, scheme, csi, False
    )
    return SecrecyMetric(min(1.0, max(0.0, value)), Method.CLOSED_FORM)


def esr(params: SystemParams, scheme: Scheme, csi: CsiMode) -> SecrecyMetric:
    """Ergodic secrecy rate in bits per channel use.

    The CSI variant conditions on the destination outcombining the
    eavesdropper and is non-negative; the no-CSI variant is the raw
    expected log-ratio and may be negative.
    """
    _validate(params, scheme, csi)
    p_on = decode_probability(params)
    value = p_on * esr_conditional(params, scheme, csi, True) + (1.0 - p_on) * esr_conditional(
        params, scheme, csi, False
    )
    return SecrecyMetric(value, Method.CLOSED_FORM)


def esr_mrc_sc_csi_variant(params: SystemParams) -> float:
    """Rejected transcription variant of the MRC-SC / CSI rate expression.

    Identical to the shipped formula except that the first scaled-Ei term
    of the decode-success bracket pairs one link's exponent with the other
    link's integral argument.  Kept only so the validation report can show
    the variant failing against quadrature; not part of the public API.
    """
    b_sd, b_rd = params.beta_sd, params.beta_rd
    if rates_degenerate(b_sd, b_rd):
        raise DomainError("variant is undefined at equal destination rates")
    shipped_first = b_rd * eiexp(b_sd) / (b_sd - b_rd)
    variant_first = b_rd * math.exp(b_sd) * math.exp(-b_rd) * eiexp(b_rd) / (b_sd - b_rd)
    p_on = decode_probability(params)
    on = esr_conditional(params, Scheme.MRC_SC, CsiMode.CSI, True)
    off = esr_conditional(params, Scheme.MRC_SC, CsiMode.CSI, False)
    on_variant = on + HALF_LOG2E * (variant_first - shipped_first)
    return p_on * on_variant + (1.0 - p_on) * off
