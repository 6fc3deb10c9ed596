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

The module needs no special-function library: ``eiexp`` comes from
:mod:`secrelay.expint` and ``exprel(z) = (e^z - 1)/z`` is ``expm1(z)/z``,
bit-identical to SciPy's; above z ~ 709.78 it raises OverflowError where
SciPy returned inf, and either way the value is a :class:`NumericError`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial

from .errors import DomainError, NumericError
from .expint import ASYMPTOTIC_X, eiexp, eiexp_asymptotic
from .fading import (
    HALF_LOG2E,
    CsiMode,
    Metric,
    Scheme,
    SystemParams,
    check_cells,
    check_points,
    decode_branches,
    decode_weights,
)

__all__ = [
    "Method",
    "SecrecyMetric",
    "cells",
    "sop",
    "esr",
    "sop_conditional",
    "esr_conditional",
    "sop_relay_slope",
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

    __hash__ = object.__hash__  # C's hash in every functional key (fading.Scheme)


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


# Each decode branch's (destination, eavesdropper) combiners: with the relay
# on, its scheme's, read off the name (mrc_sc); with the relay silent, each
# side's direct link alone (r2 is not read).
_COMBINERS = {
    (s, on): tuple(map(_Combiner, s.value.split("_"))) if on else (_Combiner.SINGLE,) * 2
    for s in Scheme
    for on in (False, True)
}


def _pole_dd(a, t1, t2):
    # Divided difference of a / (a + t) over (t1, t2).
    return -a / ((a + t1) * (a + t2))


def _pole_dd2(a, t0, t1, t2):
    # Second divided difference of a / (a + t) over (t0, t1, t2).
    return a / ((a + t0) * (a + t1) * (a + t2))


def _eaves_laplace(comb, a1, a2):
    """Laplace transform ``L(t)`` of the density of the eavesdropper's
    combiner ``comb`` with rates ``a1``, ``a2`` (:func:`_functional`), and its
    divided differences ``L[t1, t2]`` and ``L[t0, t1, t2]``.

    Written directly per combiner rather than through the CDF mixture: the
    sum-combiner transform is a plain rational function with no equal-rate
    singularity, which keeps every outage formula stable for any rate pair.
    Its second difference is the product rule over the two poles, a sum of
    positive terms.
    """
    if comb is _Combiner.SINGLE:
        return lambda t: a1 / (a1 + t), partial(_pole_dd, a1), partial(_pole_dd2, a1)
    if comb is _Combiner.SUM:
        return (
            lambda t: a1 * a2 / ((a1 + t) * (a2 + t)),
            lambda t1, t2: -a1 * a2 / ((a1 + t1) * (a2 + t2)) * (1.0 / (a1 + t2) + 1.0 / (a2 + t1)),
            lambda t0, t1, t2: a1 / (a1 + t0) * _pole_dd2(a2, t0, t1, t2)
            + _pole_dd(a1, t0, t1) * _pole_dd(a2, t1, t2)
            + _pole_dd2(a1, t0, t1, t2) * a2 / (a2 + t2),
        )
    return (
        lambda t: a1 / (a1 + t) + a2 / (a2 + t) - (a1 + a2) / (a1 + a2 + t),
        lambda t1, t2: _pole_dd(a1, t1, t2) + _pole_dd(a2, t1, t2) - _pole_dd(a1 + a2, t1, t2),
        lambda t0, t1, t2: _pole_dd2(a1, t0, t1, t2)
        + _pole_dd2(a2, t0, t1, t2)
        - _pole_dd2(a1 + a2, t0, t1, t2),
    )


# (e^z - 1 - z) / z^2 = sum_n z^n / (n + 2)!, summed for |z| < 0.5 to below
# eps relative; past that the direct quotient loses at most ~10 eps.
_EXP_DD2_SERIES = tuple(1.0 / math.factorial(n + 2) for n in range(15))


def _exprel(z):
    """``(e^z - 1)/z``, 1 at ``|z| < eps``; OverflowError above ~709.78."""
    if abs(z) < sys.float_info.epsilon:
        return 1.0
    return math.expm1(z) / z


def _exp_dd2(k, x, y):
    """Second divided difference of ``exp(-k s)`` over ``(x, x, y)``."""
    z = -k * (y - x)
    if abs(z) >= 0.5:
        return (math.exp(-k * y) - math.exp(-k * x) * (1.0 + z)) / ((y - x) * (y - x))
    acc = 0.0
    for c in reversed(_EXP_DD2_SERIES):
        acc = acc * z + c
    return k * k * math.exp(-k * x) * acc


def _outage_functional(rho, csi, eaves):
    # phi(s) = exp(-s (rho - 1)) L(rho s), the expectation over the SNR of
    # the eavesdropper's combiner ``eaves`` at the outage boundary; the CSI
    # variant subtracts the losing region, L(s).  phi[s1, s2] follows from
    # the product rule, exprel and L's rational divided difference, with no
    # cancellation at any gap; phi_dd2(x, y) = phi[x, x, y] from the same
    # rule one order up.
    k = rho - 1.0
    lap, lap_dd, lap_dd2 = _eaves_laplace(*eaves)
    csi_on = csi is CsiMode.CSI

    def phi(s):
        v = math.exp(-s * k) * lap(rho * s)
        return v - lap(s) if csi_on else v

    def phi_dd(s1, s2):
        decay1 = math.exp(-s1 * k)
        # exp(-k s)[s1, s2], exponential at the smaller rate: no overflow
        decay_dd = -k * math.exp(-k * min(s1, s2)) * _exprel(-k * abs(s2 - s1))
        v = decay_dd * lap(rho * s2) + decay1 * rho * lap_dd(rho * s1, rho * s2)
        return v - lap_dd(s1, s2) if csi_on else v

    def phi_dd2(x, y):
        decay = math.exp(-x * k)
        tx, ty = rho * x, rho * y
        v = (
            decay * rho * rho * lap_dd2(tx, tx, ty)
            - k * decay * rho * lap_dd(tx, ty)
            + _exp_dd2(k, x, y) * lap(ty)
        )
        return v - lap_dd2(x, x, y) if csi_on else v

    return phi, phi_dd, phi_dd2


def _scaled_derivatives(x, n):
    """``g[j] = x^(j-1) eiexp^(j)(x)`` for j = 1..n (``g[0]`` unused).

    Forward recurrence ``eiexp^(j) = eiexp^(j-1) + (-1)^(j-1) (j-1)!/x^j``
    for moderate x (the scaling keeps tiny x finite); above ``ASYMPTOTIC_X``,
    where it would cancel to ~eps * x^j, the asymptotic series.
    """
    if x > ASYMPTOTIC_X:
        return [None] + [eiexp_asymptotic(x, j) / x for j in range(1, n + 1)]
    g = [None, eiexp(x) + 1.0 / x]
    for j in range(2, n + 1):
        g.append(x * g[-1] + (-1) ** (j - 1) * math.factorial(j - 1) / x)
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


def _validate(params, cells):
    check_points((params,))
    check_cells(cells)


# ---------------------------------------------------------------------------
# Conditional (per decode branch) values, shared with the asymptotics.
# ---------------------------------------------------------------------------


def _checked(what, params, evaluate, *args):
    # A non-finite value is an overflow, never a value, and so is an
    # arithmetic fault (a product underflowing to a zero divisor, a rate sum
    # overflowing out of eiexp's domain); clamping either would hide it.
    # ``what(*args)`` names the failing evaluation, formatted only on a fault.
    try:
        value = evaluate(*args)
    except (ArithmeticError, DomainError) as exc:
        raise NumericError(f"{what(*args)} fails at {params}: {exc!r}") from exc
    if not math.isfinite(value):
        raise NumericError(f"{what(*args)} evaluates to {value} at {params}")
    return value


def _branch_name(_side, _params, scheme, csi, relay_on):
    return f"{scheme.value}/{csi.value} with the relay {'on' if relay_on else 'off'}"


def _at_destination(side, params, *_):
    bracket, comb = side
    return bracket(comb, params.beta_sd, params.beta_rd)


# Each functional's phi and phi[s1, s2], and a cells call's one eiexp cache,
# keep their 16 most recently used arguments (lru_cache): a point's
# destination rates and, for eiexp, the CSI rate's cross terms with alpha_se,
# alpha_re and their sum.  beta_sd, which no axis moves, stays.
_MEMO_SIZE = 16
_memoized = lru_cache(maxsize=_MEMO_SIZE)


def _functional(metric, csi, comb, params, eiexp_at):
    """``bracket(comb, r1, r2)`` of one metric and CSI mode against the
    eavesdropper's combiner ``comb`` on ``alpha_se`` and ``alpha_re``: the
    branch value for the destination's combiner (the outage before its
    clamp, the rate in nats).  Its ``phi`` and ``phi[s1, s2]`` each keep
    their :data:`_MEMO_SIZE` most recently used arguments (``lru_cache``);
    rates read ``eiexp`` through ``eiexp_at``, the caller's cache of it."""
    eaves = comb, params.alpha_se, params.alpha_re
    if metric is Metric.SOP:
        phi, phi_dd, _ = _outage_functional(params.rho, csi, eaves)
        phi, phi_dd = _memoized(phi), _memoized(phi_dd)
        if csi is CsiMode.CSI:
            return lambda *m: _mixture(*m, phi, phi_dd)
        return lambda *m: 1.0 + _mixture(*m, phi, phi_dd)

    # E[ln(1 + X)] of a mixture is -sum_i c_i eiexp(s_i).
    if csi is CsiMode.NOCSI:
        # The eavesdropper's term reads no destination rate: kept per binding.
        eaves_term = _memoized(lambda: _mixture(*eaves, eiexp_at, _eiexp_dd))
        return lambda *m: _mixture(*m, eiexp_at, _eiexp_dd) - eaves_term()

    # Conditioned on the destination winning, both one-sided moments share
    # the pattern sum_i c_i [eiexp(s_i) + sum_j eps_j eiexp(s_i + a_j)]: a
    # destination mixture of phi(s) = eiexp(s) + (eavesdropper mixture of
    # a -> eiexp(s + a)).  Its divided difference in s is the same pattern
    # one order up, with the mixed second difference at close pairs.  The
    # cross terms eiexp(s + a) go through the eiexp cache too, which every
    # eavesdropper combiner shares.
    def phi(s):
        return eiexp_at(s) + _mixture(
            *eaves, lambda a: eiexp_at(s + a), lambda a1, a2: _eiexp_dd(s + a1, s + a2)
        )

    def phi_dd(s1, s2):
        return _eiexp_dd(s1, s2) + _mixture(
            *eaves, lambda a: _eiexp_dd(s1 + a, s2 + a), lambda a1, a2: _eiexp_dd2(s1, s2, a1, a2)
        )

    phi, phi_dd = _memoized(phi), _memoized(phi_dd)
    return lambda *m: _mixture(*m, phi, phi_dd)


def _conditional(side, metric, params, scheme, csi, relay_on):
    """One decode branch's outage, clamped to [0, 1], or rate in bpcu:
    ``side``, the :func:`_functional` of its eavesdropper combiner and its
    destination combiner, at the destination's rates; :class:`NumericError`
    where not finite."""
    value = _checked(_branch_name, params, _at_destination, side, params, scheme, csi, relay_on)
    return min(1.0, max(0.0, value)) if metric is Metric.SOP else HALF_LOG2E * value


def _public_conditional(metric, params, scheme, csi, relay_on):
    _validate(params, ((scheme, csi, metric),))
    dest, eaves = _COMBINERS[scheme, relay_on]
    bracket = _functional(metric, csi, eaves, params, _memoized(lambda x: eiexp(x)))
    return _conditional((bracket, dest), metric, params, scheme, csi, relay_on)


def sop_conditional(params: SystemParams, scheme: Scheme, csi: CsiMode, relay_on: bool) -> float:
    """Conditional outage probability given the relay decode outcome;
    :class:`NumericError` where it does not evaluate to a finite number."""
    return _public_conditional(Metric.SOP, params, scheme, csi, relay_on)


def esr_conditional(params: SystemParams, scheme: Scheme, csi: CsiMode, relay_on: bool) -> float:
    """Conditional ergodic secrecy rate (bpcu) given the decode outcome;
    :class:`NumericError` where it does not evaluate to a finite number."""
    return _public_conditional(Metric.ESR, params, scheme, csi, relay_on)


def sop_relay_slope(params: SystemParams, scheme: Scheme, csi: CsiMode) -> float:
    """First-order coefficient of the decode-success outage in ``beta_rd``
    (its value in ``params`` is ignored).

    It is the destination mixture's derivative at 0, ``phi[0, b] - phi[0, 0]``
    for MRC and ``phi[b, b] - phi[0, 0]`` for SC with b = ``beta_sd``, taken
    as ``b phi[0, 0, b]`` and ``b (phi[0, 0, b] + phi[0, b, b])``: the
    difference of two O(1) values would lose ~eps/b relative, 1e-6 at a
    100 dB direct link.
    """
    _validate(params, ((scheme, csi, Metric.SOP),))
    eaves = _COMBINERS[scheme, True][1], params.alpha_se, params.alpha_re
    _, _, phi_dd2 = _outage_functional(params.rho, csi, eaves)
    b = params.beta_sd

    def slope():
        dd = phi_dd2(0.0, b)
        if not scheme.mrc_at_destination:
            dd += phi_dd2(b, 0.0)
        return float(b * dd)

    return _checked(lambda: f"{scheme.value}/{csi.value} relay slope", params, slope)


# ---------------------------------------------------------------------------
# Public metrics.
# ---------------------------------------------------------------------------


def cells(points, cells) -> list[list[float]]:
    """Closed-form value of each (scheme, csi, metric) cell
    (:func:`fading.check_cells`) at each of ``points``
    (:func:`fading.check_points`): one list per point, in order.

    Each cell mixes the values of the decode branches of
    :func:`fading.decode_branches` with their weights.  For the call, it
    keeps one ``eiexp`` cache and the last ``(fields, value)`` of each
    branch identity (with the relay silent, not the scheme), read back while
    the ``fields`` are unchanged.  For each binding, a run of points with
    the same ``rate_rs``, ``alpha_se`` and ``alpha_re``, it keeps one
    :func:`_functional` per metric, CSI mode and eavesdropper combiner, and
    binds each cell's branches to them and to their destination combiners.
    The functionals' ``phi`` and ``phi[s1, s2]`` and the ``eiexp`` cache
    keep their :data:`_MEMO_SIZE` most recently used arguments
    (``functools.lru_cache``).  The cells and points are checked first, once
    per call, so a sweep passes it all its points, curve by curve.
    """
    cells = check_cells(cells)
    points = check_points(points)
    eiexp_at = _memoized(lambda x: eiexp(x))
    slots = {}
    tag, out = None, []
    for params in points:
        if tag != (params.rate_rs, params.alpha_se, params.alpha_re):
            # per cell, indexed by relay_on: each branch's slot identity,
            # functional and destination combiner
            tag = (params.rate_rs, params.alpha_se, params.alpha_re)
            functionals, bound = {}, []
            for scheme, csi, metric in cells:
                sides = []
                for on in (False, True):
                    dest, eaves = _COMBINERS[scheme, on]
                    key = metric, csi, eaves
                    if key not in functionals:
                        functionals[key] = _functional(metric, csi, eaves, params, eiexp_at)
                    sides.append(((metric, csi, on, scheme if on else None), (functionals[key], dest)))
                bound.append((scheme, csi, metric, sides))
        branches = decode_branches(params)
        values = []
        for scheme, csi, metric, sides in bound:
            value = 0.0
            for weight, relay_on, fields in branches:
                ident, side = sides[relay_on]
                slot = slots.get(ident)
                if slot is None or slot[0] != fields:
                    slot = slots[ident] = fields, _conditional(side, metric, params, scheme, csi, relay_on)
                value += weight * slot[1]
            values.append(min(1.0, max(0.0, value)) if metric is Metric.SOP else value)
        out.append(values)
    return out


def sop(params: SystemParams, scheme: Scheme, csi: CsiMode) -> SecrecyMetric:
    """Secrecy outage probability (one :func:`cells` cell)."""
    return SecrecyMetric(cells([params], ((scheme, csi, Metric.SOP),))[0][0], Method.CLOSED_FORM)


def esr(params: SystemParams, scheme: Scheme, csi: CsiMode) -> SecrecyMetric:
    """Ergodic secrecy rate in bits per channel use (one :func:`cells` cell).

    The CSI variant conditions on the destination outcombining the
    eavesdropper and is non-negative; the no-CSI variant is the raw
    expected log-ratio and may be negative.
    """
    return SecrecyMetric(cells([params], ((scheme, csi, Metric.ESR),))[0][0], Method.CLOSED_FORM)


def esr_mrc_sc_csi_variant(params: SystemParams) -> float:
    """Rejected transcription variant of the MRC-SC / CSI rate expression.

    Identical to the shipped formula except that the first scaled-Ei term
    of the decode-success bracket pairs one link's exponent with the other
    link's integral argument.  Kept only so the validation report can show
    the variant failing against quadrature; not part of the public API.
    perfbench/spans.py also times esr_mrc_sc_csi_variant.
    """
    b_sd, b_rd = params.beta_sd, params.beta_rd
    if abs(b_sd - b_rd) <= 1e-9 * max(b_sd, b_rd):
        raise DomainError("variant is undefined at equal destination rates")
    shipped_first = b_rd * eiexp(b_sd) / (b_sd - b_rd)
    variant_first = b_rd * math.exp(b_sd) * math.exp(-b_rd) * eiexp(b_rd) / (b_sd - b_rd)
    p_on, p_off = decode_weights(params)
    on = esr_conditional(params, Scheme.MRC_SC, CsiMode.CSI, True)
    off = esr_conditional(params, Scheme.MRC_SC, CsiMode.CSI, False)
    on_variant = on + HALF_LOG2E * (variant_first - shipped_first)
    return p_on * on_variant + p_off * off
