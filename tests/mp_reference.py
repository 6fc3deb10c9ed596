"""SOP/ESR references at 100 digits, shared by the tests of the closed
forms, the asymptotes and the quadrature oracle."""

import mpmath

from secrelay.fading import CsiMode


def _terms(relay_on, mrc, r1, r2):
    if not relay_on:
        return [(-1, r1)]
    if not mrc:
        return [(-1, r1), (-1, r2), (1, r1 + r2)]
    if r1 == r2:
        r2 = r1 * (1 + mpmath.mpf("1e-30"))
    return [(-r2 / (r2 - r1), r1), (-r1 / (r1 - r2), r2)]


def _eiexp_mp(x):
    return mpmath.exp(x) * mpmath.ei(-x)


def _branch(params, scheme, csi, metric, on, beta_rd):
    # One decode branch from the plain two-rate weighted mixtures, at the
    # caller's working precision.
    a1, a2, b1, rs = (
        mpmath.mpf(x) for x in (params.alpha_se, params.alpha_re, params.beta_sd, params.rate_rs)
    )
    b2 = mpmath.mpf(beta_rd)
    rho = mpmath.mpf(2) ** (2 * rs)
    m = _terms(on, scheme.mrc_at_destination, b1, b2)
    e = _terms(on, scheme.mrc_at_eavesdropper, a1, a2)

    def lap(t):
        return -sum(c * a / (a + t) for c, a in e)

    if metric == "sop":
        if csi is CsiMode.NOCSI:
            return 1 + sum(c * mpmath.exp(-s * (rho - 1)) * lap(rho * s) for c, s in m)
        return sum(c * (mpmath.exp(-s * (rho - 1)) * lap(rho * s) - lap(s)) for c, s in m)
    if csi is CsiMode.NOCSI:
        v = sum(c * _eiexp_mp(s) for c, s in m) - sum(c * _eiexp_mp(a) for c, a in e)
    else:
        v = sum(c * (_eiexp_mp(s) + sum(eps * _eiexp_mp(s + a) for eps, a in e)) for c, s in m)
    return v / (2 * mpmath.log(2))


def mp_reference(params, scheme, csi, metric):
    """SOP/ESR from the plain two-rate weighted mixtures at 100 digits, an
    equal pair split by a relative 1e-30 (nested cancellation then keeps ~40
    digits)."""
    with mpmath.workdps(100):
        p_on = mpmath.exp(-mpmath.mpf(params.beta_sr) * mpmath.mpf(params.gamma_th))
        on = _branch(params, scheme, csi, metric, True, params.beta_rd)
        off = _branch(params, scheme, csi, metric, False, params.beta_rd)
        return float(p_on * on + (1 - p_on) * off)


def mp_relay_slope(params, scheme, csi):
    """The decode-success outage's first-order coefficient in ``beta_rd``: the
    plain mixture at ``beta_rd = 1e-50`` and 120 digits, divided by
    ``beta_rd`` (the branch is 0 at ``beta_rd = 0``; the quotient cancels ~50
    digits and is off by O(1e-50) relative)."""
    with mpmath.workdps(120):
        x = mpmath.mpf("1e-50")
        return float(_branch(params, scheme, csi, "sop", True, x) / x)
