"""SOP/ESR references at 100 digits, shared by the tests of the closed
forms and of the quadrature oracle."""

import mpmath

from secrelay.fading import CsiMode


def mp_reference(params, scheme, csi, metric):
    """SOP/ESR from the plain two-rate weighted mixtures at 100 digits, an
    equal pair split by a relative 1e-30 (nested cancellation then keeps ~40
    digits)."""

    def terms(relay_on, mrc, r1, r2):
        if not relay_on:
            return [(-1, r1)]
        if not mrc:
            return [(-1, r1), (-1, r2), (1, r1 + r2)]
        if r1 == r2:
            r2 = r1 * (1 + mpmath.mpf("1e-30"))
        return [(-r2 / (r2 - r1), r1), (-r1 / (r1 - r2), r2)]

    def eiexp_mp(x):
        return mpmath.exp(x) * mpmath.ei(-x)

    with mpmath.workdps(100):
        a1, a2, b1, b2, b_sr, g_th, rs = (
            mpmath.mpf(x)
            for x in (
                params.alpha_se, params.alpha_re, params.beta_sd, params.beta_rd,
                params.beta_sr, params.gamma_th, params.rate_rs,
            )
        )
        rho = mpmath.mpf(2) ** (2 * rs)

        def branch(on):
            m = terms(on, scheme.mrc_at_destination, b1, b2)
            e = terms(on, scheme.mrc_at_eavesdropper, a1, a2)

            def lap(t):
                return -sum(c * a / (a + t) for c, a in e)

            if metric == "sop":
                if csi is CsiMode.NOCSI:
                    return 1 + sum(c * mpmath.exp(-s * (rho - 1)) * lap(rho * s) for c, s in m)
                return sum(c * (mpmath.exp(-s * (rho - 1)) * lap(rho * s) - lap(s)) for c, s in m)
            if csi is CsiMode.NOCSI:
                v = sum(c * eiexp_mp(s) for c, s in m) - sum(c * eiexp_mp(a) for c, a in e)
            else:
                v = sum(
                    c * (eiexp_mp(s) + sum(eps * eiexp_mp(s + a) for eps, a in e)) for c, s in m
                )
            return v / (2 * mpmath.log(2))

        p_on = mpmath.exp(-b_sr * g_th)
        return float(p_on * branch(True) + (1 - p_on) * branch(False))
