"""Ground-truth evaluators: Monte Carlo simulation and adaptive quadrature.

Both oracles work straight from the system model - sampled trials on one
side, the defining one-dimensional integrals on the other - and share no
algebra with the closed forms they validate.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import fading, kernels
from .errors import DomainError, NumericError
from .fading import CsiMode, Scheme, SCHEME_ORDER, SystemParams

__all__ = [
    "Estimate",
    "QuadratureResult",
    "McResults",
    "monte_carlo_all",
    "monte_carlo_sop",
    "monte_carlo_esr",
    "quadrature_sop",
    "quadrature_esr",
    "quadrature_sop_conditional",
    "quadrature_esr_conditional",
]

# Trials per reduction block.  Fixed so that estimates do not depend on the
# worker count: blocks are regenerated from (seed, point, block index) and
# merged in block order.
CHUNK_TRIALS = 1 << 19

# Trials drawn and reduced at a time within a chunk, small enough for the
# numpy kernel's temporaries to stay in a core's L2 cache.  The chunk's
# stream is consumed in order, so every trial gets the same uniforms as
# from one whole-chunk draw.
SUB_BLOCK_TRIALS = 1 << 13

# Integrand support is cut where the density has underflowed to noise.
PDF_FLOOR = 1e-300

DEFAULT_QUAD_TOL = 1e-9
_QUAD_LIMIT = 200
_HALF_LOG2E = 0.5 / math.log(2.0)


@dataclass(frozen=True)
class Estimate:
    """Monte Carlo estimate with its standard error."""

    value: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class QuadratureResult:
    """Quadrature value with the integrator's absolute error bound."""

    value: float
    abs_error_bound: float
    evaluations: int


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


class McResults:
    """All sixteen estimates from one batch of trials.

    A single set of draws serves every scheme/CSI combination, so the
    per-combination accessors are exact marginals of the same simulation.
    """

    def __init__(self, tallies, trials: int):
        self._t = tallies
        self.trials = trials

    def sop(self, scheme: Scheme, csi: CsiMode) -> Estimate:
        k = SCHEME_ORDER.index(scheme)
        count = self._t[0][k] if csi is CsiMode.NOCSI else self._t[1][k]
        n = self.trials
        p = count / n
        return Estimate(p, math.sqrt(p * (1.0 - p) / n), n)

    def esr(self, scheme: Scheme, csi: CsiMode) -> Estimate:
        k = SCHEME_ORDER.index(scheme)
        if csi is CsiMode.NOCSI:
            s, s2 = self._t[2][k], self._t[3][k]
        else:
            s, s2 = self._t[4][k], self._t[5][k]
        n = self.trials
        mean = s / n
        var = max(0.0, (s2 - n * mean * mean) / (n - 1)) if n > 1 else 0.0
        return Estimate(mean, math.sqrt(var / n), n)


def _merge(totals, part):
    if totals is None:
        return [np.array(a) for a in part]
    for acc, a in zip(totals, part):
        acc += a
    return totals


def monte_carlo_all(
    params: SystemParams, n: int, seed: int, *, point: int = 0, n_jobs: int = 1
) -> McResults:
    """Simulate ``n`` trials once and tally every scheme/CSI combination.

    Deterministic for a fixed (seed, point, n) and independent of
    ``n_jobs``: blocks of :data:`CHUNK_TRIALS` trials are regenerated from
    their own counter offsets and merged in block order.  Each block is
    drawn and reduced in sub-blocks of :data:`SUB_BLOCK_TRIALS` trials,
    tallied in order.
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"trial count must be a positive integer, got {n!r}")
    rates = (params.beta_sd, params.beta_sr, params.beta_rd, params.alpha_se, params.alpha_re)
    gamma_th, rho = params.gamma_th, params.rho
    backend = kernels.active_backend()
    blocks = [
        (chunk, min(CHUNK_TRIALS, n - chunk * CHUNK_TRIALS))
        for chunk in range((n + CHUNK_TRIALS - 1) // CHUNK_TRIALS)
    ]

    def run_block(block):
        chunk, m = block
        gen = fading.trial_stream(seed, point, chunk=chunk)
        tallies = None
        for start in range(0, m, SUB_BLOCK_TRIALS):
            u = gen.random((min(SUB_BLOCK_TRIALS, m - start), fading.DRAWS_PER_TRIAL))
            part = kernels.reduce_trials(u, rates, gamma_th, rho, backend=backend)
            tallies = _merge(tallies, part)
        return tallies

    totals = None
    if n_jobs > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            for part in pool.map(run_block, blocks):
                totals = _merge(totals, part)
    else:
        for block in blocks:
            totals = _merge(totals, run_block(block))
    return McResults(totals, n)


def monte_carlo_sop(
    params: SystemParams,
    scheme: Scheme,
    csi: CsiMode,
    n: int,
    seed: int,
    *,
    point: int = 0,
    n_jobs: int = 1,
) -> Estimate:
    """Outage frequency over ``n`` sampled trials."""
    return monte_carlo_all(params, n, seed, point=point, n_jobs=n_jobs).sop(scheme, csi)


def monte_carlo_esr(
    params: SystemParams,
    scheme: Scheme,
    csi: CsiMode,
    n: int,
    seed: int,
    *,
    point: int = 0,
    n_jobs: int = 1,
) -> Estimate:
    """Mean per-trial secrecy-rate statistic over ``n`` sampled trials.

    Without CSI this is the raw log-ratio mean (it may be negative); with
    CSI the statistic is zeroed on trials where the eavesdropper's combined
    SNR wins.
    """
    return monte_carlo_all(params, n, seed, point=point, n_jobs=n_jobs).esr(scheme, csi)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _integrate_semi_infinite(fy, tol: float, scales) -> QuadratureResult:
    # Map [0, inf) to (0, 1) via y = t / (1 - t).  Slowly decaying tails end
    # up compressed against t = 1 where the adaptive rule can miss them, so
    # force subdivision at multiples of the slowest decay length.
    def g(t):
        om = 1.0 - t
        return fy(t / om) / (om * om)

    decay_len = 1.0 / min(scales)
    points = sorted({min(y / (1.0 + y), 1.0 - 1e-12) for y in
                     (k * decay_len for k in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))})
    out = quad(g, 0.0, 1.0, epsabs=tol, epsrel=1e-12, limit=_QUAD_LIMIT,
               points=points, full_output=1)
    if len(out) > 3:
        raise NumericError(f"quadrature failed: {out[3]}")
    value, abserr, info = out
    if abserr > tol:
        raise NumericError(
            f"quadrature error bound {abserr:.3e} exceeds requested tolerance {tol:.3e}"
        )
    return QuadratureResult(value, abserr, int(info["neval"]))


def _dist_functions(params: SystemParams, scheme: Scheme, relay_on: bool):
    """(F_M, f_M, F_E, f_E) for one decode branch of one scheme."""
    if relay_on:
        b1, b2 = params.beta_sd, params.beta_rd
        a1, a2 = params.alpha_se, params.alpha_re
        if scheme.mrc_at_destination:
            cdf_m = lambda z: fading.sum_exp_cdf(b1, b2, z)
            pdf_m = lambda z: fading.sum_exp_pdf(b1, b2, z)
        else:
            cdf_m = lambda z: fading.max_exp_cdf(b1, b2, z)
            pdf_m = lambda z: fading.max_exp_pdf(b1, b2, z)
        if scheme.mrc_at_eavesdropper:
            cdf_e = lambda z: fading.sum_exp_cdf(a1, a2, z)
            pdf_e = lambda z: fading.sum_exp_pdf(a1, a2, z)
        else:
            cdf_e = lambda z: fading.max_exp_cdf(a1, a2, z)
            pdf_e = lambda z: fading.max_exp_pdf(a1, a2, z)
    else:
        cdf_m = lambda z: fading.exp_cdf(params.beta_sd, z)
        pdf_m = lambda z: fading.exp_pdf(params.beta_sd, z)
        cdf_e = lambda z: fading.exp_cdf(params.alpha_se, z)
        pdf_e = lambda z: fading.exp_pdf(params.alpha_se, z)
    return cdf_m, pdf_m, cdf_e, pdf_e


def _branch_scales(params: SystemParams, relay_on: bool):
    if relay_on:
        return (params.alpha_se, params.alpha_re, params.beta_sd, params.beta_rd)
    return (params.alpha_se, params.beta_sd)


def quadrature_sop_conditional(
    params: SystemParams,
    scheme: Scheme,
    csi: CsiMode,
    relay_on: bool,
    tol: float = DEFAULT_QUAD_TOL,
) -> QuadratureResult:
    """Conditional outage probability of one decode branch by quadrature."""
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    cdf_m, _, _, pdf_e = _dist_functions(params, scheme, relay_on)
    scales = _branch_scales(params, relay_on)
    rho = params.rho

    if csi is CsiMode.NOCSI:

        def fy(y):
            d = pdf_e(y)
            if d < PDF_FLOOR:
                return 0.0
            return cdf_m(rho * (1.0 + y) - 1.0) * d

    else:

        def fy(y):
            d = pdf_e(y)
            if d < PDF_FLOOR:
                return 0.0
            return (cdf_m(rho * (1.0 + y) - 1.0) - cdf_m(y)) * d

    return _integrate_semi_infinite(fy, tol, scales)


def quadrature_esr_conditional(
    params: SystemParams,
    scheme: Scheme,
    csi: CsiMode,
    relay_on: bool,
    tol: float = DEFAULT_QUAD_TOL,
) -> QuadratureResult:
    """Conditional ergodic secrecy rate (bpcu) of one decode branch."""
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    cdf_m, pdf_m, cdf_e, pdf_e = _dist_functions(params, scheme, relay_on)
    scales = _branch_scales(params, relay_on)
    part_tol = tol * math.log(2.0)  # two integrals, then the 1/(2 ln 2) scale

    if csi is CsiMode.NOCSI:

        def f_main(x):
            d = pdf_m(x)
            return math.log1p(x) * d if d >= PDF_FLOOR else 0.0

        def f_eaves(y):
            d = pdf_e(y)
            return math.log1p(y) * d if d >= PDF_FLOOR else 0.0

    else:

        def f_main(x):
            d = pdf_m(x)
            return math.log1p(x) * cdf_e(x) * d if d >= PDF_FLOOR else 0.0

        def f_eaves(y):
            d = pdf_e(y)
            return math.log1p(y) * (1.0 - cdf_m(y)) * d if d >= PDF_FLOOR else 0.0

    rm = _integrate_semi_infinite(f_main, part_tol, scales)
    re = _integrate_semi_infinite(f_eaves, part_tol, scales)
    return QuadratureResult(
        _HALF_LOG2E * (rm.value - re.value),
        _HALF_LOG2E * (rm.abs_error_bound + re.abs_error_bound),
        rm.evaluations + re.evaluations,
    )


def _weighted_branches(params, scheme, csi, tol, branch_fn) -> QuadratureResult:
    p_on = fading.decode_probability(params)
    value = 0.0
    bound = 0.0
    evals = 0
    for weight, relay_on in ((p_on, True), (1.0 - p_on, False)):
        if weight == 0.0:
            continue
        r = branch_fn(params, scheme, csi, relay_on, tol)
        value += weight * r.value
        bound += weight * r.abs_error_bound
        evals += r.evaluations
    return QuadratureResult(value, bound, evals)


def quadrature_sop(
    params: SystemParams, scheme: Scheme, csi: CsiMode, tol: float = DEFAULT_QUAD_TOL
) -> QuadratureResult:
    """Outage probability by adaptive quadrature of its defining integral.

    The decode-success and decode-failure branches are integrated
    separately and mixed with the decode probability.
    """
    return _weighted_branches(params, scheme, csi, tol, quadrature_sop_conditional)


def quadrature_esr(
    params: SystemParams, scheme: Scheme, csi: CsiMode, tol: float = DEFAULT_QUAD_TOL
) -> QuadratureResult:
    """Ergodic secrecy rate (bpcu) by adaptive quadrature."""
    return _weighted_branches(params, scheme, csi, tol, quadrature_esr_conditional)
