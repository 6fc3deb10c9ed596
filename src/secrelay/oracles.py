"""Ground-truth evaluators: Monte Carlo simulation and adaptive quadrature.

Both oracles work straight from the system model - sampled trials on one
side, the defining one-dimensional integrals on the other - and share no
algebra with the closed forms they validate.

The quadrature oracle is an adaptive Gauss-Kronrod integrator in numpy
(QUADPACK's 10/21-point pair).  ``quadrature_cells`` takes every cell of
one parameter point: an outage is one integral per decode branch, a rate
the destination's and the eavesdropper's integrals per branch, and an
integral several cells read is integrated once.  All of them advance
together: each round evaluates every integrand once, on the nodes of all
its open intervals.  ``quadrature_sop``/``quadrature_esr`` are one-cell
calls of it.  One decode branch alone is the point at ``gamma_th`` = 0
(the relay always decodes) or ``gamma_th`` = inf (it never does).
``QuadratureResult.abs_error_bound`` adds up the accepted intervals' error
estimates, each at least a round-off floor, and ``evaluations`` counts
integrand points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import fading, kernels
from .errors import DomainError, NumericError
from .fading import HALF_LOG2E, CsiMode, Scheme, SCHEME_ORDER, SystemParams

__all__ = [
    "Estimate",
    "QuadratureResult",
    "McResults",
    "monte_carlo_all",
    "quadrature_cells",
    "quadrature_sop",
    "quadrature_esr",
]

# Trials per reduction block.  Each block is drawn from its own stream,
# keyed by (seed, point, block index), and blocks are merged in order.
CHUNK_TRIALS = 1 << 19

# Trials drawn and reduced at a time within a chunk, small enough for the
# numpy kernel's temporaries to stay in a core's L2 cache.  The chunk's
# stream is consumed in order, so every trial gets the same uniforms as
# from one whole-chunk draw.
SUB_BLOCK_TRIALS = 1 << 13

# Integrand support is cut where the density has underflowed to noise.
PDF_FLOOR = 1e-300

DEFAULT_QUAD_TOL = 1e-9
_QUAD_LIMIT = 200  # intervals per integral


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


def monte_carlo_all(params: SystemParams, n: int, seed: int, *, point: int = 0) -> McResults:
    """Simulate ``n`` trials once and tally every scheme/CSI combination.

    Deterministic for a fixed (seed, point, n): blocks of
    :data:`CHUNK_TRIALS` trials are drawn from their own counter offsets,
    each in sub-blocks of :data:`SUB_BLOCK_TRIALS` trials merged into the
    block's tally, and the block tallies are merged in block order.  Read
    a cell with ``.sop(scheme, csi)`` or ``.esr(scheme, csi)``: the outage
    frequency, or the mean per-trial secrecy-rate statistic (without CSI
    the raw log-ratio mean, which may be negative; with CSI zeroed on
    trials where the eavesdropper's combined SNR wins).
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"trial count must be a positive integer, got {n!r}")
    limit = CHUNK_TRIALS * fading.CHUNK_LIMIT  # trials the stream keys can address
    if n > limit:
        raise DomainError(f"trial count must be at most {limit}, got {n!r}")
    rates = (params.beta_sd, params.beta_sr, params.beta_rd, params.alpha_se, params.alpha_re)
    gamma_th, rho = params.gamma_th, params.rho
    totals = None
    for chunk in range((n + CHUNK_TRIALS - 1) // CHUNK_TRIALS):
        m = min(CHUNK_TRIALS, n - chunk * CHUNK_TRIALS)
        gen = fading.trial_stream(seed, point, chunk=chunk)
        tallies = None
        for start in range(0, m, SUB_BLOCK_TRIALS):
            u = gen.random((min(SUB_BLOCK_TRIALS, m - start), fading.DRAWS_PER_TRIAL))
            tallies = _merge(tallies, kernels.reduce_trials(u, rates, gamma_th, rho))
        totals = _merge(totals, tallies)
    return McResults(totals, n)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


# QUADPACK's 21-point Kronrod rule and the 10-point Gauss rule embedded in it
# (Piessens et al., QUADPACK, 1983, routine QK21): Kronrod abscissae on
# [0, 1] in decreasing order (the Gauss ones at odd positions), then the
# Kronrod and the Gauss weights.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# The 21 nodes on [-1, 1] in increasing order, their Kronrod weights, and
# the Gauss weights (0 at the Kronrod-only nodes).
_NODES = np.concatenate((-_XGK[:10], _XGK[::-1]))
_WK21 = np.concatenate((_WGK[:10], _WGK[::-1]))
_WG21 = np.zeros(21)
_WG21[1:10:2] = _WG
_WG21[19:10:-2] = _WG
_WKG = np.stack((_WK21, _WG21), axis=1)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# The initial mesh has breakpoints at these multiples of every link's decay
# length, so the tail of each exponential starts on an interval of its own,
# and fills any wider gap between two links' ranges with a geometric ladder
# of ratio _MESH_MAX_RATIO: on a longer interval the nodes can all fall on
# one side of a slower link's mass (at 100 dB, 0.4 bpcu of a rate).
_MESH_MULTIPLES = np.array([0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
_MESH_MAX_RATIO = 4.0


def _mesh(scales) -> np.ndarray:
    """Initial breakpoints in t = y / (1 + y), from 0 to 1."""
    y = np.sort(np.multiply.outer(_MESH_MULTIPLES, 1.0 / np.asarray(scales)), axis=None)
    ratio = y[1:] / y[:-1]
    gaps = np.flatnonzero(ratio > _MESH_MAX_RATIO)
    if gaps.size:
        ladders = [
            y[i] * _MESH_MAX_RATIO ** np.arange(1.0, math.ceil(math.log(ratio[i], _MESH_MAX_RATIO)))
            for i in gaps
        ]
        y = np.sort(np.concatenate([y, *ladders]))
    t = np.concatenate(([0.0], np.minimum(y / (1.0 + y), 1.0 - 1e-12), [1.0]))
    return t[np.concatenate(([True], t[1:] != t[:-1]))]


def _integrate(integrands, tols, meshes):
    """Integrate each ``fy`` over y in [0, inf) to its absolute tolerance.

    ``fy(y)`` returns the integrand and its envelope at an array of points.
    The half-line is mapped to t in [0, 1) by y = t / (1 - t); integral k
    starts from the intervals between the breakpoints ``meshes[k]``.  All
    integrals advance together, one round at a time: each integrand is
    called once a round, on the 21 nodes of every open interval it has.
    Each open interval gets the 21-point Kronrod value and QUADPACK's error
    estimate from the 10-point Gauss value, with a round-off floor of 50 eps
    times the integral of the envelope over it.  An interval is accepted
    when its estimate is within its share of the tolerance (its length
    times ``tols[k]``) or at the floor, and all of an integral's intervals
    are once their estimates add up to within ``tols[k]``; the others are
    halved.  Returns per-integral arrays (value, error bound, integrand
    evaluations).  Raises :class:`NumericError` when an integral needs more
    than ``_QUAD_LIMIT`` intervals, an interval cannot be halved, or a bound
    exceeds its tolerance.
    """
    n = len(integrands)
    tols = np.asarray(tols, dtype=float)
    lo = np.concatenate([m[:-1] for m in meshes])
    hi = np.concatenate([m[1:] for m in meshes])
    owner = np.repeat(np.arange(n), [len(m) - 1 for m in meshes])  # stays sorted
    value, bound = np.zeros(n), np.zeros(n)
    evals, kept = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    while owner.size:
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        # Nodes in t and in 1 - t, each from its own midpoint: near t = 1,
        # where the integrand in t peaks for slowly decaying links, 1 - t
        # rounded from t would move the nodes by ~1e-16 / (1 - t) relative.
        t = mid[:, None] + half[:, None] * _NODES
        om = (0.5 * ((1.0 - hi) + (1.0 - lo)))[:, None] - half[:, None] * _NODES
        y = t / om
        f, env = np.empty_like(t), np.empty_like(t)
        ends = np.searchsorted(owner, np.arange(n + 1))
        for k in range(n):
            a, b = ends[k], ends[k + 1]
            if a < b:
                f[a:b], env[a:b] = integrands[k](y[a:b])
        jac = om * om
        f /= jac
        env /= jac

        resk, resg = (f @ _WKG).T
        resabs = (env @ _WK21) * half
        resasc = (np.abs(f - 0.5 * resk[:, None]) @ _WK21) * half
        val = resk * half
        err = np.abs(resk - resg) * half
        pos = resasc > 0.0
        ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=pos)
        err = np.where(pos, resasc * np.minimum(1.0, ratio ** 1.5), err)
        floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
        err = np.maximum(err, floor)

        open_count = np.bincount(owner, minlength=n)
        evals += 21 * open_count
        done = bound + np.bincount(owner, weights=err, minlength=n) <= tols
        accept = done[owner] | (err <= np.maximum(tols[owner] * (hi - lo), floor))
        taken = owner[accept]
        value += np.bincount(taken, weights=val[accept], minlength=n)
        bound += np.bincount(taken, weights=err[accept], minlength=n)
        taken_count = np.bincount(taken, minlength=n)
        kept += taken_count
        if np.any(kept + 2 * (open_count - taken_count) > _QUAD_LIMIT):
            raise NumericError(f"quadrature failed: more than {_QUAD_LIMIT} intervals needed")

        split = ~accept
        lo, mid, hi, owner = lo[split], mid[split], hi[split], owner[split]
        if np.any((mid <= lo) | (mid >= hi)):
            # the midpoint rounds onto an end: t cannot resolve the integrand
            raise NumericError("quadrature failed: an interval is too short to halve")
        halves = np.stack((lo, mid, mid, hi), axis=1)  # [lo, mid], [mid, hi] per row
        lo, hi = halves[:, 0::2].ravel(), halves[:, 1::2].ravel()
        owner = np.repeat(owner, 2)
    over = np.flatnonzero(~(bound <= tols))
    if over.size:
        k = over[0]
        raise NumericError(
            f"quadrature error bound {bound[k]:.3e} exceeds requested tolerance {tols[k]:.3e}"
        )
    return value, bound, evals


def _snr_dist(direct: float, relayed: float, relay_on: bool, mrc):
    """(CDF, PDF) of one receiver's SNR on one decode branch: its direct
    link alone, or with the relayed link combined by MRC (``mrc`` True) or
    SC (False).  (None, None) for ``mrc`` None, a combiner not read."""
    if not relay_on:
        return partial(fading.exp_cdf, direct), partial(fading.exp_pdf, direct)
    if mrc is None:
        return None, None
    if mrc:
        cdf, pdf = fading.sum_exp_cdf, fading.sum_exp_pdf
    else:
        cdf, pdf = fading.max_exp_cdf, fading.max_exp_pdf
    return partial(cdf, direct, relayed), partial(pdf, direct, relayed)


def _branch_scales(params: SystemParams, relay_on: bool):
    if relay_on:
        return (params.alpha_se, params.alpha_re, params.beta_sd, params.beta_rd)
    return (params.alpha_se, params.beta_sd)


def _cut(d):
    """The density ``d``, zeroed where it has underflowed to noise."""
    return np.where(d < PDF_FLOOR, 0.0, d)


def _integral_keys(scheme: Scheme, csi: CsiMode, metric: str, relay_on: bool):
    """The integrals one cell needs on one decode branch, each keyed by what
    it reads: (metric, part, CSI mode, decode branch, destination combiner,
    eavesdropper combiner), a combiner None where the integrand does not
    read it (a silent relay leaves no combiner to read).  An outage is one
    integral over the eavesdropper SNR; a rate is the destination's
    ("main") minus the eavesdropper's log-SNR integral."""
    m = scheme.mrc_at_destination if relay_on else None
    e = scheme.mrc_at_eavesdropper if relay_on else None
    if metric == "sop":
        return (("sop", "eaves", csi, relay_on, m, e),)
    if csi is CsiMode.NOCSI:
        return (("esr", "main", csi, relay_on, m, None), ("esr", "eaves", csi, relay_on, None, e))
    return (("esr", "main", csi, relay_on, m, e), ("esr", "eaves", csi, relay_on, m, e))


# Each integrand function returns the integrand and its envelope: the
# density times a bound on the factor it multiplies (1 for a probability,
# log(1 + SNR) for a rate).  The probabilities are computed to a few ulps
# absolute, not relative, so the envelope, not |integrand|, scales the
# round-off floor.


def _integrand(params: SystemParams, key):
    """The integrand function of the integral ``key`` of :func:`_integral_keys`."""
    metric, part, csi, relay_on, mrc_m, mrc_e = key
    cdf_m, pdf_m = _snr_dist(params.beta_sd, params.beta_rd, relay_on, mrc_m)
    cdf_e, pdf_e = _snr_dist(params.alpha_se, params.alpha_re, relay_on, mrc_e)
    rho = params.rho

    if metric == "sop":
        if csi is CsiMode.NOCSI:

            def fy(y):
                d = _cut(pdf_e(y))
                return cdf_m(rho * (1.0 + y) - 1.0) * d, d

        else:

            def fy(y):
                d = _cut(pdf_e(y))
                return (cdf_m(rho * (1.0 + y) - 1.0) - cdf_m(y)) * d, d

    elif part == "main":

        def fy(x):
            e = np.log1p(x) * _cut(pdf_m(x))
            return (e if csi is CsiMode.NOCSI else cdf_e(x) * e), e

    else:

        def fy(y):
            e = np.log1p(y) * _cut(pdf_e(y))
            return (e if csi is CsiMode.NOCSI else (1.0 - cdf_m(y)) * e), e

    return fy


# What a cell's signed sum of integrals is multiplied by: nats to bpcu for
# a rate.
_METRIC_FACTOR = {"sop": 1.0, "esr": HALF_LOG2E}


def quadrature_cells(params: SystemParams, cells, tol: float = DEFAULT_QUAD_TOL):
    """Quadrature of every (scheme, csi, metric) cell of one point, with
    ``metric`` "sop" (outage probability) or "esr" (ergodic secrecy rate,
    bpcu), in one batch.

    Each cell mixes two decode outcomes, relay decoding (with the decode
    probability) and relay silent; an outcome of weight 0 is skipped, so
    ``gamma_th`` = 0 or inf leaves one branch alone.  Each branch's mesh is
    built once, an integral that several cells read (see
    :func:`_integral_keys`) is integrated once, and all of them advance in
    one :func:`_integrate` call.  Each branch's bound is within ``tol`` on
    its own, so each cell's is too.  Returns one :class:`QuadratureResult`
    per cell, in order; its ``evaluations`` count every integral the cell
    reads, shared ones included.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    p_on = fading.decode_probability(params)
    mix = [(w, relay_on) for w, relay_on in ((p_on, True), (1.0 - p_on, False)) if w != 0.0]
    branch_mesh = {relay_on: _mesh(_branch_scales(params, relay_on)) for _, relay_on in mix}
    index, fys, tols, meshes, plans = {}, [], [], [], []
    for scheme, csi, metric in cells:
        if metric not in _METRIC_FACTOR:
            raise DomainError(f"metric must be 'sop' or 'esr', got {metric!r}")
        groups = []
        for weight, relay_on in mix:
            keys = _integral_keys(scheme, csi, metric, relay_on)
            for key in keys:
                if key not in index:
                    index[key] = len(fys)
                    fys.append(_integrand(params, key))
                    tols.append(tol / (_METRIC_FACTOR[metric] * len(keys)))
                    meshes.append(branch_mesh[relay_on])
            groups.append((weight, [index[key] for key in keys]))
        plans.append((_METRIC_FACTOR[metric], groups))
    values, bounds, evals = (
        (a.tolist() for a in _integrate(fys, tols, meshes)) if fys else ([], [], [])
    )
    out = []
    for factor, groups in plans:
        value = bound = 0.0
        for weight, idx in groups:
            v = values[idx[0]] - sum(values[j] for j in idx[1:])
            value += weight * (factor * v)
            bound += weight * (factor * sum(bounds[j] for j in idx))
        count = sum(evals[j] for _, idx in groups for j in idx)
        out.append(QuadratureResult(value, bound, count))
    return out


def quadrature_sop(
    params: SystemParams, scheme: Scheme, csi: CsiMode, tol: float = DEFAULT_QUAD_TOL
) -> QuadratureResult:
    """Outage probability by adaptive quadrature of its defining integral.

    The decode-success and decode-failure cases are integrated
    separately and mixed with the decode probability.
    """
    return quadrature_cells(params, ((scheme, csi, "sop"),), tol)[0]


def quadrature_esr(
    params: SystemParams, scheme: Scheme, csi: CsiMode, tol: float = DEFAULT_QUAD_TOL
) -> QuadratureResult:
    """Ergodic secrecy rate (bpcu) by adaptive quadrature."""
    return quadrature_cells(params, ((scheme, csi, "esr"),), tol)[0]
