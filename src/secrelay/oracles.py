"""Ground-truth evaluators: Monte Carlo simulation and adaptive quadrature.

Both oracles work straight from the system model - sampled trials on one
side, the defining one-dimensional integrals on the other - and share no
algebra with the closed forms they validate.

The quadrature oracle is an adaptive Gauss-Kronrod integrator in numpy
(QUADPACK's 10/21-point pair).  ``quadrature_cells`` takes every cell of a
sequence of parameter points: an outage is one integral per decode branch,
a rate the destination's and the eavesdropper's integrals per branch, and
an integral that several cells or points read is integrated once.  All of
them advance together, one round at a time.  The integrals that share an
integrand and differ only in their rates and ``rho`` form a family, and
each round calls a family's integrand once per block of nodes, with the
rates and ``rho`` of each row's integral.  ``quadrature_sop`` and
``quadrature_esr`` are one-cell, one-point calls of it.  One decode branch
alone is the point at ``gamma_th`` = 0 (the relay always decodes) or
``gamma_th`` = inf (it never does).  ``QuadratureResult.abs_error_bound``
adds up the accepted intervals' error estimates, each at least a round-off
floor, and ``evaluations`` counts integrand points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from . import fading, kernels
from .errors import DomainError, NumericError
from .fading import DEFAULT_QUAD_TOL, HALF_LOG2E, CsiMode, Metric, Scheme, SCHEME_ORDER, SystemParams

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
            part = kernels.reduce_trials(u, rates, gamma_th, rho)
            tallies = part if tallies is None else tallies + part
        totals = tallies if totals is None else totals + tallies
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


# Intervals per block of nodes: the 21 nodes of 384 intervals fill a 63 KiB
# array, so each per-node temporary of a block stays below glibc's 128 KiB
# mmap threshold and is reused from the heap instead of being mapped anew.
_BLOCK = 384


def _blocks(bounds):
    """The rows from ``bounds[0]`` to ``bounds[-1]`` in blocks of at most
    ``_BLOCK``, each a list of (start, stop) segments of one family, where
    ``bounds`` are the families' first rows.  A family that fits in a block
    is not split."""
    blocks, block, room = [], [], _BLOCK
    for a, b in zip(bounds, bounds[1:]):
        if room < b - a <= _BLOCK:
            blocks.append(block)
            block, room = [], _BLOCK
        while a < b:
            take = min(b - a, room)
            block.append((a, a + take))
            a += take
            room -= take
            if not room:
                blocks.append(block)
                block, room = [], _BLOCK
    blocks.append(block)
    return [block for block in blocks if block]


def _integrate(integrands, tols, meshes):
    """Integrate each integral over y in [0, inf) to its absolute tolerance.

    Integral k is ``integrands[k] = (fy, args)``: ``fy(y, *args)`` returns
    the integrand and its envelope at an array of points, ``args`` a tuple
    of floats of the same length for every integral.  The half-line is
    mapped to t in [0, 1) by y = t / (1 - t); integral k starts from the
    intervals between the breakpoints ``meshes[k]``.  All integrals advance
    together, one round at a time.  A round builds the 21 nodes of the open
    intervals in the blocks of :func:`_blocks` and calls each family, a run
    of consecutive integrals with the same ``fy``, once per block it has
    rows in: with the floats of ``args`` where those rows are one
    integral's, else with one ``(rows, 1)`` column per argument, each row's
    value from its own integral.  Each open interval gets the
    21-point Kronrod value and QUADPACK's error estimate from the 10-point
    Gauss value, with a round-off floor of 50 eps times the integral of the
    envelope over it.  An interval is accepted when its estimate is within
    its share of the tolerance (its length times ``tols[k]``) or at the
    floor, and all of an integral's intervals are once their estimates add
    up to within ``tols[k]``; the others are halved.  No integral's result
    depends on the others.  Returns per-integral arrays (value, error
    bound, integrand evaluations).  Raises :class:`NumericError` when an
    integrand returns a non-finite value, an integral needs more than
    ``_QUAD_LIMIT`` intervals, an interval cannot be halved, or a bound
    exceeds its tolerance.
    """
    n = len(integrands)
    tols = np.asarray(tols, dtype=float)
    fys, rows = zip(*integrands)
    # the first integral of each family, then n
    firsts = [k for k in range(n) if k == 0 or fys[k] is not fys[k - 1]] + [n]
    table = np.array(rows)
    lo = np.concatenate([m[:-1] for m in meshes])
    hi = np.concatenate([m[1:] for m in meshes])
    owner = np.repeat(np.arange(n), [len(m) - 1 for m in meshes])  # stays sorted
    value, bound = np.zeros(n), np.zeros(n)
    evals, kept = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    # One errstate for the whole call: the integrands may overflow or turn
    # NaN, which the finiteness check below reports instead of numpy.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while owner.size:
            size = owner.size
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            mid_om = 0.5 * ((1.0 - hi) + (1.0 - lo))  # the midpoint in 1 - t
            resk, resg = np.empty(size), np.empty(size)
            resabs, resasc = np.empty(size), np.empty(size)
            for block in _blocks(np.searchsorted(owner, firsts).tolist()):
                s, e = block[0][0], block[-1][1]
                # Nodes in t and in 1 - t, each from its own midpoint: near
                # t = 1, where the integrand in t peaks for slowly decaying
                # links, 1 - t rounded from t would move the nodes by
                # ~1e-16 / (1 - t) relative.
                offsets = half[s:e, None] * _NODES
                t = mid[s:e, None] + offsets
                om = mid_om[s:e, None] - offsets
                y = t / om
                f, env = np.empty_like(t), np.empty_like(t)
                columns = None  # each row's args, gathered once per block
                for a, b in block:
                    k = owner[a]
                    a, b = a - s, b - s
                    if k == owner[s + b - 1]:
                        args = rows[k]
                    else:
                        if columns is None:
                            columns = table[owner[s:e]].T[:, :, None]
                        args = columns[:, a:b]
                    f[a:b], env[a:b] = fys[k](y[a:b], *args)
                bad = ~np.isfinite(f)
                if bad.any():
                    found = " and ".join(sorted(set(map(str, f[bad].tolist()))))
                    found += f", first at y = {float(y[bad][0])!r}"
                    raise NumericError(f"quadrature failed: the integrand evaluates to {found}")
                jac = om * om
                f /= jac
                env /= jac
                rk, rg = (f @ _WKG).T
                resk[s:e], resg[s:e] = rk, rg
                resabs[s:e] = env @ _WK21
                resasc[s:e] = np.abs(f - 0.5 * rk[:, None]) @ _WK21

            # in place: per-interval arrays grow with the batch's open intervals
            resabs *= half
            resasc *= half
            err = np.abs(np.subtract(resk, resg, out=resg), out=resg)
            err *= half
            val = np.multiply(resk, half, out=resk)
            pos = resasc > 0.0
            ratio = np.divide(200.0 * err, resasc, out=np.ones_like(err), where=pos)
            np.minimum(1.0, np.power(ratio, 1.5, out=ratio), out=ratio)
            np.copyto(err, np.multiply(resasc, ratio, out=ratio), where=pos)
            floor = np.where(resabs > _TINY / (50.0 * _EPS), 50.0 * _EPS * resabs, 0.0)
            np.maximum(err, floor, out=err)

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


def _snr_dist(relay_on: bool, mrc):
    """(CDF, PDF) of one receiver's SNR on one decode branch, called with
    the receiver's direct rate, its relayed rate where the relay is on, and
    the points: its direct link alone, or with the relayed link combined by
    MRC (``mrc`` True) or SC (False).  (None, None) for ``mrc`` None, a
    combiner not read."""
    if not relay_on:
        return fading.exp_cdf, fading.exp_pdf
    if mrc is None:
        return None, None
    if mrc:
        return fading.sum_exp_cdf, fading.sum_exp_pdf
    return fading.max_exp_cdf, fading.max_exp_pdf


def _cut(d):
    """The density ``d``, zeroed where it has underflowed to noise."""
    return np.where(d < PDF_FLOOR, 0.0, d)


def _integral_keys(scheme: Scheme, csi: CsiMode, metric: Metric, relay_on: bool):
    """The integrals one cell needs on one decode branch, each keyed by what
    it reads: (metric, part, CSI mode, decode branch, destination combiner,
    eavesdropper combiner), a combiner None where the integrand does not
    read it (a silent relay leaves no combiner to read).  An outage is one
    integral over the eavesdropper SNR; a rate is the destination's
    ("main") minus the eavesdropper's log-SNR integral."""
    m = scheme.mrc_at_destination if relay_on else None
    e = scheme.mrc_at_eavesdropper if relay_on else None
    if metric is Metric.SOP:
        return ((metric, "eaves", csi, relay_on, m, e),)
    if csi is CsiMode.NOCSI:
        return ((metric, "main", csi, relay_on, m, None), (metric, "eaves", csi, relay_on, None, e))
    return ((metric, "main", csi, relay_on, m, e), (metric, "eaves", csi, relay_on, m, e))


# Each integrand function returns the integrand and its envelope: the
# density times a bound on the factor it multiplies (1 for a probability,
# log(1 + SNR) for a rate).  The probabilities are computed to a few ulps
# absolute, not relative, so the envelope, not |integrand|, scales the
# round-off floor.


# A density's mass sits at y ~ 1/rate, where 1 - t ~ rate: below this rate
# (a mean SNR above ~150 dB) the map cannot place nodes on it, and the
# integral would miss it silently.
_MIN_RATE = 2.0 ** -50


def _check_links(params: SystemParams, key) -> None:
    """:class:`NumericError` where a link of the density that the integral
    ``key`` integrates is below ``_MIN_RATE``."""
    part, relay_on = key[1], key[3]
    side = (params.beta_sd, params.beta_rd) if part == "main" else (params.alpha_se, params.alpha_re)
    if min(side[: 2 if relay_on else 1]) < _MIN_RATE:
        raise NumericError(f"quadrature cannot resolve a link rate below 2^-50 at {params}")


def _family(key):
    """The integrand function ``fy(y, rho, beta_sd, beta_rd, alpha_se,
    alpha_re)`` of every integral keyed ``key`` (see :func:`_integral_keys`);
    a silent relay's reads neither relayed rate."""
    metric, part, csi, relay_on, mrc_m, mrc_e = key
    cdf_m, pdf_m = _snr_dist(relay_on, mrc_m)
    cdf_e, pdf_e = _snr_dist(relay_on, mrc_e)
    nocsi = csi is CsiMode.NOCSI
    n = 2 if relay_on else 1  # the rates of each receiver's SNR

    if metric is Metric.SOP:

        def fy(y, rho, sd, rd, se, re):
            m, e = (sd, rd)[:n], (se, re)[:n]
            d = _cut(pdf_e(*e, y))
            f = cdf_m(*m, rho * (1.0 + y) - 1.0)
            return (f if nocsi else f - cdf_m(*m, y)) * d, d

    elif part == "main":

        def fy(x, rho, sd, rd, se, re):
            m, e = (sd, rd)[:n], (se, re)[:n]
            g = np.log1p(x) * _cut(pdf_m(*m, x))
            return (g if nocsi else cdf_e(*e, x) * g), g

    else:

        def fy(y, rho, sd, rd, se, re):
            m, e = (sd, rd)[:n], (se, re)[:n]
            g = np.log1p(y) * _cut(pdf_e(*e, y))
            return (g if nocsi else (1.0 - cdf_m(*m, y)) * g), g

    return fy


# What a cell's signed sum of integrals is multiplied by: nats to bpcu for
# a rate.
_METRIC_FACTOR = {Metric.SOP: 1.0, Metric.ESR: HALF_LOG2E}


def quadrature_cells(points, cells, tol: float = DEFAULT_QUAD_TOL, shared=None):
    """Quadrature of every (scheme, csi, metric) cell at each of ``points``
    (:class:`SystemParams`), in one batch (:func:`fading.check_cells`).

    Each cell mixes the decode branches of :func:`fading.decode_branches`
    with their weights, so ``gamma_th`` = 0 or inf leaves one branch alone.
    An integral is its key (see :func:`_integral_keys`) on its branch's
    ``fields``: one that several cells or points read is integrated once,
    and all of them advance in one :func:`_integrate` call, family by
    family, but for those ``shared``, a dict kept over one sweep's calls,
    holds for ``tol`` and the same fields (no result depends on what else
    a batch holds).  Each branch's mesh is built once.  Each branch's bound
    is within ``tol`` on its own, so each cell's is too.  Returns per point
    one :class:`QuadratureResult` per cell, in order; its ``evaluations``
    count every integral the cell reads, shared ones included.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tol must be positive and finite, got {tol!r}")
    fading.check_cells(cells)
    shared = {} if shared is None else shared
    # per store tag, (value, bound, evaluations) per integral key, None
    # until integrated
    found = {}
    families = {}  # key -> (its tag's results, tag, args, tol, mesh) per integral to integrate
    plans = []  # per point and cell: (factor, per branch (weight, its tag's results, keys))
    for params in points:
        args = (params.rho, params.beta_sd, params.beta_rd, params.alpha_se, params.alpha_re)
        branches = []  # (weight, relay_on, store tag, its results, mesh)
        for weight, relay_on, fields in fading.decode_branches(params):
            tag = (tol, *fields)
            mesh = fading.shared_value(shared, ("mesh", relay_on), fields[1:], _mesh, fields[1:])
            branches.append((weight, relay_on, tag, found.setdefault(tag, {}), mesh))
        point_plans = []
        for scheme, csi, metric in cells:
            factor = _METRIC_FACTOR[metric]
            groups = []
            for weight, relay_on, tag, known, mesh in branches:
                keys = _integral_keys(scheme, csi, metric, relay_on)
                for key in keys:
                    if key in known:
                        continue
                    slot = shared.get(key)
                    known[key] = slot[1] if slot is not None and slot[0] == tag else None
                    if known[key] is None:
                        _check_links(params, key)
                        todo = families.setdefault(key, [])
                        todo.append((known, tag, args, tol / (factor * len(keys)), mesh))
                groups.append((weight, known, keys))
            point_plans.append((factor, groups))
        plans.append(point_plans)
    if families:
        todo = [(key, *item) for key, items in families.items() for item in items]
        fys = {key: _family(key) for key in families}
        integrands = [(fys[key], args) for key, _, _, args, _, _ in todo]
        out = _integrate(integrands, [t for *_, t, _ in todo], [m for *_, m in todo])
        for (key, known, tag, *_), result in zip(todo, zip(*(a.tolist() for a in out))):
            known[key] = result
            shared[key] = tag, result
    results = []
    for point_plans in plans:
        point_results = []
        for factor, groups in point_plans:
            value = bound = 0.0
            for weight, known, keys in groups:
                v = known[keys[0]][0] - sum(known[k][0] for k in keys[1:])
                value += weight * (factor * v)
                bound += weight * (factor * sum(known[k][1] for k in keys))
            count = sum(known[k][2] for _, known, keys in groups for k in keys)
            point_results.append(QuadratureResult(value, bound, count))
        results.append(point_results)
    return results


def quadrature_sop(
    params: SystemParams, scheme: Scheme, csi: CsiMode, tol: float = DEFAULT_QUAD_TOL
) -> QuadratureResult:
    """Outage probability by adaptive quadrature (one :func:`quadrature_cells` cell)."""
    return quadrature_cells([params], ((scheme, csi, Metric.SOP),), tol)[0][0]


def quadrature_esr(
    params: SystemParams, scheme: Scheme, csi: CsiMode, tol: float = DEFAULT_QUAD_TOL
) -> QuadratureResult:
    """Ergodic secrecy rate (bpcu) by adaptive quadrature (one :func:`quadrature_cells` cell)."""
    return quadrature_cells([params], ((scheme, csi, Metric.ESR),), tol)[0][0]
