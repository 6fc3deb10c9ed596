"""Ground-truth evaluators: Monte Carlo simulation and adaptive quadrature.

Both oracles work straight from the system model - sampled trials on one
side, the defining one-dimensional integrals on the other - and share no
algebra with the closed forms they validate.

The quadrature oracle is an adaptive Gauss-Kronrod integrator in numpy
(QUADPACK's 10/21-point pair).  ``quadrature_cells`` takes every cell of a
sequence of parameter points: an outage is one integral per decode branch,
a rate the destination's and the eavesdropper's integrals per branch, and
an integral that several cells or points read is integrated once.  All of
them advance together, one round at a time.  The integrals of one decode
branch of one point form a node set: each round evaluates each law they
read (a density, a CDF, ``log1p``) once per block of the set's nodes, and
each integral builds its own integrand from those.  ``quadrature_sop`` and
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


# Intervals per block of nodes, at most: the 21 nodes of 384 intervals fill
# a 63 KiB array, so each per-node array of a block, a law included, stays
# below glibc's 128 KiB mmap threshold and is reused from the heap instead
# of being mapped anew.
_BLOCK = 384


def _blocks(on):
    """(start, stop) per block of rows, given each row's decode branch
    ``on``: each run of rows on one branch cut into the fewest blocks of at
    most ``_BLOCK`` rows, of even sizes."""
    cuts = [0, *(np.flatnonzero(on[1:] != on[:-1]) + 1).tolist(), on.size]
    blocks = []
    for a, b in zip(cuts, cuts[1:]):
        k = -(-(b - a) // _BLOCK)
        edges = [a + (b - a) * i // k for i in range(k + 1)]
        blocks += zip(edges, edges[1:])
    return blocks


def _padded(f, jac):
    """``f / jac`` padded with rows of 0 to a multiple of 4 rows: OpenBLAS
    sums the last rows of another row count in a kernel that can round them
    differently, so each interval's sums do not depend on its place."""
    out = np.zeros((-(-len(f) // 4) * 4, 21))
    np.divide(f, jac, out=out[: len(f)])
    return out


def _integrate(sets):
    """Integrate each integral over y in [0, inf) to its absolute tolerance.

    ``sets`` are node sets, one per decode branch of a point, each
    ``(args, mesh, integrals)``: ``args`` its (rho, beta_sd, beta_rd,
    alpha_se, alpha_re), ``mesh`` its initial breakpoints and ``integrals``
    a dict, integral key (see :func:`_integral_keys`) -> tolerance.  The
    half-line is mapped to t in [0, 1) by y = t / (1 - t).  All integrals
    advance together, one round at a time, each on its own open intervals;
    a row is an interval of a node set that some of its integrals are open
    on.  A round builds the 21 nodes and the Jacobian of the rows in the
    blocks of :func:`_blocks`, evaluates each law that a block's integrals
    read once for the block (:class:`_Laws`, each row at its own set's
    rates), and builds each key's integrand and envelope from them
    (:func:`_integrand`) on the rows it is open on.  An open interval gets
    the 21-point Kronrod value and QUADPACK's error estimate from the
    10-point Gauss value, at least a round-off floor of 50 eps times the
    envelope's integral over it: (row, key) arrays, 0 where the row's set
    has no open integral of the key, that each integral sums in t order.
    An interval is accepted when its estimate is within its share of the
    tolerance (its length times the integral's) or at the floor, and all of
    an integral's intervals are once their estimates add up to within its
    tolerance; a row is halved for the integrals still open on it.  No
    integral's result depends on the others.  Returns per set a dict, key
    -> (value, error bound, integrand evaluations).  Raises
    :class:`NumericError` when an integrand is not finite on an open
    interval, an integral needs more than ``_QUAD_LIMIT`` intervals, an
    interval cannot be halved, or a bound exceeds its tolerance.
    """
    keys = list(dict.fromkeys(key for *_, todo in sets for key in todo))
    tols = np.array([[todo.get(key, np.inf) for key in keys] for *_, todo in sets]).ravel()
    n, width = tols.size, len(keys)
    table = np.array([args for args, _, _ in sets])
    on_set = np.array([next(iter(integrals))[3] for *_, integrals in sets])
    sizes = np.array([len(mesh) - 1 for _, mesh, _ in sets])
    # rows set by set, the relay-on sets first: a batch's relayed branches
    # then share blocks
    layout = np.argsort(~on_set, kind="stable")
    lo = np.concatenate([sets[s][1][:-1] for s in layout.tolist()])
    hi = np.concatenate([sets[s][1][1:] for s in layout.tolist()])
    rset = np.repeat(layout, sizes[layout])  # each row's node set
    open_ = np.isfinite(tols).reshape(len(sets), width)[rset]  # (row, key): the integral is open
    value, bound = np.zeros((2, n))
    evals, kept = np.zeros((2, n), dtype=np.int64)
    # One errstate for the whole call: the integrands may overflow or turn
    # NaN, which the finiteness check below reports instead of numpy.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        while True:
            half = 0.5 * (hi - lo)
            mid = 0.5 * (hi + lo)
            mid_om = 0.5 * ((1.0 - hi) + (1.0 - lo))  # the midpoint in 1 - t
            resk, resg, resabs, resasc = np.zeros((4, lo.size, width))
            on = on_set[rset]
            for s, e in _blocks(on):
                # Nodes in t and in 1 - t, each from its own midpoint: near
                # t = 1, where the integrand in t peaks for slowly decaying
                # links, 1 - t rounded from t would move the nodes by
                # ~1e-16 / (1 - t) relative.
                offsets = half[s:e, None] * _NODES
                om = mid_om[s:e, None] - offsets
                y = (mid[s:e, None] + offsets) / om
                jac = om * om
                # one set's rates as floats, several sets' as a column each
                rates = sets[rset[s]][0] if rset[s] == rset[e - 1] else table[rset[s:e]].T[:, :, None]
                laws = _Laws(on[s], y, *rates)
                envelopes = {}  # per law, its Kronrod sums on the block's rows
                counts = np.count_nonzero(open_[s:e], axis=0).tolist()
                for col, (key, c) in enumerate(zip(keys, counts)):
                    if not c:
                        continue
                    # the block's rows that the key's integrals are open on
                    rows = slice(None) if c == e - s else np.flatnonzero(open_[s:e, col])
                    f, env = _integrand(key, lambda *law: laws[law][rows])
                    bad = ~np.isfinite(f)
                    if bad.any():
                        found = " and ".join(sorted(set(map(str, f[bad].tolist()))))
                        found += f", first at y = {float(y[rows][bad][0])!r}"
                        raise NumericError(f"quadrature failed: the integrand evaluates to {found}")
                    if env not in envelopes:
                        envelopes[env] = (_padded(laws[env], jac) @ _WK21)[: e - s]
                    f = _padded(f, jac[rows])
                    rk, rg = (f @ _WKG).T
                    at = slice(s, e), col
                    resk[at][rows], resg[at][rows] = rk[:c], rg[:c]
                    resabs[at][rows] = envelopes[env][rows]
                    resasc[at][rows] = (np.abs(f - 0.5 * rk[:, None]) @ _WK21)[:c]

            # in place: the (row, key) arrays grow with the batch's open rows
            half = half[:, None]
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

            # each (row, key) entry's integral; each integral's sums run in
            # row order, which is t order within a set
            integral = rset[:, None] * width + np.arange(width)
            owned = integral[open_]
            open_count = np.bincount(owned, minlength=n)
            evals += 21 * open_count
            done = bound + np.bincount(owned, weights=err[open_], minlength=n) <= tols
            share = np.maximum(tols.reshape(-1, width)[rset] * (hi - lo)[:, None], floor)
            accept = open_ & (done.reshape(-1, width)[rset] | (err <= share))
            taken = integral[accept]
            value += np.bincount(taken, weights=val[accept], minlength=n)
            bound += np.bincount(taken, weights=err[accept], minlength=n)
            taken_count = np.bincount(taken, minlength=n)
            kept += taken_count
            if np.any(kept + 2 * (open_count - taken_count) > _QUAD_LIMIT):
                raise NumericError(f"quadrature failed: more than {_QUAD_LIMIT} intervals needed")

            open_ &= ~accept
            halved = open_.any(axis=1)  # rows still open
            if not halved.any():
                break
            lo, mid, hi, rset, open_ = lo[halved], mid[halved], hi[halved], rset[halved], open_[halved]
            if np.any((mid <= lo) | (mid >= hi)):
                # the midpoint rounds onto an end: t cannot resolve the integrand
                raise NumericError("quadrature failed: an interval is too short to halve")
            halves = np.stack((lo, mid, mid, hi), axis=1)  # [lo, mid], [mid, hi] per row
            lo, hi = halves[:, 0::2].ravel(), halves[:, 1::2].ravel()
            rset, open_ = np.repeat(rset, 2), np.repeat(open_, 2, axis=0)
    over = np.flatnonzero(~(bound <= tols))
    if over.size:
        k = over[0]
        raise NumericError(
            f"quadrature error bound {bound[k]:.3e} exceeds requested tolerance {tols[k]:.3e}"
        )
    value, bound, evals = (a.reshape(len(sets), width).tolist() for a in (value, bound, evals))
    return [{key: (v[col], b[col], c[col]) for col, key in enumerate(keys) if key in todo}
            for (*_, todo), v, b, c in zip(sets, value, bound, evals)]


def _snr_dist(relay_on: bool, mrc):
    """(CDF, PDF) of one receiver's SNR on one decode branch, called with
    the receiver's direct rate, its relayed rate where the relay is on, and
    the points: its direct link alone, or with the relayed link combined by
    MRC (``mrc`` True) or SC (False)."""
    if not relay_on:
        return fading.exp_cdf, fading.exp_pdf
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


class _Laws(dict):
    """The laws that a block's integrands read, each evaluated at its nodes
    ``y`` on first use: ``laws[name, side, mrc]`` is the destination's
    ("m") or the eavesdropper's ("e") SNR "pdf" (cut, :func:`_cut`), "cdf",
    "cdf_rho" (the CDF at rho (1 + y) - 1) or "log_pdf" (log1p(y) times
    the cut density) for the combiner ``mrc`` (see :func:`_snr_dist`), or
    "log1p".  Each rate is a float or a column of one per row."""

    def __init__(self, relay_on, y, rho, sd, rd, se, re):
        n = 2 if relay_on else 1  # a silent relay's laws read no relayed rate
        self.relay_on, self.y, self.rho = relay_on, y, rho
        self.rates = {"m": (sd, rd)[:n], "e": (se, re)[:n]}

    def __missing__(self, law):
        name, side, mrc = law
        y = self.y
        if name == "log1p":
            v = np.log1p(y)
        elif name == "log_pdf":
            v = self["log1p", None, None] * self["pdf", side, mrc]
        else:
            cdf, pdf = _snr_dist(self.relay_on, mrc)
            z = self.rho * (1.0 + y) - 1.0 if name == "cdf_rho" else y
            v = _cut(pdf(*self.rates[side], y)) if name == "pdf" else cdf(*self.rates[side], z)
        self[law] = v
        return v


def _integrand(key, law):
    """The integrand of the integrals keyed ``key`` (see
    :func:`_integral_keys`) from the laws ``law(name, side, mrc)`` (see
    :class:`_Laws`), and the law that is its envelope: the density times a
    bound on the factor it multiplies (1 for a probability, log(1 + SNR)
    for a rate).  The probabilities are computed to a few ulps absolute,
    not relative, so the envelope, not |integrand|, scales the round-off
    floor."""
    metric, part, csi, _, mrc_m, mrc_e = key
    nocsi = csi is CsiMode.NOCSI
    if metric is Metric.SOP:
        d = "pdf", "e", mrc_e
        f = law("cdf_rho", "m", mrc_m)
        return (f if nocsi else f - law("cdf", "m", mrc_m)) * law(*d), d
    if part == "main":
        g = "log_pdf", "m", mrc_m
        return (law(*g) if nocsi else law("cdf", "e", mrc_e) * law(*g)), g
    g = "log_pdf", "e", mrc_e
    return (law(*g) if nocsi else (1.0 - law("cdf", "m", mrc_m)) * law(*g)), g


# What a cell's signed sum of integrals is multiplied by: nats to bpcu for
# a rate.
_METRIC_FACTOR = {Metric.SOP: 1.0, Metric.ESR: HALF_LOG2E}


def quadrature_cells(points, cells, tol: float = DEFAULT_QUAD_TOL, shared=None):
    """Quadrature of every (scheme, csi, metric) cell at each of ``points``
    (:class:`SystemParams`), in one batch (:func:`fading.check_cells`).

    Each cell mixes the decode branches of :func:`fading.decode_branches`
    with their weights, so ``gamma_th`` = 0 or inf leaves one branch alone.
    An integral is its key (see :func:`_integral_keys`) on its branch's
    ``fields``, which with ``tol`` are its store tag and its node set: one
    that several cells or points read is integrated once, and all of them
    advance in one :func:`_integrate` call, node set by node set, but for
    those ``shared``, a dict kept over one sweep's calls, holds for the same
    tag (no result depends on what else a batch holds).  Each cell's keys
    are worked out once per call, and each node set's mesh once.  Each
    branch's bound is within ``tol`` on its own, so each cell's is too.
    Returns per point one :class:`QuadratureResult` per cell, in order; its
    ``evaluations`` count every integral the cell reads, shared ones
    included.
    """
    fading.check_tolerance(tol, "tol")
    fading.check_cells(cells)
    shared = {} if shared is None else shared
    # per cell, its factor and, per decode branch, the keys it reads
    reads = [(_METRIC_FACTOR[m], {on: _integral_keys(s, c, m, on) for on in (True, False)})
             for s, c, m in cells]
    # per decode branch, each key the cells read and its tolerance
    tols = {on: {k: tol / (f * len(ks[on])) for f, ks in reads for k in ks[on]} for on in (True, False)}
    found = {}  # per store tag, (value, bound, evaluations) per integral key
    sets = {}  # per store tag with integrals to integrate, its node set
    plans = []  # per point, (weight, relay_on, its tag's results) per decode branch
    for params in points:
        branches = []
        for weight, relay_on, fields in fading.decode_branches(params):
            tag = (tol, *fields)
            if tag not in found:
                known = found[tag] = {}
                todo = {}
                for key, key_tol in tols[relay_on].items():
                    slot = shared.get(key)
                    if slot is not None and slot[0] == tag:
                        known[key] = slot[1]
                    else:
                        _check_links(params, key)
                        todo[key] = key_tol
                if todo:
                    args = (params.rho, params.beta_sd, params.beta_rd, params.alpha_se, params.alpha_re)
                    mesh = fading.shared_value(shared, ("mesh", relay_on), fields[1:], _mesh, fields[1:])
                    sets[tag] = args, mesh, todo
            branches.append((weight, relay_on, found[tag]))
        plans.append(branches)
    if sets:
        for tag, results in zip(sets, _integrate(list(sets.values()))):
            found[tag].update(results)
            shared.update((key, (tag, result)) for key, result in results.items())

    def result(factor, keys_on, branches):
        value = bound = 0.0
        count = 0
        for weight, relay_on, known in branches:
            parts = [known[k] for k in keys_on[relay_on]]  # (value, bound, evaluations)
            value += weight * (factor * (parts[0][0] - sum([p[0] for p in parts[1:]])))
            bound += weight * (factor * sum([p[1] for p in parts]))
            count += sum([p[2] for p in parts])
        return QuadratureResult(value, bound, count)

    return [[result(factor, keys_on, branches) for factor, keys_on in reads] for branches in plans]


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
