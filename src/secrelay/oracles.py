"""Ground-truth evaluators: Monte Carlo simulation and quadrature.

Both oracles work straight from the system model - sampled trials on one
side, the defining one-dimensional integrals on the other - and share no
algebra with the closed forms they validate.

The quadrature oracle is a trapezoid rule, which converges geometrically
on these integrands (Trefethen & Weideman, "The exponentially convergent
trapezoidal rule", SIAM Review 56(3), 2014), with its step halved until
each integral's bound is within its tolerance.  Its variable is log y,
graded double-exponentially in the left tail, where the integrands are
power laws in y (Takahasi & Mori, Publ. RIMS 9, 1974): half the nodes.
``quadrature_cells`` takes every cell of a sequence of parameter points:
a cell is one integral per decode branch (a rate in its by-parts form, of
the two receivers' CDFs), and an integral that several cells or points
read is integrated once.  The integrals of one decode branch of one point
form a node set, and those of a batch of node sets advance together, one
round at a time: each round evaluates each law they read (a density, a
CDF, 1 / (1 + y)) once per decode branch on the new nodes of every set,
and each integral builds its own integrand from those.
``quadrature_sop`` and ``quadrature_esr`` are one-cell, one-point calls
of it.  One decode branch alone is the point at ``gamma_th`` = 0 (the
relay always decodes) or ``gamma_th`` = inf (it never does).
``QuadratureResult.abs_error_bound`` is the difference from the rule at
twice the step plus a round-off floor, and ``evaluations`` counts the
nodes evaluated.
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


def check_trials(n, seed) -> None:
    """:class:`DomainError` unless ``n`` is a trial count that the stream
    keys can address and ``seed`` a stream seed (:func:`fading.check_seed`)."""
    if not (fading.is_integer(n) and n >= 1):
        raise DomainError(f"trial count must be a positive integer, got {n!r}")
    limit = CHUNK_TRIALS * fading.CHUNK_LIMIT  # trials the stream keys can address
    if n > limit:
        raise DomainError(f"trial count must be at most {limit}, got {n!r}")
    fading.check_seed(seed)


def _tallies(params: SystemParams, n: int, seed: int, point: int):
    """The (6, 4) tallies of ``n`` trials at ``params``, chunk by chunk from
    the streams keyed (seed, point, chunk) and sub-block by sub-block."""
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
    return totals


def _estimate(tallies, n: int, scheme: Scheme, csi: CsiMode, metric: Metric) -> Estimate:
    """A cell's estimate from ``n`` trials' tallies: the outage frequency, or
    the mean per-trial secrecy rate (without CSI the raw log-ratio mean, which
    may be negative; with CSI zeroed where the eavesdropper's SNR wins)."""
    k, row = SCHEME_ORDER.index(scheme), 0 if csi is CsiMode.NOCSI else 1
    if metric is Metric.SOP:
        p = tallies[row][k] / n
        return Estimate(p, math.sqrt(p * (1.0 - p) / n), n)
    s, s2 = tallies[2 + 2 * row][k], tallies[3 + 2 * row][k]
    mean = s / n
    var = max(0.0, (s2 - n * mean * mean) / (n - 1)) if n > 1 else 0.0
    return Estimate(mean, math.sqrt(var / n), n)


def monte_carlo_all(points, cells, n: int, seed: int, n_jobs: int = 1) -> list[list[Estimate]]:
    """Monte Carlo estimate of every (scheme, csi, metric) cell at each of
    ``points``, checked before any draw (:func:`fading.check_cells`,
    :func:`fading.check_points`, :func:`check_trials`): per point one
    :class:`Estimate` per cell, in order, from point ``i``'s :func:`_tallies`
    at key ``i``.  The points run on ``n_jobs`` worker threads if above 1
    (the numpy kernel releases the GIL); no estimate depends on it."""
    cells = fading.check_cells(cells)
    points = fading.check_points(points)
    check_trials(n, seed)

    def run(i):
        tallies = _tallies(points[i], n, seed, i)
        return [_estimate(tallies, n, *cell) for cell in cells]

    if n_jobs > 1 and len(points) > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(run, range(len(points))))
    return [run(i) for i in range(len(points))]


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


_EPS = float(np.finfo(float).eps)

# The trapezoid rule's first step in t, and how often it may be halved.  At
# step 3/16 the first grid's bound met tol 1e-9 on 2532 of 2548 outage
# integrals of the presets, sample_grid(200, 7) and a 60-140 dB balanced sweep
# (median 4.5e-11, 99th percentile 8.0e-10, max 2.4e-9), and 1280 random cells
# were within 0.009 of their bounds and 5.3e-15 of a 100-digit reference.
_H0 = 0.1875
_HALVINGS = 5

# The grid's corner c: v = log(fastest rate * y) = t - exp(c - t) is ~t
# above c and thins out double-exponentially below, from v(_T0) <= log(1e-18).
# On those random cells the first grid erred by at most 5.3e-15 for c from -11
# to -16, 1.5e-14 at -10, 2.4e-12 at -4; a unit of c costs ~3% of the nodes.
_CORNER = -12.0
_T0 = _CORNER - math.log(_CORNER - math.log(1e-18))


def _span(rates) -> tuple[float, int]:
    """(shift, intervals) of a node set's first grid given its links' rates:
    ``shift`` is log(fastest rate), and the grid runs from ``_T0`` to just
    past v = log(800 fastest / slowest), where the slowest link's density
    has underflowed (:func:`_cut`).  The ends are differences of logs, so no
    quotient underflows at an extreme rate."""
    shift = math.log(max(rates))
    top = math.log(800.0) - math.log(min(rates)) + shift
    return shift, math.ceil((top + math.exp(_CORNER - top) - _T0) / _H0)


def _graded(t, shift):
    """The nodes y at the points ``t`` of grids of sets with the ``shift``
    of :func:`_span`, and their weights dy/dt = y (1 + exp(c - t))."""
    x = np.exp(_CORNER - t)
    y = np.exp(t - x - shift)
    return y, y * (1.0 + x)


def _integrate(sets):
    """Integrate each integral over y in [0, inf) to its absolute tolerance.

    ``sets`` are node sets, one per decode branch of a point, each
    ``(args, span, integrals)``: ``args`` its (rho, beta_sd, beta_rd,
    alpha_se, alpha_re), ``span`` its first grid (:func:`_span`) and
    ``integrals`` a dict, integral key (see :func:`_integral_key`) ->
    tolerance.  An integral is the trapezoid sum T_h = h sum(g(y) dy/dt)
    over a grid of step h in t (:func:`_graded`).  All integrals advance
    together, one round at a time: the first round evaluates each set's
    grid of step ``_H0``, and each later one the midpoints of the sets that
    still have an open integral, which halves their step.  A round
    evaluates each law that a decode branch's open integrals read once on
    all the branch's new nodes (:class:`_Laws`, each node at its own set's
    rates), and each open integral builds its integrand and envelope from
    them (:func:`_integrand`) and adds its sum over its set's new nodes to
    its total, in node order.  Its bound is |T_h - T_2h| (T_2h from the first
    grid's even nodes, then from the round before) plus a round-off floor
    of 50 eps times the envelope's trapezoid sum, and it closes once that
    is within its tolerance.  No integral's result depends on the others.
    Returns per set a dict, key -> (value, error bound, nodes evaluated).
    Raises :class:`NumericError` when an integrand is not finite, or an
    integral is still open after ``_HALVINGS`` halvings.
    """
    keys = list(dict.fromkeys(key for *_, todo in sets for key in todo))
    tols = np.array([[todo.get(key, np.inf) for key in keys] for *_, todo in sets])
    open_ = np.isfinite(tols)  # (set, key): the integral is open
    table = np.array([args for args, _, _ in sets]).T  # a row per rate, a column per set
    shift = np.array([span[0] for _, span, _ in sets])
    n = np.array([span[1] for _, span, _ in sets])
    on_set = np.array([next(iter(todo))[2] for *_, todo in sets])
    # per integral: its sum over the nodes so far, and its envelope's
    total, env, value, bound = np.zeros((4, *tols.shape))
    evals = np.zeros(tols.shape, dtype=np.int64)
    # One errstate for the whole call: the integrands may overflow or turn
    # NaN, which the finiteness check below reports instead of numpy.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for k in range(_HALVINGS + 1):
            h = _H0 / 2**k
            # each open integral's sums over the round's new nodes: those
            # of even and of odd index in the grid of step h
            even, odd, env_new = np.zeros((3, *tols.shape))
            count = np.where(open_.any(axis=1), n + 1 if k == 0 else n << (k - 1), 0)
            for relay_on in (True, False):
                live = np.flatnonzero(count * (on_set == relay_on))
                if not live.size:
                    continue
                c = count[live]
                node_set = np.repeat(live, c)
                # each node's index in its set's grid: all of them in the
                # first round, the odd ones after
                m = np.arange(node_set.size) - np.repeat(np.cumsum(c) - c, c)
                if k:
                    m = 2 * m + 1
                y, w = _graded(_T0 + h * m, shift[node_set])
                bins = 2 * node_set + (m & 1)
                # one set's rates as floats, several sets' as an array each
                rates = sets[live[0]][0] if live.size == 1 else table[:, node_set]
                laws = _Laws(relay_on, y, *rates)
                envelopes = {}  # per law, its sum per set
                for col in np.flatnonzero(open_[live].any(axis=0)).tolist():
                    on_key = open_[:, col]
                    # the nodes of the sets that the key's integral is open on
                    rows = slice(None) if on_key[live].all() else on_key[node_set]
                    f, e = _integrand(keys[col], lambda *law: laws[law][rows])
                    sums = np.bincount(bins[rows], weights=f * w[rows], minlength=2 * len(sets))
                    if not np.isfinite(sums).all():  # a set sums to inf or NaN where f is one
                        bad = ~np.isfinite(f)
                        found = " and ".join(sorted(set(map(str, f[bad].tolist()))))
                        found += f", first at y = {float(y[rows][bad][0])!r}"
                        raise NumericError(f"quadrature failed: the integrand evaluates to {found}")
                    even[:, col], odd[:, col] = sums.reshape(-1, 2).T
                    if e not in envelopes:
                        envelopes[e] = np.bincount(node_set, weights=laws[e] * w, minlength=len(sets))
                    env_new[:, col] = envelopes[e]  # read only where the integral is open
            evals += open_ * count[:, None]
            # 0 where closed, so a closed integral's sums stay as they were
            coarse = total + even  # the sum at step 2h
            total = coarse + odd
            env += env_new
            np.copyto(value, h * total, where=open_)
            np.copyto(bound, h * np.abs(total - 2.0 * coarse) + 50.0 * _EPS * h * env, where=open_)
            open_ &= ~(bound <= tols)
            if not open_.any():
                break
        else:
            s, col = np.argwhere(open_)[0]
            raise NumericError(
                f"quadrature error bound {bound[s, col]:.3e} exceeds requested tolerance {tols[s, col]:.3e}"
            )
    value, bound, evals = value.tolist(), bound.tolist(), evals.tolist()
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


def _integral_key(scheme: Scheme, csi: CsiMode, metric: Metric, relay_on: bool):
    """The integral one cell needs on one decode branch, keyed by what it
    reads: (metric, CSI mode, decode branch, destination combiner,
    eavesdropper combiner), a combiner None where the relay is silent and
    leaves no combiner to read."""
    m = scheme.mrc_at_destination if relay_on else None
    e = scheme.mrc_at_eavesdropper if relay_on else None
    return metric, csi, relay_on, m, e


# Below about 1e-155 a rate, the product r1 r2 in ``fading.sum_exp_pdf``
# underflows and the density's mass is lost: the integral would miss it
# silently.  Links must be at least this fast (a mean SNR up to ~1505 dB).
_MIN_RATE = 2.0 ** -500


def _check_links(params: SystemParams, keys) -> None:
    """:class:`NumericError` where one of the integrals ``keys`` is an outage
    and a link of the eavesdropper density it integrates is below
    ``_MIN_RATE`` (a rate reads no density)."""
    for metric, _, relay_on, *_ in keys:
        side = (params.alpha_se, params.alpha_re)[: 2 if relay_on else 1]
        if metric is Metric.SOP and min(side) < _MIN_RATE:
            raise NumericError(f"quadrature cannot resolve a link rate below 2^-500 at {params}")


class _Laws(dict):
    """The laws that a round's integrands read, each evaluated at its nodes
    ``y`` on first use: ``laws[name, side, mrc]`` is the destination's
    ("m") or the eavesdropper's ("e") SNR "pdf" (cut, :func:`_cut`), "cdf"
    or "cdf_rho" (the CDF at rho (1 + y) - 1) for the combiner ``mrc`` (see
    :func:`_snr_dist`), or "inv1p", 1 / (1 + y).  Each rate is a float or
    an array of one per node."""

    def __init__(self, relay_on, y, rho, sd, rd, se, re):
        n = 2 if relay_on else 1  # a silent relay's laws read no relayed rate
        self.relay_on, self.y, self.rho = relay_on, y, rho
        self.rates = {"m": (sd, rd)[:n], "e": (se, re)[:n]}

    def __missing__(self, law):
        name, side, mrc = law
        y = self.y
        if name == "inv1p":
            v = 1.0 / (1.0 + y)
        else:
            cdf, pdf = _snr_dist(self.relay_on, mrc)
            z = self.rho * (1.0 + y) - 1.0 if name == "cdf_rho" else y
            v = _cut(pdf(*self.rates[side], y)) if name == "pdf" else cdf(*self.rates[side], z)
        self[law] = v
        return v


def _integrand(key, law):
    """The integrand of the integrals keyed ``key`` (see
    :func:`_integral_key`) from the laws ``law(name, side, mrc)`` (see
    :class:`_Laws`), and the law that is its envelope.  An outage is
    f_E(y) (F_M(rho (1 + y) - 1) - [CSI] F_M(y)), enveloped by f_E; a rate,
    E[log(1 + SNR)] by parts in nats, is (F_E(y) - F_M(y)) / (1 + y), or
    F_E(y) (1 - F_M(y)) / (1 + y) with CSI, enveloped by 1 / (1 + y).  The
    probabilities are computed to a few ulps absolute, not relative, so the
    envelope, not |integrand|, scales the round-off floor."""
    metric, csi, _, mrc_m, mrc_e = key
    nocsi = csi is CsiMode.NOCSI
    if metric is Metric.SOP:
        d = "pdf", "e", mrc_e
        f = law("cdf_rho", "m", mrc_m)
        return (f if nocsi else f - law("cdf", "m", mrc_m)) * law(*d), d
    k = "inv1p", None, None
    f_m, f_e = law("cdf", "m", mrc_m), law("cdf", "e", mrc_e)
    return (f_e - f_m if nocsi else f_e * (1.0 - f_m)) * law(*k), k


# What a cell's integral is multiplied by: nats to bpcu for a rate.
_METRIC_FACTOR = {Metric.SOP: 1.0, Metric.ESR: HALF_LOG2E}


# Node sets per :func:`_integrate` call: its node arrays grow with the sets
# it holds, so this bounds its memory.  On a shared 2-vCPU container the six
# presets' quadrature took 99/27.8/26.7/25.4 ms at 1/16/32/64 sets, and the
# largest call of a 63-point curve peaked at 0.79/1.50/2.74 MiB at 16/32/64.
_BATCH_SETS = 32


def quadrature_cells(points, cells, tol: float = DEFAULT_QUAD_TOL):
    """Quadrature of every (scheme, csi, metric) cell at each of ``points``,
    in one call (:func:`fading.check_cells`, :func:`fading.check_points`).

    Each cell mixes the decode branches of :func:`fading.decode_branches`
    with their weights, so ``gamma_th`` = 0 or inf leaves one branch alone.
    A cell reads one integral per branch: its key (see
    :func:`_integral_key`) on the branch's ``fields``, which are its node
    set.  One that several cells or points read is integrated once, and
    the node sets go to :func:`_integrate` :data:`_BATCH_SETS` at a time,
    in the order of their first points (no result depends on what else a
    batch holds).  A point is resolved once its node sets are, and a set's
    integrals are dropped after its last point, so a call holds about one
    batch beyond its results.  Each branch's bound is within ``tol`` on its
    own, so each cell's is too.
    Returns per point one :class:`QuadratureResult` per cell, in order; its
    ``evaluations`` count every integral the cell reads, shared ones
    included.
    """
    fading.check_tolerance(tol, "tol")
    cells = fading.check_cells(cells)
    points = fading.check_points(points)
    # per cell, its factor and, per decode branch, the key it reads
    reads = [(_METRIC_FACTOR[m], {on: _integral_key(s, c, m, on) for on in (True, False)})
             for s, c, m in cells]
    # per decode branch, each key the cells read and its tolerance
    tols = {on: {keys[on]: tol / f for f, keys in reads} for on in (True, False)}
    plans = [fading.decode_branches(params) for params in points]
    last = {}  # per branch's fields, the last point that reads them
    for i, (params, branches) in enumerate(zip(points, plans)):
        for _, relay_on, fields in branches:
            if fields not in last:
                _check_links(params, tols[relay_on])
            last[fields] = i
    found = {}  # per branch's fields until its last point, (value, bound, evaluations) per key
    pending, out = [], []  # (first point, fields, node set) per fields not yet integrated

    def result(factor, keys, branches):
        value, bound, count = 0.0, 0.0, 0
        for weight, relay_on, fields in branches:
            v, b, c = found[fields][keys[relay_on]]
            value += weight * (factor * v)
            bound += weight * (factor * b)
            count += c
        return QuadratureResult(value, bound, count)

    for i, (params, branches) in enumerate(zip(points, plans)):
        for _, relay_on, fields in branches:
            if fields not in found:
                found[fields] = {}
                if tols[relay_on]:
                    args = (params.rho, params.beta_sd, params.beta_rd, params.alpha_se, params.alpha_re)
                    pending.append((i, fields, (args, _span(fields[1:]), tols[relay_on])))
        while len(pending) >= _BATCH_SETS or pending and i == len(points) - 1:
            batch, pending = pending[:_BATCH_SETS], pending[_BATCH_SETS:]
            for (_, fields, _), results in zip(batch, _integrate([node_set for *_, node_set in batch])):
                found[fields].update(results)
        # the points whose node sets are all integrated, in order
        for j in range(len(out), pending[0][0] if pending else i + 1):
            out.append([result(factor, keys, plans[j]) for factor, keys in reads])
            for *_, fields in plans[j]:
                if last[fields] == j:
                    del found[fields]
    return out


def quadrature_sop(
    params: SystemParams, scheme: Scheme, csi: CsiMode, tol: float = DEFAULT_QUAD_TOL
) -> QuadratureResult:
    """Outage probability by quadrature (one :func:`quadrature_cells` cell)."""
    return quadrature_cells([params], ((scheme, csi, Metric.SOP),), tol)[0][0]


def quadrature_esr(
    params: SystemParams, scheme: Scheme, csi: CsiMode, tol: float = DEFAULT_QUAD_TOL
) -> QuadratureResult:
    """Ergodic secrecy rate (bpcu) by quadrature (one :func:`quadrature_cells` cell)."""
    return quadrature_cells([params], ((scheme, csi, Metric.ESR),), tol)[0][0]
