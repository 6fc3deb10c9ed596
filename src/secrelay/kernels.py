"""Monte Carlo reduction kernel: uniforms -> per-scheme outage/rate tallies.

This is the package's hot loop, a vectorized numpy reduction.  It makes
some thirty passes over per-trial temporaries, so it is fast only while
those stay in cache: ``oracles.monte_carlo_all`` streams each chunk's
Philox stream through it in sub-blocks of ``oracles.SUB_BLOCK_TRIALS``
(8192) trials.  A sub-block holds ~145 bytes per trial at its peak (the
40-byte uniform block plus temporaries), ~1.1 MiB in all, so an MC run
needs about that much per worker thread whatever its trial count.  The
tallies of a block are bit-reproducible.

Tally layout: one (6, 4) float array, its columns in
``fading.SCHEME_ORDER``.  Rows 0 and 1 count outages without/with the
transmitter-side CSI condition; rows 2 and 3 are the sum and the sum of
squares of the per-trial rate statistic without CSI, rows 4 and 5 the same
with CSI.  Tallies of consecutive blocks add up elementwise.
"""

from __future__ import annotations

import numpy as np

from .fading import HALF_LOG2E


def active_backend() -> str:
    """Name of the reduction kernel: always ``"numpy"``, the only one.
    Kept only because perfbench/run.py reports active_backend()."""
    return "numpy"


def reduce_trials(u, rates, gamma_th, rho, backend=None):
    """Reduce an (n, 5) block of uniforms to the (6, 4) tally array of the
    module docstring: rows outage counts, rate sums and sums of squares,
    columns in ``SCHEME_ORDER``.

    ``rates`` holds (beta_sd, beta_sr, beta_rd, alpha_se, alpha_re); the
    uniform columns follow the same link order.  ``backend`` may only be
    None or ``"numpy"``: there is no other kernel.  Kept only because
    perfbench/spans.py passes reduce_trials a ``backend``.
    """
    if backend not in (None, "numpy"):
        raise ValueError(f"unknown Monte Carlo backend {backend!r}: the only kernel is 'numpy'")
    u = np.ascontiguousarray(u, dtype=np.float64)
    n = u.shape[0]
    # One contiguous row per link.  log1p(-u) / -rate is bit-identical to
    # -log1p(-u) / rate: negation is exact.
    g = np.negative(u.T, order="C")
    np.log1p(g, out=g)
    g /= -np.array(rates, dtype=np.float64)[:, None]
    g_sd, g_sr, g_rd, g_se, g_re = g
    relay = g_sr >= float(gamma_th)
    # A silent relay's branches become 0; the SNRs are >= 0, so x + 0 and
    # max(x, 0) both give back the direct branch x exactly.
    g[2::2] *= relay
    gm = np.empty((2, n))  # destination: MRC, SC
    ge = np.empty((2, n))  # eavesdropper: SC, MRC
    np.add(g_sd, g_rd, out=gm[0])
    np.maximum(g_sd, g_rd, out=gm[1])
    np.maximum(g_se, g_re, out=ge[0])
    np.add(g_se, g_re, out=ge[1])

    # Pairs (gm[i], ge[j]) in row-major (i, j) order are SCHEME_ORDER.
    outage = (gm[:, None] < float(rho) * (1.0 + ge) - 1.0).reshape(4, n)
    win = (gm[:, None] > ge).reshape(4, n)
    t = np.empty((6, 4))
    t[0] = [np.count_nonzero(row) for row in outage]
    outage &= win
    t[1] = [np.count_nonzero(row) for row in outage]

    # Rate statistic log2((1 + gm) / (1 + ge)) / 2, scaled after summing.
    np.log1p(gm, out=gm)
    np.log1p(ge, out=ge)
    cs = g[:4]
    np.subtract(gm[:, None], ge, out=cs.reshape(2, 2, n))
    t[2] = cs.sum(axis=1)
    t[3] = [np.dot(row, row) for row in cs]
    cs *= win
    t[4] = cs.sum(axis=1)
    t[5] = [np.dot(row, row) for row in cs]
    t[2::2] *= HALF_LOG2E
    t[3::2] *= HALF_LOG2E**2
    return t
