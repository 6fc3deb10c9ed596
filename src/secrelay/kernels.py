"""Monte Carlo reduction kernel: uniforms -> per-scheme outage/rate tallies.

This is the package's hot loop.  Two interchangeable backends compute the
same reduction of a block of sampled uniforms:

* ``numba`` - a jitted scalar loop, no temporaries (default when numba is
  importable);
* ``numpy`` - a vectorized fallback.  It makes some thirty passes over
  per-trial temporaries, so it is fast only while those stay in cache:
  ``oracles.monte_carlo_all`` streams each chunk's Philox stream through
  it in sub-blocks of ``oracles.SUB_BLOCK_TRIALS`` (8192) trials.  A
  sub-block holds ~145 bytes per trial at its peak (the 40-byte uniform
  block plus temporaries), ~1.1 MiB in all, so an MC run needs about that
  much per worker thread whatever its trial count.

Selection: set ``SECRELAY_BACKEND=numpy`` or ``SECRELAY_BACKEND=numba``;
unset picks numba when available.  Within one backend the tallies are
bit-reproducible; across backends they may differ in the last few ulps
because the summation orders differ.  Outage counts are exact in both.

Tally layout (all shape (4,), indexed in ``fading.SCHEME_ORDER``):
outage counts without/with the transmitter-side CSI condition, and sum /
sum-of-squares of the per-trial rate statistic for both CSI conventions.
"""

from __future__ import annotations

import math
import os

import numpy as np

ENV_BACKEND = "SECRELAY_BACKEND"

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only when numba is absent
    numba = None
    HAVE_NUMBA = False

_HALF_LOG2E = 0.5 / math.log(2.0)


def active_backend() -> str:
    """Backend selected by the environment, resolved per call."""
    choice = os.environ.get(ENV_BACKEND, "").strip().lower()
    if choice == "numpy":
        return "numpy"
    if choice == "numba":
        if not HAVE_NUMBA:
            raise RuntimeError(f"{ENV_BACKEND}=numba but numba is not importable")
        return "numba"
    if choice == "":
        return "numba" if HAVE_NUMBA else "numpy"
    raise ValueError(f"unrecognized {ENV_BACKEND}={choice!r} (use 'numba' or 'numpy')")


def _reduce_numpy(u, b_sd, b_sr, b_rd, a_se, a_re, gamma_th, rho):
    n = u.shape[0]
    # One contiguous row per link.  log1p(-u) / -rate is bit-identical to
    # -log1p(-u) / rate: negation is exact.
    g = np.negative(u.T, order="C")
    np.log1p(g, out=g)
    g /= np.array([[-b_sd], [-b_sr], [-b_rd], [-a_se], [-a_re]])
    g_sd, g_sr, g_rd, g_se, g_re = g
    relay = g_sr >= gamma_th
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
    outage = (gm[:, None] < rho * (1.0 + ge) - 1.0).reshape(4, n)
    win = (gm[:, None] > ge).reshape(4, n)
    sop_n = np.array([np.count_nonzero(row) for row in outage], dtype=np.float64)
    outage &= win
    sop_c = np.array([np.count_nonzero(row) for row in outage], dtype=np.float64)

    # Rate statistic log2((1 + gm) / (1 + ge)) / 2, scaled after summing.
    np.log1p(gm, out=gm)
    np.log1p(ge, out=ge)
    cs = g[:4]
    np.subtract(gm[:, None], ge, out=cs.reshape(2, 2, n))
    es = _HALF_LOG2E * cs.sum(axis=1)
    es2 = _HALF_LOG2E**2 * np.array([np.dot(row, row) for row in cs])
    cs *= win
    ec = _HALF_LOG2E * cs.sum(axis=1)
    ec2 = _HALF_LOG2E**2 * np.array([np.dot(row, row) for row in cs])
    return sop_n, sop_c, es, es2, ec, ec2


if HAVE_NUMBA:

    @numba.njit(cache=True, nogil=True)
    def _reduce_numba(u, b_sd, b_sr, b_rd, a_se, a_re, gamma_th, rho):  # pragma: no cover - jitted
        sop_n = np.zeros(4)
        sop_c = np.zeros(4)
        es = np.zeros(4)
        es2 = np.zeros(4)
        ec = np.zeros(4)
        ec2 = np.zeros(4)
        gm = np.empty(4)
        ge = np.empty(4)
        half_log2e = 0.5 / np.log(2.0)
        for i in range(u.shape[0]):
            g_sd = -np.log1p(-u[i, 0]) / b_sd
            g_sr = -np.log1p(-u[i, 1]) / b_sr
            g_rd = -np.log1p(-u[i, 2]) / b_rd
            g_se = -np.log1p(-u[i, 3]) / a_se
            g_re = -np.log1p(-u[i, 4]) / a_re
            if g_sr >= gamma_th:
                m_mrc = g_sd + g_rd
                m_sc = g_sd if g_sd > g_rd else g_rd
                e_mrc = g_se + g_re
                e_sc = g_se if g_se > g_re else g_re
            else:
                m_mrc = g_sd
                m_sc = g_sd
                e_mrc = g_se
                e_sc = g_se
            gm[0] = m_mrc
            ge[0] = e_sc
            gm[1] = m_mrc
            ge[1] = e_mrc
            gm[2] = m_sc
            ge[2] = e_sc
            gm[3] = m_sc
            ge[3] = e_mrc
            for k in range(4):
                if gm[k] < rho * (1.0 + ge[k]) - 1.0:
                    sop_n[k] += 1.0
                    if ge[k] < gm[k]:
                        sop_c[k] += 1.0
                cs = half_log2e * np.log((1.0 + gm[k]) / (1.0 + ge[k]))
                es[k] += cs
                es2[k] += cs * cs
                if gm[k] > ge[k]:
                    ec[k] += cs
                    ec2[k] += cs * cs
        return sop_n, sop_c, es, es2, ec, ec2


def reduce_trials(u, rates, gamma_th, rho, backend=None):
    """Reduce an (n, 5) block of uniforms to the six (4,) tally arrays.

    ``rates`` holds (beta_sd, beta_sr, beta_rd, alpha_se, alpha_re); the
    uniform columns follow the same link order.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    b_sd, b_sr, b_rd, a_se, a_re = (float(r) for r in rates)
    if backend is None:
        backend = active_backend()
    if backend == "numba":
        return _reduce_numba(u, b_sd, b_sr, b_rd, a_se, a_re, float(gamma_th), float(rho))
    return _reduce_numpy(u, b_sd, b_sr, b_rd, a_se, a_re, float(gamma_th), float(rho))
