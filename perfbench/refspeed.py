"""Reference-speed timing: job times scaled by a calibration loop run next to them.

The benchmark runs on shared machines whose speed drifts by up to 2x over
tens of seconds (other tenants' load on the same cores and memory).  Every
job time is therefore multiplied by ``ref / c``, where ``c`` is the median
time of a calibration loop over the jobs around it and ``ref`` that loop's
time on the machine the bounds were set on: the result is the time the job
would take there.

A loop tracks a job only if it stresses the machine the same way, so each
workload names one of two loops:

* ``interpreter``: ``scipy.integrate.quad`` over Python integrands, i.e.
  interpreted scalar math between calls into compiled code, like the
  closed forms, the quadrature oracle and the sweep/CSV layer;
* ``numpy``: Philox uniforms and element-wise passes over a 2.5 MiB block,
  like the Monte Carlo reduction.

Probed on a 2-vCPU Intel Xeon VM over 20 s windows while its speed swung,
the inter-quartile spread of the jobs' wall time was 13-21% of its median
and of their ratio to the matching loop 3-7%; a pure-Python loop tracked
the closed-form jobs less well (4-9%).  The loops are the benchmark's own
frozen code and never call secrelay, so a change to the package cannot
move them.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter_ns

import numpy as np
from numpy.random import Generator, Philox
from scipy.integrate import quad

# Jobs on each side whose loop times give a job's local machine speed.
WINDOW = 8


def _interpreter_loop():
    for i in range(12):
        a, b = 0.3 + 0.1 * i, 0.2 + 0.05 * i

        def f(t):
            om = 1.0 - t
            y = t / om
            d = a * math.exp(-a * y)
            if d < 1e-300:
                return 0.0
            return (-math.expm1(-b * (1.0 + 2.0 * y)) + math.expm1(-1.3 * y)) * d / (om * om)

        quad(f, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=200)


_KEY = np.array([12345, 678], dtype=np.uint64)


def _numpy_loop():
    u = Generator(Philox(key=_KEY)).random((1 << 16, 5))
    g = [-np.log1p(-u[:, j]) / r for j, r in enumerate((0.5, 0.1, 0.5, 1.0, 0.5))]
    relay = g[1] >= 2.0
    m = np.where(relay, g[0] + g[2], g[0])
    e = np.where(relay, np.maximum(g[3], g[4]), g[3])
    np.count_nonzero(m < 4.0 * (1.0 + e) - 1.0)
    np.log((1.0 + m) / (1.0 + e)).sum()


# kind -> (loop, its median time in seconds on the reference machine: a
# 2-vCPU Intel Xeon VM, CPython 3.11, numpy 2.4, scipy 1.17)
LOOPS = {
    "interpreter": (_interpreter_loop, 1.5e-3),
    "numpy": (_numpy_loop, 10.0e-3),
}


def loop_s(kind: str) -> float:
    """Time one pass of the ``kind`` calibration loop, in seconds."""
    loop = LOOPS[kind][0]
    t0 = perf_counter_ns()
    loop()
    return (perf_counter_ns() - t0) / 1e9


def scale(kind: str, times: list[float], loops: list[float]) -> list[float]:
    """Reference-speed versions of ``times``; ``loops[i]`` was timed right
    after ``times[i]``."""
    ref = LOOPS[kind][1]
    return [
        t * ref / statistics.median(loops[max(0, i - WINDOW):i + WINDOW + 1])
        for i, t in enumerate(times)
    ]
