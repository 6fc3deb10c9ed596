"""Outside-in tracing of secrelay's layers.

The package is not instrumented.  For a traced phase the benchmark swaps
the public functions each layer offers to its callers for timing wrappers
(module attributes, which the package resolves at call time), and puts the
originals back afterwards.  Every wrapper opens a span on a stack; when the
span closes its duration is charged to its parent's children, so a span's
self time is its duration minus the time its child spans cover.  Spans are
aggregated per name as they close (calls, inclusive ns, self ns) rather
than stored one by one: the closed-form layers make millions of calls in a
run.  Because every span is nested in one ``bench.job`` root span per job,
the self times of all spans add up to the traced wall time of the jobs.

Spans, by layer (the layer is the name's first component):

=============  ==============================================================
sweep          ``run_sweep``, ``write_csv``, ``run_validation``
closed_form    ``sop``/``esr`` (split into ``closed_form.limit_form`` when the
               result is tagged ``limit_form``) and the rejected-variant check
expint         ``eiexp`` as imported by ``closed_form`` and ``asymptotics``
asymptotics    the five public asymptote/floor functions ``sweep`` calls
oracles        ``monte_carlo_all``, ``quadrature_sop``, ``quadrature_esr``
kernels        ``reduce_trials``
fading         ``trial_stream`` and the uniform draws from the stream it
               returns; the six distribution functions the quadrature
               integrands call are counted (see ``Tracer``), not timed
bench          the benchmark's own job closure
=============  ==============================================================

``cli`` has no span: the jobs enter through ``sweep``, and the cost a
``secrelay`` user pays in ``cli`` is its import, which the set-up probe
times (``cli.import_ms``).
"""

from __future__ import annotations

import contextlib
import tracemalloc
from time import perf_counter_ns

from secrelay import asymptotics, closed_form, fading, kernels, oracles, sweep
from secrelay.closed_form import Method

LAYERS = (
    "bench", "sweep", "closed_form", "expint", "asymptotics", "oracles", "kernels", "fading",
)

# Units of the per-layer metrics a traced run prints, in BENCHMARK.json order.
UNITS = {
    **{f"{layer}.self_ms": "ms/job" for layer in LAYERS},
    "oracles.monte_carlo_all.self_ms": "ms/job",
    "trace.wall_ms": "ms/job",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.untraced_cells_per_s": "1/s",
    "trace.traced_cells_per_s": "1/s",
    "trace.calibration_loop_ms": "ms",
    "split.mc_share": "frac",
    "split.quad_share": "frac",
    "split.closed_form_share": "frac",
    "cli.import_ms": "ms",
    "fading.uniforms_ns_per_trial": "ns",
    "kernels.reduce_ns_per_trial": "ns",
    "kernels.bytes_per_trial_computed": "B",
    "oracles.quadrature_sop.ms_per_call": "ms",
    "oracles.quadrature_esr.ms_per_call": "ms",
    "oracles.quad_evals_per_call": "count",
    "fading.dist_calls_per_quad_call": "count",
    "closed_form.sop.us_per_call": "us",
    "closed_form.esr.us_per_call": "us",
    "expint.eiexp.calls": "count/job",
    "expint.eiexp.ns_per_call": "ns",
    "asymptotics.us_per_call": "us",
    "sweep.write_csv.ms": "ms",
    "closed_form.limit_form_cells": "count/job",
    "closed_form.limit_form.ms_per_call": "ms",
}

_ASYMPTOTE_FUNCTIONS = (
    "sop_asymptote_balanced",
    "sop_asymptote_unbalanced",
    "esr_saturation_case2_mrc_sc",
    "sop_perfect_decoding",
    "sop_wiretap",
)
_DIST_FUNCTIONS = (
    "exp_cdf", "exp_pdf", "sum_exp_cdf", "sum_exp_pdf", "max_exp_cdf", "max_exp_pdf",
)

# Exclusive groups of span names behind the MC / quadrature / closed-form
# split of a workload's traced wall time.
SPLIT = {
    "mc": ("oracles.monte_carlo_all", "fading.trial_stream", "fading.uniforms",
           "kernels.reduce_trials"),
    "quad": ("oracles.quadrature_sop", "oracles.quadrature_esr"),
    "closed_form": ("closed_form.sop", "closed_form.esr", "closed_form.limit_form",
                    "closed_form.esr_variant", "expint.eiexp"),
}


class Tracer:
    """Span statistics for one traced phase; ``installed()`` patches the layers."""

    def __init__(self, count_dist_calls: bool = False):
        """``count_dist_calls`` also wraps the six distribution functions the
        quadrature integrands call.  At ~0.2 us a wrapper against ~0.4 us a
        call that inflates quadrature times by a fifth, so the benchmark
        counts them in a separate round, not in the timed traced phase."""
        self.stats: dict[str, list[int]] = {}  # name -> [calls, inclusive ns, self ns]
        self.counts: dict[str, int] = {}
        self._dist_calls = [0] if count_dist_calls else None
        self._stack: list[list[int]] = []
        self._last_mc_call = None
        self._root_stat = self._fixed("bench.job")

    # -- span bookkeeping ---------------------------------------------------

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0, 0])

    def _call(self, fn, args, kwargs, stat_of):
        """Run ``fn`` as a span; ``stat_of(result)`` picks the statistics it
        is charged to (None when ``fn`` raised)."""
        frame = [0]
        stack = self._stack
        stack.append(frame)
        out = None
        t0 = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            dur = perf_counter_ns() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dur
            stat = stat_of(out)
            stat[0] += 1
            stat[1] += dur
            stat[2] += dur - frame[0]

    def _fixed(self, name):
        stat = self._stat(name)
        return lambda _out: stat

    def _span(self, name, fn):
        stat_of = self._fixed(name)

        def wrapper(*args, **kwargs):
            return self._call(fn, args, kwargs, stat_of)
        return wrapper

    def _count(self, cell, fn):
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def root(self, fn):
        """Run one job inside the ``bench.job`` root span."""
        return self._call(fn, (), {}, self._root_stat)

    @property
    def depth(self) -> int:
        return len(self._stack)

    # -- layer wrappers -----------------------------------------------------

    def _metric_span(self, name, fn):
        # A SecrecyMetric tagged limit_form came from the quadrature limit
        # path; keep those calls out of the closed-form per-call figures.
        stat, limit = self._stat(name), self._stat("closed_form.limit_form")

        def stat_of(out):
            return limit if out is not None and out.method is Method.LIMIT_FORM else stat
        return lambda *a, **k: self._call(fn, a, k, stat_of)

    def _quad_span(self, name, fn):
        counts = self.counts
        counts.setdefault("oracles.quad_evals", 0)
        stat = self._stat(name)

        def stat_of(out):
            if out is not None:
                counts["oracles.quad_evals"] += out.evaluations
            return stat
        return lambda *a, **k: self._call(fn, a, k, stat_of)

    def _kernel_span(self, fn):
        counts = self.counts
        counts.setdefault("kernels.trials", 0)
        stat_of = self._fixed("kernels.reduce_trials")

        def wrapper(u, rates, gamma_th, rho, backend=None):
            counts["kernels.trials"] += u.shape[0]
            self._last_mc_call = (u.shape, rates, gamma_th, rho, backend)
            return self._call(fn, (u, rates, gamma_th, rho, backend), {}, stat_of)
        return wrapper

    def _stream_span(self, fn):
        tracer = self
        counts = self.counts
        counts.setdefault("fading.uniform_trials", 0)
        uniforms, stream = self._fixed("fading.uniforms"), self._fixed("fading.trial_stream")

        class TimedGenerator:
            def __init__(self, gen):
                self._gen = gen

            def random(self, size):
                counts["fading.uniform_trials"] += size[0]
                return tracer._call(self._gen.random, (size,), {}, uniforms)

        def wrapper(*args, **kwargs):
            return TimedGenerator(self._call(fn, args, kwargs, stream))
        return wrapper

    def _patches(self):
        plain = [
            (sweep, "run_sweep", "sweep.run_sweep"),
            (sweep, "write_csv", "sweep.write_csv"),
            (sweep, "run_validation", "sweep.run_validation"),
            (closed_form, "esr_mrc_sc_csi_variant", "closed_form.esr_variant"),
            (closed_form, "eiexp", "expint.eiexp"),
            (asymptotics, "eiexp", "expint.eiexp"),
            *((asymptotics, attr, f"asymptotics.{attr}") for attr in _ASYMPTOTE_FUNCTIONS),
            (oracles, "monte_carlo_all", "oracles.monte_carlo_all"),
        ]
        for module, attr, name in plain:
            yield module, attr, self._span(name, getattr(module, attr))
        for attr in ("sop", "esr"):
            fn = getattr(closed_form, attr)
            yield closed_form, attr, self._metric_span(f"closed_form.{attr}", fn)
        for attr in ("quadrature_sop", "quadrature_esr"):
            yield oracles, attr, self._quad_span(f"oracles.{attr}", getattr(oracles, attr))
        yield kernels, "reduce_trials", self._kernel_span(kernels.reduce_trials)
        yield fading, "trial_stream", self._stream_span(fading.trial_stream)
        if self._dist_calls is not None:
            for attr in _DIST_FUNCTIONS:
                yield fading, attr, self._count(self._dist_calls, getattr(fading, attr))

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into the package's modules for the ``with`` body."""
        saved = []
        try:
            for module, attr, wrapper in self._patches():
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- derived figures ----------------------------------------------------

    def kernel_bytes_per_trial(self) -> float:
        """Computed bytes per trial the MC reduction holds at its peak.

        The last traced ``reduce_trials`` call is repeated, untraced, on a
        fresh block of the same shape under ``tracemalloc``, which sees
        numpy's array allocations: the figure is the input block plus the
        kernel's peak temporaries, computed from array sizes (no hardware
        counters), per trial.  0 when the workload ran no Monte Carlo.
        """
        if self._last_mc_call is None:
            return 0.0
        shape, rates, gamma_th, rho, backend = self._last_mc_call
        u = fading.trial_stream(0).random(shape)
        tracemalloc.start()
        try:
            kernels.reduce_trials(u, rates, gamma_th, rho, backend=backend)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (u.nbytes + peak) / shape[0]

    def dist_calls_per_quad_call(self) -> float:
        """Distribution-function calls per ``quadrature_sop``/``_esr`` call
        (exact counts; needs ``count_dist_calls``)."""
        quad_calls = sum(self.stats.get(n, (0,))[0]
                         for n in ("oracles.quadrature_sop", "oracles.quadrature_esr"))
        return self._dist_calls[0] / quad_calls if quad_calls else 0.0

    def layer_metrics(self, jobs: int, wall_ns: int) -> dict[str, float]:
        """Per-layer figures of this phase, keyed by the BENCHMARK.json names."""
        st = self.stats
        counts = self.counts

        def calls(*names):
            return sum(st.get(n, (0, 0, 0))[0] for n in names)

        def incl(*names):
            return sum(st.get(n, (0, 0, 0))[1] for n in names)

        def self_ns(*names):
            return sum(st.get(n, (0, 0, 0))[2] for n in names)

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        def per_call(scale, *names):
            return per(incl(*names), calls(*names), scale)

        by_layer = {layer: 0 for layer in LAYERS}
        for name, (_, _, s) in st.items():
            by_layer[name.split(".", 1)[0]] += s
        self_total = sum(by_layer.values())

        asym = [f"asymptotics.{n}" for n in _ASYMPTOTE_FUNCTIONS]
        quad_calls = calls("oracles.quadrature_sop", "oracles.quadrature_esr")
        out = {f"{layer}.self_ms": per(ns, jobs, 1e-6) for layer, ns in by_layer.items()}
        out.update({
            "oracles.monte_carlo_all.self_ms": per(self_ns("oracles.monte_carlo_all"), jobs, 1e-6),
            "trace.wall_ms": per(wall_ns, jobs, 1e-6),
            "trace.unattributed_frac": per(wall_ns - self_total, wall_ns),
            "fading.uniforms_ns_per_trial":
                per(incl("fading.uniforms"), counts["fading.uniform_trials"]),
            "kernels.reduce_ns_per_trial":
                per(incl("kernels.reduce_trials"), counts["kernels.trials"]),
            "oracles.quadrature_sop.ms_per_call": per_call(1e-6, "oracles.quadrature_sop"),
            "oracles.quadrature_esr.ms_per_call": per_call(1e-6, "oracles.quadrature_esr"),
            "oracles.quad_evals_per_call": per(counts["oracles.quad_evals"], quad_calls),
            "closed_form.sop.us_per_call": per_call(1e-3, "closed_form.sop"),
            "closed_form.esr.us_per_call": per_call(1e-3, "closed_form.esr"),
            "expint.eiexp.calls": per(calls("expint.eiexp"), jobs),
            "expint.eiexp.ns_per_call": per_call(1.0, "expint.eiexp"),
            "asymptotics.us_per_call": per_call(1e-3, *asym),
            "sweep.write_csv.ms": per_call(1e-6, "sweep.write_csv"),
            "closed_form.limit_form_cells": per(calls("closed_form.limit_form"), jobs),
            "closed_form.limit_form.ms_per_call": per_call(1e-6, "closed_form.limit_form"),
        })
        for group, names in SPLIT.items():
            out[f"split.{group}_share"] = per(self_ns(*names), wall_ns)
        return out
