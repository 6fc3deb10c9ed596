"""Tests for the per-sweep store of decode-branch results.

``run_sweep`` gives the closed forms (``closed_form.cells``) and the
quadrature oracle (``oracles.quadrature_cells``) each a store that lives for
one call; a branch value or integral whose fields the swept axis does not
reach is computed once per curve.  The rows must be the bits of fresh,
unshared calls at every point.
"""

import concurrent.futures
import dataclasses
import io
import sys
import tracemalloc
import warnings
from collections import Counter

import pytest

from secrelay import asymptotics, closed_form, oracles
from secrelay.cli import main
from secrelay.errors import DomainError, NumericError
from secrelay.fading import SCHEME_ORDER, CsiMode, Scheme, params_from_db
from secrelay.sweep import (
    PRESET_NAMES,
    QUAD_SLICE,
    Axis,
    Metric,
    QuadOracle,
    SweepSpec,
    Variant,
    figure_preset,
    run_sweep,
    write_csv,
)

BASE = params_from_db(0.0, 3.0, 3.0, 10.0, 3.0, 3.0, 1.0)
ALL_CELLS = [(s, c, m) for m in Metric for c in CsiMode for s in SCHEME_ORDER]
# cells the evaluators reject: an unknown metric, and the names, not the
# members, of a metric, a scheme and a CSI mode
BAD_CELLS = [
    (Scheme.MRC_SC, CsiMode.CSI, "mean"),
    (Scheme.MRC_SC, CsiMode.CSI, "sop"),
    ("mrc_sc", CsiMode.CSI, Metric.SOP),
    (Scheme.MRC_SC, "csi", Metric.SOP),
]


def _point(params, axis, value_db):
    # the parameters of one axis point, written out independently of sweep
    if axis is Axis.GAMMA_TH_DB:
        return params.with_(gamma_th=10.0 ** (value_db / 10.0))
    rate = 10.0 ** (-value_db / 10.0)
    return params.with_(**{
        Axis.BALANCED_SNR_DB: dict(beta_sr=rate, beta_rd=rate),
        Axis.BETA_RD_DB: dict(beta_rd=rate),
        Axis.BETA_SR_DB: dict(beta_sr=rate),
    }[axis])


def _unshared(spec, rows):
    """``rows`` with the value and oracle columns recomputed by per-cell
    ``closed_form.sop``/``esr`` calls and one store-less
    ``quadrature_cells`` call per point."""
    variants = {v.label: v for v in spec.variants}
    points = {}
    for r in rows:
        points.setdefault((r.variant, r.axis_value_db), []).append(r)
    out = []
    for (label, value_db), point_rows in points.items():
        variant = variants[label]
        params = _point(spec.fixed.with_(**dict(variant.overrides)), variant.axis or spec.axis,
                        value_db)
        cells = [(r.scheme, r.csi, r.metric) for r in point_rows]
        quad = [None] * len(cells)
        if isinstance(spec.oracle, QuadOracle):
            quad = [q.value for q in oracles.quadrature_cells([params], cells, spec.oracle.tol)[0]]
        for r, q in zip(point_rows, quad):
            fn = closed_form.sop if r.metric is Metric.SOP else closed_form.esr
            value = fn(params, r.scheme, r.csi).value
            out.append(r._replace(value=value, oracle_value=q))
    return out


def csv_text(rows):
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


@pytest.mark.parametrize("quad", [False, True], ids=["shipped", "quad"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_rows_are_the_bits_of_unshared_calls(name, quad):
    spec = figure_preset(name)
    if quad:
        spec = dataclasses.replace(spec, oracle=QuadOracle(1e-9))
    rows = run_sweep(spec)
    assert rows == _unshared(spec, rows)


@pytest.mark.parametrize("name", ["fig4", "fig5"])
def test_shared_quadrature_is_thread_invariant(name, capsys):
    args = ["sweep", "--preset", name, "--quad-tol", "1e-9"]
    assert main(args + ["--jobs", "1"]) == 0
    one_job = capsys.readouterr().out
    assert main(args + ["--jobs", "4"]) == 0
    assert capsys.readouterr().out == one_job
    spec = dataclasses.replace(figure_preset(name), oracle=QuadOracle(1e-9))
    rows = run_sweep(spec, n_jobs=4)
    assert csv_text(rows) == one_job
    assert rows == _unshared(spec, rows)


@pytest.mark.parametrize("oracle", [None, QuadOracle(1e-6)], ids=["closed_form", "quad"])
def test_store_slots_shared_by_racing_threads(oracle):
    # 8 curves of 3 points each on 8 threads, switching every microsecond:
    # each silent-relay slot flips between the curves' direct links while
    # other threads read it, the curves' rate cells share the store's eiexp
    # cache, and every row must still be its own bits
    spec = SweepSpec(
        Axis.GAMMA_TH_DB, 0.0, 4.0, 2.0, BASE, metrics=(Metric.SOP, Metric.ESR), oracle=oracle,
        variants=tuple(Variant(f"sd{k}", (("beta_sd", 0.25 * (k + 1)),)) for k in range(8)),
    )
    expected = run_sweep(spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            runs = [pool.submit(run_sweep, spec, 8) for _ in range(2)]
            results = [f.result(timeout=120) for f in runs]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected, expected]
    assert expected == _unshared(spec, expected)


def _counted_integrate(monkeypatch):
    batches = []
    integrate = oracles._integrate

    def counted(sets):
        batches.append(sum(len(integrals) for *_, integrals in sets))
        return integrate(sets)

    monkeypatch.setattr(oracles, "_integrate", counted)
    return batches


def test_threshold_curves_integrate_at_their_first_point_only(monkeypatch):
    # fig4 sweeps gamma_th, which no integral reads: each of its 2 curves
    # integrates its 4 integrals (2 CSI modes x 2 branches) at its first
    # point, and its other 40 points only mix them
    batches = _counted_integrate(monkeypatch)
    spec = dataclasses.replace(figure_preset("fig4"), oracle=QuadOracle(1e-9))
    rows = run_sweep(spec)
    assert len(rows) == 2 * 41 * 2
    assert batches == [4, 4]


def _counted_branches(monkeypatch):
    # the decode-branch evaluations of closed_form.cells and the public
    # conditionals
    calls = Counter()
    conditional = closed_form._conditional

    def counted(store, metric, params, scheme, csi, relay_on):
        calls[relay_on] += 1
        return conditional(store, metric, params, scheme, csi, relay_on)

    monkeypatch.setattr(closed_form, "_conditional", counted)
    return calls


def test_balanced_curves_share_the_silent_relay_branch(monkeypatch):
    # the balanced axis moves beta_rd, so the decoding branch is computed at
    # every point; the silent-relay branch reads no swept field and no
    # scheme: once per curve and (metric, CSI mode) pair
    batches = _counted_integrate(monkeypatch)
    calls = _counted_branches(monkeypatch)
    spec = SweepSpec(
        Axis.BALANCED_SNR_DB, 0.0, 20.0, 5.0, BASE, metrics=(Metric.SOP, Metric.ESR),
        oracle=QuadOracle(1e-9),
        variants=(Variant("a", (("alpha_se", 0.5),)), Variant("b", (("alpha_se", 2.0),))),
    )
    assert len(run_sweep(spec)) == 2 * 5 * 16
    assert calls == {False: 2 * 4, True: 2 * 5 * 16}
    # one batch per curve (its 5 points are one slice): per point 20
    # decoding-branch integrals, and the 6 silent-relay ones (2 outages,
    # 2 + 2 rate sides) once
    assert batches == [5 * 20 + 6] * 2


def _entries(value, seen=None):
    """Values a store holds, with the values kept by every ``lru_cache`` its
    slots reach through ``__wrapped__`` and closures, each cache once."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, dict):
        return sum(1 + _entries(v, seen) for v in value.values())
    if isinstance(value, tuple):
        return sum(_entries(v, seen) for v in value)
    if not callable(value):
        return 0
    n = value.cache_info().currsize if hasattr(value, "cache_info") else 0
    cells = getattr(value, "__closure__", None) or ()
    reached = [getattr(value, "__wrapped__", None), *(c.cell_contents for c in cells)]
    return n + sum(_entries(v, seen) for v in reached if v is not None)


def _store_sizes(monkeypatch):
    sizes = {}
    cells, quadrature_cells = closed_form.cells, oracles.quadrature_cells

    def cf_counted(params, cells_, shared=None):
        out = cells(params, cells_, shared)
        sizes["closed_form"] = max(sizes.get("closed_form", 0), _entries(shared))
        return out

    def quad_counted(points, cells_, tol, shared=None):
        out = quadrature_cells(points, cells_, tol, shared)
        sizes["quadrature"] = max(sizes.get("quadrature", 0), len(shared))
        return out

    monkeypatch.setattr(closed_form, "cells", cf_counted)
    monkeypatch.setattr(oracles, "quadrature_cells", quad_counted)
    return sizes


def test_store_size_does_not_grow_with_the_axis(monkeypatch):
    # the closed-form store's branch values, functionals and the values
    # their caches keep, the CSI rate's cross terms in the eiexp cache
    # included; 50 points fill every cache, and both axes cross
    # beta_rd == beta_sd at 3 dB, where the sum combiners fill their
    # phi[s1, s2] caches
    sizes = _store_sizes(monkeypatch)
    spec = SweepSpec(
        Axis.BALANCED_SNR_DB, 0.0, 4.9, 0.1, BASE, modes=(CsiMode.NOCSI, CsiMode.CSI),
        metrics=(Metric.SOP, Metric.ESR), oracle=QuadOracle(1e-6),
    )
    assert len(run_sweep(spec)) == 50 * 16
    short = dict(sizes)
    sizes.clear()
    long_spec = dataclasses.replace(spec, stop_db=39.9)
    assert len(run_sweep(long_spec)) == 400 * 16
    assert short.keys() == sizes.keys() == {"closed_form", "quadrature"}
    assert sizes["closed_form"] <= short["closed_form"]
    assert sizes["quadrature"] <= short["quadrature"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_equal_rate_sweep_is_the_bits_of_one_cell_calls(jobs):
    # beta_rd crosses beta_sd (3 dB) at an axis point, where the sum
    # combiners take divided differences; what the functionals and eiexp
    # caches share along a curve, or between the curves of two eavesdropper
    # settings, must not move a bit
    spec = SweepSpec(
        Axis.BETA_RD_DB, 0.0, 30.0, 1.0, BASE, metrics=(Metric.SOP, Metric.ESR), asymptote=True,
        variants=(Variant("a"), Variant("b", (("alpha_se", 2.0), ("rate_rs", 0.5)))),
    )
    rows = run_sweep(spec, n_jobs=jobs)
    assert BASE.beta_sd in {10.0 ** (-r.axis_value_db / 10.0) for r in rows}
    assert rows == _unshared(spec, rows)


_SLICED_SPECS = {
    **{name: dataclasses.replace(figure_preset(name), oracle=QuadOracle(1e-9))
       for name in PRESET_NAMES},
    # 41 points of all 16 cells: a full slice and a short one
    "beta_rd_41": SweepSpec(
        Axis.BETA_RD_DB, -10.0, 70.0, 2.0, BASE, metrics=(Metric.SOP, Metric.ESR),
        oracle=QuadOracle(1e-9),
    ),
}


def _recorded_batches(monkeypatch):
    batches = []
    quadrature_cells = oracles.quadrature_cells

    def recorded(points, cells, tol, shared=None):
        out = quadrature_cells(points, cells, tol, shared)
        batches.append((points, cells, tol, out))
        return out

    monkeypatch.setattr(oracles, "quadrature_cells", recorded)
    return batches


@pytest.mark.parametrize("name", sorted(_SLICED_SPECS))
def test_sliced_quadrature_equals_one_point_calls(name, monkeypatch):
    # at every point of every slice, each cell's value, bound and evaluation
    # count are those of a one-point call without a store
    batches = _recorded_batches(monkeypatch)
    spec = _SLICED_SPECS[name]
    run_sweep(spec)
    monkeypatch.undo()
    axis = len(spec.axis_values())
    sizes = [len(points) for points, *_ in batches]
    assert sum(sizes) == axis * len(spec.variants)
    assert max(sizes) == min(QUAD_SLICE, axis)
    for points, cells, tol, out in batches:
        for params, results in zip(points, out, strict=True):
            assert results == oracles.quadrature_cells([params], cells, tol)[0]


def test_quadrature_sweep_memory_does_not_grow_with_the_axis(monkeypatch):
    # a 400-point sweep of all 16 cells: what a batch allocates beyond what
    # was live when it started is bounded by the slice size, not by the axis
    peaks = []
    quadrature_cells = oracles.quadrature_cells

    def measured(points, cells, tol, shared=None):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = quadrature_cells(points, cells, tol, shared)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(oracles, "quadrature_cells", measured)
    spec = SweepSpec(
        Axis.BALANCED_SNR_DB, 0.0, 39.9, 0.1, BASE, metrics=(Metric.SOP, Metric.ESR),
        oracle=QuadOracle(1e-9),
    )
    tracemalloc.start()
    try:
        assert len(run_sweep(spec)) == 400 * 16
    finally:
        tracemalloc.stop()
    assert len(peaks) == -(-400 // QUAD_SLICE)
    assert max(peaks) < 3 * 2**20


# Eavesdropper links at -3000 dB on a 3-point threshold sweep: the MRC
# eavesdropper transform evaluates to NaN in the decoding branch, which
# every point of the curve shares.  SC-MRC has no threshold floor, so the
# fault is the first point's.
_SHARED_FAULT = [
    "sweep", "--axis", "gamma-th-db", "--from-db", "0", "--to-db", "2", "--step-db", "1",
    "--alpha-se-db", "-3000", "--alpha-re-db", "-3000", "--beta-sd-db", "10",
    "--rate-rs", "3", "--csi", "nocsi", "--scheme", "sc_mrc",
]
_SHARED_FAULT_ERR = (
    "secrelay: numeric failure: sc_mrc/nocsi with the relay on evaluates to nan at "
    "SystemParams(alpha_se=1e+300, alpha_re=1e+300, beta_sd=0.1, beta_sr=0.1, "
    "beta_rd=0.5011872336272722, gamma_th=1.0, rate_rs=3.0)\n"
)


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_fault_in_a_shared_branch_is_the_first_points(jobs, capsys):
    assert main(_SHARED_FAULT + ["--jobs", jobs]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _SHARED_FAULT_ERR


def test_non_finite_integrand_is_named_without_warnings(capsys):
    # the same shared branch under the quadrature oracle: its integrand
    # overflows, then turns NaN, and the run names both without letting
    # numpy's RuntimeWarnings through
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(_SHARED_FAULT + ["--quad-tol", "1e-9"]) == 3
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "secrelay: numeric failure: quadrature failed: the integrand evaluates to inf and nan, "
        "first at y = "
    )


def test_faults_raise_in_cell_order(monkeypatch):
    # a slice's closed forms run in one call, point by point in cell order,
    # before any of its asymptote lines: a closed form failing at a later
    # cell or point raises before a line failing at the first cell of the
    # first point, and the earlier of two failing cells wins
    monkeypatch.setattr(
        asymptotics, "sop_asymptote_balanced",
        lambda params, scheme, csi: asymptotics.Asymptote(0.0, 1e308),
    )
    conditional = closed_form._conditional

    def failing(store, metric, params, scheme, csi, relay_on):
        if scheme in (Scheme.SC_SC, Scheme.SC_MRC):
            raise NumericError(f"{scheme.value} cell")
        return conditional(store, metric, params, scheme, csi, relay_on)

    spec = SweepSpec(Axis.BALANCED_SNR_DB, -10.0, -10.0, 1.0, BASE, asymptote=True)
    with pytest.raises(NumericError, match="Asymptote"):
        run_sweep(spec)
    monkeypatch.setattr(closed_form, "_conditional", failing)
    with pytest.raises(NumericError, match="sc_sc cell"):
        run_sweep(spec)
    # one closed-form call per slice, with no cell-by-cell rerun on a fault
    calls = []
    cells = closed_form.cells
    monkeypatch.setattr(closed_form, "cells", lambda *args: calls.append(1) or cells(*args))
    with pytest.raises(NumericError, match="sc_sc cell"):
        run_sweep(dataclasses.replace(spec, asymptote=False))
    assert len(calls) == 1
    # a curve of two points (-10 and 10 dB) is one slice: its second
    # point's closed form fails before the first point's line
    def failing_above_0_db(store, metric, params, *rest):
        fn = failing if params.beta_rd < 1.0 else conditional
        return fn(store, metric, params, *rest)

    monkeypatch.setattr(closed_form, "cells", cells)
    monkeypatch.setattr(closed_form, "_conditional", failing_above_0_db)
    with pytest.raises(NumericError, match="sc_sc cell"):
        run_sweep(dataclasses.replace(spec, stop_db=10.0, step_db=20.0))


_CURVE_SPECS = {
    **{name: figure_preset(name) for name in PRESET_NAMES},
    # 41 points of all 16 cells, crossing beta_rd == beta_sd at 3 dB
    "beta_rd_41": SweepSpec(
        Axis.BETA_RD_DB, -10.0, 70.0, 2.0, BASE, metrics=(Metric.SOP, Metric.ESR),
    ),
}


@pytest.mark.parametrize("name", sorted(_CURVE_SPECS))
def test_curve_batch_equals_one_point_calls(name, monkeypatch):
    # a sweep without an oracle hands each curve's points to closed_form.cells
    # in one call with the sweep's store; every point's values are the bits
    # of a one-point call, and so are those of one store-less batch, of a
    # list or of a generator
    batches = []
    cells = closed_form.cells

    def recorded(points, cells_, shared=None):
        out = cells(points, cells_, shared)
        batches.append((points, cells_, out))
        return out

    monkeypatch.setattr(closed_form, "cells", recorded)
    spec = _CURVE_SPECS[name]
    run_sweep(spec)
    monkeypatch.undo()
    assert [len(points) for points, *_ in batches] == [len(spec.axis_values())] * len(
        spec.variants
    )
    for points, cells_, out in batches:
        one_point = [cells([params], cells_)[0] for params in points]
        assert out == one_point
        assert cells(points, cells_) == one_point
        assert cells(iter(points), cells_) == one_point


def test_slice_quadratures_fail_before_its_closed_forms(monkeypatch):
    # the closed forms fail at every point, the quadrature only at the
    # second: the slice integrates all its points first, so the quadrature's
    # fault is the one raised
    def failing_cells(params, cells, shared=None):
        raise NumericError("closed form fails")

    quadrature_cells = oracles.quadrature_cells

    def failing_quadrature(points, cells, tol, shared=None):
        if len(points) > 1:
            raise NumericError("quadrature fails")
        return quadrature_cells(points, cells, tol, shared)

    monkeypatch.setattr(closed_form, "cells", failing_cells)
    monkeypatch.setattr(oracles, "quadrature_cells", failing_quadrature)
    spec = SweepSpec(Axis.BALANCED_SNR_DB, 0.0, 2.0, 2.0, BASE, oracle=QuadOracle(1e-6))
    with pytest.raises(NumericError, match="quadrature fails"):
        run_sweep(spec)
    with pytest.raises(NumericError, match="closed form fails"):
        run_sweep(dataclasses.replace(spec, stop_db=0.0))


def test_cells_match_per_cell_calls():
    shared = {}
    for gamma_db in (-10.0, 3.0, 40.0, 400.0):
        params = BASE.with_(gamma_th=10.0 ** (gamma_db / 10.0))
        expected = [
            (closed_form.sop if m is Metric.SOP else closed_form.esr)(params, s, c).value
            for s, c, m in ALL_CELLS
        ]
        assert closed_form.cells([params], ALL_CELLS)[0] == expected
        assert closed_form.cells([params], ALL_CELLS, shared)[0] == expected
        assert closed_form.cells([params], ALL_CELLS[::-1], shared)[0][::-1] == expected
    for cell in BAD_CELLS:
        with pytest.raises(DomainError):
            closed_form.cells([BASE], [ALL_CELLS[0], cell])
    assert closed_form.cells([BASE], [])[0] == []


def test_quadrature_store_reads_back_only_its_own_fields(monkeypatch):
    # at 40 dB relay hops the tolerance decides how often the step is halved
    params = params_from_db(0.0, 3.0, 3.0, 40.0, 40.0, 3.0, 1.0)
    shared = {}
    (fresh,) = oracles.quadrature_cells([params], ALL_CELLS, 1e-9)
    assert oracles.quadrature_cells([params], ALL_CELLS, 1e-6, shared) != [fresh]
    batches = _counted_integrate(monkeypatch)
    # a new tolerance integrates everything again; the same point reads back
    assert oracles.quadrature_cells([params], ALL_CELLS, 1e-9, shared) == [fresh]
    assert oracles.quadrature_cells([params], ALL_CELLS[::-1], 1e-9, shared)[0][::-1] == fresh
    # a new threshold only reweights the branches
    other = params.with_(gamma_th=0.5)
    assert oracles.quadrature_cells([other], ALL_CELLS, 1e-9, shared) == (
        oracles.quadrature_cells([other], ALL_CELLS, 1e-9)
    )
    assert batches == [26, 26]
