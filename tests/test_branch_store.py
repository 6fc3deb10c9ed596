"""Tests for the decode-branch results each evaluator call keeps.

``run_sweep`` hands all its points to one ``closed_form.cells`` call and,
with a quadrature oracle, to one ``oracles.quadrature_cells`` call; each
keeps the results of its decode branches for the call, so a branch value or
integral whose fields the swept axis does not reach is computed once per
curve.  The rows must be the bits of fresh calls at every point.
"""

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
    Axis,
    McOracle,
    Metric,
    QuadOracle,
    SweepSpec,
    Variant,
    figure_preset,
    run_sweep,
    run_validation,
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
    ``closed_form.sop``/``esr`` calls and one one-point
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
def test_quadrature_sweep_is_thread_invariant(name, capsys):
    args = ["sweep", "--preset", name, "--quad-tol", "1e-9"]
    assert main(args + ["--jobs", "1"]) == 0
    one_job = capsys.readouterr().out
    assert main(args + ["--jobs", "4"]) == 0
    assert capsys.readouterr().out == one_job
    spec = dataclasses.replace(figure_preset(name), oracle=QuadOracle(1e-9))
    rows = run_sweep(spec, n_jobs=4)
    assert csv_text(rows) == one_job
    assert rows == _unshared(spec, rows)


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
    # point, and its other 40 points only mix them; both curves' node sets
    # go to the integrator in one batch
    batches = _counted_integrate(monkeypatch)
    spec = dataclasses.replace(figure_preset("fig4"), oracle=QuadOracle(1e-9))
    rows = run_sweep(spec)
    assert len(rows) == 2 * 41 * 2
    assert batches == [2 * 4]


def _counted_branches(monkeypatch):
    # the decode-branch evaluations of closed_form.cells and the public
    # conditionals
    calls = Counter()
    conditional = closed_form._conditional

    def counted(side, metric, params, scheme, csi, relay_on):
        calls[relay_on] += 1
        return conditional(side, metric, params, scheme, csi, relay_on)

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
    # one batch of the 2 curves' 12 node sets: per point 16 decoding-branch
    # integrals, and per curve the 4 silent-relay ones (2 outages, 2 rates)
    # once
    assert batches == [2 * (5 * 16 + 4)]


def _entries(value, seen=None):
    """Values a structure holds, with the values kept by every
    ``lru_cache`` its entries reach through ``__wrapped__`` and closures,
    each cache once."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, dict):
        return sum(1 + _entries(v, seen) for v in value.values())
    if isinstance(value, tuple | list):
        return sum(_entries(v, seen) for v in value)
    if not callable(value):
        return 0
    n = value.cache_info().currsize if hasattr(value, "cache_info") else 0
    cells = getattr(value, "__closure__", None) or ()
    reached = [getattr(value, "__wrapped__", None), *(c.cell_contents for c in cells)]
    return n + sum(_entries(v, seen) for v in reached if v is not None)


# what a closed_form.cells call keeps: its branch slots, its binding's
# functionals and its eiexp cache
_CALL_STRUCTURES = ("slots", "functionals", "eiexp_at")


def _held(monkeypatch):
    """The structures of each ``closed_form.cells`` call, read off its
    frame at each branch evaluation; the slots only grow and one binding's
    functionals only fill their caches, so their size after the call is
    their largest."""
    held = {}
    conditional = closed_form._conditional

    def recorded(*args):
        frame = sys._getframe(1)
        assert frame.f_code is closed_form.cells.__code__
        held[id(frame)] = [frame.f_locals[name] for name in _CALL_STRUCTURES]
        return conditional(*args)

    monkeypatch.setattr(closed_form, "_conditional", recorded)
    return held


def test_store_size_does_not_grow_with_the_axis(monkeypatch):
    # the closed-form call's branch slots, functionals and the values their
    # caches keep, the CSI rate's cross terms in the eiexp cache included;
    # 50 points fill every cache, and both axes cross beta_rd == beta_sd at
    # 3 dB, where the sum combiners fill their phi[s1, s2] caches
    held = _held(monkeypatch)
    spec = SweepSpec(
        Axis.BALANCED_SNR_DB, 0.0, 4.9, 0.1, BASE, modes=(CsiMode.NOCSI, CsiMode.CSI),
        metrics=(Metric.SOP, Metric.ESR),
    )
    assert len(run_sweep(spec)) == 50 * 16
    (short,) = map(_entries, held.values())
    held.clear()
    long_spec = dataclasses.replace(spec, stop_db=39.9)
    assert len(run_sweep(long_spec)) == 400 * 16
    (long,) = map(_entries, held.values())
    assert 0 < long <= short


def test_rebinding_keeps_the_bits_and_the_silent_relay_slot(monkeypatch):
    # one call over bindings A -> B -> A -> C: B moves alpha_re only, which
    # the silent-relay branch does not read, so its slots survive B and the
    # return to A; C moves rate_rs, which it reads
    a = BASE.with_(beta_rd=0.5)
    b = a.with_(alpha_re=2.0)
    c = a.with_(rate_rs=0.5)
    points = [a, a.with_(beta_rd=0.25), b, a, c]
    one_point = [closed_form.cells([params], ALL_CELLS)[0] for params in points]
    calls = _counted_branches(monkeypatch)
    assert closed_form.cells(points, ALL_CELLS) == one_point
    # 4 silent-relay values at A and 4 at C; 16 decoding ones at every point
    assert calls == {False: 2 * 4, True: 5 * 16}
    assert closed_form.cells(iter(points), ALL_CELLS) == one_point


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


_QUAD_SPECS = {
    **{name: dataclasses.replace(figure_preset(name), oracle=QuadOracle(1e-9))
       for name in PRESET_NAMES},
    # 41 points of all 16 cells: 42 node sets, two full batches and a short one
    "beta_rd_41": SweepSpec(
        Axis.BETA_RD_DB, -10.0, 70.0, 2.0, BASE, metrics=(Metric.SOP, Metric.ESR),
        oracle=QuadOracle(1e-9),
    ),
}


def _recorded_batches(monkeypatch):
    batches = []
    quadrature_cells = oracles.quadrature_cells

    def recorded(points, cells, tol):
        out = quadrature_cells(points, cells, tol)
        batches.append((points, cells, tol, out))
        return out

    monkeypatch.setattr(oracles, "quadrature_cells", recorded)
    return batches


@pytest.mark.parametrize("name", sorted(_QUAD_SPECS))
def test_quadrature_sweep_equals_one_point_calls(name, monkeypatch):
    # the sweep makes one quadrature call, which integrates its node sets
    # in batches of at most 16; at every point each cell's value, bound and
    # evaluation count are those of a one-point call
    batches = _recorded_batches(monkeypatch)
    set_counts = []
    integrate = oracles._integrate
    monkeypatch.setattr(oracles, "_integrate", lambda sets: set_counts.append(len(sets)) or integrate(sets))
    spec = _QUAD_SPECS[name]
    run_sweep(spec)
    monkeypatch.undo()
    ((points, cells, tol, out),) = batches
    assert len(points) == len(spec.axis_values()) * len(spec.variants)
    assert max(set_counts) <= oracles._BATCH_SETS
    assert set_counts[:-1] == [oracles._BATCH_SETS] * (len(set_counts) - 1)
    for params, results in zip(points, out, strict=True):
        assert results == oracles.quadrature_cells([params], cells, tol)[0]


def test_quadrature_sweep_memory_does_not_grow_with_the_axis(monkeypatch):
    # a 400-point quadrature call of all 16 cells: what each integrator
    # batch allocates beyond what was live when it started is bounded by
    # the batch size, not by the axis
    peaks = []
    integrate = oracles._integrate

    def measured(sets):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = integrate(sets)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out

    monkeypatch.setattr(oracles, "_integrate", measured)
    points = [BASE.with_(beta_sr=10.0 ** (-k / 100.0), beta_rd=10.0 ** (-k / 100.0))
              for k in range(400)]
    tracemalloc.start()
    try:
        assert len(oracles.quadrature_cells(points, ALL_CELLS, 1e-9)) == 400
    finally:
        tracemalloc.stop()
    # 400 decoding-branch node sets and one silent-relay one
    assert len(peaks) == -(-401 // oracles._BATCH_SETS)
    assert max(peaks) < 3 * 2**20


def test_long_quadrature_call_holds_little_beyond_its_results():
    # a 2000-point balanced-snr-db curve from -10 dB in 0.03 dB steps: each
    # point is resolved once its node sets are integrated, and a node set's
    # integrals are dropped after the last point that reads them, so the
    # call peaks at about one batch's node arrays above what it returns
    points = [BASE.with_(beta_sr=10.0 ** ((10.0 - 0.03 * k) / 10.0),
                         beta_rd=10.0 ** ((10.0 - 0.03 * k) / 10.0)) for k in range(2000)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = oracles.quadrature_cells(points, ALL_CELLS, 1e-6)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 2000
    assert peak - held < 2 * 2**20, (peak - start, held - start)


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
    # overflows, then turns NaN, and the oracle names both without letting
    # numpy's RuntimeWarnings through; a --quad-tol run evaluates its
    # closed forms first, so it prints the closed form's fault
    first_point = params_from_db(-3000.0, -3000.0, 10.0, 10.0, 3.0, 0.0, 3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError) as raised:
            oracles.quadrature_cells([first_point], [(Scheme.SC_MRC, CsiMode.NOCSI, Metric.SOP)])
        assert main(_SHARED_FAULT + ["--quad-tol", "1e-9"]) == 3
    assert [str(w.message) for w in caught] == []
    assert str(raised.value).startswith(
        "quadrature failed: the integrand evaluates to inf and nan, first at y = "
    )
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == _SHARED_FAULT_ERR


def test_faults_raise_in_cell_order(monkeypatch):
    # a sweep's closed forms run in one call, point by point in cell order,
    # before its oracle and any of its asymptote lines: a closed form
    # failing at a later cell or point raises before a line failing at the
    # first cell of the first point, and the earlier of two failing cells
    # wins
    monkeypatch.setattr(
        asymptotics, "sop_asymptote_balanced",
        lambda params, scheme, csi: asymptotics.Asymptote(0.0, 1e308),
    )
    conditional = closed_form._conditional

    def failing(side, metric, params, scheme, csi, relay_on):
        if scheme in (Scheme.SC_SC, Scheme.SC_MRC):
            raise NumericError(f"{scheme.value} cell")
        return conditional(side, metric, params, scheme, csi, relay_on)

    spec = SweepSpec(Axis.BALANCED_SNR_DB, -10.0, -10.0, 1.0, BASE, asymptote=True)
    with pytest.raises(NumericError, match="Asymptote"):
        run_sweep(spec)
    monkeypatch.setattr(closed_form, "_conditional", failing)
    with pytest.raises(NumericError, match="sc_sc cell"):
        run_sweep(spec)
    # one closed-form call per sweep, with no cell-by-cell rerun on a fault,
    # and no Monte Carlo trial drawn
    calls = []
    cells = closed_form.cells
    monkeypatch.setattr(closed_form, "cells", lambda *args: calls.append(1) or cells(*args))

    def no_trials(*args, **kwargs):
        raise AssertionError("drew trials before the closed forms failed")

    monkeypatch.setattr(oracles, "monte_carlo_all", no_trials)
    with pytest.raises(NumericError, match="sc_sc cell"):
        run_sweep(dataclasses.replace(spec, asymptote=False, oracle=McOracle(1000)), n_jobs=2)
    assert len(calls) == 1
    # of two points (-10 and 10 dB), the second point's closed form fails
    # before the first point's line
    def failing_above_0_db(side, metric, params, *rest):
        fn = failing if params.beta_rd < 1.0 else conditional
        return fn(side, metric, params, *rest)

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
    # a sweep hands all its points, curve by curve, to closed_form.cells in
    # one call; every point's values are the bits of a one-point call, and
    # so are those of a batch of a list or of a generator
    batches = []
    cells = closed_form.cells

    def recorded(points, cells_):
        out = cells(points, cells_)
        batches.append((points, cells_, out))
        return out

    monkeypatch.setattr(closed_form, "cells", recorded)
    spec = _CURVE_SPECS[name]
    run_sweep(spec)
    monkeypatch.undo()
    ((points, cells_, out),) = batches
    assert len(points) == len(spec.axis_values()) * len(spec.variants)
    one_point = [cells([params], cells_)[0] for params in points]
    assert out == one_point
    assert cells(points, cells_) == one_point
    assert cells(iter(points), cells_) == one_point


def test_closed_forms_fail_before_the_quadrature(monkeypatch):
    # the closed forms fail where a call has two points, the quadrature at
    # every point: a sweep evaluates all its closed forms first, and a
    # validation its closed forms, then its quadratures, then its Monte
    # Carlo runs, so the earliest stage's fault is the one raised
    cells = closed_form.cells

    def failing_cells(points, cells_):
        if len(points) > 1:
            raise NumericError("closed form fails")
        return cells(points, cells_)

    def failing_quadrature(points, cells_, tol):
        raise NumericError("quadrature fails")

    def no_trials(*args, **kwargs):
        raise AssertionError("drew trials before the quadrature failed")

    monkeypatch.setattr(closed_form, "cells", failing_cells)
    monkeypatch.setattr(oracles, "quadrature_cells", failing_quadrature)
    monkeypatch.setattr(oracles, "monte_carlo_all", no_trials)
    spec = SweepSpec(Axis.BALANCED_SNR_DB, 0.0, 2.0, 2.0, BASE, oracle=QuadOracle(1e-6))
    with pytest.raises(NumericError, match="closed form fails"):
        run_sweep(spec)
    with pytest.raises(NumericError, match="quadrature fails"):
        run_sweep(dataclasses.replace(spec, stop_db=0.0))
    with pytest.raises(NumericError, match="closed form fails"):
        run_validation(grid_size=2, seed=5, mc_trials=1000, n_jobs=2)
    with pytest.raises(NumericError, match="quadrature fails"):
        run_validation(grid_size=1, seed=5, mc_trials=1000)


def test_cells_match_per_cell_calls():
    for gamma_db in (-10.0, 3.0, 40.0, 400.0):
        params = BASE.with_(gamma_th=10.0 ** (gamma_db / 10.0))
        expected = [
            (closed_form.sop if m is Metric.SOP else closed_form.esr)(params, s, c).value
            for s, c, m in ALL_CELLS
        ]
        assert closed_form.cells([params], ALL_CELLS)[0] == expected
        # a point whose branches the call already holds reads them back
        assert closed_form.cells([params, params], ALL_CELLS) == [expected, expected]
        assert closed_form.cells([params], ALL_CELLS[::-1])[0][::-1] == expected
    for cell in BAD_CELLS:
        with pytest.raises(DomainError):
            closed_form.cells([BASE], [ALL_CELLS[0], cell])
    assert closed_form.cells([BASE], [])[0] == []


def test_an_iterator_of_cells_gives_the_lists_values():
    points = [BASE, BASE.with_(beta_rd=0.5)]
    assert closed_form.cells(points, iter(ALL_CELLS)) == closed_form.cells(points, ALL_CELLS)
    assert oracles.quadrature_cells(points, iter(ALL_CELLS), 1e-6) == (
        oracles.quadrature_cells(points, ALL_CELLS, 1e-6)
    )


def test_quadrature_store_reads_back_only_its_own_fields(monkeypatch):
    # within one call, a point whose fields an earlier point had reads its
    # integrals back, whatever its threshold, and a new hop integrates its
    # decoding branch; at 40 dB relay hops the tolerance decides how often
    # the step is halved (once for the silent-relay outages at 1e-11, never
    # at 1e-9), so each result is that of its own tolerance
    params = params_from_db(0.0, 3.0, 3.0, 40.0, 40.0, 3.0, 1.0)
    other = params.with_(gamma_th=0.5)
    hop = params.with_(beta_rd=0.5)
    fresh = [oracles.quadrature_cells([p], ALL_CELLS, 1e-9)[0] for p in (params, other, hop)]
    assert oracles.quadrature_cells([params], ALL_CELLS, 1e-11) != fresh[:1]
    batches = _counted_integrate(monkeypatch)
    out = oracles.quadrature_cells([params, other, params, hop], ALL_CELLS, 1e-9)
    assert out == [fresh[0], fresh[1], fresh[0], fresh[2]]
    # the first point's 20 integrals, and the new hop's 16 decoding-branch ones
    assert batches == [20 + 16]
