"""Tests for sweeps, presets, CSV output, validation, and the CLI."""

import concurrent.futures
import dataclasses
import importlib
import io
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

from secrelay import asymptotics, closed_form, oracles, sweep
from secrelay.cli import MAX_JOBS, main
from secrelay.errors import DomainError, NumericError
from secrelay.fading import (
    CHUNK_LIMIT,
    POINT_LIMIT,
    CsiMode,
    SCHEME_ORDER,
    Scheme,
    params_from_db,
)
from secrelay.sweep import (
    Axis,
    CSV_HEADER,
    McOracle,
    Metric,
    PRESET_NAMES,
    QuadOracle,
    SweepSpec,
    UNSUPPORTED_MARKER,
    Variant,
    figure_preset,
    run_sweep,
    run_validation,
    sample_grid,
    write_csv,
)

BASE = params_from_db(0.0, 3.0, 3.0, 10.0, 3.0, 3.0, 1.0)


def csv_text(rows):
    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


def test_empty_range_cardinality():
    spec = SweepSpec(
        axis=Axis.BALANCED_SNR_DB, start_db=10.0, stop_db=10.0, step_db=2.0, fixed=BASE,
        metrics=(Metric.SOP, Metric.ESR),
    )
    rows = run_sweep(spec)
    assert len(rows) == len(spec.schemes) * len(spec.modes) * len(spec.metrics)


def test_spec_validation():
    with pytest.raises(DomainError):
        SweepSpec(Axis.BALANCED_SNR_DB, 0.0, 10.0, -1.0, BASE).validate()
    # a non-finite bound or step would loop forever or give NaN axis values
    for bounds in ((0.0, math.inf, 1.0), (math.nan, 3.0, 1.0), (-math.inf, 0.0, 1.0),
                   (0.0, 2.0, math.inf)):
        with pytest.raises(DomainError):
            SweepSpec(Axis.BALANCED_SNR_DB, *bounds, BASE).validate()
    # one point over the cap, 1e12 points, and an axis whose steps round
    # away at 1e300 dB
    for bounds in ((0.0, 100_000.0, 1.0), (0.0, 1e9, 1e-3), (1e300, 1e300, 1.0)):
        with pytest.raises(DomainError):
            SweepSpec(Axis.BALANCED_SNR_DB, *bounds, BASE).validate()
    assert len(SweepSpec(Axis.BALANCED_SNR_DB, 0.0, 99_999.0, 1.0, BASE).axis_values()) == 100_000
    with pytest.raises(DomainError):
        SweepSpec(Axis.BALANCED_SNR_DB, 10.0, 0.0, 1.0, BASE).validate()
    with pytest.raises(DomainError):
        SweepSpec(Axis.BALANCED_SNR_DB, 0.0, 10.0, 1.0, BASE, schemes=()).validate()


def test_spec_rejects_repeats():
    # a repeat would emit every row it touches twice
    for repeat in (
        dict(schemes=(Scheme.MRC_SC, Scheme.SC_SC, Scheme.MRC_SC)),
        dict(modes=(CsiMode.CSI, CsiMode.CSI)),
        dict(metrics=(Metric.ESR, Metric.SOP, Metric.ESR)),
        dict(variants=(Variant("a", (("rate_rs", 0.5),)), Variant("a", (("rate_rs", 2.0),)))),
    ):
        spec = SweepSpec(Axis.BALANCED_SNR_DB, 0.0, 0.0, 1.0, BASE, **repeat)
        with pytest.raises(DomainError):
            spec.validate()
        with pytest.raises(DomainError):
            run_sweep(spec)
    SweepSpec(
        Axis.BALANCED_SNR_DB, 0.0, 0.0, 1.0, BASE,
        variants=(Variant("a", (("rate_rs", 0.5),)), Variant("b", (("rate_rs", 0.5),))),
    ).validate()


def test_sweep_deterministic_and_thread_invariant():
    spec = SweepSpec(
        axis=Axis.BALANCED_SNR_DB, start_db=0.0, stop_db=10.0, step_db=5.0, fixed=BASE,
        metrics=(Metric.SOP, Metric.ESR), oracle=McOracle(trials=50_000, seed=12),
        asymptote=True,
    )
    a = csv_text(run_sweep(spec, n_jobs=1))
    b = csv_text(run_sweep(spec, n_jobs=1))
    c = csv_text(run_sweep(spec, n_jobs=4))
    assert a == b == c
    assert a.splitlines()[0] == CSV_HEADER


def test_quadrature_sweep_identical_across_jobs():
    spec = dataclasses.replace(figure_preset("fig7"), oracle=QuadOracle(1e-9))
    a = csv_text(run_sweep(spec, n_jobs=1))
    b = csv_text(run_sweep(spec, n_jobs=1))
    c = csv_text(run_sweep(spec, n_jobs=4))
    assert a == b == c


def test_quadrature_sweep_takes_one_batch_per_slice(monkeypatch, capsys):
    # 31 points of one curve go to the oracle in slices of QUAD_SLICE points
    args = ["sweep", "--axis", "balanced-snr-db", "--from-db", "0", "--to-db", "60",
            "--step-db", "2", "--metric", "both", "--quad-tol", "1e-9"]
    batches = []
    quadrature_cells = oracles.quadrature_cells

    def counted(points, cells, *rest):
        batches.append((len(points), len(cells)))
        return quadrature_cells(points, cells, *rest)

    monkeypatch.setattr(oracles, "quadrature_cells", counted)
    assert main(args) == 0
    one_job = capsys.readouterr().out
    assert batches == [(min(sweep.QUAD_SLICE, 31 - i), 16) for i in range(0, 31, sweep.QUAD_SLICE)]
    assert main(args + ["--jobs", "4"]) == 0
    assert capsys.readouterr().out == one_job
    # each cell's oracle value is that of its own quadrature call
    for line in one_job.splitlines()[1:]:
        f = line.split(",")
        params = BASE.with_(beta_sr=10.0 ** (-float(f[1]) / 10.0))
        params = params.with_(beta_rd=params.beta_sr)
        fn = oracles.quadrature_sop if f[5] == "sop" else oracles.quadrature_esr
        q = fn(params, Scheme(f[3]), CsiMode(f[4]), 1e-9)
        assert f[8] == "%.17g" % q.value


def test_quadrature_oracle_column():
    spec = SweepSpec(
        axis=Axis.GAMMA_TH_DB, start_db=0.0, stop_db=4.0, step_db=2.0, fixed=BASE,
        schemes=(Scheme.MRC_MRC,), oracle=QuadOracle(tol=1e-9),
    )
    for row in run_sweep(spec):
        assert row.oracle_value == pytest.approx(row.value, abs=1e-6)
        assert row.oracle_stderr is None


def test_mc_oracle_column_tracks_closed_form():
    spec = SweepSpec(
        axis=Axis.BALANCED_SNR_DB, start_db=5.0, stop_db=10.0, step_db=5.0, fixed=BASE,
        oracle=McOracle(trials=200_000, seed=3),
    )
    for row in run_sweep(spec):
        assert abs(row.value - row.oracle_value) <= 4.0 * row.oracle_stderr + 1e-4


def test_unsupported_asymptote_marker_and_continuation():
    # every scheme has an outage line on the balanced axis, sc_sc included;
    # the balanced and case-I rate cells have no line yet
    for axis in (Axis.BALANCED_SNR_DB, Axis.BETA_RD_DB):
        spec = SweepSpec(
            axis=axis, start_db=10.0, stop_db=10.0, step_db=1.0, fixed=BASE,
            schemes=SCHEME_ORDER, metrics=(Metric.SOP, Metric.ESR), asymptote=True,
        )
        rows = run_sweep(spec)
        assert len(rows) == 16
        for r in rows:
            if r.metric is Metric.SOP:
                assert isinstance(r.asymptote_value, float)
            else:
                assert r.asymptote_value == UNSUPPORTED_MARKER
    # the threshold axis has no asymptote in any cell; its outage rows used
    # to leave the field empty while its rate rows carried the marker
    gamma = dataclasses.replace(spec, axis=Axis.GAMMA_TH_DB)
    rows = run_sweep(gamma)
    assert len(rows) == 16
    assert all(r.asymptote_value == UNSUPPORTED_MARKER for r in rows)
    # a threshold of -4000 dB is 0; no swept rate is converted (it overflowed)
    low = run_sweep(dataclasses.replace(gamma, start_db=-4000.0, stop_db=-4000.0))
    assert all(r.asymptote_value == UNSUPPORTED_MARKER for r in low)


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


@pytest.mark.parametrize("axis", list(Axis))
def test_asymptotes_and_floors_match_fresh_calls_at_each_point(axis):
    # a curve's lines and floors are computed once, at the curve's fixed
    # parameters; each field must equal a call at its row's own point
    case = {Axis.BETA_RD_DB: asymptotics.UnbalancedCase.I,
            Axis.BETA_SR_DB: asymptotics.UnbalancedCase.II}.get(axis)
    for params in sample_grid(3, seed=23):
        spec = SweepSpec(
            axis=axis, start_db=-5.0, stop_db=25.0, step_db=15.0, fixed=params,
            metrics=(Metric.SOP, Metric.ESR), asymptote=True,
        )
        rows = run_sweep(spec)
        assert len(rows) == 3 * 16
        for r in rows:
            point = _point(params, axis, r.axis_value_db)
            beta = 10.0 ** (-r.axis_value_db / 10.0)
            expected = UNSUPPORTED_MARKER
            if r.metric is Metric.SOP and axis is Axis.BALANCED_SNR_DB:
                line = asymptotics.sop_asymptote_balanced(point, r.scheme, r.csi)
                expected = line.predict(beta)
            elif r.metric is Metric.SOP and case is not None:
                line = asymptotics.sop_asymptote_unbalanced(point, r.scheme, r.csi, case)
                expected = line.predict(beta)
            elif case is asymptotics.UnbalancedCase.II:
                expected = closed_form.esr_conditional(point, r.scheme, r.csi, relay_on=True)
            assert r.asymptote_value == expected, r
            floors = (None, None)
            if axis is Axis.GAMMA_TH_DB and (r.scheme, r.csi, r.metric) == (
                Scheme.MRC_MRC, CsiMode.NOCSI, Metric.SOP
            ):
                floors = (asymptotics.sop_perfect_decoding(point), asymptotics.sop_wiretap(point))
            assert (r.floor_gamma_zero, r.floor_gamma_inf) == floors, r


def test_asymptotes_computed_once_per_curve(monkeypatch):
    # fig3: 4 curves of one cell over 21 points
    calls = []
    balanced = asymptotics.sop_asymptote_balanced

    def counted(*args):
        calls.append(args)
        return balanced(*args)

    monkeypatch.setattr(asymptotics, "sop_asymptote_balanced", counted)
    rows = run_sweep(figure_preset("fig3"))
    assert len(rows) == 84
    assert len(calls) == 4


def test_axis_application():
    spec = SweepSpec(
        axis=Axis.BETA_SR_DB, start_db=20.0, stop_db=20.0, step_db=1.0, fixed=BASE,
        schemes=(Scheme.MRC_SC,), modes=(CsiMode.NOCSI,),
    )
    row = run_sweep(spec)[0]
    from secrelay.closed_form import sop

    assert row.value == sop(BASE.with_(beta_sr=0.01), Scheme.MRC_SC, CsiMode.NOCSI).value


def test_unknown_preset():
    with pytest.raises(DomainError):
        figure_preset("fig99")


def test_all_presets_run():
    for name in PRESET_NAMES:
        rows = run_sweep(figure_preset(name))
        assert rows
        text = csv_text(rows)
        assert text.splitlines()[0] == CSV_HEADER


def test_preset_shapes():
    fig2 = figure_preset("fig2")
    assert fig2.axis is Axis.BALANCED_SNR_DB
    assert {v.label for v in fig2.variants} == {"rs0.1", "rs1"}
    assert len(fig2.schemes) == 4 and len(fig2.modes) == 2
    fig4 = figure_preset("fig4")
    assert fig4.axis is Axis.GAMMA_TH_DB
    fig5 = figure_preset("fig5")
    assert {v.axis for v in fig5.variants} == {Axis.BETA_RD_DB, Axis.BETA_SR_DB}
    fig6 = figure_preset("fig6")
    assert fig6.metrics == (Metric.ESR,)
    assert len(fig6.variants) == 4


def test_gamma_floors_follow_the_axis():
    # Any threshold sweep fills the gamma -> 0 / infinity floors on its
    # MRC-MRC no-CSI outage rows, and only there; other axes leave them empty.
    for axis in Axis:
        spec = SweepSpec(
            axis=axis, start_db=-10.0, stop_db=10.0, step_db=10.0, fixed=BASE,
            metrics=(Metric.SOP, Metric.ESR),
        )
        for r in run_sweep(spec):
            floor_cell = (r.scheme, r.csi, r.metric) == (Scheme.MRC_MRC, CsiMode.NOCSI, Metric.SOP)
            if axis is Axis.GAMMA_TH_DB and floor_cell:
                point = BASE.with_(gamma_th=10.0 ** (r.axis_value_db / 10.0))
                assert r.floor_gamma_zero == asymptotics.sop_perfect_decoding(point)
                assert r.floor_gamma_inf == asymptotics.sop_wiretap(point)
            else:
                assert r.floor_gamma_zero is None and r.floor_gamma_inf is None


def test_csv_columns_are_the_row_fields():
    row = run_sweep(figure_preset("fig4"))[0]
    header, line = csv_text([row]).splitlines()
    assert header.split(",") == [f.name for f in dataclasses.fields(row)]
    assert line.split(",") == [
        "gamma_th_db", "-30", "bsd40_brd3", "mrc_mrc", "nocsi", "sop", "closed_form",
        "%.17g" % row.value, "", "", "",
        "%.17g" % row.floor_gamma_zero, "%.17g" % row.floor_gamma_inf,
    ]


def test_case2_rate_floor_every_cell():
    # the case-II rate floor is the decode-success rate; the rate differs
    # from it by the decode-failure weight 1 - exp(-gamma_th beta_sr) times
    # the gap between the two branches, at most gamma_th |on - off| beta_sr
    fig7 = figure_preset("fig7")
    params = fig7.fixed.with_(beta_rd=10.0 ** -3.0)
    spec = SweepSpec(
        axis=Axis.BETA_SR_DB, start_db=40.0, stop_db=80.0, step_db=20.0, fixed=params,
        metrics=(Metric.ESR,), asymptote=True,
    )
    rows = run_sweep(spec)
    assert len(rows) == 3 * 8
    for r in rows:
        beta = 10.0 ** (-r.axis_value_db / 10.0)
        off = closed_form.esr_conditional(params, r.scheme, r.csi, relay_on=False)
        gap = params.gamma_th * abs(r.asymptote_value - off)
        assert abs(r.value - r.asymptote_value) <= gap * beta * (1.0 + 1e-6), r
        assert gap < 10.0


def test_fig7_esr_saturation_column():
    rows = run_sweep(figure_preset("fig7"))
    sat = [
        r
        for r in rows
        if r.variant == "case_II" and r.scheme is Scheme.MRC_SC and r.csi is CsiMode.CSI
    ]
    assert sat
    # saturation constant is axis independent and the curve approaches it
    values = {r.asymptote_value for r in sat}
    assert len(values) == 1
    const = values.pop()
    tail = max(sat, key=lambda r: r.axis_value_db)
    assert abs(tail.value - const) < 1e-3


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validation_single_point_passes():
    rep = run_validation(grid_size=1, seed=3, mc_trials=100_000)
    assert rep.passed
    assert "overall: pass" in rep.render()


def test_validation_zero_tolerance_fails():
    # the tightest positive tolerance; zero itself is rejected below
    rep = run_validation(grid_size=1, seed=3, mc_trials=50_000, tol_quad_abs=1e-300)
    assert not rep.passed
    assert "FAIL" in rep.render()


@pytest.mark.parametrize(
    "band",
    [
        {"mc_sigmas": -1.0},  # negative band: every ratio <= 1, the check is vacuous
        {"mc_sigmas": float("nan")},
        {"mc_sigmas": float("inf")},
        {"tol_quad_abs": float("inf")},
        {"tol_quad_abs": float("nan")},
        {"tol_quad_abs": 0.0},
        {"tol_quad_abs": -1e-6},
    ],
)
def test_validation_rejects_degenerate_bands(band):
    with pytest.raises(DomainError):
        run_validation(grid_size=1, seed=3, mc_trials=1000, **band)


def _nan_for_sc_sc_sop(monkeypatch):
    """Make every SC-SC outage closed form NaN."""
    shipped = closed_form.cells

    def nan_for_sc_sc(params, cells, shared=None):
        values = shipped(params, cells, shared)
        return [
            math.nan if (scheme, metric) == (Scheme.SC_SC, Metric.SOP) else v
            for (scheme, _, metric), v in zip(cells, values)
        ]

    monkeypatch.setattr(closed_form, "cells", nan_for_sc_sc)


def test_validation_fails_on_a_nan_closed_form(monkeypatch):
    _nan_for_sc_sc_sop(monkeypatch)
    report = run_validation(grid_size=2, seed=5, mc_trials=1000)
    assert report.passed is False
    failed = {(r.scheme, r.metric) for r in report.rows if not r.passed}
    assert failed == {(Scheme.SC_SC, Metric.SOP)}
    assert "overall: FAIL" in report.render()


def test_validation_runs_one_batch_per_point(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(params, cells, *args):
            calls.append((fn.__name__, len(cells)))
            return fn(params, cells, *args)

        return wrapper

    monkeypatch.setattr(closed_form, "cells", counted(closed_form.cells))
    monkeypatch.setattr(oracles, "quadrature_cells", counted(oracles.quadrature_cells))
    report = run_validation(grid_size=2, seed=5, mc_trials=1000)
    assert report.grid_size == 2
    assert sorted(calls) == [("cells", 16)] * 2 + [("quadrature_cells", 16)] * 2


def test_validation_report_holds_the_per_cell_values():
    # the report's batched values against one-cell calls at every point
    seed, trials = 7, 2000
    report = run_validation(grid_size=3, seed=seed, mc_trials=trials)
    quad_diffs, mc_ratios, variant_diffs, shipped_diffs = [], [], [], []
    for i, params in enumerate(sample_grid(3, seed)):
        mc = oracles.monte_carlo_all(params, trials, seed, point=i)
        quad_row, mc_row = [], []
        for r in report.rows:
            if r.metric is Metric.SOP:
                cf_fn, quad_fn, mc_fn = closed_form.sop, oracles.quadrature_sop, mc.sop
            else:
                cf_fn, quad_fn, mc_fn = closed_form.esr, oracles.quadrature_esr, mc.esr
            cf = cf_fn(params, r.scheme, r.csi).value
            est = mc_fn(r.scheme, r.csi)
            quad_row.append(abs(cf - quad_fn(params, r.scheme, r.csi).value))
            mc_row.append(abs(cf - est.value) / (3.0 * est.stderr + sweep.MC_ABS_FLOOR))
        quad_diffs.append(quad_row)
        mc_ratios.append(mc_row)
        q = oracles.quadrature_esr(params, Scheme.MRC_SC, CsiMode.CSI).value
        shipped = closed_form.esr(params, Scheme.MRC_SC, CsiMode.CSI).value
        variant_diffs.append(abs(closed_form.esr_mrc_sc_csi_variant(params) - q))
        shipped_diffs.append(abs(shipped - q))
    assert [r.worst_quad_diff for r in report.rows] == list(map(max, zip(*quad_diffs)))
    assert [r.worst_mc_ratio for r in report.rows] == list(map(max, zip(*mc_ratios)))
    assert report.variant_note == (
        "mrc_sc/csi esr argument-pairing check: shipped form worst "
        f"|cf-quad|={max(shipped_diffs):.3e}; rejected variant worst "
        f"|alt-quad|={max(variant_diffs):.3e}"
    )


def test_validation_render_deterministic():
    a = run_validation(grid_size=2, seed=5, mc_trials=50_000).render()
    b = run_validation(grid_size=2, seed=5, mc_trials=50_000, n_jobs=3).render()
    assert a == b


def test_sample_grid_properties():
    grid = sample_grid(50, seed=1)
    assert len(grid) == 50
    assert grid == sample_grid(50, seed=1)
    for p in grid:
        for r in (p.alpha_se, p.alpha_re, p.beta_sd, p.beta_sr, p.beta_rd):
            assert 0.05 <= r <= 20.0
        assert 0.0 <= p.gamma_th <= 6.0
        assert 0.1 <= p.rate_rs <= 2.0


def test_grid_beyond_the_stream_key_fails_before_sampling(monkeypatch):
    # each grid point keys its own Monte Carlo stream; a larger grid used to
    # be built in full before its first unaddressable point failed
    def no_draws(*args, **kwargs):
        raise AssertionError("sampled a grid of invalid size")

    monkeypatch.setattr(sweep, "stream", no_draws)
    with pytest.raises(DomainError, match="grid_size"):
        sample_grid(POINT_LIMIT + 1, seed=1)
    # a grid is sampled in full before its first point is evaluated, so it
    # shares the axis cap; up to 2^32 points used to be accepted
    with pytest.raises(DomainError, match="grid_size"):
        sample_grid(sweep.MAX_AXIS_POINTS + 1, seed=1)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_sweep_preset_to_file(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    assert main(["sweep", "--preset", "fig2", "--out", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    # byte-identical on a second run
    out2 = tmp_path / "fig2b.csv"
    assert main(["sweep", "--preset", "fig2", "--out", str(out2)]) == 0
    assert out2.read_text() == text


def test_cli_sweep_stdout(capsys):
    rc = main(
        [
            "sweep",
            "--axis",
            "gamma-th-db",
            "--from-db",
            "0",
            "--to-db",
            "4",
            "--step-db",
            "2",
            "--scheme",
            "mrc_mrc",
            "--csi",
            "nocsi",
            "--metric",
            "sop",
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3


def test_cli_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # neither preset nor axis
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig2", "--axis", "gamma-th-db"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig2", "--mc-trials", "10", "--quad-tol", "1e-9"])
    assert exc.value.code == 2
    adhoc = ["sweep", "--axis", "balanced-snr-db"]
    for args in (
        adhoc + ["--from-db", "0", "--to-db", "inf"],
        adhoc + ["--from-db", "nan", "--to-db", "3"],
        adhoc + ["--from-db", "0", "--to-db", "0", "--rate-rs", "600"],
        adhoc + ["--from-db", "0", "--to-db", "0", "--quad-tol", "inf"],
        ["sweep", "--preset", "fig3", "--quad-tol", "inf"],
        ["sweep", "--preset", "fig3", "--quad-tol", "0"],
        ["sweep", "--preset", "fig2", "--mc-trials", "0"],
        adhoc + ["--from-db", "0", "--to-db", "1e9", "--step-db", "1e-3"],
        # dB figures whose linear value overflows a double
        ["sweep", "--axis", "gamma-th-db", "--from-db", "4000", "--to-db", "4000"],
        adhoc + ["--from-db", "-4000", "--to-db", "-4000"],
        adhoc + ["--from-db", "0", "--to-db", "0", "--beta-sd-db", "-4000"],
        adhoc + ["--from-db", "0", "--to-db", "0", "--gamma-th-db", "4000"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2, args


def test_cli_axis_needs_a_range(capsys):
    for bounds in ([], ["--from-db", "0"], ["--to-db", "30"]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis", "beta-rd-db", *bounds])
        assert exc.value.code == 2, bounds
        assert "--from-db and --to-db are required" in capsys.readouterr().err


def test_cli_preset_rejects_adhoc_flags(capsys):
    # a preset fixes its own axis, links, rate, schemes, modes, metrics and
    # asymptotes; these flags used to be ignored, giving the preset's bytes
    mixed = ["--scheme", "sc_sc", "--csi", "nocsi", "--metric", "esr", "--rate-rs", "3",
             "--from-db", "5", "--to-db", "6", "--asymptote"]
    single = [
        ["--axis", "beta-rd-db"], ["--from-db", "0"], ["--to-db", "9"], ["--step-db", "2"],
        ["--alpha-se-db", "0"], ["--alpha-re-db", "3"], ["--beta-sd-db", "3"],
        ["--beta-sr-db", "10"], ["--beta-rd-db", "3"], ["--gamma-th-db", "3"],
        ["--rate-rs", "1"], ["--scheme", "mrc_sc"], ["--csi", "both"], ["--metric", "sop"],
        ["--asymptote"],
    ]
    for flags in [mixed, *single]:
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig2", *flags])
        assert exc.value.code == 2, flags
        assert "--preset" in capsys.readouterr().err
    # the oracle, output and worker flags still go with a preset
    assert main(["sweep", "--preset", "fig6", "--quad-tol", "1e-6", "--jobs", "2"]) == 0


def test_cli_repeated_scheme_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--axis", "balanced-snr-db", "--from-db", "0", "--to-db", "0",
              "--scheme", "mrc_sc", "--scheme", "mrc_sc"])
    assert exc.value.code == 2
    assert "repeat" in capsys.readouterr().err


def test_cli_validate_exit_codes(monkeypatch, capsys):
    argv = ["validate", "--grid-size", "1", "--seed", "3", "--mc-trials", "50000"]
    assert main(argv) == 0
    assert "overall: pass" in capsys.readouterr().out
    _nan_for_sc_sc_sop(monkeypatch)
    assert main(argv) == 4
    assert "FAIL" in capsys.readouterr().out


def test_cli_validate_prints_the_gate(capsys):
    # the bands are fixed in run_validation, so the header always reads them
    assert main(["validate", "--grid-size", "1", "--mc-trials", "1000"]) == 0
    out = capsys.readouterr().out
    assert "quad_tol=1e-09 tol_quad_abs=1e-06 mc_tol=3*stderr+0.0001" in out


@pytest.mark.parametrize(
    "flag",
    [
        ["--quad-tol", "0"],
        ["--quad-tol", "inf"],
        ["--mc-sigmas", "-1"],
        ["--mc-floor", "0"],
        ["--tol-quad", "0"],
    ],
)
def test_cli_validate_has_no_band_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--grid-size", "1", "--mc-trials", "1000", *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [
        ["--mc-trials", "0"],
        ["--grid-size", "0"],
        ["--mc-trials", "-5"],
        ["--grid-size", "1.5"],
        ["--seed", "-1"],
        ["--seed", "x"],
        ["--jobs", str(MAX_JOBS + 1)],
        ["--grid-size", "-1"],
        ["--jobs", "0"],
        ["--jobs", "-3"],
        ["--grid-size", str(POINT_LIMIT + 1)],
        ["--mc-trials", str(oracles.CHUNK_TRIALS * CHUNK_LIMIT + 1)],
        ["--grid-size", str(sweep.MAX_AXIS_POINTS + 1)],
    ],
)
def test_cli_validate_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--grid-size", "1", "--mc-trials", "1000", *flag])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_sweep_rejects_nonpositive_jobs(jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig2", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [str(MAX_JOBS + 1), "100000"])
def test_cli_rejects_jobs_above_max(jobs, monkeypatch, capsys):
    # checked at argument parsing: no thread pool is ever started
    def no_pool(*args, **kwargs):
        raise AssertionError("started a pool for an invalid --jobs")

    # the pool class is looked up in concurrent.futures when a pool starts
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    for cmd in (["sweep", "--preset", "fig2"], ["validate", "--grid-size", "2"]):
        with pytest.raises(SystemExit) as exc:
            main([*cmd, "--jobs", jobs])
        assert exc.value.code == 2
        assert f"--jobs must be in [1, {MAX_JOBS}]" in capsys.readouterr().err


def test_cli_seed_needs_the_monte_carlo_oracle(capsys):
    # a seed used to be accepted and ignored without --mc-trials
    for extra in ([], ["--quad-tol", "1e-6"]):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--preset", "fig2", "--seed", "5", *extra])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
    # the Monte Carlo oracle's default seed is 0
    point = ["sweep", "--axis", "gamma-th-db", "--from-db", "3", "--to-db", "3",
             "--mc-trials", "2000"]
    assert main(point) == 0
    default = capsys.readouterr().out
    assert main(point + ["--seed", "0"]) == 0
    assert capsys.readouterr().out == default
    assert main(point + ["--seed", "1"]) == 0
    assert capsys.readouterr().out != default


def test_cli_high_snr_equal_rate_esr_sweep(capsys):
    # equal eavesdropper rates and equal destination rates at 70 dB
    rc = main(
        [
            "sweep", "--axis", "balanced-snr-db", "--from-db", "70", "--to-db", "70",
            "--alpha-se-db", "0", "--alpha-re-db", "0", "--beta-sd-db", "70",
            "--rate-rs", "0.5", "--metric", "esr",
        ]
    )
    assert rc == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 8
    assert {r[6] for r in rows} == {"closed_form"}
    assert all(math.isfinite(float(r[7])) for r in rows)


def test_cli_validate_deterministic(capsys):
    args = ["validate", "--grid-size", "2", "--seed", "9", "--mc-trials", "50000"]
    main(args)
    first = capsys.readouterr().out
    main(args + ["--jobs", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_numeric_failure_exit_code(capsys):
    rc = main(
        [
            "sweep",
            "--axis",
            "gamma-th-db",
            "--from-db",
            "0",
            "--to-db",
            "0",
            "--step-db",
            "1",
            "--quad-tol",
            "1e-300",
        ]
    )
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        # the MRC eavesdropper transform overflows to inf/inf = NaN
        (
            [
                "--axis", "balanced-snr-db", "--from-db", "10", "--to-db", "10",
                "--alpha-se-db", "-3000", "--alpha-re-db", "-3000", "--beta-sd-db", "10",
                "--rate-rs", "3", "--csi", "nocsi", "--mc-trials", "100000",
            ],
            "mrc_mrc/nocsi with the relay on evaluates to nan",
        ),
        # the CSI rate evaluates to -inf
        (
            [
                "--axis", "beta-rd-db", "--from-db", "100", "--to-db", "100",
                "--alpha-se-db", "300", "--alpha-re-db", "-3000", "--beta-sd-db", "100",
                "--beta-sr-db", "30", "--gamma-th-db", "0", "--rate-rs", "3",
                "--scheme", "mrc_mrc", "--csi", "csi", "--metric", "esr",
            ],
            "mrc_mrc/csi with the relay on evaluates to -inf",
        ),
        # _pole_dd's product underflows to a zero divisor in the bracket
        (
            [
                "--axis", "beta-rd-db", "--from-db", "3000", "--to-db", "3000",
                "--alpha-se-db", "2000", "--alpha-re-db", "3000", "--beta-sd-db", "3000",
                "--gamma-th-db", "0", "--rate-rs", "0.5", "--scheme", "mrc_sc", "--csi", "nocsi",
            ],
            "mrc_sc/nocsi with the relay on fails at",
        ),
        # ... and in the relay slope alone, the cell's value being finite
        (
            [
                "--axis", "balanced-snr-db", "--from-db", "10", "--to-db", "10",
                "--alpha-se-db", "2000", "--alpha-re-db", "2000", "--beta-sd-db", "3",
                "--rate-rs", "0.5", "--scheme", "mrc_sc", "--csi", "nocsi", "--asymptote",
            ],
            "mrc_sc/nocsi relay slope fails at",
        ),
        # the eavesdropper rate sum overflows to inf, outside eiexp's domain
        (
            [
                "--axis", "balanced-snr-db", "--from-db", "10", "--to-db", "10",
                "--alpha-se-db", "-3080", "--alpha-re-db", "-3080", "--metric", "esr",
                "--scheme", "mrc_sc", "--csi", "nocsi",
            ],
            "mrc_sc/nocsi with the relay on fails at",
        ),
        # the balanced asymptote overflows to inf at a 3080 dB threshold
        (
            [
                "--axis", "balanced-snr-db", "--from-db", "-10", "--to-db", "-10",
                "--gamma-th-db", "3080", "--asymptote", "--scheme", "mrc_mrc",
            ],
            "Asymptote(",
        ),
    ],
    ids=[f"argv{i}" for i in range(6)],  # named by position, not by the fragment
)
def test_cli_nonfinite_closed_form_exit_code(argv, fragment, capsys):
    assert main(["sweep", *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numeric failure" in captured.err
    assert fragment in captured.err


def test_cli_quadrature_over_tolerance_exit_code(capsys):
    # the error bound floors near 1e-14; a tighter --quad-tol cannot be met
    assert main(["sweep", "--preset", "fig2", "--quad-tol", "1e-16"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceeds requested tolerance" in captured.err


def test_cli_validate_numeric_failure_exit_code(monkeypatch, capsys):
    def failing_cells(params, cells, shared=None):
        raise NumericError("sop fails")

    monkeypatch.setattr(closed_form, "cells", failing_cells)
    assert main(["validate", "--grid-size", "1", "--mc-trials", "1000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numeric failure: sop fails" in captured.err


def test_cli_close_mrc_destination_rates_at_a_high_target_rate(capsys):
    # beta_rd 0.1 dB stronger than beta_sd at rho - 1 ~ 4096: the
    # divided difference of exp(-k s) must not under- and overflow
    argv = ["sweep", "--axis", "beta-rd-db", "--from-db", "-12.9", "--to-db", "-12.9",
            "--beta-sd-db", "-13", "--rate-rs", "6", "--scheme", "mrc_mrc", "--csi", "nocsi"]
    assert main(argv) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert float(row[7]) == 1.0


def test_cli_preset_with_mc_oracle(tmp_path):
    out = tmp_path / "fig3.csv"
    rc = main(
        ["sweep", "--preset", "fig3", "--mc-trials", "20000", "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    # oracle columns populated
    first = lines[1].split(",")
    assert first[8] != "" and first[9] != ""


def test_cli_unwritable_output_path(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "fig2", "--out", str(tmp_path / "nodir" / "x.csv")])
    assert exc.value.code == 2


def _cli_env():
    import secrelay

    src = str(Path(secrelay.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_cli_import_leaves_out_scipy_integrate():
    # the package computes its special functions itself and the quadrature
    # oracle is numpy code; importing scipy.special alone would add ~0.3 s
    # to every command's start-up
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import secrelay\n"
        "print(scipy_modules())\n"
        "import secrelay.cli\n"
        "print(scipy_modules())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_cli_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.splitlines() == ["[]", "[]"]


def test_closed_form_runs_leave_out_numpy():
    # numpy (~0.1 s) and the thread pool load only when a run reaches an
    # oracle, a random stream or a second worker
    code = (
        "import contextlib, io, sys\n"
        "import secrelay, secrelay.cli, secrelay.fading, secrelay.sweep\n"
        "import secrelay.closed_form, secrelay.asymptotics, secrelay.expint\n"
        "from secrelay.cli import main\n"
        "from secrelay.sweep import PRESET_NAMES, Axis\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(list(argv)) == 0, argv\n"
        "def loaded():\n"
        "    return [m for m in ('numpy', 'concurrent.futures') if m in sys.modules]\n"
        "print(loaded())\n"
        "for preset in PRESET_NAMES:\n"
        "    run('sweep', '--preset', preset)\n"
        "for axis in Axis:\n"
        "    run('sweep', '--axis', axis.value.replace('_', '-'), '--from-db', '0',\n"
        "        '--to-db', '30', '--metric', 'both', '--asymptote')\n"
        "print(loaded())\n"
        "run('sweep', '--preset', 'fig3', '--quad-tol', '1e-9')\n"
        "print(loaded())\n"
        "run('sweep', '--preset', 'fig5', '--mc-trials', '2000')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_cli_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.splitlines() == ["[]", "[]", "['numpy']"]


def test_oracle_names_load_on_first_use():
    # every public name and submodule loads on first use: a bare import
    # loads no submodule, a name only its defining module and what that
    # imports, and numpy only with an oracle name
    import secrelay

    submodules = ("asymptotics", "closed_form", "errors", "expint", "fading", "sweep")
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('secrelay.') or m == 'numpy')\n"
        "import secrelay\n"
        "print(loaded())\n"
        "from secrelay import params_from_db\n"
        "print(loaded())\n"
        f"print([getattr(secrelay, m).__name__ for m in {submodules!r}])\n"
        "print('numpy' in sys.modules)\n"
        "from secrelay import monte_carlo_all, quadrature_sop\n"
        "print(monte_carlo_all is secrelay.oracles.monte_carlo_all,\n"
        "      quadrature_sop is secrelay.oracles.quadrature_sop)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_cli_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.splitlines() == [
        "[]",
        "['secrelay.errors', 'secrelay.fading']",
        str([f"secrelay.{m}" for m in submodules]),
        "False",
        "True True",
    ]
    # each name is its defining module's object: the module its __module__
    # names, or for a constant the modules whose __all__ lists it
    modules = [
        importlib.import_module(f"secrelay.{info.name}")
        for info in pkgutil.iter_modules(secrelay.__path__)
    ]
    for name in secrelay.__all__:
        obj = getattr(secrelay, name)
        homes = (
            [sys.modules[obj.__module__]] if hasattr(obj, "__module__")
            else [m for m in modules if name in getattr(m, "__all__", ())]
        )
        assert homes and all(getattr(m, name) is obj for m in homes), name
    assert {*secrelay.__all__, *submodules} <= set(dir(secrelay))
    with pytest.raises(AttributeError, match="no_such_name"):
        secrelay.no_such_name


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--preset", "fig5", "--mc-trials", "20000", "--seed", "3", "--jobs", "4"],
        ["validate", "--grid-size", "2", "--mc-trials", "20000", "--jobs", "2"],
    ],
    ids=["sweep", "validate"],
)
def test_first_oracle_import_from_worker_threads(argv):
    # each run imports the oracles for the first time in its interpreter;
    # the threaded run must print the bytes of the one-thread run
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "secrelay.cli", *argv[:-1], jobs],
            env=_cli_env(), capture_output=True, timeout=120, check=True,
        ).stdout
        for jobs in (argv[-1], "1")
    ]
    assert outputs[0] and outputs[0] == outputs[1]


def test_cli_sweep_stops_quietly_when_stdout_closes():
    # 2576 rows, ~190 kB: more than the pipe and stdout buffers hold, so the
    # command is still writing when the reader goes away after one line
    cmd = [sys.executable, "-m", "secrelay.cli", "sweep", "--axis", "balanced-snr-db",
           "--from-db", "0", "--to-db", "40", "--step-db", "0.25", "--metric", "both"]
    proc = subprocess.Popen(
        cmd, env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        assert proc.stdout.readline().rstrip("\n") == CSV_HEADER
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (1, "")


def test_cli_validate_stops_quietly_when_stdout_is_closed():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "secrelay.cli", "validate", "--grid-size", "1",
             "--mc-trials", "1000"],
            env=_cli_env(), stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (1, "")
