"""Tests for sweeps, presets, CSV output, validation, and the CLI."""

import dataclasses
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from secrelay import oracles, sweep
from secrelay.cli import MAX_JOBS, main
from secrelay.errors import DomainError
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


def test_quadrature_sweep_takes_one_batch_per_point(monkeypatch, capsys):
    args = ["sweep", "--axis", "balanced-snr-db", "--from-db", "0", "--to-db", "60",
            "--step-db", "20", "--metric", "both", "--quad-tol", "1e-9"]
    batches = []
    quadrature_cells = oracles.quadrature_cells

    def counted(params, cells, *rest):
        batches.append(len(cells))
        return quadrature_cells(params, cells, *rest)

    monkeypatch.setattr(oracles, "quadrature_cells", counted)
    assert main(args) == 0
    one_job = capsys.readouterr().out
    assert batches == [16] * 4
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
    spec = SweepSpec(
        axis=Axis.BALANCED_SNR_DB, start_db=10.0, stop_db=10.0, step_db=1.0, fixed=BASE,
        schemes=SCHEME_ORDER, asymptote=True,
    )
    rows = run_sweep(spec)
    markers = {r.scheme: r.asymptote_value for r in rows if r.csi is CsiMode.NOCSI}
    assert markers[Scheme.SC_SC] == UNSUPPORTED_MARKER
    for s in (Scheme.MRC_SC, Scheme.MRC_MRC, Scheme.SC_MRC):
        assert isinstance(markers[s], float)
    # the threshold axis has no asymptote in any cell; its outage rows used
    # to leave the field empty while its rate rows carried the marker
    gamma = dataclasses.replace(spec, axis=Axis.GAMMA_TH_DB, metrics=(Metric.SOP, Metric.ESR))
    rows = run_sweep(gamma)
    assert len(rows) == 16
    assert all(r.asymptote_value == UNSUPPORTED_MARKER for r in rows)
    # a threshold of -4000 dB is 0; no swept rate is converted (it overflowed)
    low = run_sweep(dataclasses.replace(gamma, start_db=-4000.0, stop_db=-4000.0))
    assert all(r.asymptote_value == UNSUPPORTED_MARKER for r in low)


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
    assert fig4.attach_gamma_floors
    fig5 = figure_preset("fig5")
    assert {v.axis for v in fig5.variants} == {Axis.BETA_RD_DB, Axis.BETA_SR_DB}
    fig6 = figure_preset("fig6")
    assert fig6.metrics == (Metric.ESR,)
    assert len(fig6.variants) == 4


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
        {"mc_abs_floor": 0.0},  # a 0/1 estimate has stderr 0: ratio divides by zero
        {"mc_abs_floor": -1e-4},
        {"mc_abs_floor": float("inf")},
        {"tol_quad_abs": 0.0},
        {"tol_quad_abs": -1e-6},
    ],
)
def test_validation_rejects_degenerate_bands(band):
    with pytest.raises(DomainError):
        run_validation(grid_size=1, seed=3, mc_trials=1000, **band)


def test_validation_runs_one_quadrature_per_cell(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("quadrature_sop", "quadrature_esr"):
        monkeypatch.setattr(oracles, name, counted(getattr(oracles, name)))
    report = run_validation(grid_size=2, seed=5, mc_trials=1000)
    assert report.grid_size == 2
    assert calls.count("quadrature_sop") == 2 * 8
    assert calls.count("quadrature_esr") == 2 * 8


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


def test_cli_validate_exit_codes(capsys):
    assert main(["validate", "--grid-size", "1", "--seed", "3", "--mc-trials", "50000"]) == 0
    out = capsys.readouterr().out
    assert "overall: pass" in out
    rc = main(
        [
            "validate",
            "--grid-size",
            "1",
            "--seed",
            "3",
            "--mc-trials",
            "50000",
            "--tol-quad",
            "1e-300",
        ]
    )
    assert rc == 4


@pytest.mark.parametrize(
    "flag",
    [
        ["--mc-trials", "0"],
        ["--grid-size", "0"],
        ["--quad-tol", "0"],
        ["--quad-tol", "inf"],
        ["--seed", "-1"],
        ["--mc-sigmas", "-1"],
        ["--mc-floor", "0"],
        ["--tol-quad", "0"],
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

    monkeypatch.setattr(sweep, "ThreadPoolExecutor", no_pool)
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


def test_cli_import_leaves_out_scipy_integrate():
    # the quadrature oracle is numpy code; importing scipy.integrate would
    # add ~0.3 s to every command's start-up
    import secrelay

    src = str(Path(secrelay.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, secrelay.cli; print(sorted(m for m in sys.modules if 'integrate' in m))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "[]"
