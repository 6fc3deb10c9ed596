"""The package names the benchmark harness in ``perfbench/`` reaches into.

``perfbench/spans.py`` traces the package from outside by swapping module
attributes for timing wrappers, and ``perfbench/run.py`` reads the Monte
Carlo backend and chunk size.  A cleanup of ``src/`` that renames or drops
one of those names breaks ``perfbench/run.py --trace 1`` without failing any
other test, so this test runs a tiny traced validation point and sweep
through the real tracer.
"""

from pathlib import Path

import pytest

from secrelay import closed_form, kernels, sweep
from secrelay.fading import params_from_db
from secrelay.sweep import Axis, Metric, SweepSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import spans

    return run, spans


def test_tracer_runs_validation_and_sweep(perfbench):
    run, spans = perfbench
    tracer = spans.Tracer()
    spec = SweepSpec(
        axis=Axis.BETA_RD_DB,
        start_db=3.0,
        stop_db=3.0,
        step_db=1.0,
        fixed=params_from_db(0.0, 3.0, 3.0, 10.0, 3.0, 3.0, 1.0),
        metrics=(Metric.SOP, Metric.ESR),
        asymptote=True,
    )
    with tracer.installed():
        report = tracer.root(lambda: sweep.run_validation(grid_size=1, mc_trials=1000))
        rows = tracer.root(lambda: sweep.run_sweep(spec))
        env = run.environment()
        bytes_per_trial = tracer.kernel_bytes_per_trial()
    # the wrappers are removed again
    assert closed_form.sop.__module__ == "secrelay.closed_form"

    assert report.passed
    assert len(rows) == 16
    assert {r.method for r in rows} == {closed_form.Method.CLOSED_FORM.value}
    assert env["mc_backend"] == kernels.active_backend()
    assert bytes_per_trial > 0.0
    for name in (
        "closed_form.sop",
        "closed_form.esr",
        "closed_form.esr_variant",
        "expint.eiexp",
        "kernels.reduce_trials",
        "oracles.quadrature_sop",
        "oracles.quadrature_esr",
        "asymptotics.sop_asymptote_unbalanced",
    ):
        assert tracer.stats[name][0] > 0, name
    # equal-rate cells stay on the closed form: nothing lands on the span the
    # tracer splits off for results tagged Method.LIMIT_FORM
    metrics = tracer.layer_metrics(jobs=2, wall_ns=1)
    assert metrics["closed_form.limit_form_cells"] == 0.0
    assert metrics["expint.eiexp.calls"] > 0.0
