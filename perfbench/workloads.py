"""The benchmark's workloads: the jobs each one runs, why, and how each job is checked.

A job is what a ``secrelay`` user waits for: one sweep spec evaluated by
``sweep.run_sweep`` and written by ``sweep.write_csv``, or one grid point of
the three-way check of ``sweep.run_validation``.  Every job runs in this
process with one worker (``n_jobs=1``).  Its output is checked after the
timer stops; a job that raises or fails its check counts as failed.

Checks never compare against stored bytes, because planned changes to the
closed forms alter the CSV bytes on purpose.  Sweep jobs are checked cell
by cell against ``oracles.quadrature_*`` at the acceptance gate's tolerance
(|value - quadrature| <= 1e-6, quadrature tol 1e-9), and a spec repeated
within a run must give the same CSV bytes every time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from secrelay import sweep
from secrelay.fading import params_from_db
from secrelay.sweep import Axis, Metric, QuadOracle, SweepSpec

QUAD_TOL = 1e-9        # quadrature tolerance of the acceptance gate
TOL_QUAD_ABS = 1e-6    # the gate's closed form vs quadrature bound
MC_TRIALS = 10**6      # Monte Carlo trials per validation point, as in the gate
TINY_MC_TRIALS = 10**4
# The gate judges 200 points at 3 standard errors; one run here judges ~80
# points, and comparing two commits judges thousands.  At 3 sigma the worst of
# 750 probed points already used 0.995 of its band, so correct closed forms
# would be flagged now and then; at 5 sigma a false alarm is about one in
# 10^5 points.  The MC work and the 1e-6 quadrature criterion are the gate's.
MC_SIGMAS = 5.0


@dataclass(frozen=True)
class Job:
    """One timed call and its untimed check."""

    key: str
    run: Callable[[], object]
    # Returns (cells produced, error message or None).
    check: Callable[[object], tuple[int, Optional[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # The calibration loop of ``refspeed`` that stresses the machine as these
    # jobs do, so their times can be scaled to reference speed.
    speed: str
    # (seed, tiny) -> endless rounds of jobs; a run stops only between
    # rounds, so every run of a sweep workload times the same mix of jobs.
    rounds: Callable[[int, bool], Iterator[list[Job]]]
    # (tiny) -> the fixed first call the set-up time includes.
    warmup: Callable[[bool], Job]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _validation_job(seed: int, tiny: bool) -> Job:
    def run():
        return sweep.run_validation(
            grid_size=1,
            seed=seed,
            mc_trials=TINY_MC_TRIALS if tiny else MC_TRIALS,
            quad_tol=QUAD_TOL,
            tol_quad_abs=TOL_QUAD_ABS,
            mc_sigmas=MC_SIGMAS,
            n_jobs=1,
        )

    def check(report):
        if report.passed:
            return len(report.rows), None
        return len(report.rows), f"validation point of seed {seed} failed:\n{report.render()}"

    return Job(f"validate seed={seed}", run, check)


def _validate_rounds(seed: int, tiny: bool) -> Iterator[list[Job]]:
    rng = random.Random(seed)
    while True:
        yield [_validation_job(rng.randrange(2**32), tiny)]


# ---------------------------------------------------------------------------
# Sweep workloads
# ---------------------------------------------------------------------------


def _sweep_job(key: str, spec: SweepSpec, digests: dict, reference=None) -> Job:
    """``reference`` holds quadrature values per row; None when the spec
    carries its own quadrature oracle column."""

    def run():
        rows = sweep.run_sweep(spec, n_jobs=1)
        buf = io.StringIO()
        sweep.write_csv(rows, buf)
        return rows, buf.getvalue()

    def check(out):
        rows, text = out
        oracle = [r.oracle_value for r in rows] if reference is None else reference
        if len(oracle) != len(rows) or not rows:
            return len(rows), f"{key}: {len(rows)} rows against {len(oracle)} reference values"
        worst = max(abs(r.value - q) for r, q in zip(rows, oracle))
        if not worst <= TOL_QUAD_ABS:
            return len(rows), f"{key}: worst |value - quadrature| = {worst:.3e} > {TOL_QUAD_ABS:g}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digests.setdefault(key, digest) != digest:
            return len(rows), f"{key}: CSV bytes differ from an earlier repetition in this run"
        return len(rows), None

    return Job(key, run, check)


def _with_quad(spec: SweepSpec) -> SweepSpec:
    return dataclasses.replace(spec, oracle=QuadOracle(QUAD_TOL))


def _quad_reference(spec: SweepSpec) -> list[float]:
    return [r.oracle_value for r in sweep.run_sweep(_with_quad(spec), n_jobs=1)]


def _fixed_rounds(specs: list[tuple[str, SweepSpec]], seed: int, tiny: bool, with_reference: bool):
    """Repeat the given specs in a seeded order.  Quadrature references are
    computed here, when the workload is set up, before any timing starts."""
    specs = list(specs)
    random.Random(seed).shuffle(specs)
    if tiny:
        specs = specs[:2]
    digests: dict = {}
    jobs = [
        _sweep_job(key, spec, digests, _quad_reference(spec) if with_reference else None)
        for key, spec in specs
    ]
    return itertools.repeat(jobs)


def _presets(with_quad: bool) -> list[tuple[str, SweepSpec]]:
    out = []
    for name in sweep.PRESET_NAMES:
        spec = sweep.figure_preset(name)
        out.append((name, _with_quad(spec) if with_quad else spec))
    return out


def _presets_quad_rounds(seed, tiny):
    return _fixed_rounds(_presets(with_quad=True), seed, tiny, with_reference=False)


def _presets_rounds(seed, tiny):
    return _fixed_rounds(_presets(with_quad=False), seed, tiny, with_reference=True)


# The CLI's ad-hoc sweep defaults, in dB: the direct link S-D is at 3 dB, so a
# beta_rd_db axis over integers crosses beta_rd == beta_sd at 3 dB.
_CLI_DEFAULTS_DB = dict(alpha_se_db=0.0, alpha_re_db=3.0, beta_sd_db=3.0, beta_sr_db=10.0,
                        beta_rd_db=3.0, gamma_th_db=3.0, rate_rs=1.0)
EQUAL_RATE_SPECS = 4


def _equal_rate_spec(**db) -> SweepSpec:
    return SweepSpec(
        axis=Axis.BETA_RD_DB,
        start_db=0.0,
        stop_db=30.0,
        step_db=1.0,
        fixed=params_from_db(**{**_CLI_DEFAULTS_DB, **db}),
        metrics=(Metric.SOP, Metric.ESR),
        asymptote=True,
    )


def _equal_rate_rounds(seed, tiny):
    # The seed draws the parameters the crossing does not depend on; the
    # direct link stays at 3 dB so each spec has its 8 limit-form cells
    # (the MRC-destination schemes x 2 CSI modes x 2 metrics at 3 dB).
    rng = random.Random(seed)
    specs = []
    for i in range(EQUAL_RATE_SPECS):
        db = dict(
            alpha_se_db=rng.uniform(-3.0, 3.0),
            alpha_re_db=rng.uniform(0.0, 6.0),
            beta_sr_db=rng.uniform(5.0, 15.0),
            gamma_th_db=rng.uniform(0.0, 6.0),
            rate_rs=rng.uniform(0.5, 1.5),
        )
        specs.append((f"equal_rate_{i}", _equal_rate_spec(**db)))
    return _fixed_rounds(specs, seed, tiny, with_reference=True)


def _warmup_sweep(spec: SweepSpec) -> Job:
    return _sweep_job("warmup", spec, {}, None)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "validate",
            "one grid point's three-way check (1e6 MC trials, quad tol 1e-9): the heaviest user "
            "job, dominated by fading uniforms and the kernels MC reduction",
            "numpy",
            _validate_rounds,
            lambda tiny: _validation_job(0, tiny),
        ),
        Workload(
            "presets_quad",
            "the six figure presets with a 1e-9 quadrature oracle (944 cells): quadrature "
            "dominates and no MC runs, so MC changes must read no change",
            "interpreter",
            _presets_quad_rounds,
            lambda tiny: _warmup_sweep(_with_quad(sweep.figure_preset("fig3"))),
        ),
        Workload(
            "presets",
            "the six presets as shipped, no oracle: isolates closed_form, expint, asymptotics "
            "and sweep; the bypass case for MC and quadrature changes",
            "interpreter",
            _presets_rounds,
            lambda tiny: _warmup_sweep(sweep.figure_preset("fig2")),
        ),
        Workload(
            "equal_rate_sweep",
            "beta_rd_db 0-30 dB through the 3 dB direct link, sop+esr, asymptotes: the only "
            "workload whose cells take the limit-form quadrature route (8 of 496)",
            "interpreter",
            _equal_rate_rounds,
            lambda tiny: _warmup_sweep(_equal_rate_spec()),
        ),
    )
}
