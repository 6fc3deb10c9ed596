"""Parameter sweeps, figure presets, CSV emission, and the validation suite."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import product
from typing import Iterable, Optional, TextIO, Union

from . import asymptotics, closed_form, oracles
from .errors import DomainError, UnsupportedSchemeError
from .fading import (
    CsiMode,
    SCHEME_ORDER,
    Scheme,
    SystemParams,
    db_to_linear,
    params_from_db,
    stream,
    PURPOSE_GRID,
)

__all__ = [
    "Axis",
    "Metric",
    "Variant",
    "McOracle",
    "QuadOracle",
    "SweepSpec",
    "SweepRow",
    "CSV_HEADER",
    "run_sweep",
    "write_csv",
    "figure_preset",
    "PRESET_NAMES",
    "sample_grid",
    "run_validation",
    "ValidationReport",
]

UNSUPPORTED_MARKER = "unsupported"

# Most points one sweep axis or one validation grid may have (a preset axis
# has at most 41).  A grid is sampled in full before its first point runs.
MAX_AXIS_POINTS = 100_000


class Axis(Enum):
    BALANCED_SNR_DB = "balanced_snr_db"
    BETA_RD_DB = "beta_rd_db"
    BETA_SR_DB = "beta_sr_db"
    GAMMA_TH_DB = "gamma_th_db"


class Metric(Enum):
    SOP = "sop"
    ESR = "esr"


@dataclass(frozen=True)
class Variant:
    """One curve family: a label, parameter overrides, optional axis override."""

    label: str = ""
    overrides: tuple[tuple[str, float], ...] = ()
    axis: Optional[Axis] = None


@dataclass(frozen=True)
class McOracle:
    trials: int
    seed: int = 0


@dataclass(frozen=True)
class QuadOracle:
    tol: float = oracles.DEFAULT_QUAD_TOL


@dataclass(frozen=True)
class SweepSpec:
    axis: Axis
    start_db: float
    stop_db: float
    step_db: float
    fixed: SystemParams
    schemes: tuple[Scheme, ...] = SCHEME_ORDER
    modes: tuple[CsiMode, ...] = (CsiMode.NOCSI, CsiMode.CSI)
    metrics: tuple[Metric, ...] = (Metric.SOP,)
    oracle: Union[McOracle, QuadOracle, None] = None
    asymptote: bool = False
    variants: tuple[Variant, ...] = (Variant(),)
    attach_gamma_floors: bool = False

    def axis_values(self) -> list[float]:
        for name in ("start_db", "stop_db", "step_db"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.step_db > 0.0:
            raise DomainError(f"step_db must be positive, got {self.step_db!r}")
        if self.start_db > self.stop_db:
            raise DomainError("start_db must not exceed stop_db")
        # Counting the steps in the loop also stops it where start_db + i *
        # step_db rounds back to start_db and would never pass stop_db.
        values = []
        for i in range(MAX_AXIS_POINTS + 1):
            v = self.start_db + i * self.step_db
            if v > self.stop_db + 1e-9:
                return values
            values.append(v)
        raise DomainError(
            f"the axis from {self.start_db!r} to {self.stop_db!r} dB in steps of "
            f"{self.step_db!r} dB has more than {MAX_AXIS_POINTS} points"
        )

    def validate(self) -> None:
        self.axis_values()
        if not (self.schemes and self.modes and self.metrics and self.variants):
            raise DomainError("schemes, modes, metrics, and variants must be non-empty")
        # A repeat would emit every row it touches twice; variants are told
        # apart in the CSV by their labels alone.
        for name, items in (
            ("schemes", self.schemes),
            ("modes", self.modes),
            ("metrics", self.metrics),
            ("variant labels", [v.label for v in self.variants]),
        ):
            if len(set(items)) != len(items):
                shown = [getattr(x, "value", x) for x in items]
                raise DomainError(f"{name} must not repeat, got {shown!r}")


@dataclass(frozen=True)
class SweepRow:
    axis: Axis
    axis_value_db: float
    variant: str
    scheme: Scheme
    csi: CsiMode
    metric: Metric
    method: str
    value: float
    oracle_value: Optional[float] = None
    oracle_stderr: Optional[float] = None
    asymptote_value: Union[float, str, None] = None
    floor_gamma_zero: Optional[float] = None
    floor_gamma_inf: Optional[float] = None


CSV_HEADER = (
    "axis,axis_value_db,variant,scheme,csi,metric,method,value,"
    "oracle_value,oracle_stderr,asymptote_value,floor_gamma_zero,floor_gamma_inf"
)


def _apply_axis(params: SystemParams, axis: Axis, value_db: float) -> SystemParams:
    name = f"axis value {value_db!r} dB"
    if axis is Axis.GAMMA_TH_DB:
        return params.with_(gamma_th=db_to_linear(value_db, name))
    rate = db_to_linear(-value_db, name)
    if axis is Axis.BALANCED_SNR_DB:
        return params.with_(beta_sr=rate, beta_rd=rate)
    if axis is Axis.BETA_RD_DB:
        return params.with_(beta_rd=rate)
    return params.with_(beta_sr=rate)


def _unbalanced_case(axis: Axis):
    if axis is Axis.BETA_RD_DB:
        return asymptotics.UnbalancedCase.I
    if axis is Axis.BETA_SR_DB:
        return asymptotics.UnbalancedCase.II
    return None


def _asymptote_cell(axis, params_pt, scheme, csi, metric, value_db):
    """The cell's asymptote, or :data:`UNSUPPORTED_MARKER` where it has none."""
    case = _unbalanced_case(axis)
    if metric is Metric.SOP and (case is not None or axis is Axis.BALANCED_SNR_DB):
        beta = db_to_linear(-value_db)
        try:
            if case is None:
                return asymptotics.sop_asymptote_balanced(params_pt, scheme, csi).predict(beta)
            return asymptotics.sop_asymptote_unbalanced(params_pt, scheme, csi, case).predict(beta)
        except UnsupportedSchemeError:
            return UNSUPPORTED_MARKER
    # Rate asymptote exists only for MRC-SC/CSI in the case-II limit.
    if (
        metric is Metric.ESR
        and case is asymptotics.UnbalancedCase.II
        and scheme is Scheme.MRC_SC
        and csi is CsiMode.CSI
    ):
        return asymptotics.esr_saturation_case2_mrc_sc(params_pt)
    return UNSUPPORTED_MARKER


def _cells(metrics, modes, schemes):
    """(scheme, csi, metric) cells, metric slowest and scheme fastest."""
    return [(scheme, csi, metric) for metric in metrics for csi in modes for scheme in schemes]


# The dispatches on a cell's metric look their functions up at call time,
# so a wrapper patched onto the module applies.


def _closed_form(params, scheme, csi, metric):
    fn = closed_form.sop if metric is Metric.SOP else closed_form.esr
    return fn(params, scheme, csi)


def _estimate(mc, scheme, csi, metric):
    return mc.sop(scheme, csi) if metric is Metric.SOP else mc.esr(scheme, csi)


def _map(fn, items, n_jobs):
    """``[fn(x) for x in items]``, on ``n_jobs`` worker threads if above 1;
    results come back in ``items`` order."""
    if n_jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _point_rows(spec: SweepSpec, item):
    point_index, (variant, value_db) = item
    axis = variant.axis or spec.axis
    params_pt = _apply_axis(spec.fixed.with_(**dict(variant.overrides)), axis, value_db)

    cells = _cells(spec.metrics, spec.modes, spec.schemes)
    mc = quad = None
    if isinstance(spec.oracle, McOracle):
        mc = oracles.monte_carlo_all(
            params_pt, spec.oracle.trials, spec.oracle.seed, point=point_index
        )
    elif isinstance(spec.oracle, QuadOracle):
        quad = oracles.quadrature_cells(
            params_pt, [(s, c, m.value) for s, c, m in cells], spec.oracle.tol
        )

    floors = None
    if spec.attach_gamma_floors:
        floors = (
            asymptotics.sop_perfect_decoding(params_pt),
            asymptotics.sop_wiretap(params_pt),
        )

    rows = []
    for k, (scheme, csi, metric) in enumerate(cells):
        m = _closed_form(params_pt, scheme, csi, metric)
        o_val = o_err = None
        if mc is not None:
            est = _estimate(mc, scheme, csi, metric)
            o_val, o_err = est.value, est.stderr
        elif quad is not None:
            o_val = quad[k].value
        asym = (
            _asymptote_cell(axis, params_pt, scheme, csi, metric, value_db)
            if spec.asymptote
            else None
        )
        use_floors = (
            floors is not None
            and metric is Metric.SOP
            and scheme is Scheme.MRC_MRC
            and csi is CsiMode.NOCSI
        )
        rows.append(
            SweepRow(
                axis=axis,
                axis_value_db=value_db,
                variant=variant.label,
                scheme=scheme,
                csi=csi,
                metric=metric,
                method=m.method.value,
                value=m.value,
                oracle_value=o_val,
                oracle_stderr=o_err,
                asymptote_value=asym,
                floor_gamma_zero=floors[0] if use_floors else None,
                floor_gamma_inf=floors[1] if use_floors else None,
            )
        )
    return rows


def run_sweep(spec: SweepSpec, n_jobs: int = 1) -> list[SweepRow]:
    """Evaluate a sweep; rows come back in deterministic axis-major order
    (variant, then axis value, then metric/mode, scheme fastest) regardless
    of the worker count."""
    spec.validate()
    points = list(enumerate(product(spec.variants, spec.axis_values())))
    chunks = _map(partial(_point_rows, spec), points, n_jobs)
    return [row for chunk in chunks for row in chunk]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return "%.17g" % value


def write_csv(rows: Iterable[SweepRow], out: TextIO) -> None:
    out.write(CSV_HEADER + "\n")
    for r in rows:
        out.write(
            ",".join(
                (
                    r.axis.value,
                    _fmt(r.axis_value_db),
                    r.variant,
                    r.scheme.value,
                    r.csi.value,
                    r.metric.value,
                    r.method,
                    _fmt(r.value),
                    _fmt(r.oracle_value),
                    _fmt(r.oracle_stderr),
                    _fmt(r.asymptote_value),
                    _fmt(r.floor_gamma_zero),
                    _fmt(r.floor_gamma_inf),
                )
            )
            + "\n"
        )


# ---------------------------------------------------------------------------
# Figure presets.
# ---------------------------------------------------------------------------

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

# Shared defaults: threshold 3 dB, eavesdropper links 0 / 3 dB, direct link
# 3 dB, one bit per channel use.
_BASE = params_from_db(0.0, 3.0, 3.0, 10.0, 3.0, 3.0, 1.0)


def _rate(db: float) -> float:
    return db_to_linear(-db)


def figure_preset(name: str) -> SweepSpec:
    """Named sweep description reproducing one of the reference curves."""
    if name == "fig2":
        return SweepSpec(
            axis=Axis.BALANCED_SNR_DB,
            start_db=0.0,
            stop_db=30.0,
            step_db=2.0,
            fixed=_BASE,
            metrics=(Metric.SOP,),
            variants=(
                Variant("rs0.1", (("rate_rs", 0.1),)),
                Variant("rs1", (("rate_rs", 1.0),)),
            ),
        )
    if name == "fig3":
        return SweepSpec(
            axis=Axis.BALANCED_SNR_DB,
            start_db=0.0,
            stop_db=40.0,
            step_db=2.0,
            fixed=_BASE,
            schemes=(Scheme.MRC_MRC,),
            modes=(CsiMode.CSI,),
            metrics=(Metric.SOP,),
            asymptote=True,
            variants=tuple(
                Variant(
                    f"ase{a:g}db_bsd{b:g}db",
                    (("alpha_se", _rate(a)), ("beta_sd", _rate(b))),
                )
                for a in (0.0, 6.0)
                for b in (9.0, 3.0)
            ),
        )
    if name == "fig4":
        return SweepSpec(
            axis=Axis.GAMMA_TH_DB,
            start_db=-30.0,
            stop_db=50.0,
            step_db=2.0,
            fixed=_BASE,
            schemes=(Scheme.MRC_MRC,),
            metrics=(Metric.SOP,),
            attach_gamma_floors=True,
            variants=(
                Variant(
                    "bsd40_brd3",
                    (
                        ("beta_sd", _rate(40.0)),
                        ("beta_rd", _rate(3.0)),
                        ("beta_sr", _rate(3.0)),
                    ),
                ),
                Variant(
                    "bsd3_brd40",
                    (
                        ("beta_sd", _rate(3.0)),
                        ("beta_rd", _rate(40.0)),
                        ("beta_sr", _rate(40.0)),
                    ),
                ),
            ),
        )
    if name == "fig5":
        return SweepSpec(
            axis=Axis.BETA_RD_DB,
            start_db=0.0,
            stop_db=50.0,
            step_db=2.0,
            fixed=_BASE,
            schemes=(Scheme.MRC_MRC,),
            metrics=(Metric.SOP,),
            asymptote=True,
            variants=(
                Variant("case_I", (("beta_sr", _rate(30.0)),), Axis.BETA_RD_DB),
                Variant("case_II", (("beta_rd", _rate(30.0)),), Axis.BETA_SR_DB),
            ),
        )
    if name == "fig6":
        fixed = _BASE.with_(alpha_re=_rate(3.5))
        return SweepSpec(
            axis=Axis.BALANCED_SNR_DB,
            start_db=0.0,
            stop_db=30.0,
            step_db=2.0,
            fixed=fixed,
            schemes=(Scheme.MRC_SC, Scheme.SC_MRC),
            modes=(CsiMode.CSI,),
            metrics=(Metric.ESR,),
            variants=tuple(
                Variant(
                    f"ase{a:g}db_bsd{b:g}db",
                    (("alpha_se", _rate(a)), ("beta_sd", _rate(b))),
                )
                for a in (0.0, 6.0)
                for b in (9.5, 3.5)
            ),
        )
    if name == "fig7":
        fixed = _BASE.with_(alpha_re=_rate(3.5))
        return SweepSpec(
            axis=Axis.BETA_RD_DB,
            start_db=0.0,
            stop_db=50.0,
            step_db=2.0,
            fixed=fixed,
            schemes=(Scheme.MRC_SC, Scheme.SC_MRC),
            metrics=(Metric.ESR,),
            asymptote=True,
            variants=(
                Variant("case_I", (("beta_sr", _rate(30.0)),), Axis.BETA_RD_DB),
                Variant("case_II", (("beta_rd", _rate(30.0)),), Axis.BETA_SR_DB),
            ),
        )
    raise DomainError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")


# ---------------------------------------------------------------------------
# Three-way validation.
# ---------------------------------------------------------------------------

_RATE_LO, _RATE_HI = 0.05, 20.0
_GAMMA_TH_HI = 6.0
_RS_LO, _RS_HI = 0.1, 2.0


def sample_grid(grid_size: int, seed: int) -> list[SystemParams]:
    """Deterministic random parameter grid for the agreement suite, of at
    most :data:`MAX_AXIS_POINTS` points."""
    if not 1 <= grid_size <= MAX_AXIS_POINTS:
        raise DomainError(f"grid_size must be in [1, {MAX_AXIS_POINTS}], got {grid_size!r}")
    gen = stream(seed, point=0, purpose=PURPOSE_GRID)
    log_span = math.log(_RATE_HI / _RATE_LO)
    grid = []
    for _ in range(grid_size):
        u = gen.random(7)
        rates = [_RATE_LO * math.exp(log_span * x) for x in u[:5]]
        grid.append(
            SystemParams(
                alpha_se=rates[0],
                alpha_re=rates[1],
                beta_sd=rates[2],
                beta_sr=rates[3],
                beta_rd=rates[4],
                gamma_th=_GAMMA_TH_HI * u[5],
                rate_rs=_RS_LO + (_RS_HI - _RS_LO) * u[6],
            )
        )
    return grid


@dataclass(frozen=True)
class ValidationRow:
    scheme: Scheme
    csi: CsiMode
    metric: Metric
    worst_quad_diff: float
    worst_mc_ratio: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    rows: tuple[ValidationRow, ...]
    grid_size: int
    seed: int
    mc_trials: int
    quad_tol: float
    tol_quad_abs: float
    mc_sigmas: float
    mc_abs_floor: float
    variant_note: str

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def render(self) -> str:
        lines = [
            "three-way agreement: closed form vs quadrature vs monte carlo",
            (
                f"grid={self.grid_size} seed={self.seed} mc_trials={self.mc_trials} "
                f"quad_tol={self.quad_tol:g} tol_quad_abs={self.tol_quad_abs:g} "
                f"mc_tol={self.mc_sigmas:g}*stderr+{self.mc_abs_floor:g}"
            ),
            "",
            "scheme   csi    metric  worst|cf-quad|  worst|cf-mc|/allowed  result",
        ]
        for r in self.rows:
            lines.append(
                f"{r.scheme.value:<8s} {r.csi.value:<6s} {r.metric.value:<6s}  "
                f"{r.worst_quad_diff:<14.3e}  {r.worst_mc_ratio:<20.3f}  "
                f"{'pass' if r.passed else 'FAIL'}"
            )
        lines.append("")
        lines.append(self.variant_note)
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines) + "\n"


def run_validation(
    grid_size: int = 200,
    seed: int = 7,
    mc_trials: int = 10**6,
    quad_tol: float = oracles.DEFAULT_QUAD_TOL,
    tol_quad_abs: float = 1e-6,
    mc_sigmas: float = 3.0,
    mc_abs_floor: float = 1e-4,
    n_jobs: int = 1,
) -> ValidationReport:
    """Run the closed-form / quadrature / Monte Carlo agreement suite.

    For every grid point and every scheme/CSI/metric combination the closed
    form must sit within ``tol_quad_abs`` of quadrature and within
    ``mc_sigmas * stderr + mc_abs_floor`` of the Monte Carlo estimate.
    Tolerances that make the check vacuous (a negative or infinite band)
    or unpassable (a zero band, which also divides by a zero stderr)
    raise :class:`DomainError` before any point is evaluated.
    """
    if not (tol_quad_abs > 0.0 and math.isfinite(tol_quad_abs)):
        raise DomainError(f"tol_quad_abs must be positive and finite, got {tol_quad_abs!r}")
    if not (mc_sigmas >= 0.0 and math.isfinite(mc_sigmas)):
        raise DomainError(f"mc_sigmas must be >= 0 and finite, got {mc_sigmas!r}")
    if not (mc_abs_floor > 0.0 and math.isfinite(mc_abs_floor)):
        raise DomainError(f"mc_abs_floor must be positive and finite, got {mc_abs_floor!r}")
    grid = sample_grid(grid_size, seed)
    cells = _cells(Metric, CsiMode, SCHEME_ORDER)

    def evaluate_point(item):
        i, params = item
        mc = oracles.monte_carlo_all(params, mc_trials, seed, point=i)
        diffs = []
        for scheme, csi, metric in cells:
            cf = _closed_form(params, scheme, csi, metric).value
            quad = oracles.quadrature_sop if metric is Metric.SOP else oracles.quadrature_esr
            q = quad(params, scheme, csi, quad_tol).value
            est = _estimate(mc, scheme, csi, metric)
            allowed = mc_sigmas * est.stderr + mc_abs_floor
            diffs += (abs(cf - q), abs(cf - est.value) / allowed)
            if metric is Metric.ESR and scheme is Scheme.MRC_SC and csi is CsiMode.CSI:
                shipped, q_ref = cf, q
        variant = closed_form.esr_mrc_sc_csi_variant(params)
        return diffs + [abs(variant - q_ref), abs(shipped - q_ref)]

    results = _map(evaluate_point, list(enumerate(grid)), n_jobs)
    # Each column's worst over the grid: every cell's |cf - quad| and
    # |cf - mc| / allowed, then the note's variant and shipped differences.
    *cell_worst, worst_variant, worst_shipped = [max(0.0, *col) for col in zip(*results)]
    rows = tuple(
        ValidationRow(scheme, csi, metric, qd, mr, qd <= tol_quad_abs and mr <= 1.0)
        for (scheme, csi, metric), qd, mr in zip(cells, cell_worst[0::2], cell_worst[1::2])
    )
    note = (
        "mrc_sc/csi esr argument-pairing check: shipped form worst "
        f"|cf-quad|={worst_shipped:.3e}; rejected variant worst "
        f"|alt-quad|={worst_variant:.3e}"
    )
    return ValidationReport(
        rows=rows,
        grid_size=grid_size,
        seed=seed,
        mc_trials=mc_trials,
        quad_tol=quad_tol,
        tol_quad_abs=tol_quad_abs,
        mc_sigmas=mc_sigmas,
        mc_abs_floor=mc_abs_floor,
        variant_note=note,
    )
