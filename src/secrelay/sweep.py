"""Parameter sweeps, figure presets, CSV emission, and the validation suite."""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, TextIO, Union

from . import asymptotics, closed_form, oracles
from .errors import DomainError, UnsupportedSchemeError
from .fading import (
    CsiMode,
    SCHEME_ORDER,
    Scheme,
    SystemParams,
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
        if not self.step_db > 0.0:
            raise DomainError(f"step_db must be positive, got {self.step_db!r}")
        if self.start_db > self.stop_db:
            raise DomainError("start_db must not exceed stop_db")
        values = []
        i = 0
        while True:
            v = self.start_db + i * self.step_db
            if v > self.stop_db + 1e-9:
                break
            values.append(v)
            i += 1
        return values

    def validate(self) -> None:
        self.axis_values()
        if not (self.schemes and self.modes and self.metrics and self.variants):
            raise DomainError("schemes, modes, metrics, and variants must be non-empty")


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
    rate = 10.0 ** (-value_db / 10.0)
    if axis is Axis.BALANCED_SNR_DB:
        return params.with_(beta_sr=rate, beta_rd=rate)
    if axis is Axis.BETA_RD_DB:
        return params.with_(beta_rd=rate)
    if axis is Axis.BETA_SR_DB:
        return params.with_(beta_sr=rate)
    return params.with_(gamma_th=10.0 ** (value_db / 10.0))


def _unbalanced_case(axis: Axis):
    if axis is Axis.BETA_RD_DB:
        return asymptotics.UnbalancedCase.I
    if axis is Axis.BETA_SR_DB:
        return asymptotics.UnbalancedCase.II
    return None


def _asymptote_cell(spec, axis, params_pt, scheme, csi, metric, value_db):
    beta = 10.0 ** (-value_db / 10.0)
    if metric is Metric.SOP:
        try:
            if axis is Axis.BALANCED_SNR_DB:
                return asymptotics.sop_asymptote_balanced(params_pt, scheme, csi).predict(beta)
            case = _unbalanced_case(axis)
            if case is None:
                return None
            return asymptotics.sop_asymptote_unbalanced(params_pt, scheme, csi, case).predict(beta)
        except UnsupportedSchemeError:
            return UNSUPPORTED_MARKER
    # Rate asymptote exists only for MRC-SC/CSI in the case-II limit.
    if (
        _unbalanced_case(axis) is asymptotics.UnbalancedCase.II
        and scheme is Scheme.MRC_SC
        and csi is CsiMode.CSI
    ):
        return asymptotics.esr_saturation_case2_mrc_sc(params_pt)
    return UNSUPPORTED_MARKER if spec.asymptote else None


def _point_rows(spec: SweepSpec, point_index: int, variant: Variant, value_db: float):
    axis = variant.axis or spec.axis
    params_pt = _apply_axis(spec.fixed.with_(**dict(variant.overrides)), axis, value_db)

    mc = None
    quad_tol = None
    if isinstance(spec.oracle, McOracle):
        mc = oracles.monte_carlo_all(
            params_pt, spec.oracle.trials, spec.oracle.seed, point=point_index
        )
    elif isinstance(spec.oracle, QuadOracle):
        quad_tol = spec.oracle.tol

    floors = None
    if spec.attach_gamma_floors:
        floors = (
            asymptotics.sop_perfect_decoding(params_pt),
            asymptotics.sop_wiretap(params_pt),
        )

    rows = []
    for metric in spec.metrics:
        for csi in spec.modes:
            for scheme in spec.schemes:
                if metric is Metric.SOP:
                    m = closed_form.sop(params_pt, scheme, csi)
                else:
                    m = closed_form.esr(params_pt, scheme, csi)
                o_val = o_err = None
                if mc is not None:
                    est = mc.sop(scheme, csi) if metric is Metric.SOP else mc.esr(scheme, csi)
                    o_val, o_err = est.value, est.stderr
                elif quad_tol is not None:
                    q = (
                        oracles.quadrature_sop(params_pt, scheme, csi, quad_tol)
                        if metric is Metric.SOP
                        else oracles.quadrature_esr(params_pt, scheme, csi, quad_tol)
                    )
                    o_val = q.value
                asym = (
                    _asymptote_cell(spec, axis, params_pt, scheme, csi, metric, value_db)
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
    points = [
        (idx, variant, value_db)
        for idx, (variant, value_db) in enumerate(
            (v, x) for v in spec.variants for x in spec.axis_values()
        )
    ]
    if n_jobs > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            chunks = list(pool.map(lambda p: _point_rows(spec, *p), points))
    else:
        chunks = [_point_rows(spec, *p) for p in points]
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
    return 10.0 ** (-db / 10.0)


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
    """Deterministic random parameter grid for the agreement suite."""
    if not grid_size >= 1:
        raise DomainError(f"grid_size must be >= 1, got {grid_size!r}")
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


@dataclass
class _Worst:
    quad_diff: float = 0.0
    mc_ratio: float = 0.0


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
    combos = [
        (scheme, csi, metric)
        for metric in (Metric.SOP, Metric.ESR)
        for csi in (CsiMode.NOCSI, CsiMode.CSI)
        for scheme in SCHEME_ORDER
    ]
    worst = {c: _Worst() for c in combos}
    worst_variant = 0.0
    worst_shipped = 0.0

    def evaluate_point(item):
        i, params = item
        mc = oracles.monte_carlo_all(params, mc_trials, seed, point=i)
        out = []
        for scheme, csi, metric in combos:
            if metric is Metric.SOP:
                cf = closed_form.sop(params, scheme, csi).value
                q = oracles.quadrature_sop(params, scheme, csi, quad_tol).value
                est = mc.sop(scheme, csi)
            else:
                cf = closed_form.esr(params, scheme, csi).value
                q = oracles.quadrature_esr(params, scheme, csi, quad_tol).value
                est = mc.esr(scheme, csi)
                if scheme is Scheme.MRC_SC and csi is CsiMode.CSI:
                    shipped, q_ref = cf, q
            allowed = mc_sigmas * est.stderr + mc_abs_floor
            out.append((scheme, csi, metric, abs(cf - q), abs(cf - est.value) / allowed))
        variant = closed_form.esr_mrc_sc_csi_variant(params)
        return out, abs(variant - q_ref), abs(shipped - q_ref)

    items = list(enumerate(grid))
    if n_jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            results = list(pool.map(evaluate_point, items))
    else:
        results = [evaluate_point(it) for it in items]

    for out, v_diff, s_diff in results:
        worst_variant = max(worst_variant, v_diff)
        worst_shipped = max(worst_shipped, s_diff)
        for scheme, csi, metric, qd, mr in out:
            w = worst[(scheme, csi, metric)]
            w.quad_diff = max(w.quad_diff, qd)
            w.mc_ratio = max(w.mc_ratio, mr)

    rows = tuple(
        ValidationRow(
            scheme,
            csi,
            metric,
            worst[(scheme, csi, metric)].quad_diff,
            worst[(scheme, csi, metric)].mc_ratio,
            worst[(scheme, csi, metric)].quad_diff <= tol_quad_abs
            and worst[(scheme, csi, metric)].mc_ratio <= 1.0,
        )
        for scheme, csi, metric in combos
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
