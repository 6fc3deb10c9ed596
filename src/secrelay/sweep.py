"""Parameter sweeps, figure presets, CSV emission, and the validation suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple, Optional, TextIO, Union

from . import asymptotics, closed_form
from .errors import DomainError
from .fading import (
    DEFAULT_QUAD_TOL,
    CsiMode,
    Metric,
    SCHEME_ORDER,
    Scheme,
    SystemParams,
    check_tolerance,
    db_to_linear,
    is_integer,
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
    "BASE_DB",
    "sample_grid",
    "run_validation",
    "ValidationReport",
]

UNSUPPORTED_MARKER = "unsupported"
_METHOD = closed_form.Method.CLOSED_FORM.value

# Most points one sweep axis or one validation grid may have (a preset axis
# has at most 41).  A grid is sampled in full before its first point runs.
MAX_AXIS_POINTS = 100_000


class Axis(Enum):
    BALANCED_SNR_DB = "balanced_snr_db"
    BETA_RD_DB = "beta_rd_db"
    BETA_SR_DB = "beta_sr_db"
    GAMMA_TH_DB = "gamma_th_db"


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
    tol: float = DEFAULT_QUAD_TOL


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
        if isinstance(self.oracle, QuadOracle):  # the oracle's settings, before any closed form
            check_tolerance(self.oracle.tol, "tol")
        elif isinstance(self.oracle, McOracle):
            from . import oracles
            oracles.check_trials(self.oracle.trials, self.oracle.seed)


class SweepRow(NamedTuple):
    """One CSV row; the fields, in order, are the CSV columns."""

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


CSV_HEADER = ",".join(SweepRow._fields)


def _apply_axis(params: SystemParams, axis: Axis, value_db: float) -> SystemParams:
    db = value_db if axis is Axis.GAMMA_TH_DB else -value_db
    try:
        linear = db_to_linear(db)
    except DomainError:  # raised again naming the value, whose repr costs more than the power
        linear = db_to_linear(db, f"axis value {value_db!r} dB")
    if axis is Axis.GAMMA_TH_DB:
        return params.with_(gamma_th=linear)
    if axis is Axis.BALANCED_SNR_DB:
        return params.with_(beta_sr=linear, beta_rd=linear)
    if axis is Axis.BETA_RD_DB:
        return params.with_(beta_rd=linear)
    return params.with_(beta_sr=linear)


_UNBALANCED_CASE = {
    Axis.BETA_RD_DB: asymptotics.UnbalancedCase.I,
    Axis.BETA_SR_DB: asymptotics.UnbalancedCase.II,
}


def _asymptote(axis, params, scheme, csi, metric):
    """The cell's asymptote on a curve: a line in the swept rate, a floor,
    or :data:`UNSUPPORTED_MARKER` where it has none."""
    case = _UNBALANCED_CASE.get(axis)
    if metric is Metric.SOP and axis is Axis.BALANCED_SNR_DB:
        return asymptotics.sop_asymptote_balanced(params, scheme, csi)
    if metric is Metric.SOP and case is not None:
        return asymptotics.sop_asymptote_unbalanced(params, scheme, csi, case)
    # The case-II rate floor is the decode-success rate; the balanced and
    # case-I rate lines are not derived yet.
    if case is asymptotics.UnbalancedCase.II:
        return closed_form.esr_conditional(params, scheme, csi, relay_on=True)
    return UNSUPPORTED_MARKER


def _cells(metrics, modes, schemes):
    """(scheme, csi, metric) cells, metric slowest and scheme fastest."""
    return [(scheme, csi, metric) for metric in metrics for csi in modes for scheme in schemes]


_FLOOR_CELL = (Scheme.MRC_MRC, CsiMode.NOCSI, Metric.SOP)


def _curve(spec: SweepSpec, cells, variant: Variant):
    """One variant's curve: its label, axis and fixed parameters, and per
    cell the columns every point of it shares (the cell, the asymptote and
    the two threshold floors).  None of them reads the swept field, so each is
    computed once per curve rather than once per point."""
    axis = variant.axis or spec.axis
    params = spec.fixed.with_(**dict(variant.overrides))
    shared = []
    for scheme, csi, metric in cells:
        asym = _asymptote(axis, params, scheme, csi, metric) if spec.asymptote else None
        # A threshold sweep's MRC-MRC no-CSI outage carries its gamma -> 0
        # and gamma -> infinity floors.
        floors = (None, None)
        if axis is Axis.GAMMA_TH_DB and (scheme, csi, metric) == _FLOOR_CELL:
            floors = (asymptotics.sop_perfect_decoding(params), asymptotics.sop_wiretap(params))
        shared.append((scheme, csi, metric, asym, *floors))
    return variant.label, axis, params, shared


def run_sweep(spec: SweepSpec, n_jobs: int = 1) -> list[SweepRow]:
    """Evaluate a sweep; rows come back in deterministic axis-major order
    (variant, then axis value, then metric/mode, scheme fastest) regardless
    of the worker count.  The closed forms of all points, curve by curve,
    run in one :func:`closed_form.cells` call, then the oracle column in
    one ``quadrature_cells`` call or one ``monte_carlo_all`` call, whose
    points run on ``n_jobs`` worker threads; then each point's rows and
    lines.  Each call keeps its decode-branch results for the call, so a
    branch the axis does not reach is computed once per curve, not once
    per point."""
    spec.validate()
    cells = _cells(spec.metrics, spec.modes, spec.schemes)
    curves = [_curve(spec, cells, variant) for variant in spec.variants]
    values = spec.axis_values()
    points = [(curve, value_db) for curve in curves for value_db in values]  # curve-major
    grid = [_apply_axis(params, axis, value_db) for (_, axis, params, _), value_db in points]
    cf_values = closed_form.cells(grid, cells)
    oracle = spec.oracle
    if isinstance(oracle, QuadOracle):
        from . import oracles
        columns = [[(q.value, None) for q in quad]
                   for quad in oracles.quadrature_cells(grid, cells, oracle.tol)]
    elif isinstance(oracle, McOracle):
        from . import oracles
        columns = [[(e.value, e.stderr) for e in estimates] for estimates in
                   oracles.monte_carlo_all(grid, cells, oracle.trials, oracle.seed, n_jobs)]
    else:
        columns = [[(None, None)] * len(cells)] * len(points)
    rows = []
    new_row = tuple.__new__  # a SweepRow without NamedTuple's Python __new__
    for ((label, axis, _, shared), value_db), point_values, point_columns in zip(
        points, cf_values, columns
    ):
        rate = None
        for (scheme, csi, metric, asym, low, high), value, (oracle, stderr) in zip(
            shared, point_values, point_columns
        ):
            if isinstance(asym, asymptotics.Asymptote):  # only a line reads the swept rate
                rate = rate or db_to_linear(-value_db)
                asym = asym.predict(rate)
            rows.append(new_row(SweepRow, (
                axis, value_db, label, scheme, csi, metric, _METHOD, value, oracle, stderr, asym,
                low, high)))
    return rows


class _RowFormats(dict):
    """Row %-formats by the optional columns' classes; ``%.0s`` prints a None as nothing."""

    def __missing__(self, kinds):
        optional = ["%.0s" if k is type(None) else "%s" if issubclass(k, str) else "%.17g"
                    for k in kinds]
        fmt = self[kinds] = ",".join(["%s,%s,%s,%s,%s,%s,%s,%.17g", *optional]) + "\n"
        return fmt


def write_csv(rows: Iterable[SweepRow], out: TextIO) -> None:
    out.write(CSV_HEADER + "\n")
    formats = _RowFormats()
    last_db = axis_text = None
    for (axis, value_db, label, scheme, csi, metric, method, value,
         oracle, stderr, asym, low, high) in rows:
        if value_db is not last_db:  # a point's rows share its axis value
            last_db, axis_text = value_db, "%.17g" % value_db
        out.write(formats[type(oracle), type(stderr), type(asym), type(low), type(high)] % (
            axis._value_, axis_text, label, scheme._value_, csi._value_, metric._value_, method,
            value, oracle, stderr, asym, low, high))


# ---------------------------------------------------------------------------
# Figure presets.
# ---------------------------------------------------------------------------

# The default operating point: eavesdropper links 0 / 3 dB, direct link
# 3 dB, relay hops 10 / 3 dB, threshold 3 dB, one bit per channel use.
BASE_DB = dict(
    alpha_se_db=0.0, alpha_re_db=3.0, beta_sd_db=3.0, beta_sr_db=10.0, beta_rd_db=3.0,
    gamma_th_db=3.0, rate_rs=1.0,
)
_BASE = params_from_db(**BASE_DB)


def _rate(db: float) -> float:
    return db_to_linear(-db)


def _ase_bsd(bsd_dbs):
    """The 2x2 curve family of S-E links 0 / 6 dB against two direct links."""
    return tuple(
        Variant(f"ase{a:g}db_bsd{b:g}db", (("alpha_se", _rate(a)), ("beta_sd", _rate(b))))
        for a in (0.0, 6.0)
        for b in bsd_dbs
    )


# Case I sweeps the R-D hop past a 30 dB S-R hop; case II the reverse.
_UNBALANCED_VARIANTS = (
    Variant("case_I", (("beta_sr", _rate(30.0)),), Axis.BETA_RD_DB),
    Variant("case_II", (("beta_rd", _rate(30.0)),), Axis.BETA_SR_DB),
)

_ESR_BASE = _BASE.with_(alpha_re=_rate(3.5))

# Each preset's SweepSpec fields; step_db=2.0 and fixed=_BASE unless given.
_PRESETS = {
    "fig2": dict(
        axis=Axis.BALANCED_SNR_DB, start_db=0.0, stop_db=30.0,
        variants=(Variant("rs0.1", (("rate_rs", 0.1),)), Variant("rs1", (("rate_rs", 1.0),))),
    ),
    "fig3": dict(
        axis=Axis.BALANCED_SNR_DB, start_db=0.0, stop_db=40.0, schemes=(Scheme.MRC_MRC,),
        modes=(CsiMode.CSI,), asymptote=True, variants=_ase_bsd((9.0, 3.0)),
    ),
    "fig4": dict(
        axis=Axis.GAMMA_TH_DB, start_db=-30.0, stop_db=50.0, schemes=(Scheme.MRC_MRC,),
        variants=tuple(
            Variant(
                f"bsd{sd:g}_brd{hop:g}",
                (("beta_sd", _rate(sd)), ("beta_rd", _rate(hop)), ("beta_sr", _rate(hop))),
            )
            for sd, hop in ((40.0, 3.0), (3.0, 40.0))
        ),
    ),
    "fig5": dict(
        axis=Axis.BETA_RD_DB, start_db=0.0, stop_db=50.0, schemes=(Scheme.MRC_MRC,),
        asymptote=True, variants=_UNBALANCED_VARIANTS,
    ),
    "fig6": dict(
        axis=Axis.BALANCED_SNR_DB, start_db=0.0, stop_db=30.0, fixed=_ESR_BASE,
        schemes=(Scheme.MRC_SC, Scheme.SC_MRC), modes=(CsiMode.CSI,), metrics=(Metric.ESR,),
        variants=_ase_bsd((9.5, 3.5)),
    ),
    "fig7": dict(
        axis=Axis.BETA_RD_DB, start_db=0.0, stop_db=50.0, fixed=_ESR_BASE,
        schemes=(Scheme.MRC_SC, Scheme.SC_MRC), metrics=(Metric.ESR,), asymptote=True,
        variants=_UNBALANCED_VARIANTS,
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def figure_preset(name: str) -> SweepSpec:
    """Named sweep description reproducing one of the reference curves."""
    if name not in _PRESETS:
        raise DomainError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return SweepSpec(**{"step_db": 2.0, "fixed": _BASE, **_PRESETS[name]})


# ---------------------------------------------------------------------------
# Three-way validation.
# ---------------------------------------------------------------------------

_RATE_LO, _RATE_HI = 0.05, 20.0
# The Monte Carlo band's absolute part: a 0/1 estimate has stderr 0.
MC_ABS_FLOOR = 1e-4
_GAMMA_TH_HI = 6.0
_RS_LO, _RS_HI = 0.1, 2.0


def sample_grid(grid_size: int, seed: int) -> list[SystemParams]:
    """Deterministic random parameter grid for the agreement suite, of at
    most :data:`MAX_AXIS_POINTS` points."""
    if not (is_integer(grid_size) and 1 <= grid_size <= MAX_AXIS_POINTS):
        raise DomainError(f"grid_size must be in [1, {MAX_AXIS_POINTS}], got {grid_size!r}")
    gen = stream(seed, point=0, purpose=PURPOSE_GRID)
    log_span = math.log(_RATE_HI / _RATE_LO)
    grid = []
    for _ in range(grid_size):
        u = gen.random(7)
        rates = [_RATE_LO * math.exp(log_span * x) for x in u[:5]]  # the links, in field order
        grid.append(SystemParams(*rates, gamma_th=_GAMMA_TH_HI * u[5],
                                 rate_rs=_RS_LO + (_RS_HI - _RS_LO) * u[6]))
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
    quad_tol: float = DEFAULT_QUAD_TOL,
    tol_quad_abs: float = 1e-6,
    mc_sigmas: float = 3.0,
    n_jobs: int = 1,
) -> ValidationReport:
    """Run the closed-form / quadrature / Monte Carlo agreement suite.

    For every grid point and every scheme/CSI/metric combination the closed
    form must sit within ``tol_quad_abs`` of quadrature and within
    ``mc_sigmas * stderr + MC_ABS_FLOOR`` of the Monte Carlo estimate.
    Tolerances that make the check vacuous (a negative or infinite band)
    or unpassable (a zero band), and an invalid trial count, raise
    :class:`DomainError` before any point is evaluated.  The grid's closed
    forms run in one :func:`closed_form.cells` call, then its quadratures
    in one ``quadrature_cells`` call, then its Monte Carlo in one
    ``monte_carlo_all`` call, whose points run on ``n_jobs`` worker
    threads, so a failing closed form raises before any trial is drawn.
    """
    from . import oracles
    check_tolerance(quad_tol, "quad_tol")
    check_tolerance(tol_quad_abs, "tol_quad_abs")
    check_tolerance(mc_sigmas, "mc_sigmas", zero=True)
    oracles.check_trials(mc_trials, seed)

    grid = sample_grid(grid_size, seed)
    cells = _cells(Metric, CsiMode, SCHEME_ORDER)
    note_cell = cells.index((Scheme.MRC_SC, CsiMode.CSI, Metric.ESR))
    cf_values = closed_form.cells(grid, cells)
    quad_values = oracles.quadrature_cells(grid, cells, quad_tol)
    mc_values = oracles.monte_carlo_all(grid, cells, mc_trials, seed, n_jobs)
    results = []
    for params, cfs, quad, estimates in zip(grid, cf_values, quad_values, mc_values):
        quads = [q.value for q in quad]
        diffs = []
        for cf, q, est in zip(cfs, quads, estimates):
            allowed = mc_sigmas * est.stderr + MC_ABS_FLOOR
            diffs += (abs(cf - q), abs(cf - est.value) / allowed)
        variant = closed_form.esr_mrc_sc_csi_variant(params)
        results.append(diffs + [abs(variant - quads[note_cell]), abs(cfs[note_cell] - quads[note_cell])])
    # Each column's worst over the grid: every cell's |cf - quad| and
    # |cf - mc| / allowed, then the note's variant and shipped differences.
    # A NaN anywhere makes its column's worst NaN, which fails the row (a
    # plain max would drop it).
    *cell_worst, worst_variant, worst_shipped = [
        math.nan if any(map(math.isnan, col)) else max(0.0, *col) for col in zip(*results)
    ]
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
        mc_abs_floor=MC_ABS_FLOOR,
        variant_note=note,
    )
