"""Acceptance gate: every top-level criterion at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line per
criterion.  Two sub-assertions are marked as strict expected failures and
carry their analysis in the docstrings: the with-CSI scheme-ordering chains
(criteria 5 and 6).  The with-CSI outage is the probability of the band
event ``g_E < g_M < rho (1 + g_E) - 1``; a pointwise-larger destination SNR
can move probability mass *into* that band, so MRC-at-destination schemes
are not universally ordered below SC-at-destination schemes once the
transmit-side condition applies.  Both independent oracles (quadrature and
Monte Carlo) confirm the closed-form inversions, including at low balanced
SNR under the fig2 reference parameters.  The ordering does hold everywhere
without CSI and in the reference regimes above roughly 10 dB.
"""

import io
import math
import time
from collections import defaultdict

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from secrelay.asymptotics import (
    UnbalancedCase,
    esr_perfect_decoding,
    sop_asymptote_balanced,
    sop_asymptote_unbalanced,
    sop_perfect_decoding,
    sop_wiretap,
)
from secrelay.closed_form import esr, sop, sop_conditional
from secrelay.expint import eiexp, exp_integral_ei, log_expectation_shifted_exp
from secrelay.fading import CsiMode, SCHEME_ORDER, Scheme, params_from_db
from secrelay.sweep import (
    Metric,
    figure_preset,
    run_sweep,
    run_validation,
    sample_grid,
    write_csv,
)

GRID_SEED = 7
GRID_SIZE = 200

ALL_MODES = (CsiMode.NOCSI, CsiMode.CSI)
ORDER_PAIRS = (
    (Scheme.MRC_SC, Scheme.MRC_MRC),
    (Scheme.MRC_MRC, Scheme.SC_MRC),
    (Scheme.MRC_SC, Scheme.SC_SC),
    (Scheme.SC_SC, Scheme.SC_MRC),
)


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)


# ---------------------------------------------------------------------------
# 1. three-way agreement
# ---------------------------------------------------------------------------


def test_criterion_1_three_way_agreement():
    rep = run_validation(
        grid_size=GRID_SIZE,
        seed=GRID_SEED,
        mc_trials=10**6,
        quad_tol=1e-9,
        tol_quad_abs=1e-6,
        mc_sigmas=3.0,
        n_jobs=2,
    )
    assert rep.mc_abs_floor == 1e-4
    worst_q = max(r.worst_quad_diff for r in rep.rows)
    worst_m = max(r.worst_mc_ratio for r in rep.rows)
    report(
        "1 three-way agreement",
        rep.passed,
        f"worst |cf-quad|={worst_q:.2e}, worst mc ratio={worst_m:.3f}",
    )
    print("  " + rep.variant_note)
    assert rep.passed, rep.render()


# ---------------------------------------------------------------------------
# 2. special-function kernel
# ---------------------------------------------------------------------------


def _oracle_ei_neg(x: float) -> mp.mpf:
    """Ei(-x) for x > 0 via the defining series / continued fraction,
    independent of the implementation under test.

    The alternating series cancels about 0.434 x digits, so it runs with
    enough guard digits to stay exact to well beyond double precision.
    """
    xm = mp.mpf(x)
    if x <= 30.0:
        with mp.workdps(mp.mp.dps + 20 + int(0.5 * x)):
            total = mp.euler + mp.log(xm)
            term = mp.mpf(1)
            floor = mp.mpf(10) ** (-mp.mp.dps)
            for k in range(1, 600):
                term *= -xm / k
                total += term / k
                if abs(term) < floor * k:
                    break
            return +total
    # modified Lentz for e^x E1(x), then unscale
    tiny = mp.mpf("1e-200")
    b = xm + 1
    c = 1 / tiny
    d = 1 / b
    h = d
    for i in range(1, 10_000):
        a = mp.mpf(-i * i)
        b += 2
        d = 1 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1) < mp.mpf("1e-35"):
            break
    return -h * mp.exp(-xm)


def test_criterion_2_special_function_kernel():
    mp.mp.dps = 30
    rng = np.random.default_rng(GRID_SEED)
    xs = np.exp(rng.uniform(math.log(1e-8), math.log(700.0), 10_000))
    worst_eiexp = worst_ei = 0.0
    for i, x in enumerate(xs):
        x = float(x)
        ref_ei = _oracle_ei_neg(x)
        if i % 500 == 0:  # oracle self-check against an unrelated implementation
            assert abs(ref_ei - mp.ei(-x)) <= mp.mpf("1e-25") * abs(ref_ei)
        ref_scaled = float(mp.exp(x) * ref_ei)
        worst_eiexp = max(worst_eiexp, abs(eiexp(x) - ref_scaled) / abs(ref_scaled))
        ref = float(ref_ei)
        worst_ei = max(worst_ei, abs(exp_integral_ei(-x) - ref) / abs(ref))
    ok_kernel = worst_eiexp <= 1e-12 and worst_ei <= 1e-12

    rng = np.random.default_rng(GRID_SEED + 1)
    worst_id = 0.0
    for _ in range(100):
        p, a, b = (float(v) for v in np.exp(rng.uniform(math.log(0.01), math.log(100.0), 3)))
        ref, _ = quad(
            lambda t: math.exp(-p * t) * math.log(a + b * t),
            0.0,
            60.0 / p,
            epsabs=1e-15,
            epsrel=1e-13,
            limit=400,
        )
        got = log_expectation_shifted_exp(p, a, b)
        worst_id = max(worst_id, abs(got - ref) / abs(ref))
    ok_identity = worst_id <= 1e-9

    report(
        "2 special-function kernel",
        ok_kernel and ok_identity,
        f"worst rel err eiexp={worst_eiexp:.2e}, Ei={worst_ei:.2e}, identity={worst_id:.2e}",
    )
    assert ok_kernel
    assert ok_identity


# ---------------------------------------------------------------------------
# 3. limiting channels
# ---------------------------------------------------------------------------


def test_criterion_3_limits():
    grid = sample_grid(50, seed=GRID_SEED + 2)
    worst_pd = worst_esr_pd = worst_wt = 0.0
    for params in grid:
        p0 = params.with_(gamma_th=0.0)
        worst_pd = max(
            worst_pd,
            abs(sop_perfect_decoding(p0) - sop(p0, Scheme.MRC_MRC, CsiMode.NOCSI).value),
        )
        worst_esr_pd = max(
            worst_esr_pd,
            abs(esr_perfect_decoding(p0) - esr(p0, Scheme.MRC_MRC, CsiMode.NOCSI).value),
        )
        pw = params.with_(gamma_th=1e4)
        for scheme in SCHEME_ORDER:
            target = {
                CsiMode.NOCSI: sop_wiretap(pw),
                CsiMode.CSI: sop_conditional(pw, scheme, CsiMode.CSI, relay_on=False),
            }
            for csi in ALL_MODES:
                worst_wt = max(worst_wt, abs(sop(pw, scheme, csi).value - target[csi]))
    ok = worst_pd <= 1e-14 and worst_wt <= 1e-9 and worst_esr_pd <= 1e-12
    report(
        "3 limits",
        ok,
        f"perfect-decode sop={worst_pd:.2e}, esr={worst_esr_pd:.2e}, wiretap={worst_wt:.2e}",
    )
    assert worst_pd <= 1e-14
    assert worst_wt <= 1e-9
    assert worst_esr_pd <= 1e-12


# ---------------------------------------------------------------------------
# 4. asymptote laws
# ---------------------------------------------------------------------------


def test_criterion_4_asymptote_laws():
    # balanced slope at 60 dB, reference parameters of the slope figure
    fig3 = params_from_db(0.0, 3.0, 9.0, 10.0, 10.0, 3.0, 1.0)
    beta = 1e-6
    p60 = fig3.with_(beta_sr=beta, beta_rd=beta)
    worst_slope = 0.0
    for scheme in SCHEME_ORDER:
        for csi in ALL_MODES:
            a = sop_asymptote_balanced(fig3, scheme, csi)
            rel = abs(sop(p60, scheme, csi).value / beta - a.coefficient) / a.coefficient
            worst_slope = max(worst_slope, rel)
    ok_slope = worst_slope <= 0.02

    # unbalanced floors at 80 dB, reference parameters of the saturation figure
    fig5 = params_from_db(0.0, 3.0, 3.0, 30.0, 30.0, 3.0, 1.0)
    worst_floor = 0.0
    case_field = {UnbalancedCase.I: "beta_rd", UnbalancedCase.II: "beta_sr"}
    for case, field in case_field.items():
        for scheme in SCHEME_ORDER:
            for csi in ALL_MODES:
                a = sop_asymptote_unbalanced(fig5, scheme, csi, case)
                high = sop(fig5.with_(**{field: 1e-8}), scheme, csi).value
                worst_floor = max(worst_floor, abs(high - a.constant_term))
    ok_floor = worst_floor <= 1e-4

    # case-I floors coincide across schemes; case-II floors are distinct
    ok_shared = ok_distinct = True
    for csi in ALL_MODES:
        c1 = {
            s: sop_asymptote_unbalanced(fig5, s, csi, UnbalancedCase.I).constant_term
            for s in SCHEME_ORDER
        }
        ok_shared &= len(set(c1.values())) == 1
        c2 = {
            s: sop_asymptote_unbalanced(fig5, s, csi, UnbalancedCase.II).constant_term
            for s in SCHEME_ORDER
        }
        ok_distinct &= len(set(c2.values())) == 4

    ok = ok_slope and ok_floor and ok_shared and ok_distinct
    report(
        "4 asymptote laws",
        ok,
        f"worst slope rel={worst_slope:.4f}, worst floor diff={worst_floor:.2e}",
    )
    assert ok_slope
    assert ok_floor
    assert ok_shared and ok_distinct


# ---------------------------------------------------------------------------
# 5. order / CSI properties on the criterion-1 grid
# ---------------------------------------------------------------------------


def test_criterion_5_order_without_csi_and_csi_benefit():
    grid = sample_grid(GRID_SIZE, seed=GRID_SEED)
    ok_order = ok_benefit = True
    for params in grid:
        v = {s: sop(params, s, CsiMode.NOCSI).value for s in SCHEME_ORDER}
        for lo, hi in ORDER_PAIRS:
            ok_order &= v[lo] <= v[hi] + 1e-12
        for s in SCHEME_ORDER:
            ok_benefit &= (
                sop(params, s, CsiMode.CSI).value
                <= sop(params, s, CsiMode.NOCSI).value + 1e-12
            )
            e_csi = esr(params, s, CsiMode.CSI).value
            e_nocsi = esr(params, s, CsiMode.NOCSI).value
            ok_benefit &= e_csi >= max(0.0, e_nocsi) - 1e-12
    report("5 ordering without CSI + CSI benefit", ok_order and ok_benefit)
    assert ok_order
    assert ok_benefit


@pytest.mark.xfail(
    strict=True,
    reason="with-CSI outage is a band event; scheme ordering provably fails on "
    "parts of the grid (confirmed by quadrature and Monte Carlo; see module "
    "docstring and README)",
)
def test_criterion_5_order_with_csi():
    grid = sample_grid(GRID_SIZE, seed=GRID_SEED)
    violations = 0
    for params in grid:
        v = {s: sop(params, s, CsiMode.CSI).value for s in SCHEME_ORDER}
        for lo, hi in ORDER_PAIRS:
            if v[lo] > v[hi] + 1e-12:
                violations += 1
    report(
        "5 ordering with CSI",
        violations == 0,
        f"{violations} inversions on the grid (documented defect of the claim)",
    )
    assert violations == 0


# ---------------------------------------------------------------------------
# 6. figure reproduction
# ---------------------------------------------------------------------------


def _series_by(rows, key):
    out = defaultdict(list)
    for r in rows:
        out[key(r)].append(r)
    return out


def test_criterion_6_figure_reproduction():
    t0 = time.monotonic()
    rows = {name: run_sweep(figure_preset(name)) for name in ("fig2", "fig4", "fig5", "fig6", "fig7")}
    elapsed = time.monotonic() - t0

    # fig2: scheme chains at every axis point, without CSI
    ok_fig2 = True
    by_point = _series_by(
        [r for r in rows["fig2"] if r.csi is CsiMode.NOCSI],
        lambda r: (r.variant, r.axis_value_db),
    )
    for point_rows in by_point.values():
        v = {r.scheme: r.value for r in point_rows}
        for lo, hi in ORDER_PAIRS:
            ok_fig2 &= v[lo] <= v[hi] + 1e-12

    # fig5/fig7: case-II columns settle onto their saturation constants
    ok_sat = True
    for name in ("fig5", "fig7"):
        series = _series_by(
            [r for r in rows[name] if r.variant == "case_II"],
            lambda r: (r.scheme, r.csi, r.metric),
        )
        for pts in series.values():
            pts = sorted(pts, key=lambda r: r.axis_value_db)
            ok_sat &= abs(pts[-1].value - pts[-2].value) < 1e-3

    # fig4: threshold sweep approaches both limiting floors
    ok_floors = True
    series = _series_by(
        [r for r in rows["fig4"] if r.csi is CsiMode.NOCSI and r.scheme is Scheme.MRC_MRC],
        lambda r: r.variant,
    )
    for pts in series.values():
        pts = sorted(pts, key=lambda r: r.axis_value_db)
        ok_floors &= abs(pts[0].value - pts[0].floor_gamma_zero) < 1e-3
        ok_floors &= abs(pts[-1].value - pts[-1].floor_gamma_inf) < 1e-3

    # fig7: the no-CSI rate goes negative at low SNR
    ok_neg = any(
        r.value < 0.0 for r in rows["fig7"] if r.csi is CsiMode.NOCSI and r.metric is Metric.ESR
    )

    # fig6: the with-CSI rate is non-negative throughout
    ok_fig6 = all(r.value >= 0.0 for r in rows["fig6"])

    ok_runtime = elapsed < 300.0
    ok = ok_fig2 and ok_sat and ok_floors and ok_neg and ok_fig6 and ok_runtime
    report(
        "6 figure reproduction",
        ok,
        f"presets in {elapsed:.1f}s; no-CSI ordering={ok_fig2}, saturation={ok_sat}, "
        f"floors={ok_floors}, negative no-CSI rate={ok_neg}",
    )
    assert ok_fig2 and ok_sat and ok_floors and ok_neg and ok_fig6
    assert ok_runtime


@pytest.mark.xfail(
    strict=True,
    reason="fig2 with-CSI columns invert below ~10 dB balanced SNR (band-event "
    "effect, oracle-confirmed); see module docstring and README",
)
def test_criterion_6_fig2_order_with_csi():
    rows = [r for r in run_sweep(figure_preset("fig2")) if r.csi is CsiMode.CSI]
    violations = 0
    for point_rows in _series_by(rows, lambda r: (r.variant, r.axis_value_db)).values():
        v = {r.scheme: r.value for r in point_rows}
        for lo, hi in ORDER_PAIRS:
            if v[lo] > v[hi] + 1e-12:
                violations += 1
    report(
        "6 fig2 ordering with CSI",
        violations == 0,
        f"{violations} inversions at low SNR (documented defect of the claim)",
    )
    assert violations == 0


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------


def _preset_csv(name, n_jobs):
    buf = io.StringIO()
    write_csv(run_sweep(figure_preset(name), n_jobs=n_jobs), buf)
    return buf.getvalue()


def test_criterion_7_determinism():
    ok = True
    for name in ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7"):
        first = _preset_csv(name, 1)
        ok &= first == _preset_csv(name, 1)
        ok &= first == _preset_csv(name, 4)
    val = run_validation(grid_size=4, seed=GRID_SEED, mc_trials=200_000).render()
    ok &= val == run_validation(grid_size=4, seed=GRID_SEED, mc_trials=200_000).render()
    ok &= val == run_validation(grid_size=4, seed=GRID_SEED, mc_trials=200_000, n_jobs=4).render()
    report("7 determinism", ok)
    assert ok
