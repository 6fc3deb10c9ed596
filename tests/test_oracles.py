"""Tests for the Monte Carlo and quadrature oracles."""

import math
from collections import Counter

import numpy as np
import pytest

from secrelay import closed_form, fading, kernels, oracles
from secrelay.closed_form import sop
from secrelay.errors import DomainError, NumericError
from secrelay.fading import (
    CsiMode,
    DRAWS_PER_TRIAL,
    Metric,
    SCHEME_ORDER,
    Scheme,
    params_from_db,
    trial_stream,
)
from secrelay.sweep import sample_grid

from mp_reference import mp_reference
from trial_model import combine, sample_trial, secrecy_rate


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

ALL_CELLS = [
    (scheme, csi, metric)
    for metric in Metric
    for csi in (CsiMode.NOCSI, CsiMode.CSI)
    for scheme in SCHEME_ORDER
]


def _mc(params, scheme, csi, metric, n, seed):
    """The one cell's estimate at the one point ``params``."""
    return oracles.monte_carlo_all([params], [(scheme, csi, metric)], n, seed)[0][0]


def test_estimates_reproducible(base_params):
    a = _mc(base_params, Scheme.MRC_SC, CsiMode.CSI, Metric.SOP, 200_000, seed=1)
    b = _mc(base_params, Scheme.MRC_SC, CsiMode.CSI, Metric.SOP, 200_000, seed=1)
    assert a == b
    c = _mc(base_params, Scheme.MRC_SC, CsiMode.CSI, Metric.SOP, 200_000, seed=2)
    assert a != c


def test_sub_block_draws_equal_one_chunk_draw():
    m = 2 * oracles.SUB_BLOCK_TRIALS + 37
    whole = trial_stream(6, 2, chunk=1).random((m, DRAWS_PER_TRIAL))
    gen = trial_stream(6, 2, chunk=1)
    parts = [
        gen.random((min(oracles.SUB_BLOCK_TRIALS, m - start), DRAWS_PER_TRIAL))
        for start in range(0, m, oracles.SUB_BLOCK_TRIALS)
    ]
    assert np.array_equal(np.concatenate(parts), whole)


def _whole_block_tallies(params, u):
    """Tallies of one block reduced at once, per scheme pair, with the
    elementwise formulas of the system model."""
    g_sd = -np.log1p(-u[:, 0]) / params.beta_sd
    g_sr = -np.log1p(-u[:, 1]) / params.beta_sr
    g_rd = -np.log1p(-u[:, 2]) / params.beta_rd
    g_se = -np.log1p(-u[:, 3]) / params.alpha_se
    g_re = -np.log1p(-u[:, 4]) / params.alpha_re
    relay = g_sr >= params.gamma_th
    m_mrc = np.where(relay, g_sd + g_rd, g_sd)
    m_sc = np.where(relay, np.maximum(g_sd, g_rd), g_sd)
    e_mrc = np.where(relay, g_se + g_re, g_se)
    e_sc = np.where(relay, np.maximum(g_se, g_re), g_se)
    out = np.zeros((6, 4))
    pairs = ((m_mrc, e_sc), (m_mrc, e_mrc), (m_sc, e_sc), (m_sc, e_mrc))
    for k, (gm, ge) in enumerate(pairs):
        outage = gm < params.rho * (1.0 + ge) - 1.0
        win = gm > ge
        cs = 0.5 / math.log(2.0) * np.log((1.0 + gm) / (1.0 + ge))
        cw = np.where(win, cs, 0.0)
        out[:, k] = (
            np.count_nonzero(outage),
            np.count_nonzero(outage & win),
            cs.sum(),
            (cs * cs).sum(),
            cw.sum(),
            (cw * cw).sum(),
        )
    return out


def test_sub_blocked_tallies_match_whole_chunk_reference(base_params):
    # a full chunk, then a short one of two sub-blocks and a 37-trial remainder
    n = oracles.CHUNK_TRIALS + 2 * oracles.SUB_BLOCK_TRIALS + 37
    ref = sum(
        _whole_block_tallies(base_params, trial_stream(4, 1, chunk=c).random((m, DRAWS_PER_TRIAL)))
        for c, m in enumerate((oracles.CHUNK_TRIALS, n - oracles.CHUNK_TRIALS))
    )
    # point 1 of two draws from the streams keyed (4, 1, chunk)
    mc = dict(zip(ALL_CELLS, oracles.monte_carlo_all([base_params] * 2, ALL_CELLS, n, seed=4)[1]))
    for k, scheme in enumerate(SCHEME_ORDER):
        assert mc[scheme, CsiMode.NOCSI, Metric.SOP].value == ref[0, k] / n
        assert mc[scheme, CsiMode.CSI, Metric.SOP].value == ref[1, k] / n
        for csi, row in ((CsiMode.NOCSI, 2), (CsiMode.CSI, 4)):
            est = mc[scheme, csi, Metric.ESR]
            mean = ref[row, k] / n
            var = (ref[row + 1, k] - n * mean * mean) / (n - 1)
            np.testing.assert_allclose(est.value, mean, rtol=1e-12)
            np.testing.assert_allclose(est.stderr, math.sqrt(var / n), rtol=1e-12)


def test_batch_matches_scalar_sampling(base_params):
    # the reduction kernel must agree with the scalar single-trial path
    n = 4000
    rho = base_params.rho
    counts = {s: 0 for s in SCHEME_ORDER}
    csums = {s: 0.0 for s in SCHEME_ORDER}
    gen = trial_stream(21, 0)
    for _ in range(n):
        d = sample_trial(base_params, gen)
        for s in SCHEME_ORDER:
            gm, ge = combine(s, d)
            if gm < rho * (1.0 + ge) - 1.0:
                counts[s] += 1
            if gm > ge:
                csums[s] += secrecy_rate(gm, ge)
    mc = dict(zip(ALL_CELLS, oracles.monte_carlo_all([base_params], ALL_CELLS, n, seed=21)[0]))
    for s in SCHEME_ORDER:
        est = mc[s, CsiMode.NOCSI, Metric.SOP]
        assert est.value * n == counts[s]
        assert mc[s, CsiMode.CSI, Metric.ESR].value * n == pytest.approx(csums[s], rel=1e-10)


def test_sop_estimate_stderr_formula(base_params):
    est = _mc(base_params, Scheme.SC_SC, CsiMode.NOCSI, Metric.SOP, 10**5, seed=3)
    assert est.trials == 10**5
    assert est.stderr == pytest.approx(
        math.sqrt(est.value * (1.0 - est.value) / est.trials)
    )


def test_high_target_rate_saturates(base_params):
    p = base_params.with_(rate_rs=60.0)
    est = _mc(p, Scheme.MRC_MRC, CsiMode.NOCSI, Metric.SOP, 10**4, seed=5)
    assert est.value == 1.0


def test_wiretap_coin_flip(wiretap_params):
    est = _mc(wiretap_params, Scheme.MRC_SC, CsiMode.NOCSI, Metric.SOP, 10**6, seed=8)
    assert abs(est.value - 0.5) < 0.0015


def test_esr_estimates(wiretap_params, base_params):
    # symmetric silent-relay channel has zero expected log-ratio
    est = _mc(wiretap_params, Scheme.SC_SC, CsiMode.NOCSI, Metric.ESR, 10**6, seed=9)
    assert abs(est.value) <= 3.0 * est.stderr
    # the CSI statistic is non-negative by construction
    for seed in (1, 2, 3):
        est = _mc(base_params, Scheme.SC_MRC, CsiMode.CSI, Metric.ESR, 10**4, seed=seed)
        assert est.value >= 0.0


def test_esr_estimate_matches_closed_form_reference_point():
    # eavesdropper links 3 / 3.5 dB, direct link 9.5 dB, balanced 10 dB hops
    from secrelay.closed_form import esr

    p = params_from_db(3.0, 3.5, 9.5, 10.0, 10.0, 3.0, 1.0)
    est = _mc(p, Scheme.SC_MRC, CsiMode.CSI, Metric.ESR, 10**7, seed=41)
    assert abs(est.value - esr(p, Scheme.SC_MRC, CsiMode.CSI).value) <= 3.0 * est.stderr


def test_trial_count_validation(base_params):
    with pytest.raises(DomainError):
        oracles.monte_carlo_all([base_params], ALL_CELLS, 0, seed=1)
    # a bool is an int to isinstance, but not a count or an index
    with pytest.raises(DomainError, match="trial count"):
        oracles.monte_carlo_all([base_params], ALL_CELLS, True, seed=1)


def test_estimates_reject_cells_that_are_not_members(base_params, monkeypatch):
    # the name of a CSI mode used to read the CSI tallies, and the name of
    # a scheme raised a bare ValueError from tuple.index; both are now
    # rejected by the cell check, before any trial is drawn
    def no_draws(*args, **kwargs):
        raise AssertionError("drew trials for an invalid cell")

    monkeypatch.setattr(fading, "trial_stream", no_draws)
    for metric in Metric:
        with pytest.raises(DomainError):
            oracles.monte_carlo_all([base_params], [(Scheme.MRC_SC, "nocsi", metric)], 1000, seed=1)
        with pytest.raises(DomainError):
            oracles.monte_carlo_all([base_params], [("mrc_sc", CsiMode.CSI, metric)], 1000, seed=1)


def test_trial_count_beyond_the_stream_key_fails_before_drawing(base_params, monkeypatch):
    # 2^24 chunks is all a stream key can address; a larger count used to
    # run every addressable chunk before the first unaddressable one failed
    def no_draws(*args, **kwargs):
        raise AssertionError("drew trials for an invalid trial count")

    monkeypatch.setattr(fading, "trial_stream", no_draws)
    too_many = oracles.CHUNK_TRIALS * fading.CHUNK_LIMIT + 1
    with pytest.raises(DomainError, match="at most"):
        oracles.monte_carlo_all([base_params], ALL_CELLS, too_many, seed=1)


def _bits(rows):
    """Each point's estimates as exact bits."""
    return [[(float(e.value).hex(), float(e.stderr).hex(), e.trials) for e in row] for row in rows]


def test_points_are_a_sequence_like_the_other_evaluators():
    grid = sample_grid(3, 7)
    listed = oracles.monte_carlo_all(grid, ALL_CELLS, 3000, seed=7)
    assert len(listed) == 3 and all(len(row) == len(ALL_CELLS) for row in listed)
    assert _bits(oracles.monte_carlo_all(iter(grid), iter(ALL_CELLS), 3000, seed=7)) == _bits(listed)
    # the worker threads split the points and give the bits of one thread
    assert _bits(oracles.monte_carlo_all(grid, ALL_CELLS, 3000, seed=7, n_jobs=2)) == _bits(listed)
    # point i draws from the streams of its place, whatever follows it
    for i in range(3):
        assert _bits(oracles.monte_carlo_all(grid[:i + 1], ALL_CELLS, 3000, seed=7))[i] == _bits(listed)[i]
    # each cell is read from the point's draws whatever the other cells are
    reverse = oracles.monte_carlo_all(grid, ALL_CELLS[::-1], 3000, seed=7)
    assert _bits(row[::-1] for row in reverse) == _bits(listed)
    assert oracles.monte_carlo_all([], ALL_CELLS, 3000, seed=7) == []


@pytest.mark.parametrize("evaluator", ["closed_form", "quadrature", "monte_carlo"])
def test_every_evaluator_rejects_a_point_that_is_not_params(evaluator, base_params, monkeypatch):
    # quadrature and Monte Carlo used to raise a bare AttributeError; each
    # evaluator checks every point before it evaluates any
    def no_work(*args, **kwargs):
        raise AssertionError("evaluated a point of a call with an invalid point")

    monkeypatch.setattr(closed_form, "_functional", no_work)
    monkeypatch.setattr(oracles, "_integrate", no_work)
    monkeypatch.setattr(fading, "trial_stream", no_work)
    evaluate = {
        "closed_form": closed_form.cells,
        "quadrature": lambda points, cells: oracles.quadrature_cells(points, cells, 1e-6),
        "monte_carlo": lambda points, cells: oracles.monte_carlo_all(points, cells, 1000, seed=1),
    }[evaluator]
    for points in ([base_params, "x"], (p for p in (base_params, "x"))):
        with pytest.raises(DomainError, match="params must be SystemParams, got str"):
            evaluate(points, ALL_CELLS)


def test_one_kernel_whatever_the_environment(base_params, monkeypatch):
    u = trial_stream(33).random((1000, DRAWS_PER_TRIAL))
    rates = (base_params.beta_sd, base_params.beta_sr, base_params.beta_rd,
             base_params.alpha_se, base_params.alpha_re)
    with pytest.raises(ValueError):
        kernels.reduce_trials(u, rates, base_params.gamma_th, base_params.rho, backend="numba")
    assert kernels.active_backend() == "numpy"
    # the environment no longer selects a kernel
    monkeypatch.delenv("SECRELAY_BACKEND", raising=False)
    unset = oracles.monte_carlo_all([base_params], ALL_CELLS, 20_000, seed=8)
    monkeypatch.setenv("SECRELAY_BACKEND", "numba")
    assert kernels.active_backend() == "numpy"
    numba_set = oracles.monte_carlo_all([base_params], ALL_CELLS, 20_000, seed=8)
    assert unset == numba_set


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def test_quadrature_wiretap_limit(wiretap_params):
    from secrelay.asymptotics import sop_wiretap

    r = oracles.quadrature_sop(wiretap_params, Scheme.SC_MRC, CsiMode.NOCSI, tol=1e-10)
    assert abs(r.value - sop_wiretap(wiretap_params)) < 1e-10
    assert r.abs_error_bound <= 1e-10
    assert r.evaluations > 0


def test_quadrature_degenerate_rates_well_posed(base_params):
    p = base_params.with_(beta_rd=base_params.beta_sd)
    r = oracles.quadrature_sop(p, Scheme.MRC_MRC, CsiMode.NOCSI)
    assert 0.0 <= r.value <= 1.0


def test_quadrature_error_bound_honesty():
    for params in sample_grid(5, seed=31):
        for scheme, csi in ((Scheme.MRC_MRC, CsiMode.NOCSI), (Scheme.SC_MRC, CsiMode.CSI)):
            coarse = oracles.quadrature_sop(params, scheme, csi, tol=1e-6)
            fine = oracles.quadrature_sop(params, scheme, csi, tol=5e-7)
            assert abs(coarse.value - fine.value) <= coarse.abs_error_bound + 1e-15
            ec = oracles.quadrature_esr(params, scheme, csi, tol=1e-6)
            ef = oracles.quadrature_esr(params, scheme, csi, tol=5e-7)
            assert abs(ec.value - ef.value) <= ec.abs_error_bound + 1e-15


def test_quadrature_matches_closed_form_random_point():
    params = sample_grid(3, seed=77)[2]
    for scheme in SCHEME_ORDER:
        for csi in (CsiMode.NOCSI, CsiMode.CSI):
            q = oracles.quadrature_sop(params, scheme, csi)
            assert abs(q.value - sop(params, scheme, csi).value) < 1e-6


def test_quadrature_tolerance_validation(base_params):
    with pytest.raises(DomainError):
        oracles.quadrature_sop(base_params, Scheme.MRC_SC, CsiMode.CSI, tol=0.0)
    # an infinite tolerance would accept any value
    for tol in (math.inf, math.nan):
        with pytest.raises(DomainError):
            oracles.quadrature_sop(base_params, Scheme.MRC_SC, CsiMode.CSI, tol=tol)
        with pytest.raises(DomainError):
            oracles.quadrature_esr(
                base_params.with_(gamma_th=0.0), Scheme.SC_SC, CsiMode.NOCSI, tol
            )
    # a malformed tolerance used to raise TypeError from the comparison, and
    # a bool passed as the number 1
    for tol in ("1e-9", None, True):
        with pytest.raises(DomainError, match="tol"):
            oracles.quadrature_cells([base_params], [(Scheme.MRC_SC, CsiMode.CSI, Metric.SOP)], tol)


def test_quadrature_unreachable_tolerance_raises(base_params):
    from secrelay.errors import NumericError

    with pytest.raises(NumericError):
        oracles.quadrature_sop(base_params, Scheme.MRC_MRC, CsiMode.NOCSI, tol=1e-300)


def test_quadrature_bound_over_tolerance_raises(base_params):
    # the round-off floor, 50 eps times the envelope's integral, does not
    # shrink as the step is halved; here it is a bound of ~1.1e-14
    from secrelay.errors import NumericError

    with pytest.raises(NumericError, match="exceeds requested tolerance"):
        oracles.quadrature_sop(base_params, Scheme.MRC_SC, CsiMode.NOCSI, tol=1e-15)


# fig7 case I at 50 dB on the R-D link; fig4's 40 dB direct link with the
# threshold at both ends of its sweep; equal destination and equal
# eavesdropper rates at 30 dB; both rate pairs 1e-5 apart, where the
# two-term sum-of-exponentials formula cancels to ~eps/gap; links from -17
# to 97 dB at a small target rate, where an adaptive Gauss-Kronrod rule
# reported bounds of ~1e-10 on errors of up to 1.7e-4; unequal links at
# 140 dB, whose outages are ~1e-27.
_FIG7_BASE = params_from_db(0.0, 3.5, 3.0, 30.0, 50.0, 3.0, 1.0)
_FIG4_BASE = params_from_db(0.0, 3.0, 40.0, 3.0, 3.0, 3.0, 1.0)
_DEFAULT = params_from_db(0.0, 3.0, 3.0, 10.0, 10.0, 3.0, 1.0)
HONESTY_POINTS = {
    "fig7_50db": _FIG7_BASE,
    "fig4_threshold_-30db": _FIG4_BASE.with_(gamma_th=1e-3),
    "fig4_threshold_50db": _FIG4_BASE.with_(gamma_th=1e5),
    "equal_rates_30db": params_from_db(3.0, 3.0, 30.0, 30.0, 30.0, 3.0, 0.5),
    "near_equal_rates": _DEFAULT.with_(
        beta_rd=_DEFAULT.beta_sd * (1.0 + 1e-5), alpha_re=_DEFAULT.alpha_se * (1.0 + 1e-5)
    ),
    "wide_links_small_rate": params_from_db(65.0, -13.0, 97.0, -17.0, 70.0, 15.0, 0.05),
    "unequal_140db": params_from_db(0.0, 3.0, 140.0, 143.0, 138.0, 3.0, 0.5),
}


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("point", sorted(HONESTY_POINTS))
def test_quadrature_bound_covers_mpmath_reference(point, tol):
    params = HONESTY_POINTS[point]
    for scheme in SCHEME_ORDER:
        for csi in (CsiMode.NOCSI, CsiMode.CSI):
            for metric, fn in (("sop", oracles.quadrature_sop), ("esr", oracles.quadrature_esr)):
                q = fn(params, scheme, csi, tol)
                ref = mp_reference(params, scheme, csi, metric)
                assert 0.0 < q.abs_error_bound <= tol
                assert abs(q.value - ref) <= q.abs_error_bound, (scheme, csi, metric, q, ref)


def test_quadrature_counts_integrand_evaluations(base_params):
    # the nodes each integral evaluated; the rate and the outage each
    # integrate one function per decode branch
    sop_q = oracles.quadrature_sop(base_params, Scheme.MRC_SC, CsiMode.CSI)
    esr_q = oracles.quadrature_esr(base_params, Scheme.MRC_SC, CsiMode.CSI)
    assert esr_q.evaluations == sop_q.evaluations > 0
    # one branch alone: the relay always decodes at gamma_th 0, never at inf
    on = oracles.quadrature_sop(base_params.with_(gamma_th=0.0), Scheme.MRC_SC, CsiMode.CSI)
    off = oracles.quadrature_sop(base_params.with_(gamma_th=math.inf), Scheme.MRC_SC, CsiMode.CSI)
    assert sop_q.evaluations == on.evaluations + off.evaluations


def test_quadrature_closes_in_its_first_round_at_the_gate_tolerance(base_params):
    # at tol 1e-9 every integral closes on its node set's first grid, so a
    # cell evaluates each decode branch's n + 1 first-grid nodes and no more
    points = [base_params, *sample_grid(20, seed=7)]
    for params, row in zip(points, oracles.quadrature_cells(points, ALL_CELLS, 1e-9), strict=True):
        first = sum(oracles._span(fields[1:])[1] + 1 for *_, fields in fading.decode_branches(params))
        assert [q.evaluations for q in row] == [first] * len(ALL_CELLS)


def test_quadrature_integrates_slow_links_across_wide_gaps():
    # 100 dB legitimate links next to 0 dB eavesdropper links: the relayed
    # destination SNR's mass lies 10^8 decay lengths of the fast links out
    params = params_from_db(0.0, 0.0, 100.0, 100.0, 100.0, 3.0, 0.5)
    for scheme in (Scheme.MRC_SC, Scheme.SC_SC):
        q = oracles.quadrature_esr(params, scheme, CsiMode.NOCSI)
        ref = mp_reference(params, scheme, CsiMode.NOCSI, "esr")
        assert abs(q.value - ref) <= q.abs_error_bound


@pytest.mark.parametrize("db", [1600.0, 3000.0])
def test_quadrature_refuses_links_too_slow_for_the_laws(db):
    # below a rate of ~1e-155 the sum-of-exponentials density's r1 r2
    # underflows; unguarded, 4 of 16 cells fell outside their bound at
    # 1600 dB, and at 3000 dB the outages without CSI read 9e-18 against 1
    params = params_from_db(db, db, 10.0, 10.0, 10.0, 3.0, 0.5)
    with pytest.raises(NumericError, match="2\\^-500"):
        oracles.quadrature_cells([params], ((Scheme.MRC_SC, CsiMode.NOCSI, Metric.SOP),), 1e-9)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("db", [1600.0, 3000.0])
def test_quadrature_rates_integrate_links_too_slow_for_the_density(db, tol):
    # a rate integrates the receivers' CDFs and reads no density, so the
    # outage's guard does not hold it back
    params = params_from_db(db, db, 10.0, 10.0, 10.0, 3.0, 0.5)
    cells = [cell for cell in ALL_CELLS if cell[2] is Metric.ESR]
    (batch,) = oracles.quadrature_cells([params], cells, tol)
    for (scheme, csi, _), q in zip(cells, batch, strict=True):
        ref = mp_reference(params, scheme, csi, "esr")
        assert 0.0 < q.abs_error_bound <= tol
        assert abs(q.value - ref) <= q.abs_error_bound, (scheme, csi, q, ref)


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("db", [250.0, 600.0, 1500.0])
@pytest.mark.parametrize("side", ["eavesdropper", "destination"])
def test_quadrature_integrates_slow_links_within_its_bound(side, db, tol):
    # a link's mass sits at u ~ -log(rate) wherever that is: the grid
    # reaches it, up to the laws' limit of 2^-500
    if side == "eavesdropper":
        params = params_from_db(db, db, 10.0, 10.0, 10.0, 3.0, 0.5)
    else:
        params = params_from_db(0.0, 3.0, db, 10.0, db, 3.0, 0.5)
    (batch,) = oracles.quadrature_cells([params], ALL_CELLS, tol)
    for (scheme, csi, metric), q in zip(ALL_CELLS, batch, strict=True):
        ref = mp_reference(params, scheme, csi, metric.value)
        assert 0.0 < q.abs_error_bound <= tol
        assert abs(q.value - ref) <= q.abs_error_bound, (scheme, csi, metric, q, ref)


def test_quadrature_at_a_rate_of_1e308():
    # the grid starts at log(1e-18) - log(rate), where log(1e-18 / rate)
    # would be log(0): an SC eavesdropper's integrals reach their bound, and
    # the MRC eavesdropper density's r1 r2 overflows, which is a
    # NumericError, not a ValueError from the grid
    params = params_from_db(-3080.0, -3080.0, 10.0, 10.0, 10.0, 3.0, 0.5)
    cell = (Scheme.MRC_SC, CsiMode.NOCSI, Metric.SOP)
    ((q,),) = oracles.quadrature_cells([params], [cell], 1e-9)
    assert abs(q.value - mp_reference(params, *cell[:2], "sop")) <= q.abs_error_bound
    with pytest.raises(NumericError, match="integrand evaluates to"):
        oracles.quadrature_cells([params], ALL_CELLS, 1e-9)


@pytest.fixture(scope="module")
def random_points():
    """40 points, with links from -20 to 100 dB (wider than sample_grid's
    +-13 dB), thresholds from -10 to 20 dB and rate_rs from 0.05 to 8, and
    each cell's reference, (point, cell) -> value."""
    rng = np.random.default_rng(2026)
    points = [params_from_db(*rng.uniform(-20.0, 100.0, 5), rng.uniform(-10.0, 20.0), rng.uniform(0.05, 8.0))
              for _ in range(40)]
    return points, {(k, cell): mp_reference(params, cell[0], cell[1], cell[2].value)
                    for k, params in enumerate(points) for cell in ALL_CELLS}


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_quadrature_bound_covers_mpmath_reference_at_random_points(random_points, tol):
    points, refs = random_points
    for k, row in enumerate(oracles.quadrature_cells(points, ALL_CELLS, tol)):
        for cell, q in zip(ALL_CELLS, row, strict=True):
            assert 0.0 < q.abs_error_bound <= tol
            assert abs(q.value - refs[k, cell]) <= q.abs_error_bound, (k, cell, q, refs[k, cell])


_FASTEST = [2.0 ** -500, 1e-150, 1e-3, 1.0, 1e3, 1e150, 1e308]


@pytest.mark.parametrize("rates", [(r, r) for r in _FASTEST] + [(1.0, 1e-150)])
def test_graded_grid_reaches_both_ends_with_finite_weights(rates):
    # the first node sits where the fastest link's density times y, r y to
    # leading order, is at most 1e-18; the last where the slowest link's
    # density has underflowed, 800 decay lengths out (up to rounding)
    shift, n = oracles._span(rates)
    y, w = oracles._graded(oracles._T0 + oracles._H0 * np.arange(n + 1), shift)
    assert y[0] * max(rates) <= 1e-18
    assert y[-1] * min(rates) >= 800.0 * (1.0 - 1e-12)
    assert np.isfinite(w).all() and (w >= 0.0).all()
    assert (np.diff(y) >= 0.0).all()


def test_graded_grid_has_about_half_the_uniform_grids_intervals():
    # a uniform grid of step _H0 in log y over the same ends
    for params in sample_grid(20, seed=7):
        for *_, fields in fading.decode_branches(params):
            rates = fields[1:]
            uniform = math.ceil(
                (math.log(800.0) - math.log(1e-18) + math.log(max(rates) / min(rates))) / oracles._H0)
            assert oracles._span(rates)[1] < 0.55 * uniform


def test_quadrature_refuses_more_halvings_than_its_limit(monkeypatch):
    # the first grid's bound, against the rule at twice its step, is above
    # these tolerances, which are above the round-off floor: each cell needs
    # one halving
    params = params_from_db(0.0, 3.0, 3.0, 40.0, 40.0, 3.0, 1.0)
    for metric, tol in ((Metric.SOP, 1e-11), (Metric.ESR, 1e-12)):
        cell = (Scheme.MRC_SC, CsiMode.NOCSI, metric)
        monkeypatch.setattr(oracles, "_HALVINGS", 1)
        oracles.quadrature_cells([params], [cell], tol)
        monkeypatch.setattr(oracles, "_HALVINGS", 0)
        with pytest.raises(NumericError, match="exceeds requested tolerance"):
            oracles.quadrature_cells([params], [cell], tol)


def test_three_way_agreement_spot_check():
    params = sample_grid(2, seed=55)[1]
    mc = dict(zip(ALL_CELLS, oracles.monte_carlo_all([params], ALL_CELLS, 10**6, seed=55)[0]))
    for scheme in SCHEME_ORDER:
        for csi in (CsiMode.NOCSI, CsiMode.CSI):
            cf = sop(params, scheme, csi).value
            q = oracles.quadrature_sop(params, scheme, csi).value
            est = mc[scheme, csi, Metric.SOP]
            assert abs(cf - q) < 1e-6
            assert abs(cf - est.value) <= 3.0 * est.stderr + 1e-4


# ---------------------------------------------------------------------------
# one quadrature batch per point
# ---------------------------------------------------------------------------

_GRID = sample_grid(4, seed=13)
BATCH_POINTS = {
    **{f"grid_{k}": p for k, p in enumerate(_GRID)},
    "equal_rates_80db": params_from_db(0.0, 0.0, 80.0, 80.0, 80.0, 3.0, 0.5),
    "unequal_80db": params_from_db(0.0, 3.0, 80.0, 83.0, 78.0, 3.0, 0.5),
    # a zero-weight decode branch: the relay never or always decodes
    "relay_never_decodes": _GRID[0].with_(gamma_th=math.inf),
    "relay_always_decodes": _GRID[1].with_(gamma_th=0.0),
}


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("point", sorted(BATCH_POINTS))
def test_batch_matches_per_cell_calls(point, tol):
    params = BATCH_POINTS[point]
    (batch,) = oracles.quadrature_cells([params], ALL_CELLS, tol)
    for (scheme, csi, metric), q in zip(ALL_CELLS, batch, strict=True):
        fn = oracles.quadrature_sop if metric is Metric.SOP else oracles.quadrature_esr
        assert q == fn(params, scheme, csi, tol), (scheme, csi, metric)
    # nor does the order of the cells matter
    assert oracles.quadrature_cells([params], ALL_CELLS[::-1], tol)[0][::-1] == batch


def _node_set(params, relay_on, metrics):
    """The node set of ``params``' decode branch ``relay_on`` with the
    integrals of every cell of ``metrics``, as ``quadrature_cells`` builds it."""
    (fields,) = [f for _, on, f in fading.decode_branches(params) if on is relay_on]
    integrals = {
        oracles._integral_key(scheme, csi, metric, relay_on): 1e-9 / oracles._METRIC_FACTOR[metric]
        for scheme, csi, metric in ALL_CELLS if metric in metrics
    }
    args = (params.rho, params.beta_sd, params.beta_rd, params.alpha_se, params.alpha_re)
    return args, oracles._span(fields[1:]), integrals


def test_batch_leaves_each_node_set_unchanged():
    # a set that lacks some of the batch's keys, and a set of the other
    # decode branch, which shares none of them
    a, b = _GRID[2], _GRID[3]
    sets = [
        _node_set(a, True, tuple(Metric)),
        _node_set(b, True, (Metric.SOP,)),
        _node_set(a, False, tuple(Metric)),
    ]
    batch = oracles._integrate(sets)
    assert [len(r) for r in batch] == [16, 8, 4]
    for node_set, results in zip(sets, batch, strict=True):
        (alone,) = oracles._integrate([node_set])
        assert results.keys() == node_set[2].keys()
        for key, (value, bound, count) in results.items():
            # bit for bit: == would let -0.0 pass for 0.0
            assert (np.float64([value, bound]).tobytes(), count) == (
                np.float64(alone[key][:2]).tobytes(), alone[key][2]
            ), key


def test_full_point_integrates_each_distinct_integral_once(base_params, monkeypatch):
    batches = []
    integrate = oracles._integrate

    def counted(sets):
        batches.append(sum(len(integrals) for *_, integrals in sets))
        return integrate(sets)

    monkeypatch.setattr(oracles, "_integrate", counted)
    assert 0.0 < fading.decode_probability(base_params) < 1.0
    oracles.quadrature_cells([base_params], ALL_CELLS)
    # per decode branch, relay on / off: 8 / 2 outages and 8 / 2 rates
    assert batches == [20]
    # one cell at a time integrates 32
    for scheme, csi, metric in ALL_CELLS:
        fn = oracles.quadrature_sop if metric is Metric.SOP else oracles.quadrature_esr
        fn(base_params, scheme, csi)
    assert sum(batches[1:]) == 32 and len(batches) == 17
    # a zero-weight branch is left out
    batches.clear()
    oracles.quadrature_cells([base_params.with_(gamma_th=math.inf)], ALL_CELLS)
    oracles.quadrature_cells([base_params.with_(gamma_th=0.0)], ALL_CELLS)
    assert batches == [4, 16]


_LAWS = ("exp_cdf", "exp_pdf", "sum_exp_cdf", "sum_exp_pdf", "max_exp_cdf", "max_exp_pdf")


def test_a_node_set_evaluates_each_law_once(base_params, monkeypatch):
    # in each round, the first grid and then each halving's midpoints, the
    # point's 20 integrals read each (law, combiner, argument) once per
    # node set (decode branch), 8 with the relay on (each combiner's CDF at
    # y at both receivers, its CDF at rho (1 + y) - 1 at the destination
    # and its density at the eavesdropper) and 4 with it off, the laws that
    # the 16 cells read one at a time.  A node set's rounds are those of its
    # longest integral: k halvings of an n-interval first grid evaluate
    # n 2^k + 1 nodes, read from the branch alone
    laws = 0
    for _, relay_on, fields in fading.decode_branches(base_params):
        branch = base_params.with_(gamma_th=0.0 if relay_on else math.inf)
        count = max(q.evaluations for q in oracles.quadrature_cells([branch], ALL_CELLS)[0])
        laws += (8 if relay_on else 4) * ((count - 1) // oracles._span(fields[1:])[1]).bit_length()
    calls = []
    for name in _LAWS:

        def counted(*args, law=getattr(fading, name), name=name):
            *rates, z = args
            calls.append((name, *rates, z.tobytes()))
            return law(*args)

        monkeypatch.setattr(fading, name, counted)
    assert 0.0 < fading.decode_probability(base_params) < 1.0
    oracles.quadrature_cells([base_params], ALL_CELLS)
    batch = Counter(calls)
    assert max(batch.values()) == 1 and len(batch) == laws
    alone = set()
    for cell in ALL_CELLS:
        calls.clear()
        oracles.quadrature_cells([base_params], [cell])
        alone.update(calls)
    assert alone == set(batch)


def test_batch_rejects_unknown_metric(base_params):
    # an unknown metric, and the names, not the members, of a metric, a
    # scheme and a CSI mode
    for cell in [
        (Scheme.MRC_SC, CsiMode.CSI, "mean"),
        (Scheme.MRC_SC, CsiMode.CSI, "sop"),
        ("mrc_sc", CsiMode.CSI, Metric.SOP),
        (Scheme.MRC_SC, "csi", Metric.SOP),
    ]:
        with pytest.raises(DomainError):
            oracles.quadrature_cells([base_params], [ALL_CELLS[0], cell])
    with pytest.raises(DomainError):
        oracles.quadrature_sop(base_params, "mrc_sc", CsiMode.CSI)
    assert oracles.quadrature_cells([base_params], []) == [[]]
    assert oracles.quadrature_cells([], ALL_CELLS) == []
