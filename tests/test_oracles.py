"""Tests for the Monte Carlo and quadrature oracles."""

import math

import numpy as np
import pytest

from secrelay import fading, kernels, oracles
from secrelay.closed_form import sop
from secrelay.errors import DomainError
from secrelay.fading import (
    CsiMode,
    DRAWS_PER_TRIAL,
    SCHEME_ORDER,
    Scheme,
    combine,
    params_from_db,
    sample_trial,
    secrecy_rate,
    trial_stream,
)
from secrelay.sweep import sample_grid

from mp_reference import mp_reference


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_estimates_reproducible(base_params):
    a = oracles.monte_carlo_all(base_params, 200_000, seed=1).sop(Scheme.MRC_SC, CsiMode.CSI)
    b = oracles.monte_carlo_all(base_params, 200_000, seed=1).sop(Scheme.MRC_SC, CsiMode.CSI)
    assert a == b
    c = oracles.monte_carlo_all(base_params, 200_000, seed=2).sop(Scheme.MRC_SC, CsiMode.CSI)
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
    mc = oracles.monte_carlo_all(base_params, n, seed=4, point=1)
    for k, scheme in enumerate(SCHEME_ORDER):
        assert mc.sop(scheme, CsiMode.NOCSI).value == ref[0, k] / n
        assert mc.sop(scheme, CsiMode.CSI).value == ref[1, k] / n
        for csi, row in ((CsiMode.NOCSI, 2), (CsiMode.CSI, 4)):
            est = mc.esr(scheme, csi)
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
    mc = oracles.monte_carlo_all(base_params, n, seed=21)
    for s in SCHEME_ORDER:
        est = mc.sop(s, CsiMode.NOCSI)
        assert est.value * n == counts[s]
        assert mc.esr(s, CsiMode.CSI).value * n == pytest.approx(csums[s], rel=1e-10)


def test_sop_estimate_stderr_formula(base_params):
    est = oracles.monte_carlo_all(base_params, 10**5, seed=3).sop(Scheme.SC_SC, CsiMode.NOCSI)
    assert est.trials == 10**5
    assert est.stderr == pytest.approx(
        math.sqrt(est.value * (1.0 - est.value) / est.trials)
    )


def test_high_target_rate_saturates(base_params):
    p = base_params.with_(rate_rs=60.0)
    est = oracles.monte_carlo_all(p, 10**4, seed=5).sop(Scheme.MRC_MRC, CsiMode.NOCSI)
    assert est.value == 1.0


def test_wiretap_coin_flip(wiretap_params):
    est = oracles.monte_carlo_all(wiretap_params, 10**6, seed=8).sop(Scheme.MRC_SC, CsiMode.NOCSI)
    assert abs(est.value - 0.5) < 0.0015


def test_esr_estimates(wiretap_params, base_params):
    # symmetric silent-relay channel has zero expected log-ratio
    est = oracles.monte_carlo_all(wiretap_params, 10**6, seed=9).esr(Scheme.SC_SC, CsiMode.NOCSI)
    assert abs(est.value) <= 3.0 * est.stderr
    # the CSI statistic is non-negative by construction
    for seed in (1, 2, 3):
        est = oracles.monte_carlo_all(base_params, 10**4, seed=seed).esr(Scheme.SC_MRC, CsiMode.CSI)
        assert est.value >= 0.0


def test_esr_estimate_matches_closed_form_reference_point():
    # eavesdropper links 3 / 3.5 dB, direct link 9.5 dB, balanced 10 dB hops
    from secrelay.closed_form import esr

    p = params_from_db(3.0, 3.5, 9.5, 10.0, 10.0, 3.0, 1.0)
    est = oracles.monte_carlo_all(p, 10**7, seed=41).esr(Scheme.SC_MRC, CsiMode.CSI)
    assert abs(est.value - esr(p, Scheme.SC_MRC, CsiMode.CSI).value) <= 3.0 * est.stderr


def test_trial_count_validation(base_params):
    with pytest.raises(DomainError):
        oracles.monte_carlo_all(base_params, 0, seed=1)


def test_trial_count_beyond_the_stream_key_fails_before_drawing(base_params, monkeypatch):
    # 2^24 chunks is all a stream key can address; a larger count used to
    # run every addressable chunk before the first unaddressable one failed
    def no_draws(*args, **kwargs):
        raise AssertionError("drew trials for an invalid trial count")

    monkeypatch.setattr(fading, "trial_stream", no_draws)
    too_many = oracles.CHUNK_TRIALS * fading.CHUNK_LIMIT + 1
    with pytest.raises(DomainError, match="at most"):
        oracles.monte_carlo_all(base_params, too_many, seed=1)


def test_one_kernel_whatever_the_environment(base_params, monkeypatch):
    u = trial_stream(33).random((1000, DRAWS_PER_TRIAL))
    rates = (base_params.beta_sd, base_params.beta_sr, base_params.beta_rd,
             base_params.alpha_se, base_params.alpha_re)
    with pytest.raises(ValueError):
        kernels.reduce_trials(u, rates, base_params.gamma_th, base_params.rho, backend="numba")
    assert kernels.active_backend() == "numpy"
    # the environment no longer selects a kernel
    monkeypatch.delenv("SECRELAY_BACKEND", raising=False)
    unset = oracles.monte_carlo_all(base_params, 20_000, seed=8)
    monkeypatch.setenv("SECRELAY_BACKEND", "numba")
    assert kernels.active_backend() == "numpy"
    numba_set = oracles.monte_carlo_all(base_params, 20_000, seed=8)
    for scheme in SCHEME_ORDER:
        for csi in (CsiMode.NOCSI, CsiMode.CSI):
            assert unset.sop(scheme, csi) == numba_set.sop(scheme, csi)
            assert unset.esr(scheme, csi) == numba_set.esr(scheme, csi)


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


def test_quadrature_unreachable_tolerance_raises(base_params):
    from secrelay.errors import NumericError

    with pytest.raises(NumericError):
        oracles.quadrature_sop(base_params, Scheme.MRC_MRC, CsiMode.NOCSI, tol=1e-300)


# fig7 case I at 50 dB on the R-D link; fig4's 40 dB direct link with the
# threshold at both ends of its sweep; equal destination and equal
# eavesdropper rates at 30 dB; both rate pairs 1e-5 apart, where the
# two-term sum-of-exponentials formula cancels to ~eps/gap.
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
    # 21 Kronrod nodes per interval; the rate integrates two functions per
    # decode branch, the outage one
    sop_q = oracles.quadrature_sop(base_params, Scheme.MRC_SC, CsiMode.CSI)
    esr_q = oracles.quadrature_esr(base_params, Scheme.MRC_SC, CsiMode.CSI)
    assert sop_q.evaluations % 21 == 0 and esr_q.evaluations % 21 == 0
    assert esr_q.evaluations > sop_q.evaluations > 0
    # one branch alone: the relay always decodes at gamma_th 0, never at inf
    on = oracles.quadrature_sop(base_params.with_(gamma_th=0.0), Scheme.MRC_SC, CsiMode.CSI)
    off = oracles.quadrature_sop(base_params.with_(gamma_th=math.inf), Scheme.MRC_SC, CsiMode.CSI)
    assert sop_q.evaluations == on.evaluations + off.evaluations


def test_quadrature_integrates_slow_links_across_wide_gaps():
    # 100 dB legitimate links next to 0 dB eavesdropper links: the relayed
    # destination SNR's mass lies 10^8 decay lengths of the fast links out
    params = params_from_db(0.0, 0.0, 100.0, 100.0, 100.0, 3.0, 0.5)
    for scheme in (Scheme.MRC_SC, Scheme.SC_SC):
        q = oracles.quadrature_esr(params, scheme, CsiMode.NOCSI)
        ref = mp_reference(params, scheme, CsiMode.NOCSI, "esr")
        assert abs(q.value - ref) <= q.abs_error_bound


def test_three_way_agreement_spot_check():
    params = sample_grid(2, seed=55)[1]
    mc = oracles.monte_carlo_all(params, 10**6, seed=55)
    for scheme in SCHEME_ORDER:
        for csi in (CsiMode.NOCSI, CsiMode.CSI):
            cf = sop(params, scheme, csi).value
            q = oracles.quadrature_sop(params, scheme, csi).value
            est = mc.sop(scheme, csi)
            assert abs(cf - q) < 1e-6
            assert abs(cf - est.value) <= 3.0 * est.stderr + 1e-4


# ---------------------------------------------------------------------------
# one quadrature batch per point
# ---------------------------------------------------------------------------

ALL_CELLS = [
    (scheme, csi, metric)
    for metric in ("sop", "esr")
    for csi in (CsiMode.NOCSI, CsiMode.CSI)
    for scheme in SCHEME_ORDER
]
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
    batch = oracles.quadrature_cells(params, ALL_CELLS, tol)
    for (scheme, csi, metric), q in zip(ALL_CELLS, batch, strict=True):
        fn = oracles.quadrature_sop if metric == "sop" else oracles.quadrature_esr
        assert q == fn(params, scheme, csi, tol), (scheme, csi, metric)
    # nor does the order of the cells matter
    assert oracles.quadrature_cells(params, ALL_CELLS[::-1], tol)[::-1] == batch


def test_full_point_integrates_each_distinct_integral_once(base_params, monkeypatch):
    batches = []
    integrate = oracles._integrate

    def counted(integrands, tols, meshes):
        batches.append(len(integrands))
        return integrate(integrands, tols, meshes)

    monkeypatch.setattr(oracles, "_integrate", counted)
    assert 0.0 < fading.decode_probability(base_params) < 1.0
    oracles.quadrature_cells(base_params, ALL_CELLS)
    # per decode branch, relay on / off: 8 / 2 outages, 4 / 2 rates without
    # CSI (one side's combiner each), 8 / 2 rates with CSI
    assert batches == [26]
    # one cell at a time integrates 48
    for scheme, csi, metric in ALL_CELLS:
        fn = oracles.quadrature_sop if metric == "sop" else oracles.quadrature_esr
        fn(base_params, scheme, csi)
    assert sum(batches[1:]) == 48 and len(batches) == 17
    # a zero-weight branch is left out
    batches.clear()
    oracles.quadrature_cells(base_params.with_(gamma_th=math.inf), ALL_CELLS)
    oracles.quadrature_cells(base_params.with_(gamma_th=0.0), ALL_CELLS)
    assert batches == [6, 20]


def test_batch_rejects_unknown_metric(base_params):
    with pytest.raises(DomainError):
        oracles.quadrature_cells(base_params, [(Scheme.MRC_SC, CsiMode.CSI, "mean")])
    assert oracles.quadrature_cells(base_params, []) == []
