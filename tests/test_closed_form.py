"""Tests for the closed-form outage and rate expressions."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrelay import oracles
from secrelay.closed_form import (
    _TAYLOR_GAP,
    Method,
    cells,
    esr,
    esr_conditional,
    esr_mrc_sc_csi_variant,
    sop,
    sop_conditional,
)
from secrelay.errors import DomainError, NumericError
from secrelay.expint import eiexp
from secrelay.fading import (
    SCHEME_ORDER,
    CsiMode,
    Metric,
    Scheme,
    SystemParams,
    decode_branches,
    params_from_db,
)
from secrelay.sweep import BASE_DB, sample_grid

from mp_reference import mp_reference

ALL_MODES = (CsiMode.NOCSI, CsiMode.CSI)


def test_wiretap_collapse_coin_flip(wiretap_params):
    # huge threshold, symmetric direct links, zero target rate: every scheme
    # degenerates to P[g_sd < g_se] = 1/2
    for scheme in SCHEME_ORDER:
        m = sop(wiretap_params, scheme, CsiMode.NOCSI)
        assert m.method is Method.CLOSED_FORM
        assert m.value == pytest.approx(0.5, abs=1e-12)


def test_sop_saturates_at_high_target_rate(base_params):
    p = base_params.with_(rate_rs=40.0)
    for scheme in SCHEME_ORDER:
        assert sop(p, scheme, CsiMode.NOCSI).value == pytest.approx(1.0, abs=1e-12)


def test_sop_matches_monte_carlo_reference_point():
    # balanced 10 dB relay hops at the default operating point
    p = params_from_db(0.0, 3.0, 3.0, 10.0, 10.0, 3.0, 1.0)
    sop_cells = [(scheme, csi, Metric.SOP) for scheme in SCHEME_ORDER for csi in ALL_MODES]
    [estimates] = oracles.monte_carlo_all([p], sop_cells, 10**7, seed=2024)
    for (scheme, csi, _), est in zip(sop_cells, estimates):
        cf = sop(p, scheme, csi).value
        assert abs(cf - est.value) <= 3.0 * est.stderr


def test_esr_symmetric_wiretap_is_zero(wiretap_params):
    assert esr(wiretap_params, Scheme.MRC_MRC, CsiMode.NOCSI).value == pytest.approx(
        0.0, abs=1e-14
    )


def test_esr_csi_wiretap_value(wiretap_params):
    expected = (eiexp(2.0) - eiexp(1.0)) / (2.0 * math.log(2.0))
    assert expected == pytest.approx(0.16953, abs=1e-5)
    for scheme in SCHEME_ORDER:
        assert esr(wiretap_params, scheme, CsiMode.CSI).value == pytest.approx(
            expected, rel=1e-12
        )


def test_esr_reference_point_vs_quadrature():
    # eavesdropper links 3 / 3.5 dB, direct link 9.5 dB, balanced 10 dB hops
    p = params_from_db(3.0, 3.5, 9.5, 10.0, 10.0, 3.0, 1.0)
    for scheme in SCHEME_ORDER:
        for csi in ALL_MODES:
            cf = esr(p, scheme, csi).value
            q = oracles.quadrature_esr(p, scheme, csi, tol=1e-9)
            assert abs(cf - q.value) < 1e-6


def test_esr_nocsi_can_be_negative():
    # strong eavesdropper, weak relayed branch
    p = params_from_db(0.0, 3.5, 3.0, 30.0, 0.0, 3.0, 1.0)
    assert esr(p, Scheme.SC_MRC, CsiMode.NOCSI).value < 0.0
    assert esr(p, Scheme.SC_MRC, CsiMode.CSI).value >= 0.0


def test_combiner_order_without_csi():
    # without the transmit-side condition the outage event is one-sided in
    # each combined SNR, so pointwise MRC >= SC domination makes the chains
    # MRC_SC <= {MRC_MRC, SC_SC} <= SC_MRC a theorem for every parameter set
    for params in sample_grid(25, seed=123):
        v = {s: sop(params, s, CsiMode.NOCSI).value for s in SCHEME_ORDER}
        assert v[Scheme.MRC_SC] <= v[Scheme.MRC_MRC] + 1e-12
        assert v[Scheme.MRC_MRC] <= v[Scheme.SC_MRC] + 1e-12
        assert v[Scheme.MRC_SC] <= v[Scheme.SC_SC] + 1e-12
        assert v[Scheme.SC_SC] <= v[Scheme.SC_MRC] + 1e-12


def test_combiner_order_with_csi_at_reference_point(base_params):
    # the same chains hold in the reference operating regime with CSI
    v = {s: sop(base_params, s, CsiMode.CSI).value for s in SCHEME_ORDER}
    assert v[Scheme.MRC_SC] <= v[Scheme.MRC_MRC] <= v[Scheme.SC_MRC]
    assert v[Scheme.MRC_SC] <= v[Scheme.SC_SC] <= v[Scheme.SC_MRC]


def test_combiner_order_with_csi_has_counterexamples():
    # the CSI outage is the band event {g_E < g_M < rho (1 + g_E) - 1}, so a
    # pointwise-larger destination SNR can move mass INTO the event and the
    # NOCSI ordering does not carry over; pin one confirmed counterexample
    p = SystemParams(
        alpha_se=0.4935411323043103,
        alpha_re=1.1382362373577697,
        beta_sd=3.8642660057022953,
        beta_sr=0.059117171391047656,
        beta_rd=2.009927589909538,
        gamma_th=0.20422474810877778,
        rate_rs=1.4538608196785414,
    )
    lo = sop(p, Scheme.MRC_SC, CsiMode.CSI).value
    hi = sop(p, Scheme.MRC_MRC, CsiMode.CSI).value
    assert lo > hi + 0.01
    # both values sit on the quadrature oracle, so the inversion is real
    assert abs(lo - oracles.quadrature_sop(p, Scheme.MRC_SC, CsiMode.CSI, 1e-9).value) < 1e-9
    assert abs(hi - oracles.quadrature_sop(p, Scheme.MRC_MRC, CsiMode.CSI, 1e-9).value) < 1e-9


def test_csi_benefit_everywhere():
    # conditioning on positive secrecy removes outcomes from the outage
    # event and adds only non-negative mass to the rate: always true
    for params in sample_grid(25, seed=123):
        for s in SCHEME_ORDER:
            assert (
                sop(params, s, CsiMode.CSI).value
                <= sop(params, s, CsiMode.NOCSI).value + 1e-12
            )
            e_csi = esr(params, s, CsiMode.CSI).value
            e_nocsi = esr(params, s, CsiMode.NOCSI).value
            assert e_csi >= max(0.0, e_nocsi) - 1e-12


def test_sop_monotone_in_target_rate(base_params):
    # the outage event grows with the target rate in both CSI modes: the
    # band's upper edge rho (1 + g_E) - 1 rises while the lower edge stays
    for scheme in SCHEME_ORDER:
        for csi in ALL_MODES:
            prev = -1.0
            for rs in (0.1, 0.5, 1.0, 1.5, 2.0):
                v = sop(base_params.with_(rate_rs=rs), scheme, csi).value
                assert v >= prev - 1e-12
                prev = v


def test_sop_monotone_in_direct_link_without_csi(base_params):
    # a stronger direct link stochastically raises g_M, which can only
    # shrink the one-sided NOCSI outage event
    for scheme in SCHEME_ORDER:
        weak = sop(base_params.with_(beta_sd=2.0), scheme, CsiMode.NOCSI).value
        strong = sop(base_params.with_(beta_sd=0.2), scheme, CsiMode.NOCSI).value
        assert strong <= weak + 1e-12


def test_sop_direct_link_with_csi_regime_dependent(base_params):
    # with CSI the band event breaks the monotonicity argument: around the
    # reference point a stronger direct link helps, but from a weak start
    # it first moves mass into the band and the outage grows
    p = params_from_db(0.0, 3.0, 9.0, 10.0, 10.0, 3.0, 1.0)
    for scheme in SCHEME_ORDER:
        better = sop(p.with_(beta_sd=p.beta_sd / 2.0), scheme, CsiMode.CSI).value
        assert better <= sop(p, scheme, CsiMode.CSI).value + 1e-12
    weak = sop(base_params.with_(beta_sd=2.0), Scheme.SC_MRC, CsiMode.CSI).value
    strong = sop(base_params.with_(beta_sd=0.2), Scheme.SC_MRC, CsiMode.CSI).value
    assert strong > weak  # confirmed against the oracles; band-event effect


def test_equal_rates_stay_on_the_closed_form(base_params):
    # equal MRC rates make the two-rate mixture weights singular; the
    # divided-difference form keeps every cell on the closed form and in
    # agreement with quadrature
    b = base_params.with_(beta_rd=base_params.beta_sd)
    a = base_params.with_(alpha_re=base_params.alpha_se)
    ab = b.with_(alpha_re=b.alpha_se)
    for p in (b, a, ab):
        for scheme in SCHEME_ORDER:
            for csi in ALL_MODES:
                s = sop(p, scheme, csi)
                e = esr(p, scheme, csi)
                assert s.method is Method.CLOSED_FORM and e.method is Method.CLOSED_FORM
                assert abs(s.value - oracles.quadrature_sop(p, scheme, csi, 1e-10).value) < 1e-9
                assert abs(e.value - oracles.quadrature_esr(p, scheme, csi, 1e-10).value) < 1e-9


# -40 dB eavesdropper links, -37 dB destination links, relay always decoding:
# combined rates in the thousands, where eiexp's derivatives come from its
# asymptotic series.
LOW_SNR = params_from_db(-40.0, -40.0, -37.0, 30.0, -37.0, -50.0, 0.5)


@pytest.mark.parametrize("pair", ["beta", "alpha", "both"])
@pytest.mark.parametrize("point", ["base", "low_snr"])
def test_equal_and_near_equal_rates_match_mpmath(base_params, pair, point):
    # up to just below the relative gap where the series hands over to the
    # plain quotient
    for gap in (0.0, 1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.049):
        p = base_params if point == "base" else LOW_SNR
        if pair in ("beta", "both"):
            p = p.with_(beta_rd=p.beta_sd * (1.0 + gap))
        if pair in ("alpha", "both"):
            p = p.with_(alpha_re=p.alpha_se * (1.0 + gap))
        for scheme in SCHEME_ORDER:
            for csi in ALL_MODES:
                for metric, fn in (("sop", sop), ("esr", esr)):
                    ref = mp_reference(p, scheme, csi, metric)
                    assert fn(p, scheme, csi).value == pytest.approx(ref, rel=1e-12, abs=0.0), (
                        gap, pair, scheme, csi, metric
                    )


@pytest.mark.parametrize("rate_rs", [0.5, 3.0, 6.0, 8.0])
@pytest.mark.parametrize("beta_sd_db", [-13.0, 0.0, 10.0])
def test_close_mrc_destination_rates_match_mpmath(beta_sd_db, rate_rs):
    # beta_rd slightly stronger than beta_sd: the relayed rate is the smaller
    # of a close pair, at k = rho - 1 up to ~6.6e4
    for gap_db in (0.01, 0.02, 0.05, 0.1, 0.2):
        p = params_from_db(
            **dict(BASE_DB, beta_sd_db=beta_sd_db, beta_rd_db=beta_sd_db + gap_db, rate_rs=rate_rs)
        )
        for scheme in (Scheme.MRC_MRC, Scheme.MRC_SC):
            for csi in ALL_MODES:
                ref = mp_reference(p, scheme, csi, "sop")
                assert sop(p, scheme, csi).value == pytest.approx(ref, rel=1e-14, abs=0.0), (
                    gap_db, scheme, csi
                )


@pytest.mark.parametrize("db", [70.0, 80.0, 90.0, 100.0])
def test_esr_finite_and_accurate_at_high_balanced_snr(db):
    # equal direct/relayed destination rates and equal eavesdropper rates at
    # high SNR: the cells the quadrature fallback used to fail on
    p = params_from_db(0.0, 0.0, db, db, db, 3.0, 0.5)
    for scheme in SCHEME_ORDER:
        for csi in ALL_MODES:
            v = esr(p, scheme, csi).value
            assert math.isfinite(v)
            assert v == pytest.approx(mp_reference(p, scheme, csi, "esr"), rel=1e-10, abs=0.0)


def test_near_degenerate_band_stays_on_the_oracle(base_params):
    # small rate gaps, singly and in both pairs at once, where the plain
    # two-rate weights would amplify round-off by 1/gap; agreement with
    # quadrature must survive them
    for gap_b, gap_a in ((3.5e-8, 0.5), (0.5, 3.5e-8), (1e-4, 1e-4), (1e-6, 0.6)):
        p = base_params.with_(
            beta_rd=base_params.beta_sd * (1.0 + gap_b),
            alpha_re=base_params.alpha_se * (1.0 + gap_a),
        )
        for scheme in (Scheme.MRC_MRC, Scheme.SC_MRC):
            for csi in ALL_MODES:
                assert abs(
                    esr(p, scheme, csi).value
                    - oracles.quadrature_esr(p, scheme, csi, 1e-9).value
                ) < 1e-6
                assert abs(
                    sop(p, scheme, csi).value
                    - oracles.quadrature_sop(p, scheme, csi, 1e-9).value
                ) < 1e-6


def test_continuity_through_equality_and_the_series_switch(base_params):
    # the divided difference moves from the plain quotient to the series at
    # a relative gap of _TAYLOR_GAP; values must be continuous there and
    # through exact equality (both steps are first order in the gap)
    steps = (
        (0.0, 1e-6, 1e-6),
        (_TAYLOR_GAP * (1.0 - 1e-9), _TAYLOR_GAP * (1.0 + 1e-9), 1e-10),
    )
    for lo, hi, tol in steps:
        for field, base in (("beta_rd", base_params.beta_sd), ("alpha_re", base_params.alpha_se)):
            p_lo = base_params.with_(**{field: base * (1.0 + lo)})
            p_hi = base_params.with_(**{field: base * (1.0 + hi)})
            for scheme in SCHEME_ORDER:
                for csi in ALL_MODES:
                    for fn in (sop, esr):
                        assert abs(fn(p_lo, scheme, csi).value - fn(p_hi, scheme, csi).value) <= tol


def test_zero_threshold_drops_direct_only_branch(base_params):
    # with gamma_th = 0 the metric is the decode-success branch alone
    p = base_params.with_(gamma_th=0.0)
    for scheme in SCHEME_ORDER:
        for csi in ALL_MODES:
            assert sop(p, scheme, csi).value == pytest.approx(
                sop_conditional(p, scheme, csi, relay_on=True), abs=1e-15
            )


def test_cells_are_their_weighted_branches_to_the_bit():
    # each cell is the sum over the decode branches of weight times the
    # public conditional, the outage clamped to [0, 1]
    all_cells = [(s, c, m) for m in Metric for c in ALL_MODES for s in SCHEME_ORDER]
    points = sample_grid(50, 3)
    for params, values in zip(points, cells(points, all_cells), strict=True):
        branches = decode_branches(params)
        for (scheme, csi, metric), value in zip(all_cells, values, strict=True):
            conditional = sop_conditional if metric is Metric.SOP else esr_conditional
            mixed = sum(w * conditional(params, scheme, csi, on) for w, on, _ in branches)
            if metric is Metric.SOP:
                mixed = min(1.0, max(0.0, mixed))
            assert value == mixed, (params, scheme, csi, metric)


def test_conditional_brackets_match_branch_quadrature():
    for params in sample_grid(6, seed=5):
        for scheme in SCHEME_ORDER:
            for csi in ALL_MODES:
                for relay_on in (True, False):
                    # one branch alone: the relay always decodes at gamma_th 0, never at inf
                    branch = params.with_(gamma_th=0.0 if relay_on else math.inf)
                    s = sop_conditional(params, scheme, csi, relay_on)
                    qs = oracles.quadrature_sop(branch, scheme, csi)
                    assert abs(s - qs.value) < 1e-8
                    e = esr_conditional(params, scheme, csi, relay_on)
                    qe = oracles.quadrature_esr(branch, scheme, csi)
                    assert abs(e - qe.value) < 1e-8


def test_rejected_variant_disagrees_with_quadrature(base_params):
    q = oracles.quadrature_esr(base_params, Scheme.MRC_SC, CsiMode.CSI, tol=1e-9).value
    shipped = esr(base_params, Scheme.MRC_SC, CsiMode.CSI).value
    variant = esr_mrc_sc_csi_variant(base_params)
    assert abs(shipped - q) < 1e-9
    assert abs(variant - q) > 1e-3
    with pytest.raises(DomainError):
        esr_mrc_sc_csi_variant(base_params.with_(beta_rd=base_params.beta_sd))


def test_invalid_inputs_raise(base_params):
    with pytest.raises(DomainError):
        sop("nope", Scheme.MRC_SC, CsiMode.CSI)
    with pytest.raises(DomainError):
        esr(base_params, "mrc_sc", CsiMode.CSI)


def test_infinite_threshold_is_exact_wiretap(base_params):
    p = base_params.with_(gamma_th=math.inf)
    for scheme in SCHEME_ORDER:
        for csi in ALL_MODES:
            assert sop(p, scheme, csi).value == sop_conditional(p, scheme, csi, False)
            assert esr(p, scheme, csi).value == esr_conditional(p, scheme, csi, False)
    # The relay-on branch has weight 0 and is skipped, even where it does not
    # evaluate (the MRC eavesdropper transform overflows to NaN).
    loud = p.with_(alpha_se=1e300, alpha_re=1e300)
    with pytest.raises(NumericError):
        sop_conditional(loud, Scheme.MRC_MRC, CsiMode.NOCSI, True)
    off = sop_conditional(loud, Scheme.MRC_MRC, CsiMode.NOCSI, False)
    assert sop(loud, Scheme.MRC_MRC, CsiMode.NOCSI).value == off


@settings(max_examples=25, deadline=None)
@given(
    st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(0.05, 20.0),
    st.floats(0.05, 20.0), st.floats(0.05, 20.0), st.floats(0.0, 6.0),
    st.floats(0.1, 2.0), st.sampled_from(SCHEME_ORDER), st.sampled_from(ALL_MODES),
)
def test_closed_forms_track_quadrature_property(
    a_se, a_re, b_sd, b_sr, b_rd, gamma_th, rate_rs, scheme, csi
):
    params = SystemParams(a_se, a_re, b_sd, b_sr, b_rd, gamma_th, rate_rs)
    assert abs(
        sop(params, scheme, csi).value
        - oracles.quadrature_sop(params, scheme, csi, 1e-9).value
    ) < 1e-6
    assert abs(
        esr(params, scheme, csi).value
        - oracles.quadrature_esr(params, scheme, csi, 1e-9).value
    ) < 1e-6
