"""Tests for the high-SNR asymptotes and limiting channels."""

import pytest

from secrelay import oracles
from secrelay.asymptotics import (
    Asymptote,
    UnbalancedCase,
    esr_perfect_decoding,
    esr_saturation_case2_mrc_sc,
    sop_asymptote_balanced,
    sop_asymptote_unbalanced,
    sop_perfect_decoding,
    sop_wiretap,
)
from secrelay.closed_form import esr, sop, sop_conditional, sop_relay_slope
from secrelay.errors import NumericError
from secrelay.fading import CsiMode, Metric, SCHEME_ORDER, Scheme, decode_branches, params_from_db
from secrelay.sweep import sample_grid

from mp_reference import mp_relay_slope

ALL_MODES = (CsiMode.NOCSI, CsiMode.CSI)

# eavesdropper 0 / 3 dB, direct link 9 dB, threshold 3 dB, one bpcu
FIG3_PARAMS = params_from_db(0.0, 3.0, 9.0, 10.0, 10.0, 3.0, 1.0)
# eavesdropper 0 / 3 dB, direct link 3 dB, fixed hop 30 dB
FIG5_PARAMS = params_from_db(0.0, 3.0, 3.0, 30.0, 30.0, 3.0, 1.0)


# Balanced points with direct links from 0 to 100 dB (eavesdropper 0 / 3 dB,
# threshold 3 dB, one bpcu), then random grid points.
SLOPE_POINTS = [
    params_from_db(0.0, 3.0, db, db, db, 3.0, 1.0) for db in (0.0, 20.0, 40.0, 60.0, 80.0, 100.0)
] + sample_grid(3, seed=42)


def test_balanced_slope_matches_closed_form_at_60db():
    # the relay slope against the 120-digit reference (the hand-derived
    # slope it replaced was off by 1.7e-6 at 60 dB; a difference of first
    # divided differences by ~eps/beta_sd, 3e-6 at 100 dB), then the whole
    # coefficient against the closed form
    for params in (FIG3_PARAMS, *SLOPE_POINTS):
        for scheme in SCHEME_ORDER:
            for csi in ALL_MODES:
                ref = mp_relay_slope(params, scheme, csi)
                slope = sop_relay_slope(params, scheme, csi)
                assert slope == pytest.approx(ref, rel=1e-12, abs=0.0), (params, scheme, csi)
    beta = 1e-6
    p = FIG3_PARAMS.with_(beta_sr=beta, beta_rd=beta)
    for scheme in SCHEME_ORDER:
        for csi in ALL_MODES:
            a = sop_asymptote_balanced(FIG3_PARAMS, scheme, csi)
            assert a.constant_term == 0.0
            ratio = sop(p, scheme, csi).value / beta
            assert abs(ratio - a.coefficient) <= 0.02 * a.coefficient


def test_balanced_slope_positive_on_random_grid():
    for params in sample_grid(20, seed=42):
        for scheme in SCHEME_ORDER:
            for csi in ALL_MODES:
                assert sop_asymptote_balanced(params, scheme, csi).coefficient > 0.0


def test_balanced_slope_zero_target_rate_csi():
    # with a zero target rate the CSI outage event is empty, so the whole
    # first-order coefficient collapses to zero
    p = FIG3_PARAMS.with_(rate_rs=0.0)
    for scheme in SCHEME_ORDER:
        a = sop_asymptote_balanced(p, scheme, CsiMode.CSI)
        assert a.coefficient == pytest.approx(0.0, abs=1e-14)


def test_case1_constant_shared_across_schemes():
    for csi in ALL_MODES:
        consts = [
            sop_asymptote_unbalanced(FIG5_PARAMS, s, csi, UnbalancedCase.I).constant_term
            for s in SCHEME_ORDER
        ]
        assert len(set(consts)) == 1
        assert 0.0 <= consts[0] <= 1.0
        # the floor is the silent-relay branch of the mixture, to the bit
        (off_weight,) = [w for w, relay_on, _ in decode_branches(FIG5_PARAMS) if not relay_on]
        off = sop_conditional(FIG5_PARAMS, Scheme.MRC_MRC, csi, relay_on=False)
        assert consts[0] == off_weight * off
    nocsi = sop_asymptote_unbalanced(
        FIG5_PARAMS, Scheme.MRC_MRC, CsiMode.NOCSI, UnbalancedCase.I
    ).constant_term
    csi = sop_asymptote_unbalanced(
        FIG5_PARAMS, Scheme.MRC_MRC, CsiMode.CSI, UnbalancedCase.I
    ).constant_term
    assert nocsi != csi


def test_case2_constants_differ_across_schemes():
    random_point = sample_grid(1, seed=61)[0]
    for params in (FIG5_PARAMS, random_point):
        for csi in ALL_MODES:
            consts = [
                sop_asymptote_unbalanced(params, s, csi, UnbalancedCase.II).constant_term
                for s in SCHEME_ORDER
            ]
            assert len({round(c, 12) for c in consts}) == 4


@pytest.mark.parametrize("case,field", [(UnbalancedCase.I, "beta_rd"), (UnbalancedCase.II, "beta_sr")])
def test_unbalanced_floor_law(case, field):
    beta_80db = 1e-8
    for scheme in SCHEME_ORDER:
        for csi in ALL_MODES:
            a = sop_asymptote_unbalanced(FIG5_PARAMS, scheme, csi, case)
            assert 0.0 <= a.constant_term <= 1.0
            high = sop(FIG5_PARAMS.with_(**{field: beta_80db}), scheme, csi).value
            assert abs(high - a.constant_term) <= a.coefficient * 1e-8 + 1e-6


@pytest.mark.parametrize("case,field", [(UnbalancedCase.I, "beta_rd"), (UnbalancedCase.II, "beta_sr")])
def test_unbalanced_slope_law(case, field):
    # the first-order term is the residual slope above the floor
    beta = 1e-6
    for scheme in SCHEME_ORDER:
        for csi in ALL_MODES:
            a = sop_asymptote_unbalanced(FIG5_PARAMS, scheme, csi, case)
            residual = sop(FIG5_PARAMS.with_(**{field: beta}), scheme, csi).value - a.constant_term
            assert residual / beta == pytest.approx(a.coefficient, rel=0.02)


def test_asymptote_predict():
    a = Asymptote(0.25, 3.0)
    assert a.predict(0.01) == pytest.approx(0.28)
    # an overflow is a numeric failure, never a value
    with pytest.raises(NumericError):
        Asymptote(0.0, 1e308).predict(10.0)


def test_wiretap_values(wiretap_params):
    assert sop_wiretap(wiretap_params) == pytest.approx(0.5)
    assert sop_wiretap(wiretap_params.with_(rate_rs=40.0)) == pytest.approx(1.0, abs=1e-12)
    p = params_from_db(0.0, 3.0, 3.0, 3.0, 3.0, 3.0, 1.0).with_(gamma_th=1e4)
    for scheme in Scheme:
        assert abs(sop(p, scheme, CsiMode.NOCSI).value - sop_wiretap(p)) < 1e-9


def test_perfect_decoding_identity_random_grid():
    for params in sample_grid(40, seed=9):
        p0 = params.with_(gamma_th=0.0)
        assert abs(
            sop_perfect_decoding(p0) - sop(p0, Scheme.MRC_MRC, CsiMode.NOCSI).value
        ) <= 1e-14
        assert abs(
            esr_perfect_decoding(p0) - esr(p0, Scheme.MRC_MRC, CsiMode.NOCSI).value
        ) <= 1e-12


def test_perfect_decoding_ignores_first_hop():
    p = params_from_db(0.0, 3.0, 40.0, 10.0, 3.0, 3.0, 1.0)
    a = sop_perfect_decoding(p.with_(beta_sr=0.1))
    b = sop_perfect_decoding(p.with_(beta_sr=10.0))
    assert a == b
    assert esr_perfect_decoding(p.with_(beta_sr=0.1)) == esr_perfect_decoding(
        p.with_(beta_sr=10.0)
    )


def test_perfect_decoding_matches_monte_carlo():
    # strong direct link, weak relayed hop, threshold removed
    p = params_from_db(0.0, 3.0, 40.0, 10.0, 3.0, 3.0, 1.0).with_(gamma_th=0.0)
    [[est]] = oracles.monte_carlo_all([p], [(Scheme.MRC_MRC, CsiMode.NOCSI, Metric.SOP)], 10**7, seed=6)
    assert abs(sop_perfect_decoding(p) - est.value) <= 3.0 * est.stderr


def test_perfect_decoding_at_equal_rates_matches_quadrature(base_params):
    p = base_params.with_(beta_rd=base_params.beta_sd, gamma_th=0.0)
    v = sop_perfect_decoding(p)
    assert 0.0 <= v <= 1.0
    assert abs(v - sop(p, Scheme.MRC_MRC, CsiMode.NOCSI).value) < 1e-15
    # gamma_th = 0: the relay always decodes, so quadrature integrates that branch alone
    q = oracles.quadrature_sop(p, Scheme.MRC_MRC, CsiMode.NOCSI, tol=1e-10)
    assert abs(v - q.value) < 1e-9
    pe = p.with_(alpha_re=p.alpha_se)
    q = oracles.quadrature_esr(pe, Scheme.MRC_MRC, CsiMode.NOCSI, tol=1e-10)
    assert abs(esr_perfect_decoding(pe) - q.value) < 1e-9
    q = oracles.quadrature_esr(pe, Scheme.MRC_SC, CsiMode.CSI, tol=1e-10)
    assert abs(esr_saturation_case2_mrc_sc(pe) - q.value) < 1e-9


def test_esr_perfect_decoding_cancels_when_links_match():
    p = params_from_db(0.0, 3.0, 0.0, 10.0, 3.0, 3.0, 1.0)
    # destination pair equals eavesdropper pair term by term
    assert esr_perfect_decoding(p) == pytest.approx(0.0, abs=1e-14)


def test_esr_saturation_case2():
    # eavesdropper 0 / 3.5 dB, direct 3 dB, fixed second hop 30 dB
    p = params_from_db(0.0, 3.5, 3.0, 30.0, 30.0, 3.0, 1.0)
    sat = esr_saturation_case2_mrc_sc(p)
    val = esr(p.with_(beta_sr=1e-8), Scheme.MRC_SC, CsiMode.CSI).value
    assert abs(val - sat) <= 1e-4


def test_threshold_floor_relation_depends_on_which_link_is_strong():
    # when the relayed hop is the strong one, always decoding helps the
    # destination and the silent-relay outage is the larger floor; with an
    # already-strong direct link the relay mostly helps the eavesdropper
    # and the relation flips
    relay_strong = params_from_db(0.0, 3.0, 3.0, 40.0, 40.0, 3.0, 1.0)
    assert sop_wiretap(relay_strong) >= sop_perfect_decoding(relay_strong)
    direct_strong = params_from_db(0.0, 3.0, 40.0, 3.0, 3.0, 3.0, 1.0)
    assert sop_wiretap(direct_strong) < sop_perfect_decoding(direct_strong)
