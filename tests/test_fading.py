"""Tests for the system model: distributions, combining, and sampling."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from secrelay.errors import DomainError
from secrelay.fading import (
    Scheme,
    SystemParams,
    decode_probability,
    exp_cdf,
    exp_pdf,
    max_exp_cdf,
    max_exp_pdf,
    params_from_db,
    sum_exp_cdf,
    sum_exp_pdf,
    trial_stream,
)

from trial_model import TrialDraw, combine, sample_trial, secrecy_rate

rates_st = st.floats(min_value=0.05, max_value=20.0)
z_st = st.floats(min_value=0.0, max_value=200.0)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_params_from_db_conversions():
    p = params_from_db(0.0, 3.0, 3.0, 10.0, 10.0, 3.0, 1.0)
    assert p.alpha_se == pytest.approx(1.0)
    assert p.alpha_re == pytest.approx(10 ** -0.3)
    assert p.alpha_re == pytest.approx(0.501187, abs=1e-6)
    assert p.gamma_th == pytest.approx(1.995262, abs=1e-6)
    assert p.rho == 4.0


def test_params_rho_exact():
    p = params_from_db(0, 0, 0, 0, 0, 0, 0.5)
    assert p.rho == 2.0
    assert params_from_db(0, 0, 0, 0, 0, 0, 0.0).rho == 1.0


@pytest.mark.parametrize(
    "bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int_past_double"), True]
)
def test_params_from_db_rejects_nonfinite(bad):
    with pytest.raises(DomainError):
        params_from_db(bad, 3.0, 3.0, 10.0, 10.0, 3.0, 1.0)
    with pytest.raises(DomainError):
        params_from_db(0.0, 3.0, 3.0, 10.0, 10.0, bad, 1.0)


def test_params_validation():
    with pytest.raises(DomainError):
        SystemParams(-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    # rho = 2^(2 rate_rs) overflows from rate_rs = 512 on
    for rate_rs in (512.0, 600.0, math.inf):
        with pytest.raises(DomainError):
            SystemParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, rate_rs)
    assert math.isfinite(SystemParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 511.9).rho)
    with pytest.raises(DomainError):
        SystemParams(1.0, 1.0, 1.0, 1.0, 1.0, -0.5, 1.0)
    with pytest.raises(DomainError):
        SystemParams(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, math.nan)
    # a bool is an int to isinstance, but not a number of the model
    with pytest.raises(DomainError):
        SystemParams(True, 1.0, 1.0, 1.0, 1.0, True, True)
    for k in range(7):
        with pytest.raises(DomainError):
            SystemParams(*(True if i == k else 1.0 for i in range(7)))
    # an infinite threshold is the wiretap limit and is allowed
    p = SystemParams(1.0, 1.0, 1.0, 1.0, 1.0, math.inf, 1.0)
    assert decode_probability(p) == 0.0


_RATE_FIELDS = ("alpha_se", "alpha_re", "beta_sd", "beta_sr", "beta_rd")


@pytest.mark.parametrize(
    "change",
    [{name: v} for name in _RATE_FIELDS for v in (math.nan, math.inf, -math.inf, 0.0, -1.0)]
    + [{"gamma_th": -0.5}, {"gamma_th": math.nan}, {"rate_rs": 512.0}, {"rate_rs": -1.0},
       {"beta_rd": 2.0, "gamma_th": -1.0}, {"gamma_th": "3"}, {"gamma_th": None},
       {"rate_rs": None}, {"rate_rs": "0.5"},
       # two bad fields: the constructor's field order names the first
       {"rate_rs": -1.0, "alpha_se": -1.0}, {"gamma_th": -1.0, "beta_sd": 0.0},
       {"beta_rd": -1.0, "alpha_se": -1.0}],
)
def test_with_rejects_what_the_constructor_rejects(change):
    p = SystemParams(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5)
    with pytest.raises(DomainError) as built:
        SystemParams(**{**vars(p), **change})
    with pytest.raises(DomainError) as changed:
        p.with_(**change)
    assert str(changed.value) == str(built.value)


def test_with_builds_what_the_constructor_builds():
    p = SystemParams(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5)
    q = p.with_(beta_sr=0.25, gamma_th=math.inf)
    assert type(q) is SystemParams
    assert q == SystemParams(1.0, 2.0, 3.0, 0.25, 5.0, math.inf, 0.5)
    assert hash(q) == hash(SystemParams(1.0, 2.0, 3.0, 0.25, 5.0, math.inf, 0.5))
    assert p == SystemParams(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 0.5)
    assert p.with_() == p
    with pytest.raises(TypeError, match="no field 'beta'"):
        p.with_(beta=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        q.beta_sr = 1.0


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def test_exp_cdf_values():
    assert exp_cdf(1.0, 0.0) == 0.0
    assert exp_cdf(1.0, math.log(2.0)) == pytest.approx(0.5)
    assert exp_cdf(0.5, 3.0) == pytest.approx(1.0 - math.exp(-1.5))
    assert exp_cdf(0.5, 3.0) == pytest.approx(0.77687, abs=1e-5)


def test_sum_exp_cdf_values():
    assert sum_exp_cdf(1.0, 2.0, 0.0) == 0.0
    # equal rates take the Erlang-2 limit
    assert sum_exp_cdf(1.0, 1.0, 1.0) == pytest.approx(1.0 - 2.0 * math.exp(-1.0))
    assert sum_exp_cdf(1.0, 1.0, 1.0) == pytest.approx(0.264241, abs=1e-6)
    # distinct rates, checked against the convolution integral
    ref, err = quad(lambda x: exp_pdf(1.0, x) * exp_cdf(2.0, 1.5 - x), 0.0, 1.5,
                    epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-12
    assert sum_exp_cdf(1.0, 2.0, 1.5) == pytest.approx(ref, abs=1e-12)
    assert sum_exp_cdf(1.0, 2.0, 1.5) == pytest.approx(0.6035267480710044, rel=1e-12)


def test_sum_exp_cdf_degeneracy_continuity():
    # as the rates close in on each other the CDF approaches the Erlang-2
    # CDF at their average rate, to O(gap^2)
    r = 0.8
    r2 = r * (1.0 + 1e-6)
    z = 2.3
    near_equal = sum_exp_cdf(r, r2, z)
    rbar = 0.5 * (r + r2)
    erlang = -math.expm1(-rbar * z) - rbar * z * math.exp(-rbar * z)
    assert abs(near_equal - erlang) < 1e-8


@pytest.mark.parametrize("gap", [0.0, 1e-12, 1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("swap", [False, True])
def test_sum_exp_near_equal_rates_match_mpmath(gap, swap):
    # the two-term mixture cancels to ~eps/gap absolute as the rates close
    # in; the expm1 quotient keeps a few ulps at every gap, in either order
    r1, r2 = 1.1, 1.1 * (1.0 + gap)
    if swap:
        r1, r2 = r2, r1
    z = np.geomspace(1e-3, 60.0, 40)
    pdf, cdf = sum_exp_pdf(r1, r2, z), sum_exp_cdf(r1, r2, z)
    with mpmath.workdps(50):
        a, b = mpmath.mpf(r1), mpmath.mpf(r2)
        for k, x in enumerate(z):
            x = mpmath.mpf(x)
            if a == b:
                ref_pdf = a * a * x * mpmath.exp(-a * x)
                ref_cdf = 1 - (1 + a * x) * mpmath.exp(-a * x)
            else:
                ref_pdf = a * b * (mpmath.exp(-a * x) - mpmath.exp(-b * x)) / (b - a)
                ref_cdf = 1 - (b * mpmath.exp(-a * x) - a * mpmath.exp(-b * x)) / (b - a)
            assert abs(pdf[k] - float(ref_pdf)) <= 4e-16
            assert abs(cdf[k] - float(ref_cdf)) <= 4e-16
    # the limits at infinity, also for equal rates
    assert sum_exp_pdf(r1, r2, math.inf) == 0.0
    assert sum_exp_cdf(r1, r2, math.inf) == 1.0


def _mp_sum_exp_cdf(r1, r2, z):
    """The sum CDF from its two-term mixture, with digits enough to survive
    the cancellation of ~2 log10(1 / (max rate * z)) digits near 0."""
    a, b = sorted((r1, r2))
    digits = 40 + int(max(0.0, -2.0 * math.log10(b * z)))
    with mpmath.workdps(digits):
        a, b, z = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(z)
        if a == b:
            return 1 - (1 + a * z) * mpmath.exp(-a * z)
        return 1 - (b * mpmath.exp(-a * z) - a * mpmath.exp(-b * z)) / (b - a)


# a pair from a failing run of test_cdfs_monotone_and_bounded, equal and near-
# equal rates, and pairs 8 decades apart in both orders
SUM_CDF_PAIRS = [
    (1.0625, 7.683613302559305),
    (1.1, 1.1),
    (1.1, 1.1 * (1.0 + 1e-9)),
    (0.05, 20.0),
    (20.0, 0.05),
    (1e-4, 1e4),
    (1e4, 1e-4),
]


def test_sum_exp_cdf_lower_tail_regression():
    # the expm1 form gave 1.25e-147, 0.0 and a value 2.2e-7 off
    a, b = 1.0625, 7.683613302559305
    for z in (7.67e-132, 5.13e-73, 1e-10):
        leading = a * b * z * z / 2.0 * (1.0 - (a + b) * z / 3.0)
        for r1, r2 in ((a, b), (b, a)):
            assert abs(sum_exp_cdf(r1, r2, z) - leading) <= 1e-13 * leading


@pytest.mark.parametrize("r1,r2", SUM_CDF_PAIRS)
def test_sum_exp_cdf_monotone_on_log_grid(r1, r2):
    v = sum_exp_cdf(r1, r2, np.geomspace(1e-300, 1e2, 4000))
    assert np.all(np.diff(v) >= 0.0)
    assert v[0] >= 0.0 and v[-1] <= 1.0


@pytest.mark.parametrize("r1,r2", SUM_CDF_PAIRS)
def test_sum_exp_cdf_relative_accuracy_matches_mpmath(r1, r2):
    # from the smallest z whose CDF is a normal double up to the upper tail,
    # across the switch to the series at max(r1, r2) z = 0.25
    b = max(r1, r2)
    z = np.concatenate((np.geomspace(1e-140 / b, 1e2 / b, 60), np.array([0.2, 0.25, 0.3]) / b))
    v = sum_exp_cdf(r1, r2, z)
    for zk, vk in zip(z, v):
        ref = _mp_sum_exp_cdf(r1, r2, float(zk))
        assert abs(vk - ref) <= 1e-13 * ref, (zk, vk, ref)


def test_max_exp_cdf_values():
    assert max_exp_cdf(1.0, 2.0, 0.0) == 0.0
    assert max_exp_cdf(1.0, 1.0, math.log(2.0)) == pytest.approx(0.25)


def test_max_exp_pdf_value_and_finite_difference():
    v = max_exp_pdf(1.0, 2.0, 1.0)
    expected = math.exp(-1.0) * (1.0 - math.exp(-2.0)) + 2.0 * math.exp(-2.0) * (
        1.0 - math.exp(-1.0)
    )
    assert v == pytest.approx(expected, rel=1e-12)
    h = 1e-6
    fd = (max_exp_cdf(1.0, 2.0, 1.0 + h) - max_exp_cdf(1.0, 2.0, 1.0 - h)) / (2.0 * h)
    assert v == pytest.approx(fd, abs=1e-9)


@pytest.mark.parametrize("pdf,args", [(max_exp_pdf, (0.7, 2.3)), (sum_exp_pdf, (0.7, 2.3)),
                                      (sum_exp_pdf, (1.1, 1.1))])
def test_pdfs_integrate_to_one(pdf, args):
    total, err = quad(lambda z: pdf(*args, z), 0.0, 200.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    assert total == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(rates_st, rates_st, z_st, z_st)
def test_cdfs_monotone_and_bounded(r1, r2, z1, z2):
    lo, hi = sorted((z1, z2))
    for cdf in (lambda z: exp_cdf(r1, z), lambda z: sum_exp_cdf(r1, r2, z),
                lambda z: max_exp_cdf(r1, r2, z)):
        a, b = cdf(lo), cdf(hi)
        assert 0.0 <= a <= b <= 1.0
        assert cdf(-1.0) == 0.0
        assert cdf(1e9 / min(r1, r2)) == pytest.approx(1.0)
        assert cdf(math.inf) == 1.0


@pytest.mark.parametrize(
    "fn,rates",
    [
        (exp_cdf, (0.7,)),
        (exp_pdf, (0.7,)),
        (sum_exp_cdf, (0.7, 2.3)),
        (sum_exp_cdf, (1.1, 1.1 * (1.0 + 1e-8))),
        (sum_exp_pdf, (0.7, 2.3)),
        (sum_exp_pdf, (1.1, 1.1)),
        (max_exp_cdf, (0.7, 2.3)),
        (max_exp_pdf, (0.7, 2.3)),
        (sum_exp_cdf, (1.1 * (1.0 + 1e-5), 1.1)),
        (sum_exp_cdf, (1.1, 1.1)),
        (sum_exp_pdf, (2.3, 0.7)),
    ],
)
def test_distributions_on_arrays_match_scalar_calls(fn, rates):
    z = np.concatenate(
        ([-1e9, -1.0, 0.0, 5e-324, 1e-300, 1e3, 1e6, 800.0, 1e300, math.inf],
         np.random.default_rng(3).exponential(2.0, 500))
    ).reshape(-1, 3)
    scalar = [[fn(*rates, float(v)) for v in row] for row in z]
    assert all(type(v) is float for row in scalar for v in row)
    out = fn(*rates, z)
    assert out.shape == z.shape
    assert np.array_equal(out, np.array(scalar))
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            fn(bad, *rates[1:], z)
        with pytest.raises(DomainError):
            fn(*rates[:-1], bad, z)


# (r1, r2) per row of an array-rate call: distinct rates in both orders,
# equal rates (a gap of 0), a gap of one part in 1e8, and rates at the
# quadrature oracle's 2^-50 floor and far above it
_RATE_ROWS = [
    (0.7, 2.3), (2.3, 0.7), (1.1, 1.1), (1.1, 1.1 * (1.0 + 1e-8)),
    (2.0**-50, 2.0**-50), (2.0**-50, 1.5 * 2.0**-50), (2.0**-50, 3.0), (1e3, 1e3), (5.0, 40.0),
]
# off the support, at 0, in the sum CDF's series region b z <= 0.25 for
# every row, beyond it, and at infinity
_ARRAY_Z = [-1e9, -1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-9, 1e-5, 2e-4, 0.01, 0.2, 1.0, 7.0,
            1e3, 1e6, 1e15, 1e300, math.inf]


@pytest.mark.parametrize(
    "rows",
    [_RATE_ROWS, [r for r in _RATE_ROWS if r[0] == r[1]], [r for r in _RATE_ROWS if r[0] != r[1]]],
    ids=["mixed_gaps", "zero_gaps", "positive_gaps"],
)
@pytest.mark.parametrize(
    "fn", [exp_cdf, exp_pdf, sum_exp_cdf, sum_exp_pdf, max_exp_cdf, max_exp_pdf],
    ids=lambda fn: fn.__name__,
)
def test_array_rates_match_scalar_calls_bit_for_bit(fn, rows):
    # one rate per row of nodes, as the quadrature oracle passes them: each
    # element is the scalar call's value, bit for bit
    n_rates = 1 if fn in (exp_cdf, exp_pdf) else 2
    rates = [np.array([[r[i]] for r in rows]) for i in range(n_rates)]
    z = np.tile(_ARRAY_Z, (len(rows), 1))
    out = fn(*rates, z)
    expected = np.array([[fn(*r[:n_rates], v) for v in _ARRAY_Z] for r in rows])
    assert out.shape == z.shape
    assert out.tobytes() == expected.tobytes()
    for bad in (0.0, -1.0, math.nan, math.inf):
        broken = rates[-1].copy()
        broken[len(rows) // 2, 0] = bad
        with pytest.raises(DomainError):
            fn(*rates[:-1], broken, z)


@pytest.mark.parametrize("fn", [exp_cdf, exp_pdf])
def test_distribution_rate_domain(fn):
    with pytest.raises(DomainError):
        fn(0.0, 1.0)
    with pytest.raises(DomainError):
        fn(-2.0, 1.0)


def test_decode_probability():
    p = params_from_db(0, 3, 3, 10, 10, 3, 1.0)
    assert decode_probability(p.with_(gamma_th=0.0)) == 1.0
    assert decode_probability(p.with_(beta_sr=50.0)) < 1e-40
    q = p.with_(beta_sr=0.1, gamma_th=1.9953)
    assert decode_probability(q) == pytest.approx(math.exp(-0.19953), rel=1e-12)
    assert decode_probability(q) == pytest.approx(0.81912, abs=1e-5)


# ---------------------------------------------------------------------------
# combining and secrecy rate
# ---------------------------------------------------------------------------


def test_combine_examples():
    on = TrialDraw(2.0, 9.0, 3.0, 1.0, 4.0, relay_on=True)
    assert combine(Scheme.MRC_MRC, on) == (5.0, 5.0)
    assert combine(Scheme.SC_SC, on) == (3.0, 4.0)
    assert combine(Scheme.MRC_SC, on) == (5.0, 4.0)
    assert combine(Scheme.SC_MRC, on) == (3.0, 5.0)
    off = TrialDraw(2.0, 0.1, 3.0, 1.0, 4.0, relay_on=False)
    for scheme in Scheme:
        assert combine(scheme, off) == (2.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 50), st.floats(0, 50), st.floats(0, 50), st.floats(0, 50))
def test_combine_swap_invariance(g_sd, g_rd, g_se, g_re):
    a = TrialDraw(g_sd, 1.0, g_rd, g_se, g_re, relay_on=True)
    b = TrialDraw(g_rd, 1.0, g_sd, g_re, g_se, relay_on=True)
    for scheme in Scheme:
        assert combine(scheme, a) == pytest.approx(combine(scheme, b))


def test_secrecy_rate_values():
    assert secrecy_rate(3.0, 3.0) == 0.0
    assert secrecy_rate(3.0, 0.0) == pytest.approx(1.0)
    assert secrecy_rate(0.0, 5.0) == 0.0


@settings(max_examples=100, deadline=None)
@given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 100))
def test_secrecy_rate_monotone(a, a2, e):
    lo, hi = sorted((a, a2))
    assert secrecy_rate(hi, e) >= secrecy_rate(lo, e)
    assert secrecy_rate(e, hi) <= secrecy_rate(e, lo)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_trial_deterministic(base_params):
    a = sample_trial(base_params, trial_stream(9, 4))
    b = sample_trial(base_params, trial_stream(9, 4))
    assert a == b
    c = sample_trial(base_params, trial_stream(10, 4))
    assert a != c


def test_stream_key_validation():
    with pytest.raises(DomainError):
        trial_stream(-1)
    with pytest.raises(DomainError):
        trial_stream(2**64)
    with pytest.raises(DomainError):
        trial_stream(0, point=-3)
    with pytest.raises(DomainError):
        trial_stream(0, chunk=2**30)
    # a bool is an int to isinstance, but not a seed or an index
    for key in (dict(seed=True), dict(seed=0, point=True), dict(seed=0, chunk=True)):
        with pytest.raises(DomainError):
            trial_stream(**key)


def test_params_from_db_rejects_negative_rate():
    with pytest.raises(DomainError):
        params_from_db(0.0, 3.0, 3.0, 10.0, 10.0, 3.0, -1.0)


def test_sample_trial_relay_flag(base_params):
    gen = trial_stream(0)
    for _ in range(200):
        d = sample_trial(base_params, gen)
        assert d.relay_on == (d.g_sr >= base_params.gamma_th)
        assert min(d.g_sd, d.g_sr, d.g_rd, d.g_se, d.g_re) >= 0.0


def test_sample_trial_mean_and_median(base_params):
    n = 10**6
    u = trial_stream(3).random((n, 5))
    g_sd = -np.log1p(-u[:, 0]) / base_params.beta_sd
    mean = g_sd.mean()
    se = g_sd.std(ddof=1) / math.sqrt(n)
    assert abs(mean - 1.0 / base_params.beta_sd) < 5.0 * se
    # median of a unit-rate exponential is ln 2
    g_unit = -np.log1p(-u[:, 1])
    frac = float((g_unit <= math.log(2.0)).mean())
    assert abs(frac - 0.5) < 0.0015


def test_sampled_mrc_output_matches_sum_cdf():
    # force the relay on and compare the empirical CDF of the MRC output
    # against the two-exponential sum CDF (Kolmogorov-Smirnov, ~3 sigma band)
    p = params_from_db(0.0, 3.0, 2.0, 10.0, 5.0, 3.0, 1.0).with_(gamma_th=0.0)
    n = 10**6
    u = trial_stream(17).random((n, 5))
    g_sd = -np.log1p(-u[:, 0]) / p.beta_sd
    g_rd = -np.log1p(-u[:, 2]) / p.beta_rd
    gm = np.sort(g_sd + g_rd)
    r1, r2 = p.beta_sd, p.beta_rd
    cdf = 1.0 - (r2 * np.exp(-r1 * gm) - r1 * np.exp(-r2 * gm)) / (r2 - r1)
    i = np.arange(1, n + 1)
    d_stat = max(np.max(cdf - (i - 1) / n), np.max(i / n - cdf))
    assert d_stat < 1.817 / math.sqrt(n)  # P(D > c) ~ 0.003 under the null
