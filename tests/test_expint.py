"""Tests for the scaled exponential-integral kernel.

The reference oracle is an independent high-precision evaluation (mpmath,
40 digits), cross-checked at a few points against the textbook series
computed term by term in extended precision, and SciPy's ``exp1``/``expi``
as a second, double-precision reference.
"""

import math
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from secrelay import closed_form
from secrelay.errors import DomainError
from secrelay.expint import (
    ASYMPTOTIC_X,
    EULER_GAMMA,
    SERIES_X,
    eiexp,
    exp_integral_ei,
    log_expectation_shifted_exp,
)
from secrelay.fading import CsiMode, Scheme, SystemParams

from mp_reference import mp_reference

mp.mp.dps = 40

# Relative error bound of eiexp and Ei against mpmath: the worst measured on
# the reference grid and around every edge is 9.0e-16.
REL_TOL = 1e-15

# Where eiexp changes formula: the series, the half-octave polynomial pieces
# (frexp mantissa 1/2 and sqrt(1/2)) and the asymptotic series.
EDGES = sorted(
    [SERIES_X, ASYMPTOTIC_X]
    + [2.0**e for e in range(-1, 6)]
    + [math.sqrt(0.5) * 2.0**e for e in range(-1, 6)]
)


def around(x, n=4):
    """The 2n + 1 consecutive doubles centred on x."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


def eiexp_reference(x: float) -> float:
    return float(mp.exp(x) * mp.ei(-x))


def series_reference(x: float, terms: int = 200) -> float:
    # gamma + ln|x| + sum x^k/(k k!), accumulated at high precision
    xm = mp.mpf(x)
    total = mp.euler + mp.log(abs(xm))
    term = mp.mpf(1)
    for k in range(1, terms):
        term *= xm / k
        total += term / k
    return float(total)


def test_ei_at_minus_one_matches_series_oracle():
    expected = series_reference(-1.0)
    assert expected == pytest.approx(-0.21938393439552, abs=1e-14)
    assert exp_integral_ei(-1.0) == pytest.approx(expected, rel=1e-13)


def test_ei_far_tail_bound():
    # |Ei(-x)| < e^-x / x for x > 0
    v = exp_integral_ei(-50.0)
    assert -math.exp(-50.0) / 50.0 < v < 0.0
    assert abs(v) < 3.86e-24


def test_ei_log_divergence_near_zero():
    assert abs(exp_integral_ei(-1e-15)) > 30.0


def test_ei_strictly_monotone():
    # d/dx Ei(x) = e^x / x < 0 for x < 0: strictly decreasing on the
    # negative axis, from 0- at -inf down to -inf at 0-.
    xs = sorted(float(-x) for x in np.logspace(math.log10(1e-6), math.log10(700.0), 400))
    vals = [exp_integral_ei(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("bad", [0.0, 1.0, 2.5, math.inf, math.nan])
def test_ei_domain(bad):
    with pytest.raises(DomainError):
        exp_integral_ei(bad)


def test_eiexp_at_one():
    expected = math.e * series_reference(-1.0)
    assert expected == pytest.approx(-0.59634736232319, abs=1e-13)
    assert eiexp(1.0) == pytest.approx(expected, rel=1e-13)


def test_eiexp_large_argument_asymptote():
    # -1/x (1 - 1/x + 2/x^2 - ...) continued-fraction tail
    x = 1e6
    assert eiexp(x) == pytest.approx(-9.99999e-7, abs=1e-12)


def test_eiexp_no_overflow():
    v = eiexp(700.0)
    assert math.isfinite(v)
    assert v == pytest.approx(-1.4265e-3, rel=1e-4)
    # the naive route computes e^x first, which overflows beyond x ~ 709.8;
    # the scaled form keeps going to the largest finite double
    with pytest.raises(OverflowError):
        math.exp(800.0)
    assert math.isfinite(eiexp(800.0))
    assert -1.0 / 800.0 < eiexp(800.0) < -1.0 / 801.0
    assert math.isfinite(eiexp(1.7e308))


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_eiexp_domain(bad):
    with pytest.raises(DomainError):
        eiexp(bad)


def test_eiexp_matches_reference_grid():
    # across every change of formula; Ei(-x) wherever it is a normal double
    xs = np.logspace(math.log10(1e-8), math.log10(1e6), 20000)
    worst = worst_ei = 0.0
    for x in xs:
        x = float(x)
        ref = eiexp_reference(x)
        worst = max(worst, abs(eiexp(x) - ref) / abs(ref))
        ref_ei = float(mp.ei(-x))
        if abs(ref_ei) >= sys.float_info.min:
            worst_ei = max(worst_ei, abs(exp_integral_ei(-x) - ref_ei) / abs(ref_ei))
    assert worst < REL_TOL
    assert worst_ei < REL_TOL


@pytest.mark.parametrize("edge", EDGES)
def test_eiexp_piece_edges(edge):
    xs = around(edge)
    vals = [eiexp(x) for x in xs]
    for x, v in zip(xs, vals):
        ref = eiexp_reference(x)
        assert abs(v - ref) <= REL_TOL * abs(ref), x
        ref_ei = float(mp.ei(-x))
        assert abs(exp_integral_ei(-x) - ref_ei) <= REL_TOL * abs(ref_ei), x
    # eiexp rises by under an ulp per ulp of x, so neighbours may tie or
    # swap by rounding; no value below the edge exceeds one above it, and
    # over the eight ulps it rises strictly
    assert max(vals[:4]) <= min(vals[5:])
    assert vals[0] < vals[-1]


def test_eiexp_matches_scipy():
    xs = np.logspace(math.log10(1e-8), math.log10(ASYMPTOTIC_X), 2000)
    for x in map(float, xs):
        ref = -math.exp(x) * float(special.exp1(x))
        assert abs(eiexp(x) - ref) <= 2.5e-15 * abs(ref), x
        ref_ei = float(special.expi(-x))
        assert abs(exp_integral_ei(-x) - ref_ei) <= 2.5e-15 * abs(ref_ei), x


def test_exprel_bit_identical_to_scipy():
    mags = np.logspace(-20, math.log10(700.0), 4000)
    for z in [0.0] + [float(s * m) for m in mags for s in (1.0, -1.0)]:
        assert closed_form._exprel(z) == float(special.exprel(z)), z


def test_close_rate_mrc_outage_keeps_exprel_in_range():
    # close destination rates take phi's divided difference; exprel at
    # (rho - 1)(beta_sd - beta_rd) ~ 2e3 overflows, so the difference takes
    # its exponential at the smaller rate, where exprel's argument is negative
    params = SystemParams(
        alpha_se=1.0, alpha_re=1.0, beta_sd=20.0, beta_sr=1.0, beta_rd=19.5,
        gamma_th=1.0, rate_rs=6.0,
    )
    with pytest.raises(OverflowError):
        closed_form._exprel((params.rho - 1.0) * (params.beta_sd - params.beta_rd))
    on = closed_form.sop_conditional(params, Scheme.MRC_MRC, CsiMode.NOCSI, relay_on=True)
    # at gamma_th = 0 the relay always decodes: the reference is that branch
    ref = mp_reference(params.with_(gamma_th=0.0), Scheme.MRC_MRC, CsiMode.NOCSI, "sop")
    assert on == pytest.approx(ref, rel=1e-14, abs=0.0)


def test_eiexp_consistent_with_unscaled_product():
    # wherever e^x Ei(-x) is representable, the scaled form must match it
    xs = np.logspace(math.log10(1e-8), math.log10(700.0), 500)
    for x in xs:
        x = float(x)
        product = math.exp(x) * exp_integral_ei(-x)
        assert abs(eiexp(x) - product) <= 1e-12 * abs(eiexp(x))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-8, max_value=700.0))
def test_eiexp_bracketing(x):
    v = eiexp(x)
    assert -1.0 / x < v < -1.0 / (x + 1.0)


def test_log_expectation_unit_case():
    # E[ln(1+X)] for X ~ Exp(1)
    assert log_expectation_shifted_exp(1.0, 1.0, 1.0) == pytest.approx(
        0.59634736232319, abs=1e-13
    )
    assert log_expectation_shifted_exp(1.0, 1.0, 1.0) == -eiexp(1.0)


def test_log_expectation_vanishing_slope():
    # a = 1 and b -> 0+ leaves ln(1) = 0 in the integrand; the value decays
    # like b / p^2
    for p in (0.3, 1.0, 7.0):
        b = 1e-12
        assert abs(log_expectation_shifted_exp(p, 1.0, b)) < 2.0 * b / p**2


def test_log_expectation_generic_point_vs_quadrature():
    p, a, b = 2.0, 3.0, 5.0
    ref, err = quad(lambda x: math.exp(-p * x) * math.log(a + b * x), 0.0, 50.0,
                    epsabs=1e-13, epsrel=1e-13, limit=200)
    assert err < 1e-11
    got = log_expectation_shifted_exp(p, a, b)
    assert got == pytest.approx(ref, abs=1e-10)
    assert got == pytest.approx(0.8122734102814472, rel=1e-12)


def test_log_expectation_identity_random_grid():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p, a, b = np.exp(rng.uniform(math.log(0.01), math.log(100.0), 3))
        upper = 60.0 / p  # integrand decays like e^{-p x}
        ref, _ = quad(
            lambda x: math.exp(-p * x) * math.log(a + b * x),
            0.0,
            upper,
            epsabs=1e-14,
            epsrel=1e-12,
            limit=400,
        )
        got = log_expectation_shifted_exp(float(p), float(a), float(b))
        assert abs(got - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("args", [(0.0, 1.0, 1.0), (1.0, -2.0, 1.0), (1.0, 1.0, 0.0)])
def test_log_expectation_domain(args):
    with pytest.raises(DomainError):
        log_expectation_shifted_exp(*args)


def test_coefficient_literal_matches_generator():
    # the polynomial pieces are regenerated at 40 digits and diffed against
    # the tuple literal in expint.py
    tool = Path(__file__).resolve().parent.parent / "tools" / "expint_coefficients.py"
    out = subprocess.run(
        [sys.executable, str(tool), "--check"], capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stdout + out.stderr


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(float(mp.euler), abs=1e-18)
