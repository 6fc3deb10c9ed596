"""Exponential-integral kernel for the ergodic-rate expressions.

Every closed-form rate in this package reduces to linear combinations of
``e^x * Ei(-x)`` evaluated at sums of link rate parameters.  Computing the
two factors separately overflows ``e^x`` long before the product leaves the
normal double range, so :func:`eiexp` is SciPy's ``E1`` times ``e^x`` only
up to :data:`ASYMPTOTIC_X`; above it the asymptotic series, whose smallest
term is ~e^-x there, is exact to double precision and never overflows.
"""

from __future__ import annotations

import math

from scipy.special import exp1, expi

from .errors import DomainError

__all__ = ["EULER_GAMMA", "exp_integral_ei", "eiexp", "log_expectation_shifted_exp"]

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

# Above this the asymptotic series replaces e^x E1(x) and its derivatives.
ASYMPTOTIC_X = 40.0


def eiexp_asymptotic(x: float, j: int = 0) -> float:
    """``x^j eiexp^(j)(x)`` for ``x > ASYMPTOTIC_X``: the termwise derivative
    ``sum_k (-1)^(k+j+1) (k+j)!/x^(k+1)`` of ``eiexp(x) ~ -sum_k (-1)^k k!/x^(k+1)``,
    summed up to its smallest term.  Its first term, ``(-1)^(j+1) j!/x``,
    keeps the sum finite and nonzero up to the largest double."""
    term = total = (-1) ** (j + 1) * math.factorial(j) / x
    k = 0
    while k + j + 1 < x and abs(term) > 1e-17 * abs(total):
        k += 1
        term *= -(k + j) / x
        total += term
    return total


def eiexp(x: float) -> float:
    """Exponentially scaled integral ``e^x * Ei(-x)`` for ``x > 0``.

    Stays finite for every representable positive ``x`` (the result behaves
    like ``-1/x`` for large arguments) and is strictly negative.
    """
    if not (x > 0.0) or math.isinf(x):
        raise DomainError(f"eiexp requires a positive finite argument, got {x!r}")
    if x <= ASYMPTOTIC_X:
        return -math.exp(x) * float(exp1(x))
    return eiexp_asymptotic(x)


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) for strictly negative ``x``.

    Non-negative arguments are rejected: the secrecy expressions only ever
    evaluate Ei on the negative axis.
    """
    if not (x < 0.0) or math.isinf(x):
        raise DomainError(f"exp_integral_ei requires a negative finite argument, got {x!r}")
    return float(expi(x))


def log_expectation_shifted_exp(p: float, a: float, b: float) -> float:
    """Integral of ``exp(-p x) * ln(a + b x)`` over ``x >= 0``.

    Evaluates to ``(ln a - eiexp(a p / b)) / p``; the scaled form avoids the
    overflow of the naive ``e^{ap/b} Ei(-ap/b)`` product.
    """
    for name, v in (("p", p), ("a", a), ("b", b)):
        if not (v > 0.0 and math.isfinite(v)):
            raise DomainError(f"{name} must be positive and finite, got {v!r}")
    return (math.log(a) - eiexp(a * p / b)) / p
