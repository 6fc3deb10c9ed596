"""Exponential-integral kernel for the ergodic-rate expressions.

Every closed-form rate in this package reduces to linear combinations of
``e^x * Ei(-x)`` evaluated at sums of link rate parameters.  Computing the
two factors separately overflows ``e^x`` long before the product leaves the
normal double range, so :func:`eiexp` evaluates the scaled product itself,
in three ranges:

* up to :data:`SERIES_X`, ``e^x (gamma + ln x - Ein(x))`` with the power
  series of ``Ein(x) = sum_k (-1)^(k+1) x^k / (k k!)``;
* up to :data:`ASYMPTOTIC_X`, ``-G(x)/x`` with ``G(x) = x e^x E1(x)`` a
  polynomial in ``1/x`` on each half-octave, the piece found by
  ``math.frexp``; the coefficients are generated at 40 digits by
  ``tools/expint_coefficients.py``;
* above it, the asymptotic series, whose smallest term is ~e^-x there, exact
  to double precision and never overflowing.

Each range is within ~1e-15 relative of the exact value.  :func:`exp_integral_ei`
comes from the same pieces.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["EULER_GAMMA", "exp_integral_ei", "eiexp", "log_expectation_shifted_exp"]

# Euler-Mascheroni constant, 20 significant digits.
EULER_GAMMA = 0.57721566490153286061

# Up to this the power series of Ein; its 12th term is below 1e-17 there.
SERIES_X = 0.25
# Ein(x)/x = sum_k (-1)^(k+1) x^(k-1) / (k k!), k = 11 down to 1.
_EIN_OVER_X = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(11, 0, -1))

# Above this the asymptotic series replaces e^x E1(x) and its derivatives.
ASYMPTOTIC_X = 40.0

# Piece 2(e + 1) + upper covers the half-octave of frexp exponent e whose
# mantissa m is below (lower) or above (upper) sqrt(1/2); t = A/m - B maps
# its 1/x linearly onto [-1, 1], and G is c0 + c1 t + ... + c13 t^13 there.
_SQRT_HALF = math.sqrt(0.5)
_A_LOWER = 2.0 + math.sqrt(2.0)
_A_UPPER = 2.0 * (math.sqrt(2.0) + 1.0)
_B = 3.0 + 2.0 * math.sqrt(2.0)

# BEGIN generated by tools/expint_coefficients.py; do not edit by hand.
_PIECES = (
    (  # x in [0.25, 0.3536)
        0.3625338054066791, -0.03016667722256807, 0.00318565186586231,
        -0.00037229873075141654, 4.6128248492831234e-05, -5.94189235376266e-06,
        7.872155055876977e-07, -1.0656065207651814e-07, 1.4673510639247527e-08,
        -2.0489784339384095e-09, 2.8882520480299325e-10, -4.119596949699858e-11,
        6.407602116573405e-12, -9.35243225464703e-13,
    ),
    (  # x in [0.3536, 0.5)
        0.4256706253119715, -0.0322172011467173, 0.0031709131134207745,
        -0.000349597183265721, 4.117149091979072e-05, -5.067289317110769e-06,
        6.439577126592316e-07, -8.386801600738401e-08, 1.1138790193318095e-08,
        -1.5032704787521304e-09, 2.052096295012966e-10, -2.838157629794279e-11,
        4.267223635145881e-12, -6.052835584984327e-13,
    ),
    (  # x in [0.5, 0.7071)
        0.492092393198709, -0.033382420574649775, 0.003025904193803827,
        -0.0003115202282922943, 3.4556350172897554e-05, -4.030456424000362e-06,
        4.875913430601436e-07, -6.066841725886617e-08, 7.720140518124894e-09,
        -1.0006710150001897e-09, 1.3149910680136622e-10, -1.7534800680177265e-11,
        2.5333063959309465e-12, -3.473604583005497e-13,
    ),
    (  # x in [0.7071, 1)
        0.5598149088744437, -0.03348307104134166, 0.002757042610388177,
        -0.000261914480794882, 2.70775128875049e-05, -2.964082010908914e-06,
        3.383300838001635e-07, -3.988423778874845e-08, 4.8248530422549934e-09,
        -5.962054968226368e-10, 7.48914953162633e-11, -9.563514661440572e-12,
        1.318445643729388e-12, -1.7366287731241123e-13,
    ),
    (  # x in [1, 1.414)
        0.626595121462735, -0.032448564635569235, 0.0023895662473862214,
        -0.00020661921840995956, 1.9664385256702954e-05, -1.99768180653589e-06,
        2.1290917653553745e-07, -2.3548865112265616e-08, 2.6833473708662925e-09,
        -3.133603494520138e-10, 3.731387595994368e-11, -4.526936571165061e-12,
        5.907404579545011e-13, -7.419507065360948e-14,
    ),
    (  # x in [1.414, 2)
        0.6901823680529189, -0.03034432861703373, 0.0019638696548771417,
        -0.00015216607520518308, 1.3144165582375607e-05, -1.2231489532653778e-06,
        1.2025275428712227e-07, -1.2337855015378445e-08, 1.310078299315217e-09,
        -1.4311279072622025e-10, 1.5997381613371197e-11, -1.826705968100884e-12,
        2.2353432974315832e-13, -2.6538087050345917e-14,
    ),
    (  # x in [2, 2.828)
        0.74859649524435, -0.02736955236793378, 0.0015270547227437465,
        -0.00010418132661221974, 8.037237433852662e-06, -6.749263979242461e-07,
        6.035881092533254e-08, -5.669249808769304e-09, 5.53992030377279e-10,
        -5.594037664931664e-11, 5.803386379854898e-12, -6.169294702870327e-13,
        7.003411510104407e-14, -7.779404423619022e-15,
    ),
    (  # x in [2.828, 4)
        0.8003675202703522, -0.023821808619227017, 0.0011223095483436632,
        -6.612430241851194e-05, 4.474326829910518e-06, -3.333664243939591e-07,
        2.6689425216121556e-08, -2.2604405087057305e-09, 2.0037155443528344e-10,
        -1.844673355085983e-11, 1.7527219860335404e-12, -1.7127025949230075e-13,
        1.7814952453733068e-14, -1.8296435288859446e-15,
    ),
    (  # x in [4, 5.657)
        0.8446771062267259, -0.02003778150164731, 0.0007800174630579152,
        -3.88668009753707e-05, 2.2612982939835318e-06, -1.4668905862985396e-07,
        1.0326401792310079e-08, -7.752292750229833e-10, 6.132189022004679e-11,
        -5.0666665897943465e-12, 4.34265361200922e-13, -3.8440088763448535e-14,
        3.612463496601647e-15, -3.383453576409382e-16,
    ),
    (  # x in [5.657, 8)
        0.8813718583537599, -0.016329224666093108, 0.0005137536320075788,
        -2.1179165058507364e-05, 1.0371044347274378e-06, -5.738023167754457e-08,
        3.4820807118343815e-09, -2.273316633116547e-10, 1.575431734245315e-11,
        -1.147670193162394e-12, 8.72194609352429e-14, -6.878174023127371e-15,
        5.747979595192424e-16, -4.8330284390360236e-17,
    ),
    (  # x in [8, 11.31)
        0.910859876714649, -0.01293430814145231, 0.0003218666865340229,
        -1.0734902646739593e-05, 4.3267702483817927e-07, -1.997527253124732e-08,
        1.0228514717731203e-09, -5.68773838093396e-11, 3.384142939139095e-12,
        -2.1312463684021389e-13, 1.4088510274909925e-14, -9.71533636508397e-16,
        7.093204749173366e-17, -5.260087712385633e-18,
    ),
    (  # x in [11.31, 16)
        0.9339355070618369, -0.009996113684467626, 0.00019277656297619498,
        -5.088864234869659e-06, 1.6507080935687343e-07, -6.217086761939764e-09,
        2.6267922838259596e-10, -1.2169390196726945e-11, 6.083049998996001e-13,
        -3.242091109239138e-14, 1.825625129595741e-15, -1.0785716071373436e-16,
        6.74770232206612e-18, -4.327339797785397e-19,
    ),
    (  # x in [16, 22.63)
        0.9515885481344761, -0.00756771003112542, 0.00011103575696207856,
        -2.2724794840928267e-06, 5.804264580859718e-08, -1.7438491044784014e-09,
        5.943178467079373e-11, -2.2424241737427073e-12, 9.206602603051534e-14,
        -4.0605946845674304e-15, 1.904989888486409e-16, -9.433275479844955e-18,
        4.952818370558149e-19, -2.6890139774104224e-20,
    ),
    (  # x in [22.63, 32)
        0.9648428442442215, -0.005634164572525158, 6.189191151682732e-05,
        -9.638936997700985e-07, 1.899475654372765e-08, -4.455900071165074e-10,
        1.1981741777582293e-11, -3.60001250343679e-13, 1.1867249185069549e-14,
        -4.233745086621252e-16, 1.617475468473437e-17, -6.562504754831104e-19,
        2.8293987754563944e-20, -1.2716960827233112e-21,
    ),
    (  # x in [32, 45.25)
        0.9746462943780925, -0.004139616479744796, 3.359213050606626e-05,
        -3.9169940480726597e-07, 5.848117933872182e-09, -1.0503594986781092e-10,
        2.1828655929407787e-12, -5.11210934450196e-14, 1.3236736941909709e-15,
        -3.735474837346374e-17, 1.1362090804881796e-18, -3.6920987620323777e-20,
        1.2787117717376667e-21, -4.650585313411334e-23,
    ),
)
# END generated


def eiexp_asymptotic(x: float, j: int = 0) -> float:
    """``x^j eiexp^(j)(x)`` for ``x > ASYMPTOTIC_X``: the termwise derivative
    ``sum_k (-1)^(k+j+1) (k+j)!/x^(k+1)`` of ``eiexp(x) ~ -sum_k (-1)^k k!/x^(k+1)``,
    summed until a term falls to eps (2^-52) of the sum, which bounds the
    error of the enveloping series, or else to its smallest term.  Its first
    term, ``(-1)^(j+1) j!/x``, keeps the sum finite and nonzero."""
    term = total = (-1) ** (j + 1) * math.factorial(j) / x
    for m in range(j + 1, math.ceil(x)):
        if abs(term) <= 2.0 ** -52 * abs(total):
            break
        term *= -m / x
        total += term
    return total


def _ei_series(x: float) -> float:
    """``Ei(-x) = gamma + ln x - Ein(x)`` for ``0 < x <= SERIES_X``."""
    # Horner sums are written out: ~10% faster than a loop over the tuple.
    a11, a10, a9, a8, a7, a6, a5, a4, a3, a2, a1 = _EIN_OVER_X
    ein_over_x = a1 + x * (a2 + x * (a3 + x * (a4 + x * (a5 + x * (
        a6 + x * (a7 + x * (a8 + x * (a9 + x * (a10 + x * a11)))))))))
    return EULER_GAMMA + math.log(x) - x * ein_over_x


def eiexp(x: float) -> float:
    """Exponentially scaled integral ``e^x * Ei(-x)`` for ``x > 0``.

    Stays finite for every representable positive ``x`` (the result behaves
    like ``-1/x`` for large arguments) and is strictly negative.
    """
    if x <= SERIES_X:
        if not x > 0.0:
            raise DomainError(f"eiexp requires a positive finite argument, got {x!r}")
        return math.exp(x) * _ei_series(x)
    if x <= ASYMPTOTIC_X:
        m, e = math.frexp(x)
        if m < _SQRT_HALF:
            coeffs, t = _PIECES[2 * e + 2], _A_LOWER / m - _B
        else:
            coeffs, t = _PIECES[2 * e + 3], _A_UPPER / m - _B
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13 = coeffs
        g = c0 + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * (c5 + t * (c6 + t * (
            c7 + t * (c8 + t * (c9 + t * (c10 + t * (c11 + t * (c12 + t * c13))))))))))))
        return -g / x
    if not x < math.inf:
        raise DomainError(f"eiexp requires a positive finite argument, got {x!r}")
    return eiexp_asymptotic(x)


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x) for strictly negative ``x``.

    Non-negative arguments are rejected: the secrecy expressions only ever
    evaluate Ei on the negative axis.
    """
    if not (x < 0.0) or math.isinf(x):
        raise DomainError(f"exp_integral_ei requires a negative finite argument, got {x!r}")
    if -x <= SERIES_X:
        return _ei_series(-x)
    return math.exp(x) * eiexp(-x)


def log_expectation_shifted_exp(p: float, a: float, b: float) -> float:
    """Integral of ``exp(-p x) * ln(a + b x)`` over ``x >= 0``.

    Evaluates to ``(ln a - eiexp(a p / b)) / p``; the scaled form avoids the
    overflow of the naive ``e^{ap/b} Ei(-ap/b)`` product.
    """
    for name, v in (("p", p), ("a", a), ("b", b)):
        if not (v > 0.0 and math.isfinite(v)):
            raise DomainError(f"{name} must be positive and finite, got {v!r}")
    return (math.log(a) - eiexp(a * p / b)) / p
