"""System model: link parameters, SNR distributions, decode branches, random streams.

Five Rayleigh-faded links (S-D, S-R, R-D, S-E, R-E) give exponentially
distributed instantaneous SNRs; the rate of each exponential is the
reciprocal of the link's mean SNR.  The relay retransmits only when its
received SNR reaches the decode threshold, in which case destination and
eavesdropper each combine their direct and relayed copies by MRC (sum of
branch SNRs) or SC (max of branch SNRs).

The module loads without numpy, so that closed-form sweeps never import it:
the array distribution functions and the random streams import numpy when
they are called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import TYPE_CHECKING

from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np
    from numpy.random import Generator

__all__ = [
    "HALF_LOG2E",
    "Scheme",
    "CsiMode",
    "Metric",
    "SCHEME_ORDER",
    "SystemParams",
    "db_to_linear",
    "params_from_db",
    "exp_cdf",
    "exp_pdf",
    "sum_exp_cdf",
    "sum_exp_pdf",
    "max_exp_cdf",
    "max_exp_pdf",
    "decode_probability",
    "stream",
    "trial_stream",
    "DRAWS_PER_TRIAL",
]

# Converts a natural-log SNR ratio to the secrecy rate in bits per channel
# use: C = log2(x) / 2 = ln(x) * HALF_LOG2E.
HALF_LOG2E = 0.5 / math.log(2.0)

# The quadrature oracle's default absolute tolerance.  It is defined here,
# not in ``oracles``, so that sweeps can name it without loading numpy.
DEFAULT_QUAD_TOL = 1e-9


class Scheme(Enum):
    """Destination-combiner / eavesdropper-combiner pairing."""

    MRC_SC = "mrc_sc"
    MRC_MRC = "mrc_mrc"
    SC_SC = "sc_sc"
    SC_MRC = "sc_mrc"

    # Enum's hash runs in Python at every store lookup; identity equality
    # allows C's (so also in CsiMode and Metric).
    __hash__ = object.__hash__

    @property
    def mrc_at_destination(self) -> bool:
        return self in (Scheme.MRC_SC, Scheme.MRC_MRC)

    @property
    def mrc_at_eavesdropper(self) -> bool:
        return self in (Scheme.MRC_MRC, Scheme.SC_MRC)


class CsiMode(Enum):
    """Whether the transmitters know the channel state."""

    NOCSI = "nocsi"
    CSI = "csi"

    __hash__ = object.__hash__


class Metric(Enum):
    """Secrecy outage probability or ergodic secrecy rate (bpcu)."""

    SOP = "sop"
    ESR = "esr"

    __hash__ = object.__hash__


SCHEME_ORDER = (Scheme.MRC_SC, Scheme.MRC_MRC, Scheme.SC_SC, Scheme.SC_MRC)


def check_cells(cells) -> tuple:
    """The cells as a tuple, so that an iterator of them is read once;
    :class:`DomainError` unless each is a (Scheme, CsiMode, Metric) triple
    of members."""
    cells = tuple(cells)
    for cell in cells:
        if not (len(cell) == 3 and all(map(isinstance, cell, (Scheme, CsiMode, Metric)))):
            raise DomainError(f"a cell is (Scheme, CsiMode, Metric) members, got {cell!r}")
    return cells


def _is_real(value) -> bool:
    # an int or a float, but not a bool, which is an int to isinstance
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_integer(value) -> bool:
    """Whether ``value`` is an int but not a bool (a count or an index)."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_tolerance(value, name: str, zero: bool = False) -> None:
    """:class:`DomainError` unless ``value`` is a finite real number above 0
    (at least 0 where ``zero``)."""
    ok = _is_real(value) and (value >= 0.0 if zero else value > 0.0)
    if not (ok and math.isfinite(value)):
        raise DomainError(f"{name} must be {'>= 0' if zero else 'positive'} and finite, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Exponential SNR rates of the five links plus operating point.

    ``alpha_se``/``alpha_re`` parameterize the links toward the
    eavesdropper, ``beta_sd``/``beta_sr``/``beta_rd`` the legitimate links;
    each rate is 1/(mean linear SNR).  ``gamma_th`` is the relay decode
    threshold (linear SNR, may be 0 or infinite) and ``rate_rs`` the target
    secrecy rate in bits per channel use.
    """

    alpha_se: float
    alpha_re: float
    beta_sd: float
    beta_sr: float
    beta_rd: float
    gamma_th: float
    rate_rs: float

    def __post_init__(self):
        for name in _PARAM_FIELDS:
            _check_field(name, getattr(self, name))

    @property
    def rho(self) -> float:
        """Outage SNR ratio 2^(2 rate_rs)."""
        return 2.0 ** (2.0 * self.rate_rs)

    def with_(self, **changes) -> "SystemParams":
        """A copy with ``changes``, checked as the constructor checks them (in
        field order), without ``dataclasses.replace``'s cost per sweep point."""
        new = object.__new__(SystemParams)
        new.__dict__.update(self.__dict__, **changes)
        if len(new.__dict__) > len(_PARAM_FIELDS):
            unknown = min(changes.keys() - set(_PARAM_FIELDS))
            raise TypeError(f"SystemParams has no field {unknown!r}")
        for name in _PARAM_FIELDS:
            if name in changes:
                _check_field(name, changes[name])
        return new


_PARAM_FIELDS = tuple(f.name for f in fields(SystemParams))


def check_points(points) -> tuple:
    """The points as a tuple, so that an iterator of them is read once;
    :class:`DomainError` unless each is a :class:`SystemParams`."""
    points = tuple(points)
    for params in points:
        if not isinstance(params, SystemParams):
            raise DomainError(f"params must be SystemParams, got {type(params).__name__}")
    return points


def _check_field(name: str, v) -> None:
    """:class:`DomainError` unless ``v`` may be the :class:`SystemParams` field ``name``."""
    if name == "gamma_th":
        ok, must = _is_real(v) and v >= 0.0, ">= 0"
    elif name == "rate_rs":  # rho = 2^(2 rate_rs) overflows a double from rate_rs = 512 on
        ok, must = _is_real(v) and 0.0 <= v < 512.0, ">= 0 and below 512 (finite rho)"
    else:
        ok, must = _is_real(v) and v > 0.0 and math.isfinite(v), "a positive finite rate"
    if not ok:
        raise DomainError(f"{name} must be {must}, got {v!r}")


def db_to_linear(db: float, name: str = "value") -> float:
    """``10^(db/10)``; a link's rate is ``db_to_linear(-dB)``.  Raises
    :class:`DomainError` where that overflows a double."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise DomainError(f"{name} is out of range: 10^({db!r}/10) overflows a double") from None


def params_from_db(
    alpha_se_db: float,
    alpha_re_db: float,
    beta_sd_db: float,
    beta_sr_db: float,
    beta_rd_db: float,
    gamma_th_db: float,
    rate_rs: float,
) -> SystemParams:
    """Build :class:`SystemParams` from per-link mean SNRs quoted in dB.

    A link's dB figure is its mean linear SNR, so the exponential rate is
    ``10^(-dB/10)``; the threshold converts with the opposite sign.
    """
    for name, v in (
        ("alpha_se_db", alpha_se_db),
        ("alpha_re_db", alpha_re_db),
        ("beta_sd_db", beta_sd_db),
        ("beta_sr_db", beta_sr_db),
        ("beta_rd_db", beta_rd_db),
        ("gamma_th_db", gamma_th_db),
        ("rate_rs", rate_rs),
    ):
        try:
            finite = _is_real(v) and math.isfinite(v)
        except OverflowError:  # an int beyond the double range
            finite = False
        if not finite:
            raise DomainError(f"{name} must be finite, got {v!r}")
    return SystemParams(
        alpha_se=db_to_linear(-alpha_se_db, "alpha_se_db"),
        alpha_re=db_to_linear(-alpha_re_db, "alpha_re_db"),
        beta_sd=db_to_linear(-beta_sd_db, "beta_sd_db"),
        beta_sr=db_to_linear(-beta_sr_db, "beta_sr_db"),
        beta_rd=db_to_linear(-beta_rd_db, "beta_rd_db"),
        gamma_th=db_to_linear(gamma_th_db, "gamma_th_db"),
        rate_rs=float(rate_rs),
    )


def _check_rate(rate, name: str = "rate") -> None:
    """:class:`DomainError` unless ``rate``, or every element of an array of
    rates, is positive and finite."""
    if isinstance(rate, (int, float)):
        ok = rate > 0.0 and math.isfinite(rate)
    else:
        ok = 0.0 < rate.min() and rate.max() < math.inf  # False for a NaN
    if not ok:
        raise DomainError(f"{name} must be positive and finite, got {rate!r}")


def _points(z) -> tuple[np.ndarray, np.ndarray]:
    """``z`` as a float array, and clipped to the support's start at 0."""
    import numpy as np
    z = np.asarray(z, dtype=float)
    return z, np.maximum(z, 0.0)


def _on_support(z: np.ndarray, outside: np.ndarray, v) -> np.ndarray | float:
    """``v`` with 0 where ``outside`` holds; a float when ``z`` is a scalar."""
    import numpy as np
    v = np.where(outside, 0.0, v)
    return float(v) if v.ndim == 0 else v


# The distribution functions below take a scalar or an array ``z`` and check
# their rates once per call.  A rate may be an array too, broadcast against
# ``z`` (the quadrature oracle passes one rate per row of nodes).  Scalar and
# array arguments run the same arithmetic on every element, so a scalar call
# returns exactly the matching element of an array call.  Formulas are
# evaluated at ``max(z, 0)``: points off the support are zeroed afterwards
# and must not overflow on the way.


def exp_cdf(rate, z):
    """CDF of an exponential with the given rate."""
    import numpy as np
    _check_rate(rate)
    z, zp = _points(z)
    return _on_support(z, z <= 0.0, -np.expm1(-rate * zp))


def exp_pdf(rate, z):
    import numpy as np
    _check_rate(rate)
    z, zp = _points(z)
    return _on_support(z, z < 0.0, rate * np.exp(-rate * zp))


def _sum_exp_quotient(r1, r2, zp: np.ndarray):
    """The smaller rate a, the larger rate b, and (e^{-a z} - e^{-b z}) / (b - a)
    at ``zp`` >= 0.

    With d = b - a >= 0 the quotient is e^{-a z} (-expm1(-d z) / d), which
    does not cancel at any gap; at d = 0 it is its limit z e^{-a z}, taken
    as 0 where e^{-a z} is 0 (at z = inf, and beyond underflow).  The limit
    is evaluated only where a gap is 0.
    """
    import numpy as np
    a, b = np.minimum(r1, r2), np.maximum(r1, r2)
    d = b - a
    gap = d > 0.0
    ea = np.exp(-a * zp)
    whole = gap.all()
    nd = -d if whole else np.where(gap, -d, -1.0)  # -1 stands in where the gap is 0
    q = np.expm1(nd * zp)
    q /= nd
    q *= ea
    if not whole:
        q = np.where(gap, q, np.multiply(zp, ea, out=np.zeros_like(ea), where=ea > 0.0))
    return a, b, q


# The sum CDF takes its Taylor series where the larger rate times z is at
# most _SERIES_MAX; terms k = 0 .. _SERIES_TERMS - 1 leave a truncation
# error below 2e-17 relative there.
_SERIES_MAX = 0.25
_SERIES_TERMS = 13


def _sum_exp_series(r, y: np.ndarray) -> np.ndarray:
    """The second divided difference e[0, r y, y] of e^{-t} for 0 < r <= 1
    and 0 <= y <= _SERIES_MAX: its Taylor series, the sum over k of
    (-1)^k h_k(r y, y) / (k + 2)!, where the complete homogeneous
    polynomial h_k(r y, y) = y^k (1 + r + ... + r^k).  That is a polynomial
    in y, evaluated by Horner's rule; its first term, 1/2, dominates.  An
    array ``r`` holds one ratio per element of ``y``, and so do the
    coefficients."""
    import numpy as np
    coef, c, g = [], 0.5, 1.0
    for k in range(_SERIES_TERMS):
        coef.append(c * g)
        c = -c / (k + 3)
        g = 1.0 + r * g
    s = np.full_like(y, coef[-1])
    for ck in coef[-2::-1]:
        s *= y
        s += ck
    return s


def sum_exp_cdf(r1, r2, z):
    """CDF of the sum of two independent exponentials with rates a <= b.

    It is ``x y e[0, x, y]`` with x = a z, y = b z and e[0, x, y] the second
    divided difference of e^{-t} at (0, x, y), which is positive.  For
    y > _SERIES_MAX that is ``1 - e^{-a z} - a (e^{-a z} - e^{-b z}) / (b - a)``
    through the quotient of :func:`_sum_exp_quotient`, which cancels by at
    most a factor ~16; below, where it would cancel to nothing as z -> 0,
    e[0, x, y] comes from its Taylor series, so the CDF keeps its relative
    accuracy down to underflow (``a b z^2 / 2`` to leading order).  One
    formula for distinct and equal rates.
    """
    import numpy as np
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    z, zp = _points(z)
    a, b, q = _sum_exp_quotient(r1, r2, zp)
    x, y = a * zp, b * zp
    v = np.asarray(-np.expm1(-x) - a * q)
    small = y <= _SERIES_MAX
    if small.any():
        r = a / b
        r = np.broadcast_to(r, small.shape)[small] if r.ndim else float(r)
        ys = y[small]
        v[small] = x[small] * ys * _sum_exp_series(r, ys)
    return _on_support(z, z <= 0.0, v)


def sum_exp_pdf(r1, r2, z):
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    z, zp = _points(z)
    _, _, q = _sum_exp_quotient(r1, r2, zp)
    return _on_support(z, z < 0.0, (r1 * r2) * q)


def max_exp_cdf(r1, r2, z):
    """CDF of the maximum of two independent exponentials."""
    import numpy as np
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    z, zp = _points(z)
    return _on_support(z, z <= 0.0, np.expm1(-r1 * zp) * np.expm1(-r2 * zp))


def max_exp_pdf(r1, r2, z):
    import numpy as np
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    z, zp = _points(z)
    v = r1 * np.exp(-r1 * zp) * -np.expm1(-r2 * zp) + r2 * np.exp(-r2 * zp) * -np.expm1(-r1 * zp)
    return _on_support(z, z < 0.0, v)


def decode_probability(params: SystemParams) -> float:
    """Probability the relay decodes: P[g_sr >= gamma_th]."""
    return math.exp(-params.beta_sr * params.gamma_th)


def decode_weights(params: SystemParams) -> tuple[float, float]:
    """Weights of the relay decoding and of the relay staying silent."""
    p_on = decode_probability(params)
    return p_on, 1.0 - p_on


def decode_branches(params: SystemParams) -> list[tuple[float, bool, tuple[float, ...]]]:
    """``(weight, relay_on, fields)`` per decode branch of nonzero weight, the
    relay decoding first; ``fields`` are ``rate_rs`` and the links the branch
    reads.  ``beta_sr`` and ``gamma_th`` only weight the branches."""
    p_on, p_off = decode_weights(params)
    p = params
    on = (p_on, True, (p.rate_rs, p.alpha_se, p.alpha_re, p.beta_sd, p.beta_rd))
    off = (p_off, False, (p.rate_rs, p.alpha_se, p.beta_sd))
    return [branch for branch in (on, off) if branch[0] != 0.0]


# ---------------------------------------------------------------------------
# Counter-based random streams.
#
# Every stream is a Philox generator whose key packs (seed, purpose, stream
# index, chunk index).  Trials are organized in fixed-size chunks that each
# own an independently keyed stream, so any chunk can be regenerated in
# isolation and results never depend on how work is split across workers.
# ---------------------------------------------------------------------------

DRAWS_PER_TRIAL = 5  # one uniform per link, in (g_sd, g_sr, g_rd, g_se, g_re) order

PURPOSE_TRIALS = 0
PURPOSE_GRID = 1

_POINT_BITS = 32
_CHUNK_BITS = 24
# Point and chunk indices a key can address; callers check sizes up front.
POINT_LIMIT = 2**_POINT_BITS
CHUNK_LIMIT = 2**_CHUNK_BITS


def check_seed(seed) -> None:
    """:class:`DomainError` unless ``seed`` is a stream seed, an integer in [0, 2^64)."""
    if not (is_integer(seed) and 0 <= seed < 2**64):
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")


def stream(seed: int, point: int = 0, purpose: int = PURPOSE_TRIALS, chunk: int = 0) -> Generator:
    """Independent deterministic stream for (seed, purpose, point, chunk)."""
    import numpy as np
    from numpy.random import Generator, Philox
    check_seed(seed)
    if not (is_integer(point) and 0 <= point < POINT_LIMIT):
        raise DomainError(f"point must be an integer in [0, 2^{_POINT_BITS}), got {point!r}")
    if not (is_integer(chunk) and 0 <= chunk < CHUNK_LIMIT):
        raise DomainError(f"chunk must be an integer in [0, 2^{_CHUNK_BITS}), got {chunk!r}")
    word = (purpose << (_POINT_BITS + _CHUNK_BITS)) | (point << _CHUNK_BITS) | chunk
    key = np.array([seed, word], dtype=np.uint64)
    return Generator(Philox(key=key))


def trial_stream(seed: int, point: int = 0, chunk: int = 0) -> Generator:
    """Stream holding one chunk of trials; consume five uniforms per trial."""
    return stream(seed, point, PURPOSE_TRIALS, chunk)
