"""System model: link parameters, SNR distributions, combining, sampling.

Five Rayleigh-faded links (S-D, S-R, R-D, S-E, R-E) give exponentially
distributed instantaneous SNRs; the rate of each exponential is the
reciprocal of the link's mean SNR.  The relay retransmits only when its
received SNR reaches the decode threshold, in which case destination and
eavesdropper each combine their direct and relayed copies by MRC (sum of
branch SNRs) or SC (max of branch SNRs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from numpy.random import Generator, Philox

from .errors import DomainError

__all__ = [
    "DEGENERACY_RTOL",
    "HALF_LOG2E",
    "Scheme",
    "CsiMode",
    "SCHEME_ORDER",
    "SystemParams",
    "TrialDraw",
    "db_to_linear",
    "params_from_db",
    "exp_cdf",
    "exp_pdf",
    "sum_exp_cdf",
    "sum_exp_pdf",
    "max_exp_cdf",
    "max_exp_pdf",
    "rates_degenerate",
    "decode_probability",
    "combine",
    "secrecy_rate",
    "stream",
    "trial_stream",
    "sample_trial",
    "DRAWS_PER_TRIAL",
]

# Converts a natural-log SNR ratio to the secrecy rate in bits per channel
# use: C = log2(x) / 2 = ln(x) * HALF_LOG2E.
HALF_LOG2E = 0.5 / math.log(2.0)

# Relative rate difference below which :func:`rates_degenerate` calls a
# rate pair equal, where plain (r1 - r2) denominators are singular.
DEGENERACY_RTOL = 1e-9


class Scheme(Enum):
    """Destination-combiner / eavesdropper-combiner pairing."""

    MRC_SC = "mrc_sc"
    MRC_MRC = "mrc_mrc"
    SC_SC = "sc_sc"
    SC_MRC = "sc_mrc"

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


SCHEME_ORDER = (Scheme.MRC_SC, Scheme.MRC_MRC, Scheme.SC_SC, Scheme.SC_MRC)


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
        for name in ("alpha_se", "alpha_re", "beta_sd", "beta_sr", "beta_rd"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and v > 0.0 and math.isfinite(v)):
                raise DomainError(f"{name} must be a positive finite rate, got {v!r}")
        if not (self.gamma_th >= 0.0):
            raise DomainError(f"gamma_th must be >= 0, got {self.gamma_th!r}")
        # rho = 2^(2 rate_rs) overflows a double from rate_rs = 512 on.
        if not (0.0 <= self.rate_rs < 512.0):
            raise DomainError(
                f"rate_rs must be >= 0 and below 512 (finite rho), got {self.rate_rs!r}"
            )

    @property
    def rho(self) -> float:
        """Outage SNR ratio 2^(2 rate_rs)."""
        return 2.0 ** (2.0 * self.rate_rs)

    def with_(self, **changes) -> "SystemParams":
        return replace(self, **changes)


@dataclass(frozen=True)
class TrialDraw:
    """One realization of the five link SNRs plus the relay decode flag."""

    g_sd: float
    g_sr: float
    g_rd: float
    g_se: float
    g_re: float
    relay_on: bool


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
        if not (isinstance(v, (int, float)) and math.isfinite(v)):
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


def _check_rate(rate: float, name: str = "rate") -> None:
    if not (rate > 0.0 and math.isfinite(rate)):
        raise DomainError(f"{name} must be positive and finite, got {rate!r}")


def rates_degenerate(r1: float, r2: float) -> bool:
    """True when two rates are close enough to need the equal-rate limit."""
    return abs(r1 - r2) <= DEGENERACY_RTOL * max(abs(r1), abs(r2))


def _points(z) -> tuple[np.ndarray, np.ndarray]:
    """``z`` as a float array, and clipped to the support's start at 0."""
    z = np.asarray(z, dtype=float)
    return z, np.maximum(z, 0.0)


def _on_support(z: np.ndarray, outside: np.ndarray, v) -> np.ndarray | float:
    """``v`` with 0 where ``outside`` holds; a float when ``z`` is a scalar."""
    v = np.where(outside, 0.0, v)
    return float(v) if v.ndim == 0 else v


# The distribution functions below take a scalar or an array ``z`` and check
# their rates once per call.  Scalar and array arguments run the same numpy
# arithmetic, so a scalar call returns exactly the matching element of an
# array call.  Formulas are evaluated at ``max(z, 0)``: points off the
# support are zeroed afterwards and must not overflow on the way.


def exp_cdf(rate: float, z):
    """CDF of an exponential with the given rate."""
    _check_rate(rate)
    z, zp = _points(z)
    return _on_support(z, z <= 0.0, -np.expm1(-rate * zp))


def exp_pdf(rate: float, z):
    _check_rate(rate)
    z, zp = _points(z)
    return _on_support(z, z < 0.0, rate * np.exp(-rate * zp))


def _sum_exp_quotient(r1: float, r2: float, zp: np.ndarray):
    """The smaller rate a and (e^{-a z} - e^{-b z}) / (b - a) at ``zp`` >= 0,
    where b is the larger rate.

    With d = b - a >= 0 the quotient is e^{-a z} (-expm1(-d z) / d), which
    does not cancel at any gap; at d = 0 it is its limit z e^{-a z}, taken
    as 0 where e^{-a z} is 0 (at z = inf, and beyond underflow).
    """
    a, b = sorted((r1, r2))
    d = b - a
    ea = np.exp(-a * zp)
    if d > 0.0:
        q = np.expm1(-d * zp)
        q /= -d
        q *= ea
        return a, q
    return a, np.multiply(zp, ea, out=np.zeros_like(ea), where=ea > 0.0)


# The sum CDF takes its Taylor series where the larger rate times z is at
# most _SERIES_MAX; terms k = 0 .. _SERIES_TERMS - 1 leave a truncation
# error below 2e-17 relative there.
_SERIES_MAX = 0.25
_SERIES_TERMS = 13


def _sum_exp_series(r: float, y: np.ndarray) -> np.ndarray:
    """The second divided difference e[0, r y, y] of e^{-t} for 0 < r <= 1
    and 0 <= y <= _SERIES_MAX: its Taylor series, the sum over k of
    (-1)^k h_k(r y, y) / (k + 2)!, where the complete homogeneous
    polynomial h_k(r y, y) = y^k (1 + r + ... + r^k).  That is a polynomial
    in y, evaluated by Horner's rule; its first term, 1/2, dominates."""
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


def sum_exp_cdf(r1: float, r2: float, z):
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
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    z, zp = _points(z)
    a, q = _sum_exp_quotient(r1, r2, zp)
    v = np.asarray(-np.expm1(-a * zp) - a * q)
    b = max(r1, r2)
    small = b * zp <= _SERIES_MAX
    if np.any(small):
        x, y = a * zp[small], b * zp[small]
        v[small] = x * y * _sum_exp_series(a / b, y)
    return _on_support(z, z <= 0.0, v)


def sum_exp_pdf(r1: float, r2: float, z):
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    z, zp = _points(z)
    _, q = _sum_exp_quotient(r1, r2, zp)
    return _on_support(z, z < 0.0, (r1 * r2) * q)


def max_exp_cdf(r1: float, r2: float, z):
    """CDF of the maximum of two independent exponentials."""
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    z, zp = _points(z)
    return _on_support(z, z <= 0.0, np.expm1(-r1 * zp) * np.expm1(-r2 * zp))


def max_exp_pdf(r1: float, r2: float, z):
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    z, zp = _points(z)
    v = r1 * np.exp(-r1 * zp) * -np.expm1(-r2 * zp) + r2 * np.exp(-r2 * zp) * -np.expm1(-r1 * zp)
    return _on_support(z, z < 0.0, v)


def decode_probability(params: SystemParams) -> float:
    """Probability the relay decodes: P[g_sr >= gamma_th]."""
    return math.exp(-params.beta_sr * params.gamma_th)


def combine(scheme: Scheme, draw: TrialDraw) -> tuple[float, float]:
    """Post-combining SNRs (destination, eavesdropper) for one trial.

    A silent relay leaves both receivers with only their direct copies,
    whatever the scheme.
    """
    if draw.relay_on:
        gm = draw.g_sd + draw.g_rd if scheme.mrc_at_destination else max(draw.g_sd, draw.g_rd)
        ge = draw.g_se + draw.g_re if scheme.mrc_at_eavesdropper else max(draw.g_se, draw.g_re)
        return gm, ge
    return draw.g_sd, draw.g_se


def secrecy_rate(gamma_m: float, gamma_e: float) -> float:
    """Achievable secrecy rate (bpcu), clamped at zero."""
    return max(0.0, 0.5 * math.log2((1.0 + gamma_m) / (1.0 + gamma_e)))


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


def stream(seed: int, point: int = 0, purpose: int = PURPOSE_TRIALS, chunk: int = 0) -> Generator:
    """Independent deterministic stream for (seed, purpose, point, chunk)."""
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not (isinstance(point, int) and 0 <= point < POINT_LIMIT):
        raise DomainError(f"point must be an integer in [0, 2^{_POINT_BITS}), got {point!r}")
    if not (isinstance(chunk, int) and 0 <= chunk < CHUNK_LIMIT):
        raise DomainError(f"chunk must be an integer in [0, 2^{_CHUNK_BITS}), got {chunk!r}")
    word = (purpose << (_POINT_BITS + _CHUNK_BITS)) | (point << _CHUNK_BITS) | chunk
    key = np.array([seed, word], dtype=np.uint64)
    return Generator(Philox(key=key))


def trial_stream(seed: int, point: int = 0, chunk: int = 0) -> Generator:
    """Stream holding one chunk of trials; consume five uniforms per trial."""
    return stream(seed, point, PURPOSE_TRIALS, chunk)


def sample_trial(params: SystemParams, rng: Generator) -> TrialDraw:
    """Draw one trial: five inverse-CDF exponentials plus the decode flag."""
    u = rng.random(DRAWS_PER_TRIAL)
    g_sd = -math.log1p(-u[0]) / params.beta_sd
    g_sr = -math.log1p(-u[1]) / params.beta_sr
    g_rd = -math.log1p(-u[2]) / params.beta_rd
    g_se = -math.log1p(-u[3]) / params.alpha_se
    g_re = -math.log1p(-u[4]) / params.alpha_re
    return TrialDraw(g_sd, g_sr, g_rd, g_se, g_re, relay_on=bool(g_sr >= params.gamma_th))
