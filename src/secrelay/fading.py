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

# The sum-distribution functions switch to the equal-rate (Erlang-2) limit
# earlier than the tolerance above: the limit at the average rate
# is accurate to O(gap^2) ~ 1e-14 there, while the exact two-rate branch
# has already lost ~1e-16/gap to cancellation, enough to make adaptive
# integrators flag round-off in the density.
SUM_STABLE_RTOL = 1e-7


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
        if not (self.rate_rs >= 0.0 and math.isfinite(self.rate_rs)):
            raise DomainError(f"rate_rs must be >= 0 and finite, got {self.rate_rs!r}")

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
        alpha_se=10.0 ** (-alpha_se_db / 10.0),
        alpha_re=10.0 ** (-alpha_re_db / 10.0),
        beta_sd=10.0 ** (-beta_sd_db / 10.0),
        beta_sr=10.0 ** (-beta_sr_db / 10.0),
        beta_rd=10.0 ** (-beta_rd_db / 10.0),
        gamma_th=10.0 ** (gamma_th_db / 10.0),
        rate_rs=float(rate_rs),
    )


def _check_rate(rate: float, name: str = "rate") -> None:
    if not (rate > 0.0 and math.isfinite(rate)):
        raise DomainError(f"{name} must be positive and finite, got {rate!r}")


def rates_degenerate(r1: float, r2: float) -> bool:
    """True when two rates are close enough to need the equal-rate limit."""
    return abs(r1 - r2) <= DEGENERACY_RTOL * max(abs(r1), abs(r2))


def exp_cdf(rate: float, z: float) -> float:
    """CDF of an exponential with the given rate."""
    _check_rate(rate)
    if z <= 0.0:
        return 0.0
    return -math.expm1(-rate * z)


def exp_pdf(rate: float, z: float) -> float:
    _check_rate(rate)
    if z < 0.0:
        return 0.0
    return rate * math.exp(-rate * z)


def sum_exp_cdf(r1: float, r2: float, z: float) -> float:
    """CDF of the sum of two independent exponentials.

    Distinct rates use the two-term mixture; rates within
    :data:`SUM_STABLE_RTOL` switch to the equal-rate (Erlang-2) limit at
    the average rate, before the mixture's cancellation noise outgrows the
    limit's O(gap^2) model error.
    """
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    if z <= 0.0:
        return 0.0
    if abs(r1 - r2) <= SUM_STABLE_RTOL * max(r1, r2):
        r = 0.5 * (r1 + r2)
        v = -math.expm1(-r * z) - r * z * math.exp(-r * z)
    else:
        v = 1.0 - (r2 * math.exp(-r1 * z) - r1 * math.exp(-r2 * z)) / (r2 - r1)
    return min(1.0, max(0.0, v))


def sum_exp_pdf(r1: float, r2: float, z: float) -> float:
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    if z < 0.0:
        return 0.0
    if abs(r1 - r2) <= SUM_STABLE_RTOL * max(r1, r2):
        r = 0.5 * (r1 + r2)
        return r * r * z * math.exp(-r * z)
    v = (r1 * r2 / (r2 - r1)) * (math.exp(-r1 * z) - math.exp(-r2 * z))
    return max(0.0, v)


def max_exp_cdf(r1: float, r2: float, z: float) -> float:
    """CDF of the maximum of two independent exponentials."""
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    if z <= 0.0:
        return 0.0
    return math.expm1(-r1 * z) * math.expm1(-r2 * z)


def max_exp_pdf(r1: float, r2: float, z: float) -> float:
    _check_rate(r1, "r1")
    _check_rate(r2, "r2")
    if z < 0.0:
        return 0.0
    return r1 * math.exp(-r1 * z) * -math.expm1(-r2 * z) + r2 * math.exp(
        -r2 * z
    ) * -math.expm1(-r1 * z)


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


def stream(seed: int, point: int = 0, purpose: int = PURPOSE_TRIALS, chunk: int = 0) -> Generator:
    """Independent deterministic stream for (seed, purpose, point, chunk)."""
    if not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise DomainError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    if not (isinstance(point, int) and 0 <= point < 2**_POINT_BITS):
        raise DomainError(f"point must be an integer in [0, 2^{_POINT_BITS}), got {point!r}")
    if not (isinstance(chunk, int) and 0 <= chunk < 2**_CHUNK_BITS):
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
