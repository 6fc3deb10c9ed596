"""The scalar per-trial model the Monte Carlo tests check against: one
draw of the five link SNRs, each receiver's combining, and the secrecy
rate of one trial, written out plainly and one trial at a time."""

import math
from dataclasses import dataclass

from secrelay.fading import DRAWS_PER_TRIAL, Scheme, SystemParams


@dataclass(frozen=True)
class TrialDraw:
    """One realization of the five link SNRs plus the relay decode flag."""

    g_sd: float
    g_sr: float
    g_rd: float
    g_se: float
    g_re: float
    relay_on: bool


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


def sample_trial(params: SystemParams, rng) -> TrialDraw:
    """Draw one trial from a numpy Generator: five inverse-CDF exponentials
    plus the decode flag."""
    u = rng.random(DRAWS_PER_TRIAL)
    g_sd = -math.log1p(-u[0]) / params.beta_sd
    g_sr = -math.log1p(-u[1]) / params.beta_sr
    g_rd = -math.log1p(-u[2]) / params.beta_rd
    g_se = -math.log1p(-u[3]) / params.alpha_se
    g_re = -math.log1p(-u[4]) / params.alpha_re
    return TrialDraw(g_sd, g_sr, g_rd, g_se, g_re, relay_on=bool(g_sr >= params.gamma_th))
