"""Secrecy metrics of a threshold-selection decode-and-forward relay network.

Closed-form secrecy outage probability and ergodic secrecy rate under four
MRC/SC diversity-combining pairings and two transmitter-CSI regimes, with
Monte Carlo and quadrature oracles, high-SNR asymptotes, and a sweep CLI.

The oracles' names are served on first use: they are numpy code, and
importing the package, or running a closed-form sweep, does not load numpy.
"""

import importlib

from .asymptotics import (
    Asymptote,
    UnbalancedCase,
    esr_perfect_decoding,
    esr_saturation_case2_mrc_sc,
    sop_asymptote_balanced,
    sop_asymptote_unbalanced,
    sop_perfect_decoding,
    sop_wiretap,
)
from .closed_form import Method, SecrecyMetric, esr, esr_conditional, sop, sop_conditional
from .errors import DomainError, NumericError
from .expint import eiexp, exp_integral_ei, log_expectation_shifted_exp
from .fading import (
    CsiMode,
    Metric,
    SCHEME_ORDER,
    Scheme,
    SystemParams,
    TrialDraw,
    combine,
    decode_probability,
    exp_cdf,
    max_exp_cdf,
    max_exp_pdf,
    params_from_db,
    sample_trial,
    secrecy_rate,
    sum_exp_cdf,
    trial_stream,
)
from .sweep import (
    Axis,
    McOracle,
    QuadOracle,
    SweepRow,
    SweepSpec,
    Variant,
    figure_preset,
    run_sweep,
    run_validation,
    write_csv,
)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset(
    {"Estimate", "QuadratureResult", "monte_carlo_all", "quadrature_cells",
     "quadrature_esr", "quadrature_sop"}
)

__all__ = [
    "Asymptote",
    "Axis",
    "CsiMode",
    "DomainError",
    "Estimate",
    "McOracle",
    "Method",
    "Metric",
    "NumericError",
    "QuadOracle",
    "QuadratureResult",
    "SCHEME_ORDER",
    "Scheme",
    "SecrecyMetric",
    "SweepRow",
    "SweepSpec",
    "SystemParams",
    "TrialDraw",
    "UnbalancedCase",
    "Variant",
    "combine",
    "decode_probability",
    "eiexp",
    "esr",
    "esr_conditional",
    "esr_perfect_decoding",
    "esr_saturation_case2_mrc_sc",
    "exp_cdf",
    "exp_integral_ei",
    "figure_preset",
    "log_expectation_shifted_exp",
    "max_exp_cdf",
    "max_exp_pdf",
    "monte_carlo_all",
    "params_from_db",
    "quadrature_cells",
    "quadrature_esr",
    "quadrature_sop",
    "run_sweep",
    "run_validation",
    "sample_trial",
    "secrecy_rate",
    "sop",
    "sop_asymptote_balanced",
    "sop_asymptote_unbalanced",
    "sop_conditional",
    "sop_perfect_decoding",
    "sop_wiretap",
    "sum_exp_cdf",
    "trial_stream",
    "write_csv",
]


def __getattr__(name):
    if name in _ORACLE_NAMES:
        return getattr(importlib.import_module(".oracles", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_ORACLE_NAMES})
