"""Secrecy metrics of a threshold-selection decode-and-forward relay network.

Closed-form secrecy outage probability and ergodic secrecy rate under four
MRC/SC diversity-combining pairings and two transmitter-CSI regimes, with
Monte Carlo and quadrature oracles, high-SNR asymptotes, and a sweep CLI.

Every public name, and each submodule that defines one, is served on first
use: ``import secrelay`` loads no submodule and no numpy, a name loads only
its defining module and what that imports, and the oracles' names alone
load numpy.
"""

import sys

__version__ = "0.1.0"

# each defining module and the names the package exports from it
_EXPORTS = {
    "asymptotics": ("Asymptote", "UnbalancedCase", "esr_perfect_decoding",
                    "esr_saturation_case2_mrc_sc", "sop_asymptote_balanced",
                    "sop_asymptote_unbalanced", "sop_perfect_decoding", "sop_wiretap"),
    "closed_form": ("Method", "SecrecyMetric", "esr", "esr_conditional", "sop",
                    "sop_conditional"),
    "errors": ("DomainError", "NumericError"),
    "expint": ("eiexp", "exp_integral_ei", "log_expectation_shifted_exp"),
    "fading": ("CsiMode", "Metric", "SCHEME_ORDER", "Scheme", "SystemParams",
               "decode_probability", "exp_cdf", "max_exp_cdf", "max_exp_pdf", "params_from_db",
               "sum_exp_cdf", "trial_stream"),
    "oracles": ("Estimate", "QuadratureResult", "monte_carlo_all", "quadrature_cells",
                "quadrature_esr", "quadrature_sop"),
    "sweep": ("Axis", "McOracle", "QuadOracle", "SweepRow", "SweepSpec", "Variant",
              "figure_preset", "run_sweep", "run_validation", "write_csv"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _submodule(name):
    # __import__, not importlib.import_module, so that -X importtime sees it
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _EXPORTS:
        return _submodule(name)
    if name in _HOME:
        value = getattr(_submodule(_HOME[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
