"""Command-line front end.

Two subcommands:

* ``sweep``    - evaluate a preset or an ad-hoc parameter sweep and emit CSV;
* ``validate`` - run the closed-form / quadrature / Monte Carlo agreement
  suite and exit nonzero on disagreement.

Exit codes: 0 success, 1 standard output closed early (``secrelay ... |
head``; the command stops quietly), 2 usage error, 3 numeric/oracle
failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import DomainError, NumericError
from .fading import CsiMode, SCHEME_ORDER, Scheme, params_from_db
from .sweep import (
    Axis,
    BASE_DB,
    McOracle,
    Metric,
    PRESET_NAMES,
    QuadOracle,
    SweepSpec,
    figure_preset,
    run_sweep,
    run_validation,
    write_csv,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VALIDATION = 4

# Most worker threads --jobs may ask for; the pool takes one task per Monte
# Carlo point of a sweep or a validation.
MAX_JOBS = 256

_AXIS_BY_FLAG = {axis.value.replace("_", "-"): axis for axis in Axis}


# The flags of an ad-hoc sweep (argparse dests), which a preset fixes
# itself, with their defaults.  They parse to None when not given, so one
# given together with --preset is caught as a usage error.
_ADHOC_DEFAULTS = dict(
    axis=None, from_db=None, to_db=None, step_db=2.0, **BASE_DB,
    scheme=None, csi="both", metric="sop", asymptote=False,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrelay",
        description="Secrecy outage / ergodic secrecy rate sweeps for a "
        "threshold-selection decode-and-forward relay network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="evaluate a sweep and write CSV")
    sw.add_argument(
        "--preset",
        choices=PRESET_NAMES,
        help="named figure preset; it fixes the axis, links, rate, schemes, CSI modes, "
        "metrics and asymptotes, so none of those flags may be given with it",
    )
    sw.add_argument("--axis", choices=sorted(_AXIS_BY_FLAG), help="swept quantity")
    sw.add_argument("--from-db", type=float, dest="from_db", help="axis start (dB)")
    sw.add_argument("--to-db", type=float, dest="to_db", help="axis stop (dB)")
    for flag, what in (
        ("step-db", "axis step (dB)"),
        ("alpha-se-db", "mean S-E SNR (dB)"),
        ("alpha-re-db", "mean R-E SNR (dB)"),
        ("beta-sd-db", "mean S-D SNR (dB)"),
        ("beta-sr-db", "mean S-R SNR (dB)"),
        ("beta-rd-db", "mean R-D SNR (dB)"),
        ("gamma-th-db", "decode threshold (dB)"),
        ("rate-rs", "target secrecy rate (bpcu)"),
    ):
        default = _ADHOC_DEFAULTS[flag.replace("-", "_")]
        sw.add_argument(f"--{flag}", type=float, help=f"{what}, default {default:g}")
    sw.add_argument(
        "--scheme",
        action="append",
        choices=[s.value for s in SCHEME_ORDER],
        help="combining scheme (repeatable; default all four)",
    )
    sw.add_argument("--csi", choices=[m.value for m in CsiMode] + ["both"], help="default both")
    sw.add_argument("--metric", choices=[m.value for m in Metric] + ["both"], help="default sop")
    sw.add_argument(
        "--asymptote", action="store_true", default=None, help="attach asymptote column"
    )
    sw.add_argument("--mc-trials", type=int, help="attach a Monte Carlo oracle column")
    sw.add_argument("--seed", type=int, help="Monte Carlo seed (needs --mc-trials), default 0")
    sw.add_argument("--quad-tol", type=float, help="attach a quadrature oracle column")
    sw.add_argument("--out", help="CSV path (default: standard output)")
    sw.add_argument("--jobs", type=int, default=1, help="worker threads")

    va = sub.add_parser("validate", help="run the three-way agreement suite")
    va.add_argument("--grid-size", type=int, default=200)
    va.add_argument("--seed", type=int, default=7)
    va.add_argument("--mc-trials", type=int, default=10**6)
    va.add_argument("--jobs", type=int, default=1)
    return parser


def _spec_from_args(parser, args) -> SweepSpec:
    if args.mc_trials is not None and args.quad_tol is not None:
        parser.error("--mc-trials and --quad-tol are mutually exclusive")
    if args.seed is not None and args.mc_trials is None:
        parser.error("--seed seeds the Monte Carlo oracle; it needs --mc-trials")

    # SweepSpec.validate checks the oracle's settings (DomainError) first.
    oracle = None
    if args.mc_trials is not None:
        oracle = McOracle(args.mc_trials, args.seed or 0)
    elif args.quad_tol is not None:
        oracle = QuadOracle(args.quad_tol)

    if args.preset:
        given = [
            "--" + dest.replace("_", "-")
            for dest in _ADHOC_DEFAULTS
            if getattr(args, dest) is not None
        ]
        if given:
            parser.error(f"--preset fixes its own sweep; it cannot take {' '.join(given)}")
        spec = figure_preset(args.preset)
        if oracle is not None:
            spec = dataclasses.replace(spec, oracle=oracle)
        return spec

    if not args.axis:
        parser.error("either --preset or --axis is required")
    for dest, default in _ADHOC_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if args.from_db is None or args.to_db is None:
        parser.error("--from-db and --to-db are required with --axis")

    schemes = tuple(Scheme(s) for s in args.scheme) if args.scheme else SCHEME_ORDER
    modes = tuple(CsiMode) if args.csi == "both" else (CsiMode(args.csi),)
    metrics = tuple(Metric) if args.metric == "both" else (Metric(args.metric),)
    return SweepSpec(
        axis=_AXIS_BY_FLAG[args.axis],
        start_db=args.from_db,
        stop_db=args.to_db,
        step_db=args.step_db,
        fixed=params_from_db(**{name: getattr(args, name) for name in BASE_DB}),
        schemes=schemes,
        modes=modes,
        metrics=metrics,
        oracle=oracle,
        asymptote=args.asymptote,
    )


def _cmd_sweep(parser, args) -> int:
    rows = run_sweep(_spec_from_args(parser, args), n_jobs=args.jobs)
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                write_csv(rows, fh)
        except OSError as exc:
            parser.error(f"cannot write {args.out}: {exc}")
        print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    else:
        write_csv(rows, sys.stdout)
    return EXIT_OK


def _cmd_validate(parser, args) -> int:
    report = run_validation(
        grid_size=args.grid_size, seed=args.seed, mc_trials=args.mc_trials, n_jobs=args.jobs
    )
    sys.stdout.write(report.render())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not 1 <= args.jobs <= MAX_JOBS:
        parser.error(f"--jobs must be in [1, {MAX_JOBS}], got {args.jobs}")
    command = _cmd_sweep if args.command == "sweep" else _cmd_validate
    try:
        code = command(parser, args)
        sys.stdout.flush()
    except DomainError as exc:
        parser.error(str(exc))
    except NumericError as exc:
        print(f"secrelay: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except BrokenPipeError:
        # The reader closed standard output.  Point it at devnull so the
        # interpreter's own flush at exit does not fail again, as the SIGPIPE
        # note of the signal module's documentation does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
