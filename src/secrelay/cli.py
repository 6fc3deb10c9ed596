"""Command-line front end.

Two subcommands:

* ``sweep``    - evaluate a preset or an ad-hoc parameter sweep and emit CSV;
* ``validate`` - run the closed-form / quadrature / Monte Carlo agreement
  suite and exit nonzero on disagreement.

Exit codes: 0 success, 2 usage error, 3 numeric/oracle failure,
4 validation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import DomainError, NumericError
from .fading import CsiMode, SCHEME_ORDER, Scheme, params_from_db
from .oracles import DEFAULT_QUAD_TOL
from .sweep import (
    Axis,
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
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_VALIDATION = 4

_AXIS_BY_FLAG = {
    "balanced-snr-db": Axis.BALANCED_SNR_DB,
    "beta-rd-db": Axis.BETA_RD_DB,
    "beta-sr-db": Axis.BETA_SR_DB,
    "gamma-th-db": Axis.GAMMA_TH_DB,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secrelay",
        description="Secrecy outage / ergodic secrecy rate sweeps for a "
        "threshold-selection decode-and-forward relay network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sw = sub.add_parser("sweep", help="evaluate a sweep and write CSV")
    sw.add_argument("--preset", choices=PRESET_NAMES, help="named figure preset")
    sw.add_argument("--axis", choices=sorted(_AXIS_BY_FLAG), help="swept quantity")
    sw.add_argument("--from-db", type=float, dest="from_db", help="axis start (dB)")
    sw.add_argument("--to-db", type=float, dest="to_db", help="axis stop (dB)")
    sw.add_argument("--step-db", type=float, dest="step_db", default=2.0)
    sw.add_argument("--alpha-se-db", type=float, default=0.0, help="mean S-E SNR (dB)")
    sw.add_argument("--alpha-re-db", type=float, default=3.0, help="mean R-E SNR (dB)")
    sw.add_argument("--beta-sd-db", type=float, default=3.0, help="mean S-D SNR (dB)")
    sw.add_argument("--beta-sr-db", type=float, default=10.0, help="mean S-R SNR (dB)")
    sw.add_argument("--beta-rd-db", type=float, default=3.0, help="mean R-D SNR (dB)")
    sw.add_argument("--gamma-th-db", type=float, default=3.0, help="decode threshold (dB)")
    sw.add_argument("--rate-rs", type=float, default=1.0, help="target secrecy rate (bpcu)")
    sw.add_argument(
        "--scheme",
        action="append",
        choices=[s.value for s in SCHEME_ORDER],
        help="combining scheme (repeatable; default all four)",
    )
    sw.add_argument("--csi", choices=["nocsi", "csi", "both"], default="both")
    sw.add_argument("--metric", choices=["sop", "esr", "both"], default="sop")
    sw.add_argument("--mc-trials", type=int, help="attach a Monte Carlo oracle column")
    sw.add_argument("--seed", type=int, default=0)
    sw.add_argument("--quad-tol", type=float, help="attach a quadrature oracle column")
    sw.add_argument("--asymptote", action="store_true", help="attach asymptote column")
    sw.add_argument("--out", help="CSV path (default: standard output)")
    sw.add_argument("--jobs", type=int, default=1, help="worker threads")

    va = sub.add_parser("validate", help="run the three-way agreement suite")
    va.add_argument("--grid-size", type=int, default=200)
    va.add_argument("--seed", type=int, default=7)
    va.add_argument("--mc-trials", type=int, default=10**6)
    va.add_argument("--quad-tol", type=float, default=DEFAULT_QUAD_TOL)
    va.add_argument("--tol-quad", type=float, default=1e-6, help="closed form vs quadrature (abs)")
    va.add_argument("--mc-sigmas", type=float, default=3.0)
    va.add_argument("--mc-floor", type=float, default=1e-4)
    va.add_argument("--jobs", type=int, default=1)
    return parser


def _spec_from_args(parser, args) -> SweepSpec:
    if args.preset and args.axis:
        parser.error("--preset and --axis are mutually exclusive")
    if args.mc_trials is not None and args.quad_tol is not None:
        parser.error("--mc-trials and --quad-tol are mutually exclusive")

    oracle = None
    if args.mc_trials is not None:
        if args.mc_trials < 1:
            parser.error("--mc-trials must be >= 1")
        oracle = McOracle(args.mc_trials, args.seed)
    elif args.quad_tol is not None:
        if not args.quad_tol > 0:
            parser.error("--quad-tol must be > 0")
        oracle = QuadOracle(args.quad_tol)

    if args.preset:
        spec = figure_preset(args.preset)
        if oracle is not None:
            spec = dataclasses.replace(spec, oracle=oracle)
        return spec

    if not args.axis:
        parser.error("either --preset or --axis is required")
    if args.from_db is None or args.to_db is None:
        parser.error("--from-db and --to-db are required with --axis")

    schemes = tuple(Scheme(s) for s in args.scheme) if args.scheme else SCHEME_ORDER
    modes = {
        "nocsi": (CsiMode.NOCSI,),
        "csi": (CsiMode.CSI,),
        "both": (CsiMode.NOCSI, CsiMode.CSI),
    }[args.csi]
    metrics = {
        "sop": (Metric.SOP,),
        "esr": (Metric.ESR,),
        "both": (Metric.SOP, Metric.ESR),
    }[args.metric]
    fixed = params_from_db(
        args.alpha_se_db,
        args.alpha_re_db,
        args.beta_sd_db,
        args.beta_sr_db,
        args.beta_rd_db,
        args.gamma_th_db,
        args.rate_rs,
    )
    return SweepSpec(
        axis=_AXIS_BY_FLAG[args.axis],
        start_db=args.from_db,
        stop_db=args.to_db,
        step_db=args.step_db,
        fixed=fixed,
        schemes=schemes,
        modes=modes,
        metrics=metrics,
        oracle=oracle,
        asymptote=args.asymptote,
    )


def _cmd_sweep(parser, args) -> int:
    try:
        spec = _spec_from_args(parser, args)
        rows = run_sweep(spec, n_jobs=args.jobs)
    except DomainError as exc:
        parser.error(str(exc))
    except NumericError as exc:
        print(f"secrelay: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
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
    try:
        report = run_validation(
            grid_size=args.grid_size,
            seed=args.seed,
            mc_trials=args.mc_trials,
            quad_tol=args.quad_tol,
            tol_quad_abs=args.tol_quad,
            mc_sigmas=args.mc_sigmas,
            mc_abs_floor=args.mc_floor,
            n_jobs=args.jobs,
        )
    except DomainError as exc:
        parser.error(str(exc))
    except NumericError as exc:
        print(f"secrelay: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    sys.stdout.write(report.render())
    return EXIT_OK if report.passed else EXIT_VALIDATION


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.command == "sweep":
        return _cmd_sweep(parser, args)
    return _cmd_validate(parser, args)


if __name__ == "__main__":
    sys.exit(main())
