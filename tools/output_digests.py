"""Print the SHA-256 of the standard outputs of the CLI in this tree.

The outputs are:

- the six figure presets as shipped;
- the six with ``--quad-tol 1e-9``;
- ``validate --grid-size 3 --mc-trials 20000``;
- two sweeps of all 16 cells from -10 to 50 dB, on ``beta-rd-db`` and on
  ``balanced-snr-db``, once closed-form with asymptotes and once with
  ``--quad-tol 1e-9``.  Each crosses ``beta_rd == beta_sd`` at 3 dB, which
  no preset does for every cell, and the quadrature ones hand their 61
  points' node sets to the integrator in several batches;
- a ``--quad-tol 1e-9`` sweep of all 16 cells on ``balanced-snr-db`` from
  60 to 140 dB, whose links span the widest ranges, so the longest node
  grids, of any output here;
- ``sweep --preset fig5 --mc-trials 20000``, the Monte Carlo sweep, whose
  points are the only ones worker threads run.

All but the shipped presets run at ``--jobs 1`` and at ``--jobs 2``.  Each
runs in a fresh interpreter on this tree's ``src``, and each line gives the
digest, the exit code and the command.  Run it in two checkouts and diff
what it prints to see whether a change moved any byte.  The script exits 1
if a ``--jobs 2`` output differs from its ``--jobs 1`` output.

    python tools/output_digests.py
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from secrelay.sweep import PRESET_NAMES  # noqa: E402

VALIDATE = ["validate", "--grid-size", "3", "--mc-trials", "20000"]
AD_HOC = [
    ["sweep", "--axis", axis, "--from-db", "-10", "--to-db", "50", "--step-db", "1", "--metric", "both", *how]
    for how in (["--asymptote"], ["--quad-tol", "1e-9"])
    for axis in ("beta-rd-db", "balanced-snr-db")
]
HIGH_SNR = ["sweep", "--axis", "balanced-snr-db", "--from-db", "60", "--to-db", "140", "--step-db", "5",
            "--metric", "both", "--quad-tol", "1e-9"]
MONTE_CARLO = ["sweep", "--preset", "fig5", "--mc-trials", "20000"]


def _digest(args):
    """(SHA-256 of the standard output, exit code) of ``secrelay args``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "secrelay.cli", *args], capture_output=True, env=env)
    return hashlib.sha256(run.stdout).hexdigest(), run.returncode


def main() -> int:
    runs = [["sweep", "--preset", name] for name in PRESET_NAMES]
    pairs = [["sweep", "--preset", name, "--quad-tol", "1e-9"] for name in PRESET_NAMES] + [VALIDATE, *AD_HOC, HIGH_SNR, MONTE_CARLO]
    differ = []
    for args in runs:
        print("%s %d %s" % (*_digest(args), " ".join(args)))
    for args in pairs:
        outs = []
        for jobs in ("1", "2"):
            out = _digest([*args, "--jobs", jobs])
            print("%s %d %s --jobs %s" % (*out, " ".join(args), jobs))
            outs.append(out)
        if outs[0] != outs[1]:
            differ.append(" ".join(args))
    for args in differ:
        print(f"--jobs 1 and --jobs 2 differ: {args}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
