"""Print the SHA-256 of the standard outputs of the CLI in this tree, or
check them against the committed record ``tools/output_digests.txt``.

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
- ``sweep --preset fig5 --mc-trials 20000``, a Monte Carlo sweep of 52
  points;
- a three-point Monte Carlo sweep of 600000 trials per point, so each
  point draws more than one 2^19-trial chunk.

All but the shipped presets run at ``--jobs 1`` and at ``--jobs 2``.  Each
runs in a fresh interpreter on this tree's ``src``.  With no option the
script prints the record: a first line naming the environment (Python
major.minor, numpy's version and active SIMD targets, the machine and the
C library), then per
output its digest, exit code and command.  It exits 1 if a ``--jobs 2``
output differs from its ``--jobs 1`` output.

    python tools/output_digests.py > tools/output_digests.txt

``--check`` reruns the outputs and compares them with the record.  It
prints each output whose digest or exit code moved, and each recorded
output it no longer runs, and then exits 1; a ``--jobs`` disagreement
also exits 1.  Where the environment is not the recorded one, it prints
both environment lines and compares with the record only the eight
closed-form outputs (the shipped presets and the ``--asymptote``
sweeps), whose bytes read CPython and libm but no numpy; it still checks
that every output agrees across ``--jobs``.

    python tools/output_digests.py --check

``--against PATH`` runs each output, at ``--jobs 1``, in this tree and in
the checkout at ``PATH``, and for each output whose bytes differ prints
how many fields moved and the largest relative and absolute move: per
column of a CSV (named by its header), and over the numbers of any other
text (``validate``'s report).  It exits 1 if any output differs.

    python tools/output_digests.py --against ../parent-checkout
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parent
SRC = TOOLS.parent / "src"
RECORD = TOOLS / "output_digests.txt"
sys.path.insert(0, str(SRC))
from secrelay.sweep import PRESET_NAMES  # noqa: E402

SHIPPED = [["sweep", "--preset", name] for name in PRESET_NAMES]
VALIDATE = ["validate", "--grid-size", "3", "--mc-trials", "20000"]
AD_HOC = [
    ["sweep", "--axis", axis, "--from-db", "-10", "--to-db", "50", "--step-db", "1", "--metric", "both", *how]
    for how in (["--asymptote"], ["--quad-tol", "1e-9"])
    for axis in ("beta-rd-db", "balanced-snr-db")
]
HIGH_SNR = ["sweep", "--axis", "balanced-snr-db", "--from-db", "60", "--to-db", "140", "--step-db", "5",
            "--metric", "both", "--quad-tol", "1e-9"]
MONTE_CARLO = ["sweep", "--preset", "fig5", "--mc-trials", "20000"]
MULTI_CHUNK = ["sweep", "--axis", "beta-rd-db", "--from-db", "0", "--to-db", "10", "--step-db", "5",
               "--mc-trials", "600000"]
PAIRS = [["sweep", "--preset", name, "--quad-tol", "1e-9"] for name in PRESET_NAMES] + [
    VALIDATE, *AD_HOC, HIGH_SNR, MONTE_CARLO, MULTI_CHUNK]
# the commands whose bytes do not depend on numpy: the outputs that
# tests/test_output_digests.py pins
CLOSED_FORM = {" ".join(args) for args in SHIPPED} | {
    " ".join([*args, "--jobs", jobs]) for args in AD_HOC if "--asymptote" in args for jobs in ("1", "2")}


def _environment() -> str:
    """The record's first line: what the oracle outputs' bits may depend on.
    Besides Python, numpy and the C library, numpy's SIMD dispatch targets
    that are active on this CPU decide them: with the AVX-512 targets
    turned off (``NPY_DISABLE_CPU_FEATURES``), every quadrature output
    moves."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    simd = ",".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    python = ".".join(platform.python_version_tuple()[:2])
    libc = " ".join(filter(None, platform.libc_ver())) or "unknown-libc"
    return f"# python {python} numpy {np.__version__} simd {simd} {platform.machine()} {libc}"


def _run(args, src=SRC):
    """(standard output, exit code) of ``secrelay args`` on the package in ``src``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-m", "secrelay.cli", *args], capture_output=True, env=env)
    return run.stdout, run.returncode


def _digest(args):
    """(SHA-256 of the standard output, exit code) of ``secrelay args``."""
    out, code = _run(args)
    return hashlib.sha256(out).hexdigest(), code


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


def _fields(line: str, header):
    """(column, text) per field of a CSV line under ``header``, or of other
    text: its numbers, "numbers", and the rest, "text"."""
    if header:
        fields = line.split(",")
        if len(fields) != len(header):
            raise ValueError(f"{len(fields)} fields under a header of {len(header)}: {line!r}")
        return list(zip(header, fields))
    return [("numbers", x) for x in _NUMBER.findall(line)] + [("text", _NUMBER.sub("#", line))]


def field_moves(old: str, new: str) -> dict:
    """Per column, (fields moved, fields compared, largest relative move,
    largest absolute move) from the output ``old`` to ``new``: the columns
    of a CSV by its header's names; in other text, such as ``validate``'s
    report, its numbers as one column and the rest as another.  A field
    moved where its text changed, by |new - old| / |old| relative; a
    changed field that is not a number moved by inf.  Raises
    :class:`ValueError` where the lines or fields do not pair up."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        raise ValueError(f"{len(old_lines)} lines against {len(new_lines)}")
    csv = bool(old_lines) and "," in old_lines[0] and old_lines[0] == new_lines[0]
    header = old_lines[0].split(",") if csv else None
    moves = {}
    for a, b in zip(old_lines[csv:], new_lines[csv:]):
        a, b = _fields(a, header), _fields(b, header)
        if [name for name, _ in a] != [name for name, _ in b]:
            raise ValueError(f"the fields of {a!r} and {b!r} do not pair up")
        for (name, text_x), (_, text_y) in zip(a, b):
            try:
                x, y = float(text_x), float(text_y)
            except ValueError:  # text, compared only where it changed: 0 -> inf
                if text_x == text_y:
                    continue
                x, y = 0.0, math.inf
            moved, compared, rel, absolute = moves.get(name, (0, 0, 0.0, 0.0))
            if text_x != text_y:
                d = abs(y - x)
                d = d if d == d else math.inf  # a NaN on one side
                moved += 1
                rel = max(rel, d / abs(x) if x else math.inf if d else 0.0)
                absolute = max(absolute, d)
            moves[name] = moved, compared + 1, rel, absolute
    return moves


def _against(path) -> int:
    """Print how each output moved from the checkout at ``path`` to this tree."""
    differ = 0
    for args in [*SHIPPED, *([*args, "--jobs", "1"] for args in PAIRS)]:
        command = " ".join(args)
        (old, old_code), (new, new_code) = _run(args, Path(path) / "src"), _run(args)
        if (old, old_code) == (new, new_code):
            print(f"same: {command}")
            continue
        differ += 1
        codes = f"exit {old_code} -> {new_code}; " if old_code != new_code else ""
        try:
            moves = field_moves(old.decode(), new.decode())
        except ValueError as e:
            print(f"moved: {command}: {codes}outputs do not pair up ({e})")
            continue
        found = "; ".join(f"{name} {moved}/{compared} fields, largest relative move {rel:.2g}"
                          f" (absolute {abs_:.2g})"
                          for name, (moved, compared, rel, abs_) in moves.items() if moved)
        print(f"moved: {command}: {codes}{found}")
    print(f"{differ} of {len(SHIPPED) + len(PAIRS)} outputs differ", file=sys.stderr)
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "--against":
        return _against(argv[1])
    if argv not in ([], ["--check"]):
        print(f"usage: {sys.argv[0]} [--check | --against PATH]", file=sys.stderr)
        return 2
    check, env = bool(argv), _environment()
    recorded, partial = {}, False
    if check:
        recorded_env, *lines = RECORD.read_text().splitlines()
        recorded = {command: (digest, int(code))
                    for digest, code, command in (line.split(" ", 2) for line in lines)}
        partial = recorded_env != env
        if partial:
            print(f"recorded environment: {recorded_env}\nthis environment:     {env}\n"
                  "comparing only the closed-form outputs, which read no numpy, with the record")
    else:
        print(env)
    groups = [[args] for args in SHIPPED] + [[[*args, "--jobs", j] for j in ("1", "2")] for args in PAIRS]
    moved, differ, ran = [], [], set()
    for group in groups:
        outs = []
        for args in group:
            command = " ".join(args)
            out = _digest(args)
            outs.append(out)
            ran.add(command)
            if not check:
                print("%s %d %s" % (*out, command))
            elif recorded.get(command) != out and (not partial or command in CLOSED_FORM):
                moved.append(command)
                was = "%s %d" % recorded[command] if command in recorded else "not recorded"
                print("moved: %s %d %s (recorded: %s)" % (*out, command, was))
        if outs[0] != outs[-1]:
            differ.append(" ".join(group[0][:-2]))
    if check and not partial:
        for command in sorted(recorded.keys() - ran):
            moved.append(command)
            print(f"not run: {command}")
    for args in differ:
        print(f"--jobs 1 and --jobs 2 differ: {args}", file=sys.stderr)
    if check:
        compared = len(CLOSED_FORM) if partial else len(ran)
        print(f"{len(moved)} of {compared} commands moved", file=sys.stderr)
    return 1 if differ or moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
