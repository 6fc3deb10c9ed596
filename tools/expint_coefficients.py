"""Generate the piecewise polynomial coefficients of ``secrelay.expint``.

``eiexp(x) = e^x Ei(-x)`` is evaluated on (SERIES_X, ASYMPTOTIC_X] as
``-G(x) / x`` with ``G(x) = x e^x E1(x)``, a smooth function rising from
~0.33 to ~0.98 there.  The range is cut at the half-octaves
``2^(e-1) * {1, sqrt(2), 2}`` that ``math.frexp`` finds without a search,
and on each piece G is a polynomial in ``t = A/m - B`` (``m`` the frexp
mantissa; ``A``, ``B`` and the cuts are ``expint``'s constants): a linear
map of ``1/x`` onto [-1, 1].  In ``1/x`` the heavy part of E1's branch cut
sits far from the large-x pieces, which converge faster than in x.

Each piece is the Chebyshev expansion of G at 40 digits, truncated at
``DEGREE`` (the coefficients ``eiexp`` unpacks, one fixed count so that its
Horner sum is written out, ~10% faster than a loop), then rewritten in
powers of t and rounded to doubles.  The script fails if a dropped tail is
not below ``TOLERANCE`` times the smallest |G| on its piece.  Needs mpmath
besides the package.

    python tools/expint_coefficients.py           # print the tuple literal
    python tools/expint_coefficients.py --check   # exit 1 if expint.py differs
"""

from __future__ import annotations

import argparse
import difflib
import math
import sys
from pathlib import Path

import mpmath as mp

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
from secrelay import expint  # noqa: E402

BEGIN = "# BEGIN generated by tools/expint_coefficients.py; do not edit by hand."
END = "# END generated"

DIGITS = 40
SAMPLES = 32  # Chebyshev points per piece; degree 31 leaves ~1e-25 aliasing
DEGREE = 13
TOLERANCE = 2.0**-54  # truncation error relative to G, under half an ulp


def pieces():
    """(exponent, A, lower edge) of every piece, in the order ``expint``
    indexes them: the lower then the upper half of each octave, from
    SERIES_X's up to ASYMPTOTIC_X's."""
    first, last = math.frexp(expint.SERIES_X)[1], math.frexp(expint.ASYMPTOTIC_X)[1]
    for e in range(first, last + 1):
        for a, m in ((expint._A_LOWER, 0.5), (expint._A_UPPER, expint._SQRT_HALF)):
            if math.ldexp(m, e) <= expint.ASYMPTOTIC_X:
                yield e, a, math.ldexp(m, e)


def g_of_t(e, a):
    """G at the x that the doubles A and B map to t, in exact arithmetic."""
    a, b, scale = mp.mpf(a), mp.mpf(expint._B), mp.ldexp(1, e)

    def g(t):
        x = a / (t + b) * scale
        return x * mp.exp(x) * mp.e1(x)

    return g


def chebyshev(f, n):
    """Coefficients c_0..c_{n-1} of f's Chebyshev interpolant on [-1, 1]."""
    angles = [mp.pi * (k + mp.mpf(0.5)) / n for k in range(n)]
    values = [f(mp.cos(a)) for a in angles]
    coeffs = []
    for j in range(n):
        s = mp.fsum(v * mp.cos(j * a) for v, a in zip(values, angles))
        coeffs.append(s * (1 if j else mp.mpf(0.5)) * 2 / n)
    return coeffs, values


def monomial(cheb):
    """Rewrite sum c_k T_k(t) as sum a_k t^k (exact integer T_k coefficients)."""
    out = [mp.mpf(0)] * len(cheb)
    prev, cur = [], [1]  # T_(k-1), T_k
    for k, c in enumerate(cheb):
        for i, v in enumerate(cur):
            out[i] += c * v
        # T_(k+1) = 2t T_k - T_(k-1), and T_1 = t
        nxt = [0] + [v if k == 0 else 2 * v for v in cur]
        for i, v in enumerate(prev):
            nxt[i] -= v
        prev, cur = cur, nxt
    return out


def piece_coefficients(e, a):
    cheb, values = chebyshev(g_of_t(e, a), SAMPLES)
    tail = mp.fsum(abs(c) for c in cheb[DEGREE + 1 :])
    if tail >= TOLERANCE * min(abs(v) for v in values):
        raise SystemExit(f"piece at 2^{e}, A = {a}: degree {DEGREE} leaves {mp.nstr(tail, 3)}")
    return [float(c) for c in monomial(cheb[: DEGREE + 1])]


def literal() -> str:
    lines = [BEGIN, "_PIECES = ("]
    for e, a, lo in pieces():
        coeffs = [f"{c!r}," for c in piece_coefficients(e, a)]
        lines.append(f"    (  # x in [{lo:.4g}, {lo * math.sqrt(2.0):.4g})")
        lines.extend("        " + " ".join(coeffs[i : i + 3]) for i in range(0, len(coeffs), 3))
        lines.append("    ),")
    lines += [")", END]
    return "\n".join(lines) + "\n"


def committed() -> str:
    text = Path(expint.__file__).read_text()
    start, stop = text.index(BEGIN), text.index(END)
    return text[start : stop + len(END)] + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="diff against expint.py")
    args = parser.parse_args(argv)
    mp.mp.dps = DIGITS
    text = literal()
    if not args.check:
        sys.stdout.write(text)
        return 0
    have = committed()
    if have == text:
        return 0
    sys.stdout.writelines(
        difflib.unified_diff(have.splitlines(True), text.splitlines(True), "expint.py", "generated")
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
