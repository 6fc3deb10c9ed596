"""The closed-form outputs' bytes, checked against committed digests.

The six figure presets as shipped and ``tools/output_digests.py``'s two
``--asymptote`` sweeps read only CPython and libm, so their CSV bytes do
not depend on numpy.  Each is written in-process with ``run_sweep`` and
``write_csv``, which gives the bytes ``secrelay sweep`` prints.  A change
that moves one of them updates its digest here and says why.  The
digest tool's ``--against`` comparison of two outputs is tested here too.
"""

import hashlib
import importlib.util
import io
import math
from pathlib import Path

import pytest

from secrelay import cli
from secrelay.sweep import run_sweep, write_csv

# SHA-256 of the standard output of the command each entry names.
DIGESTS = {
    "sweep --preset fig2": "962b9bae6dd159edcad9a8e47765a1ef16c564ca0c44c19aca6d0ae38be0b647",
    "sweep --preset fig3": "442c3d3c9a94f0c007580e0f6fb254ff9f05b20a7553d8115cd078c2e570f2f1",
    "sweep --preset fig4": "9ab992dec5408f9ce7634b629c19a961f6e4ca5b3438fec35e4e527fdf889d19",
    "sweep --preset fig5": "ca7561b257093696b321b21f5cc65a53bb2398c0f38dcc982031aeb59e05afac",
    "sweep --preset fig6": "3eac8fcd5cb0b33d3fa443490faa7a50bf1bc6c3625ff26e0e6a59762fa7abfd",
    "sweep --preset fig7": "479a831f3c717dad8cc0468454873ae0d1e1964b7c5cb0ef2fe9e35b2a6c5905",
    "sweep --axis beta-rd-db --from-db -10 --to-db 50 --step-db 1 --metric both --asymptote":
        "b07474b429b49a038d7ef7614ebf1b4cdf417f9e5c924a22c7024d2fdc8596a1",
    "sweep --axis balanced-snr-db --from-db -10 --to-db 50 --step-db 1 --metric both --asymptote":
        "14b80b8102272e81b929343361871db3d39ec21233dd835e6f67a84bf3db1633",
}


def _spec(command):
    # the spec the CLI builds for the command
    parser = cli._build_parser()
    return cli._spec_from_args(parser, parser.parse_args(command.split()))


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_closed_form_outputs_keep_their_bytes(command):
    out = io.StringIO()
    write_csv(run_sweep(_spec(command)), out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[command]


def test_the_committed_record_agrees_with_this_table():
    # tools/output_digests.txt records every output of the CLI, these at
    # each --jobs value they run at
    record = Path(__file__).resolve().parent.parent / "tools" / "output_digests.txt"
    lines = [line.split(" ", 2) for line in record.read_text().splitlines()[1:]]
    for command, digest in DIGESTS.items():
        runs = (command, f"{command} --jobs 1", f"{command} --jobs 2")
        found = [(d, code) for d, code, c in lines if c in runs]
        assert found and set(found) == {(digest, "0")}, command


def _digest_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "output_digests.py"
    spec = importlib.util.spec_from_file_location("output_digests", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_field_moves_compares_two_csv_outputs_field_by_field():
    field_moves = _digest_tool().field_moves
    old = "axis,variant,value,oracle_value\nbeta_rd_db,a,0.5,0.25\nbeta_rd_db,a,1e-20,0\n"
    new = "axis,variant,value,oracle_value\nbeta_rd_db,a,0.5,0.25000000000000006\nbeta_rd_db,b,1e-20,0\n"
    moves = field_moves(old, new)
    # 0.25 -> 0.25 + 2^-54 is one ulp; unchanged text is not compared
    assert moves == {
        "value": (0, 2, 0.0, 0.0),
        "oracle_value": (1, 2, 2.0 ** -54 / 0.25, 2.0 ** -54),
        "variant": (1, 1, math.inf, math.inf),
    }
    # a move off zero is inf relative
    assert field_moves(old, old.replace(",0\n", ",1e-30\n"))["oracle_value"] == (1, 2, math.inf, 1e-30)
    assert field_moves(old, old) == {"value": (0, 2, 0.0, 0.0), "oracle_value": (0, 2, 0.0, 0.0)}
    with pytest.raises(ValueError):
        field_moves(old, new + "beta_rd_db,a,1,1\n")
    with pytest.raises(ValueError):
        field_moves(old, new.replace(",0\n", ",0,1\n"))
