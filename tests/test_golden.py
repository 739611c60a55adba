"""Golden outputs: deterministic CLI invocations keep byte-identical stdout.

The hashes were recorded before the bounds layer was vectorized, so a change
to any number these commands print shows up here.  The default region grid
starts at x = 0.05 (lam = 100), which exercises the N*lam > 700 branch of
G_N.  Update a hash only for a change that is meant to alter the output, and
say why in the commit.
"""

import hashlib

import pytest

from qsk import cli

GOLDEN = {
    "region": "3c6c8f3f3ff0330017e9049fbbbd41811851fb75371a6107219b780a14d2fd49",
    "constants": "2aaad3deb9b9c1b63e20114cac45eab08e0cf4931adce4128e6d57d068b47595",
    "static --lam-count 5":
        "6613a09f1e747c99bbdf2eb13fb6d75f49d1dd66520ec4b80c3fd4a16b899deb",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_golden_hash(command, capsys):
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
