"""Golden outputs: deterministic CLI invocations keep byte-identical output.

Each hash was recorded before the refactor it guards (the bounds layer
vectorization for ``region``, ``constants`` and ``static``; the API
subtraction for the rest), so a change to any number these commands print
shows up here.  The ``exactdiag``, ``quenched`` and ``verify`` hashes were
re-recorded when exact diagonalization moved to the two flip-parity blocks:
that reorders floating-point sums, which moved printed values by at most
5.3e-15 relative and changed no verdict.  The ``verify`` hash was
re-recorded once more when its checks moved into the registry that the
acceptance suite shares: each check now runs the union of the sub-checks
of its desk and full-scale copies, derives its sub-seeds by the acceptance
offsets, and prints a new detail line.  The two ``variational`` hashes
(stdout and ``psi.json``) were re-recorded when the fixed point's weighted
Gram products came to be summed over BATCH_SIZE chunks of paths instead of
in one product: against the full-matrix kernel (``tests/oracles.py``) the
kernel psi moved by at most 2.5e-14 relative (3.7e-15 absolute), Omega by
2.7e-15 and the cellwise errors by 4.5e-13.  The contraction ratios and the
residual norm, ratios and norms of updates near 1e-9, moved by up to 1.8e-6
and 5e-5 relative; no verdict changed.  The ``verify`` hash was
re-recorded when ``path_kernels`` began to compare path-MC Lambda of a
constant kernel with its quadrature: only that check's detail line
changed, gaining ``constant_kernel=ok``.  The default region grid starts
at x = 0.05 (lam = 100), which exercises the N*lam > 700 branch of G_N.
Commands run in a scratch directory under fixed relative file names,
because the options echoed in every output include those names.  Update a
hash only for a change that is meant to alter the output, and say why in
the commit.
"""

import hashlib

import pytest

from qsk import cli

GOLDEN = {
    "region": "3c6c8f3f3ff0330017e9049fbbbd41811851fb75371a6107219b780a14d2fd49",
    "constants": "2aaad3deb9b9c1b63e20114cac45eab08e0cf4931adce4128e6d57d068b47595",
    "static --lam-count 5":
        "6613a09f1e747c99bbdf2eb13fb6d75f49d1dd66520ec4b80c3fd4a16b899deb",
    "exactdiag --n-spins 4":
        "366be2df53493e6e2dfd96789769b12a608687700eeffaa195a9c1002df500aa",
    "annealed --n-spins 2 --ensembles 4000":
        "ff5e2d76edf195394474b4e764ddae369e93b97f66e990108d72c714f3beb327",
    "annealed --n-spins 4 --ensembles 4000":
        "52c63029faaf006d5db561dfbbe1d2ee69403ba22880946e00a7fd17c1cb3c80",
    "variational --ensembles 5000 --m-cells 8 --psi-out psi.json":
        "4d7fd41fbacd2c58215769ef459f905b0f9517635a8a8c39fde72ad0c70a7ab2",
    "quenched --n-spins 4 --n-disorder 60 --per-sample-out per_sample.csv":
        "2b85c3d64cccf471157136abb1e3209035e516ccf9c7d0fd5fac5d1b9539d645",
    "verify --seed 777":
        "1677c4a4e600f5fe3243b4a9d769e118669aad1a0b8b3b39ad8ae9db4ef05471",
}

#: files a command writes besides stdout, keyed like GOLDEN
GOLDEN_FILES = {
    "variational --ensembles 5000 --m-cells 8 --psi-out psi.json": {
        "psi.json":
            "59ae69a89acd191ec163655eafdd904602f47e818c795e9e56bf9de119577f39",
    },
    "quenched --n-spins 4 --n-disorder 60 --per-sample-out per_sample.csv": {
        "per_sample.csv":
            "c46348dfa2c853bf2e0de173a7250539a76df9bd388c61ab64d03973540959e6",
    },
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_matches_golden_hash(command, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out
    assert _sha256(out.encode()) == GOLDEN[command]
    for name, digest in GOLDEN_FILES.get(command, {}).items():
        assert _sha256((tmp_path / name).read_bytes()) == digest, name
