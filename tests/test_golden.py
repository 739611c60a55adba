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
changed, gaining ``constant_kernel=ok``.  The two ``variational`` hashes
were re-recorded once more when the jumpless paths came to be carried as
one weighted atom (one form <w, psi w> and one rank-one Gram term) instead
of as equal rows of the signed-length matrix: against the previous output
psi moved by at most 2.3e-14 relative, Omega by 3.4e-15 (its std_err by
9.7e-15), psi_std_err by 1.4e-13, the contraction ratios by 3.0e-7 and
the residual norm (1.26e-10) by 4.6e-5; no verdict changed.  Six hashes
(``region``, ``constants``, ``static --lam-count 5``, both ``annealed`` and
``variational`` stdout) were re-recorded when the ``quad_nodes`` and
``with_static`` options were removed: their options echo lost
``quad_nodes=64`` (and ``with_static``), and with those entries taken out
of the earlier output the new output is byte-identical; ``psi.json`` and
every other hash stayed as they were.  The ``verify`` hash was
re-recorded when ``path_kernels`` began to scale each ``mu`` comparison by
the exact variance 1 - mu^2 of the +-1 products instead of their sample
variance, which is 0 (and ended ``verify --seed 2550`` in a division by
zero) when no path jumps between t and t': only its ``worst_z`` moved,
from 1.30 to 1.29.  The two ``variational`` hashes were re-recorded
when the forms and Gram products came to be computed from each path's
jump cells (``paths.CellTerms``) instead of from a dense (paths x M)
signed-length matrix: against the previous output psi moved by at most
1.5e-15 relative (2.8e-16 absolute), psi_std_err by 5.4e-15 relative,
Omega's std_err by 3.3e-19 (its value not at all), the contraction ratios
by 2.6e-8 relative, the residual norm (1.26e-10) by 6.8e-7 relative and
the start_gap verdict value by 2.8e-17; no verdict changed, and
``verify --seed 777`` did not move.  No hash was re-recorded when
``gibbs_zz`` came to read its entry of ``gibbs_zz_matrix`` (whose
symmetrized sum rounds differently) and ``exactdiag`` to print beta f_N as
-ln Z / N: only ``exactdiag``'s ``gibbs_zz_12`` moved, by at most 1.7e-16
and only from N = 5 on, and no golden runs N >= 5.  The default
region grid starts at x = 0.05 (lam = 100), which exercises the
N*lam > 700 branch of G_N.
Commands run in a scratch directory under fixed relative file names,
because the options echoed in every output include those names.  Update a
hash only for a change that is meant to alter the output, and say why in
the commit.
"""

import hashlib

import pytest

from qsk import cli

GOLDEN = {
    "region": "7d09cd3e6266fc74641c9742a177d4c194b998f020673d6784b3cead8431164c",
    "constants": "cbeadb3475dacd2d4e52c282e65dcfde7dee2af4549f915cc9696de5872c92d4",
    "static --lam-count 5":
        "e60ca8df6315fcb93349ecb11c6446fea6828b775c708083289f799bacc36d04",
    "exactdiag --n-spins 4":
        "366be2df53493e6e2dfd96789769b12a608687700eeffaa195a9c1002df500aa",
    "annealed --n-spins 2 --ensembles 4000":
        "6f0fe4405c8ed196309b27b6516a5c6e6c0615bea5d22c744450eb42ac204c5d",
    "annealed --n-spins 4 --ensembles 4000":
        "1dc4693f834d369b932a708f0db6e94f994af8313b1bc356b0accc8dfadbb52f",
    "variational --ensembles 5000 --m-cells 8 --psi-out psi.json":
        "1cbd0ba10c66f3f005390ec593239648e0650cef75693db705474038f9ff82d0",
    "quenched --n-spins 4 --n-disorder 60 --per-sample-out per_sample.csv":
        "2b85c3d64cccf471157136abb1e3209035e516ccf9c7d0fd5fac5d1b9539d645",
    "verify --seed 777":
        "0561e0ca696e8529991d15de0e30f8c11e20a5d8b95d5dc0f79f22dafd19ae27",
}

#: files a command writes besides stdout, keyed like GOLDEN
GOLDEN_FILES = {
    "variational --ensembles 5000 --m-cells 8 --psi-out psi.json": {
        "psi.json":
            "c5fe43f0f31750f9c21fde6adde0fa485069549d8e1d9397ffba194c205471fc",
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
