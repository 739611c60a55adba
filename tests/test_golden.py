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
and only from N = 5 on, and no golden runs N >= 5.  The ``quenched``
hashes (stdout and ``per_sample.csv``) and the ``verify`` hash were
re-recorded when the disorder sub-checks that cannot fail were removed
(the tail frequency against a concentration bound above 1, the ratio
E[Z^2]/E[Z]^2 >= 1 that Cauchy-Schwarz guarantees, and the replica
coupling at gamma = -lam, which is exp(0) = 1) and the Gaussian-Poincare
ratio Var(ln Z)/(2 lam (N-1) E[op]) took the tail's place: ``quenched``
lost its ``delta`` option, ``tail_frequency``, ``concentration_bound`` and
two verdicts, and gained ``poincare_ratio`` and ``poincare_le_one``;
``per_sample.csv`` changed only in its options echo, which lost
``delta=0.25``; ``verify`` changed only in its ``disorder`` and
``second_moment`` detail lines.  Four hashes (``exactdiag --n-spins 4``,
both ``annealed`` and ``quenched`` stdout) were re-recorded when the model
came to be stored as (n_spins, lam, beta_b) instead of (beta, v, b) with
beta = 1 and v = 2 sqrt(lam): each ``params`` block lost ``b``, ``beta``
and ``v``.  At lam = 0.1 nothing else moved.  ``quenched`` runs at
lam = 0.125, which the round trip (2 sqrt(lam))^2 / 4 had turned into
0.12500000000000003: its ``lam`` now reads 0.125, and ``poincare_ratio``
and ``second_moment_theory_bound``, the two numbers that read lam, moved
by at most 6.5e-16 relative (the ratio's value by 3.1e-16, its std_err by
6.5e-16, the bound by 2.0e-16).  ``per_sample.csv`` and every other hash
stayed as they were.  Three hashes (``constants``, ``region`` and
``variational`` stdout) were re-recorded when the last numerical options
with one production value became constants (``constants.N_MAX`` for
``n_max``, ``variational.FIXED_POINT_TOL`` and ``FIXED_POINT_MAX_ITER``
for ``tol`` and ``max_iter``) and ``fixed_point_solve`` came to refuse
2 lam >= 1 itself: ``constants`` lost ``n_max=64`` from its options echo,
``region`` lost it from both of its echoes (the advisory block has its
own), and ``variational`` lost ``max_iter`` and ``tol`` from
``meta.options`` and ``non_contractive`` (which cannot be true below
2 lam < 1) from ``report`` and ``verdicts``.  Every data row and number
stayed byte-identical; ``psi.json``, ``per_sample.csv`` and the other six
hashes stayed as they were.  The default
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
    "region": "70c6681d5b8775f18d4e2605ae4fe2ac5fe0d5a75b8d6afe0fd7c1615380ed26",
    "constants": "5fa1fb389283580d2826b76cb8ef91b2f5006f57094ccbb5a76265d452ceae9b",
    "static --lam-count 5":
        "e60ca8df6315fcb93349ecb11c6446fea6828b775c708083289f799bacc36d04",
    "exactdiag --n-spins 4":
        "5dd7c9ea23e5b3185b0cc38c403c7a33194d2743a4b317942c94317a0f56b205",
    "annealed --n-spins 2 --ensembles 4000":
        "aade97ae77dbda15ce501d45168a7448049f5d357241ecfbe1cc92adf4b25ce0",
    "annealed --n-spins 4 --ensembles 4000":
        "2706927a6ff9acf5dba28ed547638cf3368fc28f1659c7197a16cf3ea0bf8202",
    "variational --ensembles 5000 --m-cells 8 --psi-out psi.json":
        "6af5fa24b107fbbfe39ed17f0ba84d85aac032c2993f179634c6d224c9b954c4",
    "quenched --n-spins 4 --n-disorder 60 --per-sample-out per_sample.csv":
        "ff0b083096b23b315ce124e7b12858ea63249b5646bcdeade8661775fd15ad79",
    "verify --seed 777":
        "f309b5e91b03a7438ea2fd668f3fca31690ee22ff0331d36e10c19656deb5022",
}

#: files a command writes besides stdout, keyed like GOLDEN
GOLDEN_FILES = {
    "variational --ensembles 5000 --m-cells 8 --psi-out psi.json": {
        "psi.json":
            "c5fe43f0f31750f9c21fde6adde0fa485069549d8e1d9397ffba194c205471fc",
    },
    "quenched --n-spins 4 --n-disorder 60 --per-sample-out per_sample.csv": {
        "per_sample.csv":
            "a5b376416fdd373991e0f106c2bd041efadb495f741a0c990b1cc07eee87b164",
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
