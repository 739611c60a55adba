"""Golden outputs: deterministic CLI invocations keep byte-identical output.

A change to any number these commands print shows up here.  Commands run
in a scratch directory under fixed relative file names, because the
options echoed in every output include those names.  Update a hash only
for a change that is meant to alter the output, and say why in the commit
and in CHANGES.md, which keeps the history of every re-recording.  The
default region grid starts at x = 0.05 (lam = 100), which exercises the
N*lam > 700 branch of G_N.
"""

import hashlib

import pytest

from qsk import cli

GOLDEN = {
    "region": "aaa4f0924f16a5ad9eb8015fedb109247164893e995799c716baeb3cfc98402b",
    "constants": "b1458dc76a3ab8937a2b2c0224beb6e0fd4da4337308556ab77b184baccc3cbe",
    "static --lam-count 5":
        "1b94db7dcd14bdadc4ea0bd826fc332318076cc72a3e4d8182fd25790df854a5",
    "exactdiag --n-spins 4":
        "daac29c2140da09d930e4e23835d1029970e57d0632b0164e63b5d32569019e8",
    "annealed --n-spins 2 --ensembles 4000":
        "aade97ae77dbda15ce501d45168a7448049f5d357241ecfbe1cc92adf4b25ce0",
    "annealed --n-spins 4 --ensembles 4000":
        "2706927a6ff9acf5dba28ed547638cf3368fc28f1659c7197a16cf3ea0bf8202",
    "variational --ensembles 5000 --m-cells 8":
        "2b3b0d75c18be2e3ea896b35d8de41ea4a55aa7b4b44d66a5620a2b83bcaec6f",
    "quenched --n-spins 4 --n-disorder 60 --per-sample-out per_sample.csv":
        "ff0b083096b23b315ce124e7b12858ea63249b5646bcdeade8661775fd15ad79",
    "verify --seed 777":
        "f309b5e91b03a7438ea2fd668f3fca31690ee22ff0331d36e10c19656deb5022",
}

#: files a command writes besides stdout, keyed like GOLDEN
GOLDEN_FILES = {
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
