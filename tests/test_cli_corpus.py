"""Byte-for-byte pins of CLI behaviour: every command of the corpus in
``tests/corpus.py`` run in process, and a few through the entry point in a
child.  ``python tests/corpus.py`` runs every pin as a child without pytest
and prints the current digest of each one that no longer matches.
"""

import pytest

from corpus import CORPUS, _digest, child_digest
from spongeheat.cli import run


@pytest.mark.parametrize("cmd", CORPUS)
def test_cli_output_pinned(cmd, tmp_path, monkeypatch, capsysbinary):
    monkeypatch.chdir(tmp_path)
    code = run(cmd.split())
    captured = capsysbinary.readouterr()
    assert _digest(cmd.split(), code, captured.out, captured.err) == CORPUS[cmd]


@pytest.mark.parametrize("cmd", [
    "table --max-n 6 --format text",
    "row --n 3 --format json",
    "voxel-verify --model menger --n 3",
    "crossover --format json",
    "series --max-n 6 --out series.csv",
    "mesh --model menger --n 2 --format obj --out mesh.obj",
    "frobnicate",
])
def test_cli_output_pinned_through_main(cmd, tmp_path):
    # the entry point in a fresh interpreter: what main adds around run (its
    # flush of stdout, the frozen collector, sys.exit) changes no byte
    assert child_digest(cmd, tmp_path) == CORPUS[cmd]
