"""Start-up cost: each command loads only the modules it needs.  Only
``mesh`` imports numpy; only ``--format json`` imports json; no command
imports dataclasses, and none but ``mesh`` (through numpy) imports inspect.
Only a ``voxel-verify`` or ``mesh`` that passed its checks loads
``spongeheat.voxel``, and ``mesh`` never loads ``spongeheat.analysis``.

Each case runs ``cli.run(argv)`` in a fresh interpreter, because this test
process has already imported numpy through the other test modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints, as the last stdout line, the exit code and the top-level modules and
# spongeheat submodules that importing the CLI and running it added to those
# loaded at start-up
_CHILD = """\
import sys
before = set(sys.modules)
from spongeheat.cli import run
code = run(sys.argv[1:])
sys.stdout.flush()
added = set(sys.modules) - before
print(code, *sorted({name.partition(".")[0] for name in added}
                    | {name for name in added if name.startswith("spongeheat.")}))
"""


def _run_fresh(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.splitlines()[-1].split()
    return int(code), set(loaded)


@pytest.mark.parametrize("argv,expected_code", [
    pytest.param(["table", "--max-n", "12", "--format", "json"], 0, id="table"),
    pytest.param(["table", "--max-n", "3", "--format", "csv"], 0, id="table-csv"),
    pytest.param(["row", "--n", "3"], 0, id="row"),
    pytest.param(["row", "--n", "3", "--format", "json"], 0, id="row-json"),
    pytest.param(["crossover", "--max-n", "6", "--format", "json"], 0, id="crossover"),
    pytest.param(["crossover", "--max-n", "6"], 0, id="crossover-text"),
    pytest.param(["series", "--max-n", "6", "--out", "{tmp}/series.csv"], 0, id="series"),
    pytest.param(["voxel-verify", "--model", "menger", "--n", "1"], 0, id="voxel-verify-menger-1"),
    pytest.param(["voxel-verify", "--model", "slices", "--n", "1"], 0, id="voxel-verify-slices-1"),
    pytest.param(["voxel-verify", "--model", "menger", "--n", "6"], 0, id="voxel-verify-menger-6"),
    pytest.param(["voxel-verify", "--model", "slices", "--n", "6"], 0, id="voxel-verify-slices-6"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["row", "--n", "13"], 1, id="usage-error"),
    pytest.param(["voxel-verify", "--model", "menger", "--n", "13"], 1,
                 id="voxel-verify-above-cap"),
    pytest.param(["voxel-verify", "--model", "menger", "--n", "3", "--oracle-cap", "2"], 1,
                 id="voxel-verify-unrecognized-option"),
    pytest.param(["mesh", "--model", "menger", "--n", "6", "--out", "{tmp}/m6.stl"], 1,
                 id="mesh-above-cap"),
    pytest.param(["mesh", "--model", "menger", "--n", "-1", "--out", "{tmp}/m.stl"], 1,
                 id="mesh-negative-n"),
    pytest.param(["mesh", "--model", "menger", "--n", "3", "--oracle-cap", "2",
                  "--out", "{tmp}/m3.stl"], 1, id="mesh-unrecognized-option"),
    pytest.param(["mesh", "--model", "menger", "--n", "1", "--out", "{tmp}/missing/m1.stl"], 3,
                 id="mesh-missing-dir"),
])
def test_closed_form_and_refused_commands_never_import_numpy(argv, expected_code, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, loaded = _run_fresh(argv)
    assert code == expected_code
    assert "spongeheat" in loaded  # the probe sees the package's own imports
    assert not loaded & {"numpy", "dataclasses", "inspect"}
    assert ("json" in loaded) == ("json" in argv)
    # the oracle is imported only once a voxel-verify has passed its checks
    assert ("spongeheat.voxel" in loaded) == (argv[0] == "voxel-verify" and code == 0)
    # every command that ran formats its results through analysis
    if code == 0:
        assert ("spongeheat.analysis" in loaded) == (argv[0] != "--help")


def test_mesh_imports_numpy(tmp_path):
    code, loaded = _run_fresh(["mesh", "--model", "slices", "--n", "1",
                               "--out", f"{tmp_path}/m1.stl"])
    assert code == 0
    assert {"numpy", "spongeheat.voxel", "spongeheat.mesh"} <= loaded
    assert "spongeheat.analysis" not in loaded
    # numpy brings inspect with it; the package itself adds neither
    # dataclasses nor json
    assert not loaded & {"dataclasses", "json"}
