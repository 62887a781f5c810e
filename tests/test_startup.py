"""Start-up cost: only ``mesh`` imports numpy.  The closed-form commands,
the voxel oracle and every refused command run without it.

Each case runs ``cli.run(argv)`` in a fresh interpreter, because this test
process has already imported numpy through the other test modules.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# prints the exit code and whether numpy was loaded as the last stdout line
_CHILD = """\
import sys
from spongeheat.cli import run
code = run(sys.argv[1:])
sys.stdout.flush()
print(code, "numpy" in sys.modules)
"""


def _run_fresh(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()[-1].split()
    return int(code), loaded == "True"


@pytest.mark.parametrize("argv,expected_code", [
    pytest.param(["table", "--max-n", "12", "--format", "json"], 0, id="table"),
    pytest.param(["row", "--n", "3"], 0, id="row"),
    pytest.param(["crossover", "--max-n", "6", "--format", "json"], 0, id="crossover"),
    pytest.param(["series", "--max-n", "6", "--out", "{tmp}/series.csv"], 0, id="series"),
    pytest.param(["voxel-verify", "--model", "menger", "--n", "1"], 0, id="voxel-verify-menger-1"),
    pytest.param(["voxel-verify", "--model", "slices", "--n", "1"], 0, id="voxel-verify-slices-1"),
    pytest.param(["voxel-verify", "--model", "menger", "--n", "6"], 0, id="voxel-verify-menger-6"),
    pytest.param(["voxel-verify", "--model", "slices", "--n", "6"], 0, id="voxel-verify-slices-6"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["row", "--n", "13"], 1, id="usage-error"),
    pytest.param(["mesh", "--model", "menger", "--n", "6", "--out", "{tmp}/m6.stl"], 1,
                 id="mesh-above-cap"),
    pytest.param(["mesh", "--model", "menger", "--n", "1", "--out", "{tmp}/missing/m1.stl"], 3,
                 id="mesh-missing-dir"),
])
def test_closed_form_and_refused_commands_never_import_numpy(argv, expected_code, tmp_path):
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _run_fresh(argv) == (expected_code, False)


def test_mesh_imports_numpy(tmp_path):
    assert _run_fresh(["mesh", "--model", "slices", "--n", "1", "--out", f"{tmp_path}/m1.stl"]) \
        == (0, True)
