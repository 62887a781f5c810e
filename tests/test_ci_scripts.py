"""The CI scripts ``tests/guards.py`` and ``tests/mesh_bytes.py``, checked
without starting a child or writing any n = 5 mesh."""

import importlib
import sys

import guards
import mesh_bytes
from spongeheat import cli


def test_guard_commands_and_mesh_pins_stay_in_step(tmp_path, capsys, monkeypatch):
    commands = guards.guards(tmp_path)
    parser = cli.build_parser()
    for argv, _, _ in commands:
        parser.parse_args(argv)
    refused = [argv for argv, code, _ in commands if code == 1]
    assert [argv[0] for argv in refused] == ["voxel-verify", "mesh"]
    assert [cli.run(argv) for argv in refused] == [1, 1]
    assert capsys.readouterr().out == ""
    meshes = {argv[-1] for argv, code, _ in commands if argv[0] == "mesh" and code == 0}
    assert meshes == {str(tmp_path / name) for name in mesh_bytes.PINS}
    assert not any(tmp_path.iterdir())
    # a child's ru_maxrss counts its parent's size at fork: the guard script
    # and what it imports must load neither numpy, the package nor OpenSSL
    for name in list(sys.modules):
        if name.partition(".")[0] in ("numpy", "spongeheat", "hashlib"):
            monkeypatch.setitem(sys.modules, name, None)  # any import of it fails
        elif name in ("guards", "corpus"):
            monkeypatch.delitem(sys.modules, name)  # run again on import
    importlib.import_module("guards")
