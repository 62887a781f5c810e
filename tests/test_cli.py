"""CLI tests: all subcommands, formats, exit codes, determinism."""

import contextlib
import functools
import gc
import io
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golden
from corpus import child_env
from spongeheat import analysis, cli, mesh, metrics, voxel
from spongeheat.cli import build_parser, run


def test_table_text_matches_golden(capsys):
    assert run(["table", "--max-n", "6"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 8  # header + 7 rows
    assert lines[0].split() == list(golden.COLUMNS)
    for n in range(7):
        cells = lines[n + 1].split()
        expected = [golden.expected_cell(n, col) for col in golden.COLUMNS]
        assert cells == expected


def test_table_deterministic(capsys):
    run(["table", "--max-n", "4"])
    first = capsys.readouterr().out
    run(["table", "--max-n", "4"])
    assert capsys.readouterr().out == first


def test_table_csv(capsysbinary):
    assert run(["table", "--max-n", "2", "--format", "csv"]) == 0
    lines = capsysbinary.readouterr().out.decode("utf-8").splitlines()
    assert lines[0] == "n,rho,L,V_M,V_s,S_M,S_s,V_tot,E_M,E_s,R_E,R_S,R_n"
    assert len(lines) == 4


def test_table_json(capsysbinary):
    assert run(["table", "--max-n", "1", "--format", "json"]) == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["rows"][1]["V_M"] == {"decimal": "0.7407407407", "ratio": "20/27"}


def test_row(capsys):
    assert run(["row", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "3.3633(-2)" in out and "2.3960(-2)" in out


def test_voxel_verify_pass(capsys):
    assert run(["voxel-verify", "--model", "menger", "--n", "3"]) == 0
    out, err = capsys.readouterr()
    assert "PASS" in out and "V=0.4064" in out and "S=24.7572" in out
    assert out.count("MATCH") == 2
    assert err == ""  # the face report is printed on failure only


def test_voxel_verify_slices(capsys):
    assert run(["voxel-verify", "--model", "slices", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "V=0.5556" in out
    for model in ("menger", "slices"):  # CI runs n = 12, the closed forms' cap
        assert run(["voxel-verify", "--model", model, "--n", "7"]) == 0
        assert f"PASS model={model} n=7" in capsys.readouterr().out


def test_voxel_verify_mismatch_exits_2(capsys, monkeypatch):
    volume = metrics.model_volume  # a fault in the sponge's volume only
    monkeypatch.setattr(metrics, "model_volume", lambda kind, n: (
        Fraction(1, 2) if kind is metrics.ModelKind.MENGER_SPONGE else volume(kind, n)))
    assert run(["voxel-verify", "--model", "menger", "--n", "1"]) == 2
    out, err = capsys.readouterr()
    assert "FAIL" in out and "MISMATCH" in out
    # the per-direction face report and the slab report follow on stderr; a
    # volume fault in the closed form leaves every direction and slab matching
    assert err.splitlines() == [f"faces {d}: oracle 12  expected 12  MATCH"
                                for d in ("+x", "-x", "+y", "-y", "+z", "-z")] + [
                                "slabs: all 3 MATCH"]

    # plant an oracle fault in one direction: one +z face too few
    measure = voxel.measure

    def faulty_measure(g):
        slabs, faces = measure(g)
        faces[4] -= 1
        return slabs, faces

    monkeypatch.setattr(voxel, "measure", faulty_measure)
    assert run(["voxel-verify", "--model", "slices", "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert "surface:" in out and "FAIL model=slices n=2" in out
    lines = err.splitlines()
    assert len(lines) == 7
    assert [line for line in lines if line.endswith("MISMATCH")] == [
        "faces +z: oracle 404  expected 405  MISMATCH"]
    assert "faces -z: oracle 405  expected 405  MATCH" in lines
    assert "faces +x: oracle 45  expected 45  MATCH" in lines
    assert lines[-1] == "slabs: all 9 MATCH"
    monkeypatch.setattr(voxel, "measure", measure)

    # plant a slab fault in the oracle grid: clear cell (0, 0) of plate z = 4
    # only.  Positions 0 and 4 get ids 2 and 3 of their own, each a copy of
    # the plate id 0 as a slab and as a class, so every other row keeps its
    # line; slab 3 (z = 4) stores class 2 (y = 0) as line 1, the plate
    # without cell 0
    build = voxel.build_grid

    def build_grid(kind, n):
        g = build(kind, n)
        assert (g.resolution, g.table) == (9, ({0: 0, 1: 0}, {}))
        (full,) = g.lines
        plate = {0: 0, 1: 0, 2: 0, 3: 0}
        return g._replace(lines=(full, full & ~1),
                          table=(plate, {}, plate, {**plate, 2: 1}),
                          index=(2, 1, 0, 1, 3, 1, 0, 1, 0))

    monkeypatch.setattr(voxel, "build_grid", build_grid)
    assert run(["voxel-verify", "--model", "slices", "--n", "2"]) == 2
    out, err = capsys.readouterr()
    assert "volume : closed 5/9  oracle 404/729  MISMATCH" in out
    lines = err.splitlines()
    assert len(lines) == 7
    assert lines[-1] == "slab z=4: oracle 80  expected 81  MISMATCH"


@pytest.mark.parametrize("fault", [False, True])
def test_voxel_verify_counts_faces_once(fault, capsys, monkeypatch):
    # one count serves the volume, the surface and, on FAIL, the direction
    # and slab reports: the grid is measured once and its solid cells are
    # summed once
    if fault:
        monkeypatch.setattr(metrics, "model_surface", lambda kind, n: Fraction(1, 2))
    calls = []

    def counted(name):
        count = getattr(voxel, name)

        def wrapper(g):
            calls.append(name)
            return count(g)
        return wrapper

    for name in ("measure", "slab_counts"):
        monkeypatch.setattr(voxel, name, counted(name))
    assert run(["voxel-verify", "--model", "menger", "--n", "2"]) == (2 if fault else 0)
    out, err = capsys.readouterr()
    assert ("FAIL model=menger n=2" in out) == fault
    assert len(err.splitlines()) == (7 if fault else 0)
    assert calls == ["measure", "slab_counts"]


def test_crossover_text(capsys):
    assert run(["crossover"]) == 0
    out = capsys.readouterr().out
    assert "27.914022" in out
    assert "log-linear" in out
    assert "menger n in [3, 4]" in out


def test_crossover_json(capsysbinary):
    assert run(["crossover", "--format", "json"]) == 0
    doc = json.loads(capsysbinary.readouterr().out)
    assert doc["crossover"]["bracket"]["slices"] == [2, 3]
    assert float(doc["crossover"]["s_star"]) == pytest.approx(27.914022, rel=1e-6)


def test_crossover_none(capsys):
    assert run(["crossover", "--max-n", "1"]) == 0
    assert "no crossover" in capsys.readouterr().out


def test_crossover_none_json(capsysbinary):
    assert run(["crossover", "--max-n", "1", "--format", "json"]) == 0
    assert json.loads(capsysbinary.readouterr().out) == {"crossover": None}


def test_series(tmp_path, capsys):
    out_path = tmp_path / "series.csv"
    assert run(["series", "--max-n", "6", "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "model,n,S,E"
    assert len(lines) == 15  # header + 7 menger + 7 slices
    assert sum(line.startswith("menger,") for line in lines) == 7
    assert sum(line.startswith("slices,") for line in lines) == 7


@pytest.mark.parametrize("command", ["table", "series"])
def test_max_n_defaults_to_6(command, tmp_path, monkeypatch, capsys):
    # crossover's default is pinned in the CLI corpus
    monkeypatch.chdir(tmp_path)
    out = ["--out", "out.csv"] if command == "series" else []
    outputs = []
    for max_n in ([], ["--max-n", "6"]):
        assert run([command, *max_n, *out]) == 0
        written = Path("out.csv").read_bytes() if out else b""
        outputs.append((capsys.readouterr().out, written))
    assert outputs[0] == outputs[1]


def test_mesh_stl(tmp_path, capsys):
    out_path = tmp_path / "sponge.stl"
    assert run(["mesh", "--model", "menger", "--n", "1", "--format", "stl",
                "--out", str(out_path)]) == 0
    assert out_path.stat().st_size == 7284
    assert "144 triangles" in capsys.readouterr().out


def test_mesh_obj(tmp_path, capsys):
    out_path = tmp_path / "cube.obj"
    assert run(["mesh", "--model", "menger", "--n", "0", "--format", "obj",
                "--out", str(out_path)]) == 0
    lines = out_path.read_text().splitlines()
    assert sum(line.startswith("v ") for line in lines) == 8
    assert sum(line.startswith("f ") for line in lines) == 12


def test_mesh_deterministic_files(tmp_path, capsys):
    a, b = tmp_path / "a.stl", tmp_path / "b.stl"
    run(["mesh", "--model", "slices", "--n", "2", "--out", str(a)])
    run(["mesh", "--model", "slices", "--n", "2", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# -- error paths -------------------------------------------------------------------

def test_usage_error_no_command(capsys):
    assert run([]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_error_unknown_flag(capsys):
    assert run(["table", "--bogus"]) == 1


def test_usage_error_bad_model(capsys):
    assert run(["voxel-verify", "--model", "cube", "--n", "1"]) == 1


@pytest.mark.parametrize("argv", [["voxel-verify", "--model", "menger", "--n", "3"],
                                  ["mesh", "--model", "menger", "--n", "3", "--out", "x.stl"]],
                         ids=["voxel-verify", "mesh"])
@pytest.mark.parametrize("cap", [str(metrics.CLOSED_FORM_CAP), str(metrics.CLOSED_FORM_CAP + 1),
                                 "-1", "2"])
def test_oracle_cap_unrecognized(capsys, argv, cap):
    # no option moves a cap: --oracle-cap is gone from both commands that
    # took it, at any value (the closed forms' cap, one above it, a negative
    # one, one below n), so it is a usage error
    assert run([*argv, "--oracle-cap", cap]) == 1
    assert capsys.readouterr() == ("", f"error: unrecognized arguments: --oracle-cap {cap}\n")


def test_iteration_out_of_range(capsys):
    assert run(["row", "--n", "13"]) == 1
    assert run(["table", "--max-n", "13"]) == 1


def test_mesh_above_cap(capsys):
    assert run(["mesh", "--model", "menger", "--n", "7", "--out", "x.stl"]) == 1


def test_mesh_cap_refuses_n6_before_building(monkeypatch, capsys):
    def build_grid(*args, **kwargs):
        raise AssertionError("build_grid must not run above the mesh cap")

    monkeypatch.setattr(voxel, "build_grid", build_grid)
    assert run(["mesh", "--model", "menger", "--n", "6", "--out", "x.stl"]) == 1
    assert "capped at n = 5" in capsys.readouterr().err


def test_caps_have_one_home_in_metrics(capsys):
    # the grid refuses what the CLI refuses, with the message the CLI prints:
    # the oracle accepts every n the closed forms accept, under one cap
    cap = metrics.CLOSED_FORM_CAP
    assert run(["voxel-verify", "--model", "menger", "--n", str(cap + 1)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: iteration order {cap + 1} outside [0, {cap}]\n"
    for kind in metrics.ModelKind:
        with pytest.raises(metrics.IterationOutOfRangeError) as refused:
            voxel.build_grid(kind, cap + 1)
        assert err == f"error: {refused.value}\n"
    parser = build_parser()
    for argv in [["voxel-verify", "--model", "menger", "--n", "1"],
                 ["mesh", "--model", "menger", "--n", "1", "--out", "x.stl"]]:
        assert "oracle_cap" not in vars(parser.parse_args(argv))  # no cap is settable
    assert run(["mesh", "--model", "menger", "--n", str(metrics.MESH_CAP + 1),
                "--out", "x.stl"]) == 1
    assert f"capped at n = {metrics.MESH_CAP}," in capsys.readouterr().err
    # two caps, both in metrics: the oracle has none of its own
    assert {name for name in vars(metrics) if name.endswith("_CAP")} == {"CLOSED_FORM_CAP",
                                                                         "MESH_CAP"}
    assert not [name for module in (voxel, mesh) for name in vars(module)
                if name.endswith("_CAP")]


def _fail_midway(*args):
    # a mesh writer fails after writing its first bytes; the series
    # renderer, which runs while the temporary is open, before writing any
    if hasattr(args[-1], "write"):
        args[-1].write(b"partial")
    raise OSError("disk full")


@pytest.mark.parametrize("argv,module,name", [
    (["mesh", "--model", "menger", "--n", "1", "--format", "stl"], mesh, "write_stl_binary"),
    (["mesh", "--model", "menger", "--n", "1", "--format", "obj"], mesh, "write_obj"),
    (["series"], analysis, "series_csv"),
])
def test_failed_write_leaves_no_file(argv, module, name, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(module, name, _fail_midway)
    target = tmp_path / "out"
    assert run([*argv, "--out", str(target)]) == 3
    assert "disk full" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_write_replaces_existing_file(tmp_path, capsys):
    target = tmp_path / "sponge.stl"
    target.write_bytes(b"old")
    assert run(["mesh", "--model", "menger", "--n", "1", "--out", str(target)]) == 0
    assert target.stat().st_size == 7284
    assert [p.name for p in tmp_path.iterdir()] == ["sponge.stl"]


def _signal_mid_export(signum, tmp_path, env, stderr):
    """(exit code, stdout, stderr) of the n = 5 sponge OBJ export sent
    ``signum`` once its temporary exists."""
    argv = [sys.executable, "-m", "spongeheat.cli", "mesh", "--model", "menger", "--n", "5",
            "--format", "obj", "--out", str(tmp_path / "m.obj")]
    child = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True)
    try:
        deadline = time.monotonic() + 60
        while not any(tmp_path.iterdir()):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        assert [p.name for p in tmp_path.iterdir()] == [f".m.obj.{child.pid}.tmp"]
        child.send_signal(signum)
        out, err = child.communicate(timeout=60)
    finally:
        child.kill()  # nothing to do once it has exited
        child.wait(timeout=60)
    return child.returncode, out, err


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP, signal.SIGINT],
                         ids=["SIGTERM", "SIGHUP", "SIGINT"])
def test_signal_mid_export_leaves_no_file(signum, tmp_path):
    # the default action of SIGTERM and SIGHUP ends the process without
    # unwinding, which left the n = 5 sponge OBJ's temporary behind, and
    # SIGINT's KeyboardInterrupt printed a traceback
    assert _signal_mid_export(signum, tmp_path, child_env(), subprocess.PIPE) == (
        128 + signum, "", f"interrupted: {signum.name}\n")
    assert list(tmp_path.iterdir()) == []


_WRITERS = [
    pytest.param(["series"], analysis, "series_csv", id="series"),
    pytest.param(["mesh", "--model", "menger", "--n", "1"], mesh, "write_stl_binary", id="mesh"),
]


@pytest.mark.parametrize("argv,module,name", _WRITERS)
def test_out_refuses_a_special_file(argv, module, name, tmp_path, capsys, monkeypatch):
    # the rename into place would swap a FIFO or a device for a regular
    # file: an existing --out that is not a regular file is refused before
    # any work, and stays what it was
    def refuse(*args, **kwargs):
        raise AssertionError("no writer may run")

    monkeypatch.setattr(module, name, refuse)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    assert run([*argv, "--out", str(fifo)]) == 3
    assert capsys.readouterr() == ("", f"i/o error: --out must name a regular file: "
                                       f"{str(fifo)!r}\n")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]


@pytest.mark.parametrize("argv,module,name", _WRITERS)
def test_out_refuses_a_symlink_loop(argv, module, name, tmp_path, capsys, monkeypatch):
    # a loop neither exists nor is a regular file, and the rename into place
    # would swap the link for a regular file: it is refused before any work,
    # and both links stay as they were
    def refuse(*args, **kwargs):
        raise AssertionError("no grid may be built and no writer may run")

    for patched_module, patched_name in [(voxel, "build_grid"), (module, name)]:
        monkeypatch.setattr(patched_module, patched_name, refuse)
    a, b = tmp_path / "a", tmp_path / "b"
    a.symlink_to(b)
    b.symlink_to(a)
    assert run([*argv, "--out", str(a)]) == 3
    assert capsys.readouterr() == ("", f"i/o error: --out must name a regular file: "
                                       f"{str(a)!r}\n")
    assert (os.readlink(a), os.readlink(b)) == (str(b), str(a))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a", "b"]


@pytest.mark.parametrize("argv,module,name", _WRITERS)
def test_out_writes_through_a_symlink(argv, module, name, tmp_path, capsys):
    # the link stays a link, and the file it names gets the new bytes
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"old")
    link.symlink_to(target)
    assert run([*argv, "--out", str(link)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {link} (")
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert run([*argv, "--out", str(tmp_path / "plain")]) == 0
    assert target.read_bytes() == (tmp_path / "plain").read_bytes() != b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "plain", "target"]


@pytest.mark.parametrize("argv,module,name", _WRITERS)
@pytest.mark.parametrize("long", ["a" * 246 + ".csv", "é" * 127, "a" * 251 + ".csv"],
                         ids=["ascii", "utf8", "ascii255"])
def test_out_takes_a_long_legal_name(argv, module, name, long, tmp_path, capsys):
    # 250, 254 and 255 bytes: legal names, whose temporaries would break the
    # 255-byte file-name limit without cutting
    assert len(long.encode()) in (250, 254, 255)
    assert run([*argv, "--out", str(tmp_path / "short")]) == 0
    assert run([*argv, "--out", str(tmp_path / long)]) == 0, capsys.readouterr().err
    assert (tmp_path / long).read_bytes() == (tmp_path / "short").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([long, "short"])


def test_io_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a bad --out is refused before any grid is built or the writer runs,
    # so nothing is written (the n = 5 sponge STL alone is 653 MB)
    def refuse(*args, **kwargs):
        raise AssertionError("no grid may be built and no writer may run")

    for module, name in [(voxel, "build_grid"), (mesh, "write_stl_binary"),
                         (analysis, "series_csv")]:
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "existing").mkdir()
    missing = tmp_path / "no" / "such" / "dir"
    for argv in [["series"], ["mesh", "--model", "menger", "--n", "1"]]:
        for out in [str(missing / "out.csv"), "no/such/out.csv", "existing/no/out.csv"]:
            assert run([*argv, "--out", out]) == 3, (argv, out)
            err = capsys.readouterr().err
            assert "--out" in err and repr(out.rpartition("/")[0]) in err, err
            assert ".tmp" not in err, err
        for out in ["existing", str(tmp_path / "existing"), "existing/", "fresh/", "", ".",
                    "a" * 256]:
            assert run([*argv, "--out", out]) == 3, (argv, out)
            assert "--out" in capsys.readouterr().err
        # a symlink is written through, so its target's directory must exist
        (tmp_path / "link").symlink_to(missing / "out.csv")
        assert run([*argv, "--out", "link"]) == 3
        assert "--out links into a directory" in capsys.readouterr().err
        (tmp_path / "link").unlink()
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["existing"]


def _tree(top) -> dict:
    """Every entry under ``top``, by path: a link's text, a regular file's
    bytes, or the file type of any other entry."""
    entries = {}
    for head, dirs, files in os.walk(top):
        for name in dirs + files:
            path = os.path.join(head, name)
            mode = os.lstat(path).st_mode
            entries[path] = (os.readlink(path) if stat.S_ISLNK(mode) else
                             Path(path).read_bytes() if stat.S_ISREG(mode) else
                             stat.S_IFMT(mode))
    return entries


@pytest.mark.parametrize("argv,module,name", _WRITERS)
@pytest.mark.parametrize("make,link", [
    (lambda root: (root / "x").touch(), "x/../y"),
    (lambda root: (root / "d").mkdir(), "d/missing/../f"),
], ids=["dotdot-after-a-file", "dotdot-after-a-missing-name"])
def test_out_refuses_a_link_the_kernel_cannot_follow(argv, module, name, make, link, tmp_path,
                                                     capsys, monkeypatch):
    # the kernel takes a link's ".." after the name before it, and fails on
    # a file (ENOTDIR) or a missing name (ENOENT); folded lexically, the link
    # got nothing and a file that no one named was written
    def refuse(*args, **kwargs):
        raise AssertionError("no grid may be built and no writer may run")

    for patched_module, patched_name in [(voxel, "build_grid"), (module, name)]:
        monkeypatch.setattr(patched_module, patched_name, refuse)
    make(tmp_path)
    (tmp_path / "link").symlink_to(link)
    before = _tree(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--out", "link"]) == 3
    assert capsys.readouterr() == (
        "", "i/o error: --out links into a directory that does not exist: 'link'\n")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("argv,module,name", _WRITERS)
def test_out_writes_through_a_chain_of_links(argv, module, name, tmp_path, capsys, monkeypatch):
    # l4 -> l3 -> d/f2: each link is followed in turn, and both stay links
    monkeypatch.chdir(tmp_path)
    os.mkdir("d")
    os.symlink("d/f2", "l3")
    os.symlink("l3", "l4")
    assert run([*argv, "--out", "l4"]) == 0
    assert capsys.readouterr().out.startswith("wrote l4 (")
    assert (os.readlink("l4"), os.readlink("l3")) == ("l3", "d/f2")
    assert run([*argv, "--out", "plain"]) == 0
    assert Path("d/f2").read_bytes() == Path("plain").read_bytes()
    assert sorted(_tree(".")) == ["./d", "./d/f2", "./l3", "./l4", "./plain"]


# 1, 254, 255 and 256 bytes: the last is too long for any file name
_NAMES = ["a", "b", "c", "é" * 127, "y" * 255, "z" * 256]
# a path as (components, absolute): for a link's text and for --out
_PATHS = st.tuples(st.lists(st.sampled_from([*_NAMES, ".", ".."]), min_size=1, max_size=3),
                   st.booleans())


@st.composite
def _trees(draw):
    """Entries to make in turn, as (where, kind, link text), each named
    once, in the root or in a directory drawn before it, and an --out that
    names one of the links half the time."""
    entries, dirs = {}, [[]]
    for _ in range(draw(st.integers(0, 8))):
        where = [*draw(st.sampled_from(dirs)), draw(st.sampled_from(_NAMES))]
        kind = draw(st.sampled_from(["file", "dir", "fifo", "link"]))
        if tuple(where) not in entries:
            entries[tuple(where)] = (where, kind, draw(_PATHS))
            if kind == "dir":
                dirs.append(where)
    entries = list(entries.values())
    links = [where for where, kind, _ in entries if kind == "link"]
    if links and draw(st.booleans()):
        return entries, (draw(st.sampled_from(links)), draw(st.booleans()))
    return entries, draw(_PATHS)


def _path(root, parts, absolute) -> str:
    return os.path.join(root, *parts) if absolute else os.path.join(*parts)


def _make_tree(root, entries) -> None:
    """Make ``entries`` under ``root``, skipping those that cannot be made."""
    os.makedirs(root)
    for where, kind, text in entries:
        if any(os.path.islink(os.path.join(root, *where[:i])) for i in range(1, len(where))):
            continue  # nothing is made through a link, so every link lies in the tree
        entry = os.path.join(root, *where)
        with contextlib.suppress(OSError):  # a missing parent, a taken name, a long one
            if kind == "file":
                with open(entry, "xb") as sink:
                    sink.write(b"old")
            elif kind == "dir":
                os.mkdir(entry)
            elif kind == "fifo":
                os.mkfifo(entry)
            else:
                os.symlink(_path(root, *text), entry)


@functools.cache
def _series_reference() -> bytes:
    """The bytes that ``series --max-n 0`` writes to a plain path."""
    with tempfile.TemporaryDirectory() as top, contextlib.redirect_stdout(io.StringIO()):
        assert run(["series", "--max-n", "0", "--out", os.path.join(top, "series.csv")]) == 0
        return Path(top, "series.csv").read_bytes()


def _kernel_writes(path) -> bool:
    """Whether the kernel opens ``path`` for writing as a regular file;
    O_NONBLOCK makes a FIFO without a reader fail with ENXIO, not block."""
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_NONBLOCK)
    except OSError:
        return False
    try:
        return stat.S_ISREG(os.fstat(fd).st_mode)
    finally:
        os.close(fd)


@settings(max_examples=300, deadline=None)
@given(_trees())
@example(([(["a"], "link", (["b"], False))], (["a"], False)))
@example(([(["a"], "dir", (["a"], False)), (["a", "b"], "link", (["c"], False))],
          (["a", "b"], False)))
def test_out_is_written_where_the_kernel_would_write_it(tree):
    # the kernel is the oracle: on a copy of the tree, --out opens for writing
    # as a regular file exactly when the command exits 0; it then reads back
    # the bytes, and one file changed; on exit 3 nothing changed.  The tree
    # lies four levels down, so that a link's ".." stays in the temporary
    entries, out = tree
    with tempfile.TemporaryDirectory() as top, pytest.MonkeyPatch.context() as patch:
        run_top, probe_top = os.path.join(top, "run"), os.path.join(top, "probe")
        root, probe = (os.path.join(at, "u1", "u2", "u3", "u4", "t") for at in (run_top, probe_top))
        for at in (root, probe):
            _make_tree(at, entries)
        writable = _kernel_writes(os.path.join(probe, _path(probe, *out)))
        before = _tree(run_top)
        writes = []
        series_csv = analysis.series_csv
        patch.setattr(analysis, "series_csv", lambda *a: writes.append(a) or series_csv(*a))
        patch.chdir(root)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(["series", "--max-n", "0", "--out", _path(root, *out)])
        after = _tree(run_top)
        if writable:
            data = _series_reference()
            assert (code, stdout.getvalue(), stderr.getvalue()) == (
                0, f"wrote {_path(root, *out)} ({len(data)} bytes)\n", "")
            assert Path(root, _path(root, *out)).read_bytes() == data
            changed = [path for path in {*before, *after} if before.get(path) != after.get(path)]
            assert [after[path] for path in changed] == [data]
        else:
            assert code == 3 and not writes
            assert (stdout.getvalue(), stderr.getvalue().count("\n")) == ("", 1)
            assert stderr.getvalue().startswith("i/o error: --out ")
            assert after == before


def test_mesh_without_numpy_is_one_error_line(tmp_path):
    # a source tree may lack numpy, which only mesh loads: one line and exit
    # 1, after the --out check, so nothing is written; any other failed
    # import still surfaces with its traceback
    def mesh_with(missing):
        code = (f"import sys; sys.modules[{missing!r}] = None; "
                "from spongeheat.cli import main; main()")
        return subprocess.run([sys.executable, "-c", code, "mesh", "--model", "menger", "--n", "1",
                               "--out", "m1.stl"], cwd=tmp_path, env=child_env(),
                              capture_output=True, text=True, timeout=60)

    child = mesh_with("numpy")
    assert (child.returncode, child.stdout, child.stderr) == (
        1, "", "error: mesh needs numpy: import of numpy halted; None in sys.modules\n")
    child = mesh_with("spongeheat.voxel")
    assert child.returncode == 1 and "Traceback" in child.stderr
    assert child.stderr.endswith("ModuleNotFoundError: import of spongeheat.voxel halted; "
                                 "None in sys.modules\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    pytest.param(["table", "--max-n", "3"], id="table"),
    pytest.param(["voxel-verify", "--model", "menger", "--n", "2"], id="voxel-verify"),
    pytest.param(["crossover"], id="crossover-text"),
    pytest.param(["series", "--out", "{tmp}/series.csv"], id="series"),
    pytest.param(["mesh", "--model", "menger", "--n", "1", "--out", "{tmp}/m1.stl"], id="mesh"),
])
def test_closed_stdout_is_an_io_error(argv, tmp_path, capsys, monkeypatch):
    # an interpreter started with fd 1 closed has sys.stdout None, where a
    # bare print writes nothing: every command refuses before any work, so
    # no report is lost and no file is written
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with monkeypatch.context() as patch:
        patch.setattr("sys.stdout", None)
        assert run(argv) == 3
    assert capsys.readouterr() == ("", "i/o error: stdout is closed\n")
    assert not any(tmp_path.iterdir())


def _block_buffered_env() -> dict:
    # PYTHONUNBUFFERED would hide what a failed flush does
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    return env


@contextlib.contextmanager
def _pipe_with_no_reader():
    """The write end of a pipe whose read end is closed before it is
    handed to a child, so that the child cannot race the close."""
    read, write = os.pipe()
    os.close(read)
    try:
        yield write
    finally:
        os.close(write)


@pytest.mark.parametrize("argv", [
    pytest.param(["table", "--max-n", "3"], id="table"),
    pytest.param(["row", "--n", "3", "--format", "json"], id="row-json"),
    pytest.param(["voxel-verify", "--model", "menger", "--n", "2"], id="voxel-verify"),
    pytest.param(["crossover"], id="crossover-text"),
    pytest.param(["crossover", "--format", "json"], id="crossover-json"),
    pytest.param(["series", "--out", "{tmp}/series.csv"], id="series"),
    pytest.param(["mesh", "--model", "menger", "--n", "1", "--out", "{tmp}/m1.stl"], id="mesh"),
    pytest.param(["--help"], id="help"),
])
def test_closed_pipe_is_an_io_error(argv, tmp_path):
    # a block-buffered print into a pipe whose reader has gone fails only
    # when stdout is flushed, which used to be at exit (exit 120 and an
    # "Exception ignored" report)
    with _pipe_with_no_reader() as stdout:
        child = subprocess.run([sys.executable, "-m", "spongeheat.cli",
                                *(arg.format(tmp=tmp_path) for arg in argv)],
                               env=_block_buffered_env(), stdout=stdout,
                               stderr=subprocess.PIPE, text=True, timeout=60)
    assert (child.returncode, child.stderr) == (3, "i/o error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv,code", [
    pytest.param(["row", "--n", "13"], 1, id="usage"),
    pytest.param(["frobnicate"], 1, id="argparse"),
    pytest.param(["mesh", "--model", "menger", "--n", "1", "--out", "{tmp}/no/m.stl"], 3,
                 id="io"),
])
def test_gone_stderr_keeps_the_exit_code(argv, code, tmp_path):
    # the error line into a stderr pipe whose reader has gone raised out of
    # run, and main then exited 120 (an UnboundLocalError, then a failed
    # flush at exit)
    with _pipe_with_no_reader() as stderr:
        child = subprocess.run([sys.executable, "-m", "spongeheat.cli",
                                *(arg.format(tmp=tmp_path) for arg in argv)],
                               env=_block_buffered_env(), stdout=subprocess.PIPE,
                               stderr=stderr, text=True, timeout=60)
    assert (child.returncode, child.stdout) == (code, "")


def test_gone_stderr_keeps_the_signal_exit_code(tmp_path):
    # the interrupted line failed the same way
    with _pipe_with_no_reader() as stderr:
        got = _signal_mid_export(signal.SIGTERM, tmp_path, _block_buffered_env(), stderr)
    assert got == (143, "", None)
    assert list(tmp_path.iterdir()) == []


def test_help_exits_0(capsys):
    assert run(["--help"]) == 0
    assert "table" in capsys.readouterr().out


def _main_code(monkeypatch, argv) -> int:
    monkeypatch.setattr("sys.argv", ["spongeheat", *argv])
    # main installs SIGTERM, SIGHUP and SIGINT handlers: give this process
    # its own back
    handlers = {signum: signal.getsignal(signum)
                for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT)}
    try:
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
    finally:
        for signum, handler in handlers.items():
            signal.signal(signum, handler)
        gc.unfreeze()  # and main freezes the collector: thaw this process's heap
    return exit_info.value.code


def _unset_blas_threads(monkeypatch):
    # set first: undoing the setenv removes whatever the test leaves there,
    # while a delenv of an unset name would record nothing to undo
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")


def test_main_sets_one_blas_thread_when_unset(monkeypatch, capsys):
    # numpy's OpenBLAS worker pool is never used
    _unset_blas_threads(monkeypatch)
    assert _main_code(monkeypatch, ["row", "--n", "1"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_main_keeps_the_users_blas_threads(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
    assert _main_code(monkeypatch, ["row", "--n", "1"]) == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "4"


def test_main_freezes_the_collector(monkeypatch, capsys):
    # so that the interpreter's final collections skip every object left alive
    frozen = []
    exit = sys.exit

    def counted_exit(code):
        frozen.append(gc.get_freeze_count())
        exit(code)

    monkeypatch.setattr("sys.exit", counted_exit)
    assert _main_code(monkeypatch, ["row", "--n", "1"]) == 0
    assert len(frozen) == 1 and frozen[0] > 0
    assert gc.get_freeze_count() == 0


def test_run_leaves_environment_untouched(monkeypatch, tmp_path, capsys):
    _unset_blas_threads(monkeypatch)
    before = dict(os.environ), gc.get_freeze_count(), gc.isenabled()
    assert run(["row", "--n", "1"]) == 0
    assert run(["mesh", "--model", "menger", "--n", "1", "--out", str(tmp_path / "m.stl")]) == 0
    assert (dict(os.environ), gc.get_freeze_count(), gc.isenabled()) == before
