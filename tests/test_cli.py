"""CLI tests: all subcommands, formats, exit codes, determinism."""

import json
import os
import signal
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import golden
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
    monkeypatch.setattr(metrics, "menger_volume", lambda n: Fraction(1, 2))
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
        monkeypatch.setattr(metrics, "menger_surface", lambda n: Fraction(1, 2))
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


def _assert_oracle_cap_unrecognized(capsys, caps):
    # no option moves a cap: --oracle-cap is gone from both commands that
    # took it, at any value, below n or not, so it is a usage error
    for argv in [["voxel-verify", "--model", "menger", "--n", "3"],
                 ["mesh", "--model", "menger", "--n", "3", "--out", "x.stl"]]:
        for cap in caps:
            assert run([*argv, "--oracle-cap", cap]) == 1
            assert capsys.readouterr() == ("", f"error: unrecognized arguments: "
                                               f"--oracle-cap {cap}\n")


def test_oracle_cap_upward_rejected(capsys):
    # the closed forms' cap and one above it: neither is an option any more
    _assert_oracle_cap_unrecognized(capsys, (str(metrics.CLOSED_FORM_CAP),
                                             str(metrics.CLOSED_FORM_CAP + 1)))


def test_oracle_cap_negative_rejected(capsys):
    _assert_oracle_cap_unrecognized(capsys, ("-1",))


def test_oracle_cap_lowered(capsys):
    # a cap below n no longer refuses n = 3: the option itself is refused
    _assert_oracle_cap_unrecognized(capsys, ("2",))


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
    sink = args[-1]
    sink.write(b"partial")
    raise OSError("disk full")


@pytest.mark.parametrize("argv,module,name", [
    (["mesh", "--model", "menger", "--n", "1", "--format", "stl"], mesh, "write_stl_binary"),
    (["mesh", "--model", "menger", "--n", "1", "--format", "obj"], mesh, "write_obj"),
    (["series"], analysis, "emit_csv"),
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


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGHUP, signal.SIGINT],
                         ids=["SIGTERM", "SIGHUP", "SIGINT"])
def test_signal_mid_export_leaves_no_file(signum, tmp_path):
    # the default action of SIGTERM and SIGHUP ends the process without
    # unwinding, which left the n = 5 sponge OBJ's temporary behind, and
    # SIGINT's KeyboardInterrupt printed a traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "spongeheat.cli", "mesh", "--model", "menger", "--n", "5",
            "--format", "obj", "--out", str(tmp_path / "m.obj")]
    child = subprocess.Popen(argv, env={**os.environ, "PYTHONPATH": path},
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
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
    assert child.returncode == 128 + signum
    assert (out, err) == ("", f"interrupted: {signum.name}\n")
    assert list(tmp_path.iterdir()) == []


_WRITERS = [
    pytest.param(["series"], analysis, "emit_csv", id="series"),
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
@pytest.mark.parametrize("long", ["a" * 246 + ".csv", "é" * 127], ids=["ascii", "utf8"])
def test_out_takes_a_long_legal_name(argv, module, name, long, tmp_path, capsys):
    # 250 and 254 bytes: legal names, whose temporaries would break the
    # 255-byte file-name limit without cutting
    assert len(long.encode()) in (250, 254)
    assert run([*argv, "--out", str(tmp_path / "short")]) == 0
    assert run([*argv, "--out", str(tmp_path / long)]) == 0, capsys.readouterr().err
    assert (tmp_path / long).read_bytes() == (tmp_path / "short").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([long, "short"])


def test_io_failure_exits_3(tmp_path, capsys, monkeypatch):
    # a bad --out is refused before any grid is built or the writer runs,
    # so nothing is written (the n = 5 sponge STL alone is 655 MB)
    def refuse(*args, **kwargs):
        raise AssertionError("no grid may be built and no writer may run")

    for module, name in [(voxel, "build_grid"), (mesh, "write_stl_binary"),
                         (analysis, "emit_csv")]:
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


def test_run_leaves_environment_untouched(monkeypatch, tmp_path, capsys):
    _unset_blas_threads(monkeypatch)
    before = dict(os.environ)
    assert run(["row", "--n", "1"]) == 0
    assert run(["mesh", "--model", "menger", "--n", "1", "--out", str(tmp_path / "m.stl")]) == 0
    assert dict(os.environ) == before
