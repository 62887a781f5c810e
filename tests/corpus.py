"""The pinned CLI corpus, and a check of it that needs no pytest.

Each command's exit code, stdout, stderr and the file it writes (if any)
are hashed together and compared with a sha256 pinned from a reference
build, so a refactor that changes any output byte fails.  Commands that
write a file run in a temporary working directory with a relative
``--out`` name, so the ``wrote <path>`` line is the same everywhere.
``tests/test_cli_corpus.py`` checks every pin under pytest.  Without it::

    python tests/corpus.py

runs each pin as a ``python -m spongeheat.cli`` child of the interpreter
that runs this file, on this checkout's ``src/``, in a fresh temporary
directory, and prints one line per pin: ``ok``; ``MISMATCH`` with the
current digest, to re-pin after an intended output change; or
``skipped`` for a mesh pin when that interpreter cannot import numpy.  It
exits 1 on any mismatch.  This file imports neither pytest nor the
package, so it runs on every Python the package supports.
"""
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: command line -> sha256 over (exit code, stdout, stderr, written file)
CORPUS = {
    "table --max-n 6 --format text": "237c842efa291f4dd6d64e5ee42bb304f082d22d0bfba59a50a83e1de79502a6",
    "row --n 3 --format text": "a7d9f35644205446477d9437ff27c636477a6d00ccc24f10c88901090a36de27",
    "table --max-n 6 --format csv": "9cb988712d1d8cbf8bbcb9521ad45da42a0654c409e68418680b66c2b4c5fea7",
    "row --n 3 --format csv": "ec989cb102c6cff20525a6c775fc4d01475dbe2cd8f1d24e0cc2f74407798930",
    "table --max-n 6 --format json": "a1309bbbed8d32dda863a03e7a91df5381903e5c98b3ab6f79976356005f2c8b",
    "row --n 3 --format json": "f57cf5622d9ccb4b299cb502c152600286f7bb25522c42164d257b2a47f90b1d",
    "crossover --format text": "e8811790ee93c09d814fe03574a9e4a0e3c5c48ba3596eb5ce60dd9a5257d3f1",
    "crossover --format json": "70d60fef70ec9edf34e378ab3cf6bc4f74b08c1b25455277300f2eb935529248",
    "series --max-n 6 --out series.csv": "1261cb8361c493dea063788613a73e47dcb06fa5c097c732b4a0f901e752eb58",
    "mesh --model menger --n 0 --format stl --out mesh.stl": "b88a61e1d1f8e575dd445f76f960971e3c139d57fe62a701e92b42795742bd18",
    "mesh --model menger --n 0 --format obj --out mesh.obj": "adc6e2e185b024050bcfb89585f9e23e2ff55654a99e9297dca75900f27c7f7e",
    "mesh --model menger --n 1 --format stl --out mesh.stl": "a3cbf86f081c44af4f6f1af2a8f8c1f7b793719d129f14f6a3a38ee596c891b9",
    "mesh --model menger --n 1 --format obj --out mesh.obj": "fcb18a63c3e5c65d6ddd6c9627e66372565035a6acec73b6dba7c8c2fb63ada4",
    "mesh --model menger --n 2 --format stl --out mesh.stl": "8c9a17043167a8313254b04d50ff81c9a90deb9fccf79a9fe5406d98be64c3cf",
    "mesh --model menger --n 2 --format obj --out mesh.obj": "a8e19e5f0faac9fbb05c5d10115a475f814b38efd1d9461d04222c3e9939ec61",
    "mesh --model menger --n 3 --format stl --out mesh.stl": "e2f048d4e23b612b65d4c0edfd03947f71049c6a4bb22c737516b71457522795",
    "mesh --model menger --n 3 --format obj --out mesh.obj": "1c35639fd21258c0e9b3542ef0902881022fd009c6b2eba8a34165efd9f87414",
    "mesh --model menger --n 4 --format stl --out mesh.stl": "d8778acc1b19a9de68b7322245e777f65985e4a1a1b19b1cb70e11014f247434",
    "mesh --model menger --n 4 --format obj --out mesh.obj": "27f3ada803027089c8935a119bc1cea593bfcd4bce9a48f52c0ece8088f51d6b",
    "mesh --model slices --n 0 --format stl --out mesh.stl": "b88a61e1d1f8e575dd445f76f960971e3c139d57fe62a701e92b42795742bd18",
    "mesh --model slices --n 0 --format obj --out mesh.obj": "adc6e2e185b024050bcfb89585f9e23e2ff55654a99e9297dca75900f27c7f7e",
    "mesh --model slices --n 1 --format stl --out mesh.stl": "525def028769d0d7d9036e5e4576f5b08dc89bf27ea2faf7fb43544c5e23808b",
    "mesh --model slices --n 1 --format obj --out mesh.obj": "533f1836d8b8e911243b16e358ffacbd217e4a20074c32ad6f446cb1442d426b",
    "mesh --model slices --n 2 --format stl --out mesh.stl": "0c5557f99b142ffde5faae4dd3524a90e469e562ecee61b21c6c117f009146db",
    "mesh --model slices --n 2 --format obj --out mesh.obj": "0ac5ed3c2c8015347d03cd0f705eadcfd492fa1ee7de69dbb9f04725c47759dc",
    "mesh --model slices --n 3 --format stl --out mesh.stl": "2dce89c42af26a8cc920429da5f42a78a9cd2a8b2c9871d921390665cd2e959f",
    "mesh --model slices --n 3 --format obj --out mesh.obj": "d3b4239d6b7186209283df9ac617ac4ab66293946aae3a43346cbe3fe1405160",
    "mesh --model slices --n 4 --format stl --out mesh.stl": "d2af59457a9c0f445a1249485f8d2bfde089b0d18c507a7cb24e4083355fcb50",
    # 45.3 MB: the largest tier-1 OBJ in which empty slabs meet the two-plane id window
    "mesh --model slices --n 4 --format obj --out mesh.obj": "b801e7b91b70c993dd26b2a57f5b73724eb51254aad473e0df4e375c0f9b8c50",
    # n = 12: S_s >= 10^5 prints at 0 decimals, efficiencies reach 10^-7
    "table --max-n 12 --format text": "8d59da7c821cea55ba1a1c785fba88d7dd405daef55a435088b603a78255cbe2",
    "table --max-n 12 --format csv": "c49997ee1a0a563fe56d24cbd669829043b5b1818c5804dc06cbbf69aee1a9bc",
    "table --max-n 12 --format json": "18e385271bccc0625124be0c5cae99c55854a052cdcc3e30c2f8f9e93566a10f",
    "crossover --max-n 12 --format text": "e8811790ee93c09d814fe03574a9e4a0e3c5c48ba3596eb5ce60dd9a5257d3f1",
    "crossover --max-n 12 --format json": "70d60fef70ec9edf34e378ab3cf6bc4f74b08c1b25455277300f2eb935529248",
    "series --max-n 12 --out series.csv": "136ca57174a3e3bd9e1293ed73cfbc2ce88a6e6457feaa9f0af136a59c2056bf",
    "row --n 13": "95b8b6cc531788dd714bd3e0090a3c712f8ad0efc93091812f6755339fe386be",
    # a crossover needs two points per series, and --max-n 0 gives one
    "crossover --max-n 0": "b8e4b04b53337c8eb629371536b2409a9c61aa2b4d756d4714871ade168fe079",
    # two points per series and no crossing: the text line and the JSON null
    "crossover --max-n 1": "7a78fc29576a6db4236d4c98b214c84409c6721943a89e52ff3ebd6fa69ab03f",
    "crossover --max-n 1 --format json": "ffc48988c69d409e3db7df10a5da56eb05ef916bf8ccdaa4e8f3d034f7620f2d",
    # one point per series or one row: the smallest CSV documents
    "series --max-n 0 --out series.csv": "21ce7d9110cd25d8013aede1bfd94dba3eb82cc7f9626d814a549ada87ba4c8e",
    "table --max-n 0 --format csv": "5ba610f6b72e40e8bfe61f7bcc4c02cc8e5661fbdcdd0ea381a301a71d1ac46c",
    # a removed option: argparse refuses it as an unrecognized argument
    "voxel-verify --model menger --n 3 --oracle-cap 2": "048855ba35017f853351d5793abb383a4261f83f2551f978c39c0f2747ccf726",
    "frobnicate": "a807ad85e9c797f585e3f2ecc9e2f28218c4e264cba3f8e7fb67af2e70c3f914",
    # usage errors raised inside a subparser: a bad type, a bad choice, an
    # extra positional
    "row --n x": "139fb9379c7d1036fbaad36714fd04c8ab2194b9ea840506fa2ae8638c08b994",
    "voxel-verify --model cube --n 1": "e9cd6266ff91e7a6ecc2cd4c78a560ee9a685bc5e15efdb2b251c15cca752755",
    "table --max-n 3 extra": "48e3b273fede6fe72b26316a14bef21d8fd40fe035c68452a765b3eb9d6a2645",
    # the oracle's report for a command that passes
    "voxel-verify --model menger --n 3": "3a2dbb1669e001a2c83c3a0ffead2e2ce239f6c2c56e04048e4b5572cede08de",
    "voxel-verify --model slices --n 3": "4a9114f842b4078cfa114ed39506baeb35bd8fafac6ea9ec01ce91bb8c8992ce",
    # n = 0: both models are the unit cube
    "voxel-verify --model slices --n 0": "6fc3e51346e77480053c25453aa3bf7f7f718efa1943944232af3af42b7b8827",
    "voxel-verify --model menger --n 0": "c629b53011f557a81359fd45701fdfebdd6bf49fff00189952b2c507388c1383",
}


def _digest(argv, code, out, err, cwd=os.curdir) -> str:
    """The sha256 of a finished command: its exit code, stdout and stderr
    bytes, and the file its ``--out`` names, if any, read from ``cwd``."""
    written = b""
    if "--out" in argv:
        with open(os.path.join(cwd, argv[argv.index("--out") + 1]), "rb") as fh:
            written = fh.read()
    h = hashlib.sha256()
    for part in (str(code).encode(), out, err, written):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def child_env() -> dict:
    """The environment for a child that runs this checkout's ``src/``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}


def child_digest(cmd: str, cwd) -> str:
    """The digest of ``cmd`` run in ``cwd`` as a ``python -m spongeheat.cli``
    child of this interpreter, on this checkout's ``src/``."""
    argv = cmd.split()
    child = subprocess.run([sys.executable, "-m", "spongeheat.cli", *argv], cwd=cwd,
                           env=child_env(), capture_output=True, timeout=60)
    return _digest(argv, child.returncode, child.stdout, child.stderr, cwd)


def main() -> int:
    try:
        import numpy  # noqa: F401  (only mesh needs it)
        has_numpy = True
    except ImportError:
        has_numpy = False
    mismatched = skipped = 0
    for cmd, pinned in CORPUS.items():
        if cmd.startswith("mesh ") and not has_numpy:
            print(f"skipped   {cmd} (no numpy)")
            skipped += 1
            continue
        with tempfile.TemporaryDirectory(prefix="spongeheat-corpus-") as cwd:
            digest = child_digest(cmd, cwd)
        if digest == pinned:
            print(f"ok        {cmd}")
        else:
            print(f"MISMATCH  {cmd}: current {digest}")
            mismatched += 1
    checked = len(CORPUS) - skipped
    print(f"{checked - mismatched} of {checked} pins match, {skipped} skipped "
          f"(Python {sys.version.split()[0]})")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
