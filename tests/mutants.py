"""Mutants that the tests must kill, and the runner that checks it.

Each mutant is one textual edit to a file under ``src/spongeheat/`` that
changes what the program does, with the test file that must then fail.
For each mutant the runner copies ``src/``, ``tests/``, ``README.md`` and
``pyproject.toml`` to a fresh temporary directory (so a test that starts
a child process from ``tests/../src`` runs the mutant too), checks that the
old text occurs exactly once in the copied file, applies the edit and runs
the named test file with ``pytest -x``.  A mutant survives when that run
passes.  The runner prints one line per mutant and exits 1 if any mutant
survives or any run ends other than in a test failure.  Run it from
anywhere, with pytest and hypothesis installed::

    python tests/mutants.py

The file name does not match ``test_*.py``, so the test suite does not
collect it.  An equivalent mutant (one that changes no output) has no place
in the list: no test can kill it.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # under src/spongeheat/
    old: str
    new: str
    test: str  # under tests/


MUTANTS = (
    # printed-precision formatting: every rendered decimal goes through
    # round_half_away, at a number of decimals the callers choose
    Mutant("rounding forgets its carry into the next power of ten", "analysis.py",
           "return e + (_half_up(mag * Fraction(10) ** (sig - 1 - e)) == 10**sig)",
           "return e", "test_analysis.py"),
    Mutant("exponent of an exact power of ten one too low", "analysis.py",
           "return e - 1 if mag < Fraction(10) ** e else e",
           "return e - 1 if mag <= Fraction(10) ** e else e", "test_analysis.py"),
    Mutant("decimals <= 0 scaled the wrong way", "analysis.py",
           "units = _half_up(abs(value) * Fraction(10) ** decimals)",
           "units = _half_up(abs(value) * Fraction(10) ** abs(decimals))", "test_analysis.py"),
    Mutant("decimals <= 0 drop their trailing zeros", "analysis.py",
           "return sign + str(units * 10**-decimals)",
           "return sign + str(units)", "test_analysis.py"),
    Mutant("0 decimals print a point", "analysis.py",
           "if decimals <= 0:", "if decimals < 0:", "test_analysis.py"),
    Mutant("fixed point loses its leading zero", "analysis.py",
           'digits = str(units).rjust(decimals + 1, "0")',
           'digits = str(units).rjust(decimals, "0")', "test_analysis.py"),
    Mutant("fixed point drops trailing zeros", "analysis.py",
           'return sign + digits[:-decimals] + "." + digits[-decimals:]',
           'return sign + digits[:-decimals] + "." + digits[-decimals:].rstrip("0")',
           "test_analysis.py"),
    Mutant("shorthand mantissa not renormalised after a carry", "analysis.py",
           "e = _rounded_exponent(abs(value), 5)", "e = _exponent(abs(value))",
           "test_analysis.py"),
    Mutant("shorthand mantissa at 5 decimals", "analysis.py",
           "round_half_away(value * 10**-e, 4)", "round_half_away(value * 10**-e, 5)",
           "test_analysis.py"),
    Mutant("CSV decimals at 11 significant digits", "analysis.py",
           "round_half_away(value, 9 - _rounded_exponent(abs(value), 10))",
           "round_half_away(value, 10 - _rounded_exponent(abs(value), 10))",
           "test_analysis.py"),
    Mutant("CSV decimals not renormalised after a carry", "analysis.py",
           "round_half_away(value, 9 - _rounded_exponent(abs(value), 10))",
           "round_half_away(value, 9 - _exponent(abs(value)))", "test_analysis.py"),
    Mutant("table L cell printed as a float", "analysis.py",
           '"L": str(row.L),', '"L": str(float(row.L)),', "test_analysis.py"),
    Mutant("JSON ratio loses its denominator", "analysis.py",
           '"ratio": str(value)}', '"ratio": str(value.numerator)}', "test_analysis.py"),
    Mutant("CSV without its final LF", "analysis.py",
           'return "\\n".join(lines) + "\\n"', 'return "\\n".join(lines)', "test_analysis.py"),
    Mutant("zero rendered with a minus sign", "analysis.py",
           'sign = "-" if value < 0 else ""', 'sign = "-" if value <= 0 else ""',
           "test_analysis.py"),
    # table rows: the ratios are composed from the row's own columns
    Mutant("R_E inverted", "analysis.py", "e_m / e_s", "e_s / e_m", "test_analysis.py"),
    Mutant("R_S inverted", "analysis.py", "s_m / s_s", "s_s / s_m", "test_analysis.py"),
    Mutant("R_n without its R_S factor", "analysis.py", "R_n=r_e * r_s", "R_n=r_e",
           "test_analysis.py"),
    # efficiency curves: each model's (S, E) columns of the table rows
    Mutant("the sponge curve paired with E_s", "analysis.py",
           "(row.S_M, row.E_M)", "(row.S_M, row.E_s)", "test_analysis.py"),
    Mutant("the two models' CSV labels swapped", "analysis.py",
           "labels = (ModelKind.MENGER_SPONGE.value, ModelKind.SLICES.value)",
           "labels = (ModelKind.SLICES.value, ModelKind.MENGER_SPONGE.value)", "test_analysis.py"),
    # crossover
    Mutant("a touch between two undercuts counts as the crossing", "analysis.py",
           "if d > 0 and undercut:", "if d >= 0 and undercut:", "test_analysis.py"),
    Mutant("a crossing on the last sample brackets past the series", "analysis.py",
           "i = min(bisect_right(ts, t) - 1, len(ts) - 2)",
           "i = min(bisect_right(ts, t) - 1, len(ts) - 1)", "test_analysis.py"),
    Mutant("series that share one surface value count as overlapping", "analysis.py",
           "if lo >= hi:", "if lo > hi:", "test_analysis.py"),
    Mutant("crossover text s_star at 9 significant digits", "analysis.py",
           "{report.s_star:.8g}", "{report.s_star:.9g}", "test_cli_corpus.py"),
    # command line
    Mutant("a failed write leaves its temporary", "cli.py",
           "os.remove(temporary)", "pass", "test_cli.py"),
    Mutant("the FAIL report lists every mismatching slab", "cli.py",
           "                break\n", "", "test_cli.py"),
    Mutant("--out links resolved lexically, folding a '..' after a file or a missing name",
           "cli.py",
           "    target = path\n"
           "    for _ in range(40):  # the kernel's limit on links followed\n"
           "        if not os.path.islink(target):\n"
           "            break\n"
           "        target = os.path.join(os.path.dirname(target), os.readlink(target))\n",
           "    target = os.path.realpath(path)\n", "test_cli.py"),
    Mutant("an --out link's text read from the working directory, not the link's", "cli.py",
           "target = os.path.join(os.path.dirname(target), os.readlink(target))",
           "target = os.readlink(target)", "test_cli.py"),
    Mutant("every failed import in mesh reported as a missing numpy", "cli.py",
           'if exc.name == "numpy" else exc', "if exc.name else exc", "test_cli.py"),
    Mutant("a symlink loop given as --out is let through", "cli.py",
           "if os.path.islink(target) or ", "if ", "test_cli.py"),
    Mutant("a 256-byte --out name is let through", "cli.py",
           "if len(os.fsencode(target_tail)) > 255:",
           "if len(os.fsencode(target_tail)) > 256:", "test_cli.py"),
    Mutant("a 255-byte --out name is refused", "cli.py",
           "if len(os.fsencode(target_tail)) > 255:",
           "if len(os.fsencode(target_tail)) >= 255:", "test_cli.py"),
    Mutant("table defaults to --max-n 7", "cli.py",
           'default=6)\n    p.add_argument("--format", choices=("text", "csv", "json")',
           'default=7)\n    p.add_argument("--format", choices=("text", "csv", "json")',
           "test_cli.py"),
    Mutant("series defaults to --max-n 7", "cli.py",
           'default=6)\n    p.add_argument("--out", required=True)',
           'default=7)\n    p.add_argument("--out", required=True)', "test_cli.py"),
    Mutant("main exits with the collector unfrozen", "cli.py",
           "    gc.freeze()\n", "", "test_cli.py"),
    Mutant("a stderr line that cannot be written escapes run and main", "cli.py",
           "_devnull(sys.stderr)", "raise", "test_cli.py"),
    # voxel oracle: the count the closed forms are checked against
    Mutant("+x exposure looks two cells ahead", "voxel.py",
           "for b in (row >> 1, row << 1, *nearby)]",
           "for b in (row >> 2, row << 1, *nearby)]", "test_voxel.py"),
    Mutant("z touching pairs compare a slab with itself", "voxel.py",
           "touching(below[r], above[r])", "touching(below[r], below[r])", "test_voxel.py"),
    Mutant("y touching pairs lose their repeat count", "voxel.py",
           "k * touching(a, row[b])", "touching(a, row[b])", "test_voxel.py"),
    Mutant("slab counts lose their row-class weights", "voxel.py",
           "weights[r] * solids[i]", "solids[i]", "test_voxel.py"),
    # closed forms
    Mutant("one plate too few", "metrics.py",
           "return 3**n // 2 + 1", "return 3**n // 2", "test_metrics.py"),
    Mutant("a sponge layer ignores its digits equal to 1", "metrics.py",
           "8 ** (n - k)", "8 ** n", "test_metrics.py"),
    Mutant("the sponge volume skips its range check on n", "metrics.py",
           "    n = check_iteration(n)\n    return Fraction(20, 27) ** n",
           "    return Fraction(20, 27) ** n", "test_metrics.py"),
    Mutant("the sponge surface skips its range check on n", "metrics.py",
           "    n = check_iteration(n)\n    return Fraction(1, 9)", "    return Fraction(1, 9)",
           "test_metrics.py"),
    Mutant("face counts skip the range check on n", "metrics.py",
           "    n = check_iteration(n)\n    if kind is ModelKind.SLICES:\n        rho",
           "    if kind is ModelKind.SLICES:\n        rho", "test_metrics.py"),
    Mutant("slab counts skip the range check on n", "metrics.py",
           "    n = check_iteration(n)\n    try:", "    try:", "test_metrics.py"),
    # meshes
    Mutant("OBJ ids of the lower z-plane not kept from the slab below", "mesh.py",
           "ids[:plane] = ids[plane:]", "ids[:plane] = 0", "test_mesh.py"),
    Mutant("OBJ second triangle of a quad starts at another corner", "mesh.py",
           "corners = np.take(np.take(ids, keys), _QUAD_TRIANGLES, axis=1)",
           "corners = np.take(np.take(ids, keys), [0, 1, 2, 2, 3, 0], axis=1)",
           "test_mesh.py"),
    Mutant("STL normals point into the solid", "mesh.py",
           '_NORMALS[:, None]', '-_NORMALS[:, None]', "test_mesh.py"),
    Mutant("row key takes the slab below for the slab above", "mesh.py",
           "cur[:-1], above, below)", "cur[:-1], below, above)", "test_mesh.py"),
    Mutant("row key takes the row at y - 1 for the row at y + 1", "mesh.py",
           "cur[1:] + (0,), (0,) + cur[:-1]", "(0,) + cur[:-1], cur[1:] + (0,)", "test_mesh.py"),
    Mutant("STL y corners gathered by the x rows", "mesh.py",
           "np.take(y_corners, yd, axis=0)", "np.take(y_corners, xd, axis=0)", "test_mesh.py"),
    Mutant("STL z corners upside down", "mesh.py",
           "coords[z + _TRIANGLES[..., 2]]", "coords[z + 1 - _TRIANGLES[..., 2]]",
           "test_mesh.py"),
    Mutant("chunk y rows lose their direction", "mesh.py",
           "ys[i:i + _CHUNK] + chunk - chunk // 6 * 6", "ys[i:i + _CHUNK]", "test_mesh.py"),
    Mutant("STL header announces one triangle too many", "mesh.py",
           'struct.pack("<I", m.triangle_count)', 'struct.pack("<I", m.triangle_count + 1)',
           "test_mesh.py"),
    Mutant("OBJ f lines go unchecked against the triangle count", "mesh.py",
           "if triangles != m.triangle_count:", "if False:", "test_mesh.py"),
    Mutant("lattice coordinates rounded through float16", "mesh.py",
           "(np.arange(res + 1) * (1.0 / res)).astype(np.float32)",
           "(np.arange(res + 1) * (1.0 / res)).astype(np.float16).astype(np.float32)",
           "test_mesh.py"),
    Mutant("OBJ v lines take z from the lower plane only", "mesh.py",
           "2 * side + z + dz), axis=1)", "2 * side + z), axis=1)", "test_mesh.py"),
    # f lines: digits at the widest id's width, shorter ids' leading zeros dropped
    Mutant("OBJ f lines end in a space, not LF", "mesh.py",
           "np.array([32, 32, 10], dtype=np.uint8)", "np.array([32, 32, 32], dtype=np.uint8)",
           "test_mesh.py"),
    Mutant("OBJ f line digits written in reverse order", "mesh.py",
           "for i in reversed(range(w)):", "for i in range(w):", "test_mesh.py"),
    Mutant("OBJ f lines one digit shorter than the widest keep a leading zero", "mesh.py",
           "if corners.min() < 10 ** (w - 1):", "if corners.min() < 10 ** (w - 2):",
           "test_mesh.py"),
    Mutant("OBJ f line ids that are an exact power of ten lose their leading 1", "mesh.py",
           "corners[..., None] < 10 **", "corners[..., None] <= 10 **", "test_mesh.py"),
    # 8 digits still round-trip every float32 coordinate up to n = 4, so
    # tier-1 sees it only in the pinned bytes; n = 5 has one that does not,
    # which CI's decode of the n = 5 OBJ against the STL catches
    Mutant("OBJ coordinates at 8 significant digits", "mesh.py",
           'f"{float(c):.9g}"', 'f"{float(c):.8g}"', "test_cli_corpus.py"),
)


def _copy_tree(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, into / name)


def run_mutant(mutant: Mutant) -> int:
    """The exit code of the mutant's test file run against the mutant: 1
    when a test fails (killed), 0 when every test passes (survived)."""
    with tempfile.TemporaryDirectory(prefix="spongeheat-mutant-") as scratch:
        tree = Path(scratch)
        _copy_tree(tree)
        target = tree / "src" / "spongeheat" / mutant.file
        text = target.read_text()
        found = text.count(mutant.old)
        if found != 1:
            raise ValueError(f"{mutant.name}: old text occurs {found} times in {mutant.file}")
        target.write_text(text.replace(mutant.old, mutant.new))
        path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                f"tests/{mutant.test}"]
        return subprocess.run(argv, cwd=tree, env={**os.environ, "PYTHONPATH": path},
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failed = []
    for mutant in MUTANTS:
        started = time.perf_counter()
        code = run_mutant(mutant)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"ERROR (pytest exit {code})")
        print(f"{verdict:8}  {time.perf_counter() - started:5.1f} s  {mutant.file}: "
              f"{mutant.name} ({mutant.test})", flush=True)
        if code != 1:
            failed.append(mutant.name)
    print(f"{len(MUTANTS) - len(failed)} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
