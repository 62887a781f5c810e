"""CI's child memory guards: each command runs as a ``python -m
spongeheat.cli`` child on this checkout's ``src/``; its exit code and peak
RSS (``ru_maxrss`` via ``os.wait4``) must meet the pair beside it::

    python tests/guards.py DIR    # the n = 5 meshes go under DIR

Both mesh writers stream, so 36 MB holds for files up to 1.45 GB; the
sponge's voxel line table has 3^n entries over 2^n int rows, the slices'
two; closed-form and refused commands load no numpy.  A child's
``ru_maxrss`` counts its parent's size at fork, so this file loads neither
numpy, the package nor OpenSSL."""
import os
import subprocess
import sys
import time
from pathlib import Path

from corpus import child_env


def guards(out: Path) -> list:
    def mesh(model, n, name, *fmt):
        return ["mesh", "--model", model, "--n", str(n), *fmt, "--out", str(out / name)]

    return [  # (argv, expected exit code, bound on peak RSS in MB)
        (mesh("menger", 5, "m5.stl"), 0, 36),
        (mesh("slices", 5, "s5.stl"), 0, 36),
        (mesh("menger", 5, "m5.obj", "--format", "obj"), 0, 36),
        (mesh("slices", 5, "s5.obj", "--format", "obj"), 0, 36),
        *((["voxel-verify", "--model", model, "--n", str(n)], 0, bound)
          for n, sponge, slices in ((6, 18, 18), (7, 18, 18), (10, 34, 20), (11, 90, 22),
                                    (12, 400, 28))
          for model, bound in (("menger", sponge), ("slices", slices))),
        (["table", "--max-n", "12", "--format", "json"], 0, 25),
        (["voxel-verify", "--model", "menger", "--n", "13"], 1, 18),
        (mesh("menger", 6, "m6.stl"), 1, 18),
    ]


def main(out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    failed = []
    for args, expected, bound in guards(out):
        started = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "spongeheat.cli", *args],
                                 stdout=subprocess.DEVNULL, env=child_env())
        _, status, usage = os.wait4(child.pid, 0)
        wall_s = time.perf_counter() - started
        code, peak_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
        print(f"{' '.join(args)}: exit {code} (expected {expected}), peak RSS "
              f"{peak_mb:.1f} MB (bound {bound}), wall {wall_s:.2f} s", flush=True)
        if code != expected or peak_mb >= bound:
            failed.append(args)
    if failed:
        sys.exit(f"failed: {failed}")


if __name__ == "__main__":
    main(Path(sys.argv[1]))
