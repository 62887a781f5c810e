"""Command lists of the spongeheat benchmark workloads.

Each workload is a fixed list of ``spongeheat`` CLI argument vectors.  A
command that writes a file names it with ``--out`` under ``OUT_DIR``, a path
relative to the checkout root, so the ``wrote <path>`` line it prints is the
same in every checkout.  ``SMOKE`` holds the same kinds of commands with
every n <= 2, for checking the harness itself.

Two jobs are left out on purpose; see ``NOTES.md``: ``mesh --model slices
--n 5`` (about 29 M triangles, roughly 6 GB peak) and every ``mesh --n 6``
(accepted by the CLI, but out of memory).
"""
from __future__ import annotations

OUT_DIR = "perfbench/.work"


def _out(name: str) -> list[str]:
    return ["--out", f"{OUT_DIR}/{name}"]


def _closed_form(max_ns, row_ns) -> list[list[str]]:
    cmds = []
    for max_n in max_ns:
        for fmt in ("text", "csv", "json"):
            cmds.append(["table", "--max-n", str(max_n), "--format", fmt])
    for n in row_ns:
        for fmt in ("text", "json"):
            cmds.append(["row", "--n", str(n), "--format", fmt])
    for max_n in max_ns:
        for fmt in ("text", "json"):
            cmds.append(["crossover", "--max-n", str(max_n), "--format", fmt])
        cmds.append(["series", "--max-n", str(max_n), *_out(f"series{max_n}.csv")])
    return cmds


def _verify(jobs) -> list[list[str]]:
    return [["voxel-verify", "--model", model, "--n", str(n)] for model, n in jobs]


def _mesh(jobs) -> list[list[str]]:
    return [
        ["mesh", "--model", model, "--n", str(n), "--format", fmt,
         *_out(f"{model}{n}.{fmt}")]
        for model, n, fmt in jobs
    ]


WORKLOADS = {
    # Only cli, metrics and analysis do work: interpreter start and imports
    # dominate each command.
    "closed-form": _closed_form(max_ns=(6, 12), row_ns=range(13)),
    # voxel dominates (the n = 6 sponge build and both face counts); mesh idle.
    "oracle": _verify([("menger", 5), ("slices", 5), ("menger", 6), ("slices", 6)]),
    # mesh dominates; bulk binary STL beside text OBJ with vertex dedup.  The
    # sponge n = 5 STL (13.1 M triangles) sets the peak memory.
    "export": _mesh([
        ("menger", 4, "stl"), ("slices", 4, "stl"), ("menger", 5, "stl"),
        ("menger", 3, "obj"), ("menger", 4, "obj"),
    ]),
}

SMOKE = {
    "closed-form": _closed_form(max_ns=(2,), row_ns=range(3)),
    "oracle": _verify([(m, n) for m in ("menger", "slices") for n in range(3)]),
    "export": _mesh([
        (m, n, fmt) for m in ("menger", "slices") for n in (1, 2) for fmt in ("stl", "obj")
    ]),
}


def key(argv: list[str]) -> str:
    """The name a command's pinned expectation is stored under."""
    return " ".join(argv)


def out_path(argv: list[str]) -> str | None:
    """The file a command writes, relative to the checkout root, if any."""
    return argv[argv.index("--out") + 1] if "--out" in argv else None
