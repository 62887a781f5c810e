"""Command-line interface.

Subcommands: table, row, voxel-verify, crossover, series, mesh.
Exit codes: 0 success, 1 usage error, 2 voxel-verify mismatch, 3 I/O failure,
128 + signum when SIGTERM (143), SIGHUP (129) or SIGINT (130) ends the command.
Identical argv produces byte-identical output.  Commands that write a file
write it beside the target under a temporary name and rename it into place,
so a failure or one of those signals never leaves a truncated file behind;
nothing is synced to disk, so an OS crash can.  An existing --out must be a
regular file, or a symlink to one, which then stays a link and gets the new
bytes.
"""
from __future__ import annotations

import argparse
import gc
import os
import signal
import sys

# Only the closed forms are imported here.  Each command imports the rest of
# what it uses: analysis, which renders each report as one string, by the
# five that print results, never by mesh, and voxel and mesh by the two that
# use them, after their checks, so closed-form and refused commands neither
# compile nor import them (and only mesh loads numpy).
from . import metrics


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad usage; 2 is reserved for
    # verification mismatches here, so route usage problems to exit 1.
    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    models = sorted(kind.value for kind in metrics.ModelKind)
    parser = _Parser(prog="spongeheat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table",
                       help="print the reference table for n = 0..max-n")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(run=_cmd_table)

    p = sub.add_parser("row", help="print a single table row")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(run=_cmd_row)

    p = sub.add_parser("voxel-verify",
                       help="check closed-form volume/surface against the voxel oracle")
    p.add_argument("--model", choices=models, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_voxel_verify)

    p = sub.add_parser("crossover",
                       help="locate where the sponge efficiency curve overtakes the slice curve")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(run=_cmd_crossover)

    p = sub.add_parser("series",
                       help="write the efficiency-vs-surface series of both models as CSV")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_series)

    p = sub.add_parser("mesh",
                       help="export a voxelized geometry as a triangle mesh")
    p.add_argument("--model", choices=models, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("stl", "obj"), default="stl")
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_mesh)

    return parser


def _check_out(path: str) -> str:
    """Refuse an ``--out`` that names a directory, an existing file that is
    not a regular one (a FIFO, a device or a symlink loop, which the rename
    would replace), a file in, or linked into, a directory the kernel cannot
    reach, or a file name over 255 bytes; else return the file to write.
    Commands call this before any other work."""
    head, tail = os.path.split(path)
    if not tail or os.path.isdir(path):
        raise IsADirectoryError(f"--out must name a file, not a directory: {path!r}")
    target = path
    for _ in range(40):  # the kernel's limit on links followed
        if not os.path.islink(target):
            break
        target = os.path.join(os.path.dirname(target), os.readlink(target))
    if os.path.islink(target) or os.path.exists(path) and not os.path.isfile(path):
        raise OSError(f"--out must name a regular file: {path!r}")
    if head and not os.path.isdir(head):
        raise FileNotFoundError(f"--out directory does not exist: {head!r}")
    target_head, target_tail = os.path.split(target)
    if not os.path.isdir(target_head or os.curdir):
        raise FileNotFoundError(f"--out links into a directory that does not exist: {path!r}")
    if len(os.fsencode(target_tail)) > 255:
        raise OSError(f"--out file name is longer than 255 bytes: {path!r}")
    return target


def _write_file(target: str, write) -> int:
    """Call ``write(sink)`` on a fresh temporary file beside ``target``, then
    rename it to ``target``; on any failure, remove it.  ``target`` is what
    :func:`_check_out` returned: ``--out`` with the links at its end followed
    one at a time, as the kernel does, and its directories left to the
    kernel, so the link stays.  The temporary is ``.NAME.PID.tmp``, NAME cut
    by whole characters until it fits the 255-byte file-name limit."""
    head, tail = os.path.split(target)
    suffix = f".{os.getpid()}.tmp"
    while len(os.fsencode(f".{tail}{suffix}")) > 255:
        tail = tail[:-1]
    temporary = os.path.join(head, f".{tail}{suffix}")
    sink = open(temporary, "xb")
    try:
        with sink:
            nbytes = write(sink)
        os.replace(temporary, target)
    except BaseException:
        os.remove(temporary)
        raise
    return nbytes


def _print_table(fmt: str, rows) -> int:
    from . import analysis

    print(getattr(analysis, f"table_{fmt}")(rows), end="")
    return 0


def _cmd_table(args) -> int:
    from . import analysis

    return _print_table(args.format, analysis.full_table(args.max_n))


def _cmd_row(args) -> int:
    from . import analysis

    return _print_table(args.format, [analysis.table_row(args.n)])


def _cmd_voxel_verify(args) -> int:
    metrics.check_iteration(args.n)
    from . import analysis, voxel

    kind = metrics.ModelKind(args.model)
    grid = voxel.build_grid(kind, args.n)
    closed_v = metrics.model_volume(kind, args.n)
    closed_s = metrics.model_surface(kind, args.n)
    slabs, faces = voxel.measure(grid)  # counted once: the FAIL report reuses them
    oracle_v = sum(slabs) * grid.voxel_edge**3
    oracle_s = voxel.count_exposed_faces(grid, faces) * grid.voxel_edge**2
    dec_v, dec_s = analysis.format_fixed(closed_v), analysis.format_fixed(closed_s)
    ok = closed_v == oracle_v and closed_s == oracle_s
    print(f"volume : closed {closed_v}  oracle {oracle_v}  "
          f"{'MATCH' if closed_v == oracle_v else 'MISMATCH'}")
    print(f"surface: closed {closed_s}  oracle {oracle_s}  "
          f"{'MATCH' if closed_s == oracle_s else 'MISMATCH'}")
    print(f"{'PASS' if ok else 'FAIL'} model={args.model} n={args.n} V={dec_v} S={dec_s}")
    if not ok:
        expected = metrics.model_face_counts(kind, args.n)
        for d, oracle, closed in zip(metrics.DIRECTIONS, faces, expected):
            _report(f"faces {d}: oracle {oracle}  expected {closed}  "
                    f"{'MATCH' if oracle == closed else 'MISMATCH'}")
        # then the first z-slab whose solid count differs from its closed form
        for z, oracle in enumerate(slabs):
            closed = metrics.model_slab_count(kind, args.n, z)
            if oracle != closed:
                _report(f"slab z={z}: oracle {oracle}  expected {closed}  MISMATCH")
                break
        else:
            _report(f"slabs: all {grid.resolution} MATCH")
    return 0 if ok else 2


def _cmd_crossover(args) -> int:
    from . import analysis

    sponge = analysis.efficiency_series(metrics.ModelKind.MENGER_SPONGE, args.max_n)
    slabs = analysis.efficiency_series(metrics.ModelKind.SLICES, args.max_n)
    try:
        report = analysis.find_crossover(sponge, slabs)
    except analysis.NoCrossoverError as exc:
        report = exc
    print(getattr(analysis, f"crossover_{args.format}")(report), end="")
    return 0


def _cmd_series(args) -> int:
    target = _check_out(args.out)
    from . import analysis

    series = [
        analysis.efficiency_series(metrics.ModelKind.MENGER_SPONGE, args.max_n),
        analysis.efficiency_series(metrics.ModelKind.SLICES, args.max_n),
    ]
    nbytes = _write_file(target, lambda sink: sink.write(analysis.series_csv(series).encode()))
    print(f"wrote {args.out} ({nbytes} bytes)")
    return 0


def _cmd_mesh(args) -> int:
    target = _check_out(args.out)
    kind = metrics.ModelKind(args.model)
    if args.n > metrics.MESH_CAP:
        raise ValueError(f"mesh export is capped at n = {metrics.MESH_CAP}, got {args.n}")
    metrics.check_iteration(args.n)
    # imported only after the refusals above, so a refused export loads no numpy
    try:
        from . import mesh, voxel
    except ModuleNotFoundError as exc:
        raise ValueError(f"mesh needs numpy: {exc}") if exc.name == "numpy" else exc

    grid = voxel.build_grid(kind, args.n)
    buffer = mesh.mesh_from_grid(grid)
    writer = mesh.write_stl_binary if args.format == "stl" else mesh.write_obj
    nbytes = _write_file(target, lambda sink: writer(buffer, sink))
    print(f"wrote {args.out} ({nbytes} bytes, {buffer.triangle_count} triangles)")
    return 0


def _devnull(stream) -> None:
    # what the stream could not write stays buffered, and the flush at exit
    # would fail on it again: send it, and all that follows, to devnull
    os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


def _report(line: str) -> None:
    """Print one line to stderr, or, when stderr cannot take it (a pipe whose
    reader has gone), send stderr to devnull: the exit code stays the same."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        _devnull(sys.stderr)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # an interpreter started with fd 1 closed has no sys.stdout, and a
        # bare print to None writes nothing: refuse before any work is done
        if sys.stdout is None:
            raise OSError("stdout is closed")
        return args.run(args)
    except ValueError as exc:
        _report(f"error: {exc}")
        return 1
    except OSError as exc:
        _report(f"i/o error: {exc}")
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


class _Terminated(BaseException):
    """Raised by the SIGTERM, SIGHUP and SIGINT handler of :func:`main`;
    carries the signal number."""


def _terminate(signum, frame):
    raise _Terminated(signum)


def main() -> None:
    # numpy, which only ``mesh`` loads, starts an OpenBLAS worker pool on
    # import; nothing here calls BLAS, so skip the pool unless the user has
    # asked for one.  ``run`` leaves the environment and the signal handlers
    # alone for library callers
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # the default action of SIGTERM and SIGHUP ends the process without
    # unwinding, and SIGINT's KeyboardInterrupt prints a traceback; as one
    # exception they let _write_file remove its temporary and end in one line
    for signum in (signal.SIGTERM, signal.SIGHUP, signal.SIGINT):
        signal.signal(signum, _terminate)
    try:
        code = run()
        # a print into a pipe whose reader has gone fails here, not at exit
        if sys.stdout is not None:
            sys.stdout.flush()
    except _Terminated as exc:
        (signum,) = exc.args
        _report(f"interrupted: {signal.Signals(signum).name}")
        code = 128 + signum
    except OSError as exc:
        _devnull(sys.stdout)
        if code != 3:  # run has not reported this failure itself
            _report(f"i/o error: {exc}")
            code = 3
    # the final collections at exit then skip every object the command
    # leaves alive, which the OS reclaims anyway
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
