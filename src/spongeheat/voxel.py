"""Brute-force voxel oracle for volumes and surfaces.

Both geometries are unions of lattice-aligned boxes at resolution 3^n, so
voxelizing them on a 3^n x 3^n x 3^n grid is EXACT, not approximate: the
measured volume and surface must equal the closed forms in
:mod:`spongeheat.metrics` with plain rational equality.  That check is the
central anti-regression property of the package.

Occupancy is stored as a line table, in plain Python bytes and ints (this
module imports no numpy).  A y-row is a little-endian bitset of W = 8 *
((3^n + 8) // 8) bits, cell x at bit x: whole bytes, ending in at least one
zero guard bit, since 3^n is never a multiple of 8.  ``VoxelGrid.lines``
holds each distinct row once, ``VoxelGrid.slabs`` each distinct z-slab as
one line id per y, and ``VoxelGrid.index`` maps every z to its slab.  A
sponge slab depends on z only through the set of base-3 digits of z equal
to 1 (2^n distinct slabs, 64 of the 729 at n = 6), a slice slab only
through z % 2; a sponge row depends only on the union of the digit-one sets
of y and z, so there are at most 2^n + 1 lines (65 lines, 6 KB at n = 6).
Joined in y order, a slab's lines are its bitset, cell (x, y) at bit
x + W * y.  Grids are never mutated afterwards, and all measurements are
read-only.  The solid count is not stored: ``VoxelGrid.solid_count`` sums
:func:`slab_counts`, which popcounts each line once, so the volume and the
per-slab report of a failed verification read one count.

Exposure is defined here once: a face is exposed when its cell is solid and
the cell across it is coolant or outside the lattice.  On a slab bitset s
that is s & ~(s >> 1) for +x and s & ~(s << 1) for -x (the guard bits are
the coolant beyond each row's ends), shifts by W for +-y, and a & ~b
between adjacent slabs for +-z.  The same two rules apply line by line:
the x-shifts to a single line, and a & ~b between the lines of adjacent
rows (+-y) or of the same row in adjacent slabs (+-z).  :func:`face_counts`
counts per line, once per row class and line pair, and the mesh writers
list each distinct row's exposed faces by the same rule.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .metrics import ORACLE_CAP, ModelKind, check_iteration


class OracleCapError(ValueError):
    """Iteration order outside the voxel oracle's cap (distinct from the
    closed-form cap in metrics)."""


class VoxelGrid(NamedTuple):
    """Immutable occupancy grid of one model at order n, as a line table.

    ``lines`` holds each distinct y-row once, ``stride // 8`` bytes,
    little-endian: cell x of the row is bit x, and the guard bits
    x >= resolution are zero.  ``slabs`` holds each distinct z-slab as one
    line id per y, and slab z is ``slabs[index[z]]``.  Joined, slab s is
    the bitset with cell (x, y) at bit x + stride * y.
    """

    kind: ModelKind
    n: int
    resolution: int
    lines: tuple[bytes, ...]  # distinct y-rows
    slabs: tuple[tuple[int, ...], ...]  # distinct z-slabs: one line id per y
    index: tuple[int, ...]  # one slab id per z

    @property
    def solid_count(self) -> int:
        """Solid cells of the grid, the sum of :func:`slab_counts`."""
        return sum(slab_counts(self))

    @property
    def packed(self) -> memoryview:
        """The line table back to back (read-only, 1-D): line i is bytes
        [i * stride // 8, (i + 1) * stride // 8)."""
        return memoryview(b"".join(self.lines))

    @property
    def voxel_edge(self) -> Fraction:
        return Fraction(1, self.resolution)

    @property
    def stride(self) -> int:
        return _stride(self.resolution)


def _stride(res: int) -> int:
    # bits per y-row: the least multiple of 8 above res, so that every row
    # is whole bytes and ends in at least one zero guard bit
    return 8 * ((res + 8) // 8)


def _bits(line: bytes) -> int:
    return int.from_bytes(line, byteorder="little")


def _digit_one_masks(res: int, n: int) -> list[int]:
    """For each v in [0, res): the int whose bit k is set iff base-3 digit k
    of v equals 1."""
    return [sum(1 << k for k in range(n) if v // 3**k % 3 == 1) for v in range(res)]


def build_grid(kind: ModelKind, n: int, cap: int = ORACLE_CAP) -> VoxelGrid:
    """Voxelize one model at iteration order n (n <= cap).

    Deterministic: the occupancy is a pure function of (kind, n), whatever
    the internal line and slab numbering.
    """
    try:
        n = check_iteration(n, cap=cap)
    except ValueError as exc:
        raise OracleCapError(str(exc)) from None
    res = 3**n
    width = _stride(res) // 8
    sponge = kind is ModelKind.MENGER_SPONGE
    masks = _digit_one_masks(res, n)
    # the x of a y-row with each digit-one mask, as one bitset per mask
    cells: dict[int, int] = {}
    for x, mx in enumerate(masks):
        cells[mx] = cells.get(mx, 0) | 1 << x
    # a sponge slab depends on z only through masks[z]; distinct keys are
    # numbered in order of first appearance
    keys = masks if sponge else [z % 2 for z in range(res)]
    slab_ids = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    index = tuple(map(slab_ids.__getitem__, keys))
    # Cell (x, y) of sponge slab mz is solid iff no digit position has >= 2
    # of mx, my, mz set: the row is empty if my & mz, else it holds every x
    # with mx & (my | mz) == 0.  So each y-row is one of a few lines, keyed
    # by that union (None: the empty line); a slice plate is line 0 (all x)
    # throughout.  Each line is built once and numbered in order of first
    # appearance.
    line_ids: dict[int | None, int] = {}
    lines = []
    slabs = []
    for key in slab_ids:
        if sponge:
            unions = {my: None if my & key else my | key for my in cells}
        else:
            unions = dict.fromkeys(cells, None if key else 0)
        for u in unions.values():
            if u not in line_ids:
                bits = 0 if u is None else sum(row for mx, row in cells.items() if not mx & u)
                line_ids[u] = len(lines)
                lines.append(bits.to_bytes(width, byteorder="little"))
        line_of = {my: line_ids[u] for my, u in unions.items()}  # by y-row mask
        slabs.append(tuple(map(line_of.__getitem__, masks)))
    return VoxelGrid(kind=kind, n=n, resolution=res, lines=tuple(lines), slabs=tuple(slabs),
                     index=index)


def slab_counts(g: VoxelGrid) -> list[int]:
    """Solid cells of each z-slab, z = 0..resolution-1, popcounting each
    line of ``g.lines`` once."""
    solids = [_bits(line).bit_count() for line in g.lines]
    counts = {s: sum(map(solids.__getitem__, g.slabs[s])) for s in set(g.index)}
    return [counts[s] for s in g.index]


def measure_volume(g: VoxelGrid) -> Fraction:
    """Solid-cell count times the voxel volume, as an exact rational."""
    return g.solid_count * g.voxel_edge**3


def _in_plane(s: int, stride: int) -> tuple[int, int, int, int]:
    """The bitsets of slab ``s``'s cells exposed in +x, -x, +y, -y.  The zero
    guard bits stand for the coolant beyond both ends of each y-row, and the
    shifted-in zeros for the coolant beyond the first and last row.  On a
    single line, the first two are its +x and -x exposure."""
    return s & ~(s >> 1), s & ~(s << 1), s & ~(s >> stride), s & ~(s << stride)


def _across(a: int, b: int) -> int:
    """The bitset of ``a``'s cells exposed towards the adjacent ``b``: a
    slab and its z-neighbour, or a line and the line next to it in y (0
    when the neighbour lies outside the lattice)."""
    return a & ~b


def _dot(weights, values) -> int:
    return sum(map(mul, weights, values))


def face_counts(g: VoxelGrid) -> list[int]:
    """Exposed faces per direction (+x, -x, +y, -y, +z, -z), counted per
    row class: the y whose line is the same in every distinct slab (keyed
    by that column of line ids).  Each count is weighted by how many z use
    the slab and how many y fall in the class: +-x once per (slab, class)
    line, +-y once per distinct pair of consecutive classes, and +-z once
    per distinct pair of consecutive slabs and class, with the empty line
    beyond the lattice.  Exact for any line table, even one that stores two
    equal lines or slabs under different ids."""
    outside = len(g.lines)  # the empty line beyond the lattice
    beyond = len(g.slabs)  # the slab of it
    bits = [*map(_bits, g.lines), 0]
    plus_x = [_in_plane(line, g.stride)[0].bit_count() for line in bits]
    minus_x = [_in_plane(line, g.stride)[1].bit_count() for line in bits]

    @lru_cache(maxsize=None)
    def exposed(a: int, b: int) -> int:
        # the faces line a exposes towards line b, counted once per pair
        return _across(bits[a], bits[b]).bit_count()

    per_slab = Counter(g.index)
    slab_weights = [per_slab[s] for s in range(beyond + 1)]  # z per slab id
    # each y's column of line ids, one per slab and the slab beyond, and the
    # distinct columns with their number of y
    columns = list(zip(*g.slabs, [outside] * g.resolution))
    classes = Counter(columns)
    class_weights = list(classes.values())
    by_slab = list(zip(*classes))  # per slab id: its line in each class
    counts = [0] * 6
    for lines, m in zip(by_slab, slab_weights):
        counts[0] += m * _dot(class_weights, map(plus_x.__getitem__, lines))
        counts[1] += m * _dot(class_weights, map(minus_x.__getitem__, lines))
    edge = (outside,) * len(by_slab)
    ends = [edge, *columns, edge]
    for (a, b), k in Counter(zip(ends, ends[1:])).items():
        counts[2] += k * _dot(slab_weights, map(exposed, a, b))
        counts[3] += k * _dot(slab_weights, map(exposed, b, a))
    ends = [beyond, *g.index, beyond]
    for (a, b), k in Counter(zip(ends, ends[1:])).items():
        a, b = by_slab[a], by_slab[b]
        counts[4] += k * _dot(class_weights, map(exposed, a, b))
        counts[5] += k * _dot(class_weights, map(exposed, b, a))
    return counts


def count_exposed_faces(g: VoxelGrid, faces: list[int] | None = None) -> int:
    """Number of unit voxel faces belonging to exactly one solid voxel.

    Faces on the lattice boundary count as exposed: the wrapping container
    outside the unit cube is coolant.  ``faces``, when given, is
    ``face_counts(g)`` already counted, and is summed instead of counting
    again (the benchmark's tracer reads the total from this call).
    """
    return sum(face_counts(g) if faces is None else faces)


def measure_surface(g: VoxelGrid) -> Fraction:
    """Exposed-face count times the voxel face area, as an exact rational."""
    return count_exposed_faces(g) * g.voxel_edge**2
