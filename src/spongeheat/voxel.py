"""Brute-force voxel oracle for volumes and surfaces.

Both geometries are unions of lattice-aligned boxes at resolution 3^n, so
voxelizing them on a 3^n x 3^n x 3^n grid is EXACT, not approximate: the
measured volume and surface must equal the closed forms in
:mod:`spongeheat.metrics` with plain rational equality.  That check is the
central anti-regression property of the package.

Occupancy is stored as a sparse line table of plain Python ints (this
module imports no numpy).  A y-row is an int bitset, cell x at bit x, with
no bit set at or above 3^n.  ``VoxelGrid.lines`` holds each distinct
stored row once.  Both models treat y and z alike, so one axis map serves
both: ``index`` maps a position to an id, the slab for z and the row class
for y.  Each slab maps the row classes it stores to line ids, and a class
it lacks is the empty row, which no line stands for.  Line ids stay inside
this module: :func:`slab_rows` hands out the rows themselves.  A sponge
cell is solid iff no base-3 digit position is 1 in two or more of x, y and
z, so a row depends on y and z only through their digit-one masks (the set
of digits equal to 1).  The sponge's slabs and classes are those masks:
slab s stores class r only when s & r == 0, as line s | r, so its table
holds 3^n entries over 2^n lines.  A slice row depends only on z % 2: the
even slab stores a full line in both classes and the odd slab none.  Grids
are never mutated afterwards, and all measurements are read-only.

One entry per job: :func:`build_grid` builds (any n the closed forms
accept), :func:`measure` counts and :func:`slab_rows` reads.  A face is
exposed when its cell is solid and the cell across it is coolant or outside
the lattice.  Along an axis every run of solid cells ends in one + and one -
face, so :func:`measure` counts each axis once, per stored table entry: the
runs of each line along x, and along y and z the solid cells (summed from
:func:`slab_counts`, so the volume and the per-slab report of a failed
verification read the same count) minus the touching pairs a & b of
adjacent rows or slabs (a cell next to the outside touches nothing).  One
exposure rule, a & ~b, gives each row's faces towards the adjacent line b
in y or z, and in x towards the line shifted by one cell, line >> 1 for +x
and line << 1 for -x (the zeros shifted in past each end are the coolant
beyond the row).  :func:`_exposed` applies it, its masks in the order +x,
-x, then one per adjacent line given: :func:`measure` counts the x runs by
the +x mask, and the mesh writers take a row key's six masks from one call.
Bytes appear only in ``VoxelGrid.packed``, whose fixed-width rows end in
zero guard bits, and in the mesh writers' unpacking of exposure masks.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .metrics import ModelKind, check_iteration


class VoxelGrid(NamedTuple):
    """Immutable occupancy grid of one model at order n, as a sparse line table.

    ``lines`` holds each distinct stored y-row once as an int: cell x of
    the row is bit x, and no bit is set at or above ``resolution``.
    ``table`` holds one map per slab from row class to line id, and
    ``index`` maps each position to an id: the slab of z and the row class
    of y.  So row y of slab z is line ``table[index[z]][index[y]]``, and a
    class missing from the slab's map is the empty row, 0.  Only this
    module reads ``table`` and ``index``; other modules read rows by
    :func:`slab_rows`.
    """

    lines: tuple[int, ...]  # distinct stored y-rows
    table: tuple[dict[int, int], ...]  # per slab: row class -> line id, if stored
    index: tuple[int, ...]  # one id per position: the slab of z, the class of y

    @property
    def resolution(self) -> int:
        """Cells along each axis, 3^n: one ``index`` entry per position."""
        return len(self.index)

    @property
    def solid_count(self) -> int:
        """Solid cells of the grid, the sum of :func:`slab_counts`."""
        return sum(slab_counts(self))

    @property
    def packed(self) -> memoryview:
        """The line table back to back as bytes (read-only, 1-D): line i is
        bytes [i * stride // 8, (i + 1) * stride // 8), little-endian, its
        guard bits x >= resolution zero."""
        width = self.stride // 8
        return memoryview(b"".join(line.to_bytes(width, byteorder="little")
                                   for line in self.lines))

    @property
    def voxel_edge(self) -> Fraction:
        return Fraction(1, self.resolution)

    @property
    def stride(self) -> int:
        # bits per packed y-row: the least multiple of 8 above resolution,
        # so that every row is whole bytes and ends in a zero guard bit
        return 8 * ((self.resolution + 8) // 8)


def build_grid(kind: ModelKind, n: int) -> VoxelGrid:
    """Voxelize one model at iteration order n, any n the closed forms accept.

    Deterministic: the occupancy is a pure function of (kind, n), whatever
    the internal line, slab and row-class numbering.
    """
    n = check_iteration(n)
    res = 3**n
    if kind is ModelKind.MENGER_SPONGE:
        # Line u holds every x whose digit-one mask is disjoint from u, and
        # masks[v] is the digit-one mask of v, both grown one base-3 digit at
        # a time: over k + 1 digits, x = x' + 3^k * d with d = 0 and 2
        # always and d = 1 only when digit k is not in u, and the masks
        # repeat three times, the middle copy with digit k.
        lines, masks = [1], [0]
        for k in range(n):
            step = 3**k
            outer = [a | a << 2 * step for a in lines]
            lines = [a | b << step for a, b in zip(outer, lines)] + outer
            masks = masks + [m | 1 << k for m in masks] + masks
        # slab s stores row class r unless a digit is 1 in both y and z, as
        # the line of the union of their masks: r walks the submasks of s's
        # complement c in ascending order, 3^n steps in all
        ids = list(range(len(lines)))  # one int object per id, shared by the table
        table = []
        for s in ids:
            c, r, row = ids[-1] ^ s, 0, {0: ids[s]}
            while r := (r - c) & c:
                row[ids[r]] = ids[s | r]
            table.append(row)
        table, index = tuple(table), tuple(masks)
    else:
        # plates on the even z, one full line; the gaps store none
        lines = [(1 << res) - 1]
        table = ({0: 0, 1: 0}, {})
        index = tuple(z % 2 for z in range(res))
    return VoxelGrid(lines=tuple(lines), table=table, index=index)


def slab_counts(g: VoxelGrid) -> list[int]:
    """Solid cells of each z-slab, z = 0..resolution-1, popcounting each
    line of ``g.lines`` once and weighting each stored entry by its row
    class."""
    solids = [line.bit_count() for line in g.lines]
    weights = Counter(g.index)
    counts = [sum(weights[r] * solids[i] for r, i in row.items()) for row in g.table]
    return list(map(counts.__getitem__, g.index))


def slab_rows(g: VoxelGrid) -> list[tuple[int, ...]]:
    """Each z-slab's y-rows in y order, as ints with cell x at bit x: row y
    of slab z is ``slab_rows(g)[z][y]``, 0 for a class the slab does not
    store.  Each distinct slab's tuple is built once and shared by every z
    that holds it."""
    rows = {}
    for s in set(g.index):
        stored = g.table[s]
        rows[s] = tuple(g.lines[stored[r]] if r in stored else 0 for r in g.index)
    return list(map(rows.__getitem__, g.index))


def _exposed(row: int, *nearby: int) -> list[int]:
    """The bitsets of ``row``'s cells exposed in +x, -x and then towards
    each adjacent row in ``nearby`` (the row next to it in y, the same row
    in the next slab in z, 0 outside the lattice): ``row & ~b`` for each b
    in ``(row >> 1, row << 1, *nearby)``.  The zeros shifted in past either
    end stand for the coolant beyond the row."""
    return [row & ~b for b in (row >> 1, row << 1, *nearby)]


def measure(g: VoxelGrid) -> tuple[list[int], list[int]]:
    """``(slabs, faces)``: the solid cells of each z-slab (:func:`slab_counts`)
    and the exposed faces per direction (+x, -x, +y, -y, +z, -z), one count
    per axis, since every run of solid cells ends in one + and one - face:
    the runs of each stored (slab, class) line along x, the bits of its +x
    mask, the first of :func:`_exposed`'s masks; along y and z the
    solid cells minus the touching pairs, once per slab and stored class
    with its distinct stored successors in y, and once per distinct pair of
    consecutive slabs and class both store in z, each weighted by how many
    z and y share it.  A class a slab does not store is the empty row and
    touches nothing.  Exact for any line table, even one that stores empty
    lines, or equal lines, classes or slabs under different ids."""
    runs = [_exposed(line)[0].bit_count() for line in g.lines]  # the +x faces
    weights = Counter(g.index)
    pairs = Counter(zip(g.index, g.index[1:]))
    successors = {}  # each class's distinct successors in y, with their counts
    for (a, b), k in pairs.items():
        successors.setdefault(a, []).append((b, k))

    @lru_cache(maxsize=None)
    def touching(a: int, b: int) -> int:
        # the solid cells of line a whose neighbour in line b is solid,
        # counted once per pair
        return (g.lines[a] & g.lines[b]).bit_count()

    x = y = z = 0
    for s, row in enumerate(g.table):
        m = weights[s]
        for r, a in row.items():
            x += m * weights[r] * runs[a]
            y += m * sum(k * touching(a, row[b]) for b, k in successors.get(r, ()) if b in row)
    for (s, t), k in pairs.items():
        below, above = g.table[s], g.table[t]
        z += k * sum(weights[r] * touching(below[r], above[r])
                     for r in below.keys() & above.keys())
    slabs = slab_counts(g)
    solid = sum(slabs)
    return slabs, [x, x, solid - y, solid - y, solid - z, solid - z]


def count_exposed_faces(g: VoxelGrid, faces: list[int] | None = None) -> int:
    """Number of unit voxel faces belonging to exactly one solid voxel.

    Faces on the lattice boundary count as exposed: the wrapping container
    outside the unit cube is coolant.  ``faces``, when given, is
    ``measure(g)[1]`` already counted, and is summed instead of counting
    again (the benchmark's tracer reads the total from this call).
    """
    return sum(measure(g)[1] if faces is None else faces)
