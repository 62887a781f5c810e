"""Brute-force voxel oracle for volumes and surfaces.

Both geometries are unions of lattice-aligned boxes at resolution 3^n, so
voxelizing them on a 3^n x 3^n x 3^n grid is EXACT, not approximate: the
measured volume and surface must equal the closed forms in
:mod:`spongeheat.metrics` with plain rational equality.  That check is the
central anti-regression property of the package.

Occupancy is stored as one little-endian bitset per distinct z-slab, in
plain Python bytes and ints (this module imports no numpy).  Cell (x, y) is
bit x + W * y, with the row stride W = 8 * ((3^n + 8) // 8) bits: every
y-row is whole bytes and ends in at least one zero guard bit, since 3^n is
never a multiple of 8.  A sponge slab depends on z only through the set of
base-3 digits of z equal to 1 (2^n distinct slabs, 64 of the 729 at n = 6,
~4.3 MB), a slice slab only through z % 2.  ``VoxelGrid.index`` maps every z
to its slab.  Grids are never mutated afterwards, and all measurements are
read-only.

Exposure is defined here once: a face is exposed when its cell is solid and
the cell across it is coolant or outside the lattice.  On a slab bitset s
that is s & ~(s >> 1) for +x and s & ~(s << 1) for -x (the guard bits are
the coolant beyond each row's ends), shifts by W for +-y, and a & ~b
between adjacent slabs for +-z.  The mesh writers read it through
:func:`exposed_bits`, and :func:`count_exposed_faces` counts it.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .metrics import ORACLE_CAP, ModelKind, check_iteration


class OracleCapError(ValueError):
    """Iteration order outside the voxel oracle's cap (distinct from the
    closed-form cap in metrics)."""


class VoxelGrid(NamedTuple):
    """Immutable occupancy grid of one model at order n.

    ``packed`` holds the distinct z-slabs back to back, each ``resolution``
    y-rows of ``stride // 8`` bytes, little-endian: cell (x, y) of slab row
    r is bit x + stride * y of bytes [r * slab_bytes, (r + 1) * slab_bytes).
    Slab z is row ``index[z]``.  The guard bits x >= resolution of every
    y-row are zero.
    """

    kind: ModelKind
    n: int
    resolution: int
    packed: memoryview  # read-only, 1-D, (distinct slabs) * slab_bytes bytes
    index: tuple[int, ...]  # one slab row id per z
    solid_count: int

    @property
    def voxel_edge(self) -> Fraction:
        return Fraction(1, self.resolution)

    @property
    def stride(self) -> int:
        return _stride(self.resolution)

    @property
    def slab_bytes(self) -> int:
        return self.resolution * self.stride // 8


def _stride(res: int) -> int:
    # bits per y-row: the least multiple of 8 above res, so that every row
    # is whole bytes and ends in at least one zero guard bit
    return 8 * ((res + 8) // 8)


def _slab_int(g: VoxelGrid, row: int) -> int:
    size = g.slab_bytes
    return int.from_bytes(g.packed[row * size:(row + 1) * size], byteorder="little")


def _digit_one_masks(res: int, n: int) -> list[int]:
    """For each v in [0, res): the int whose bit k is set iff base-3 digit k
    of v equals 1."""
    return [sum(1 << k for k in range(n) if v // 3**k % 3 == 1) for v in range(res)]


def build_grid(kind: ModelKind, n: int, cap: int = ORACLE_CAP) -> VoxelGrid:
    """Voxelize one model at iteration order n (n <= cap).

    Deterministic: the occupancy is a pure function of (kind, n), whatever
    the internal slab partitioning.
    """
    try:
        n = check_iteration(n, cap=cap)
    except ValueError as exc:
        raise OracleCapError(str(exc)) from None
    res = 3**n
    width = _stride(res) // 8
    sponge = kind is ModelKind.MENGER_SPONGE
    masks = _digit_one_masks(res, n)
    # a sponge slab depends on z only through masks[z]; distinct keys are
    # numbered in order of first appearance
    keys = masks if sponge else [z % 2 for z in range(res)]
    row = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    index = tuple(row[key] for key in keys)
    # Cell (x, y) of sponge slab mz is solid iff no digit position has >= 2
    # of mx, my, mz set: the row is empty if my & mz, else it holds every x
    # with mx & (my | mz) == 0.  So each y-row is one of a few lines, keyed
    # by that union (None: the empty line); a slice plate is line 0 (all x)
    # throughout.  Each line is built once, with its solid count.
    lines = {None: (bytes(width), 0)}
    size = res * width
    packed = bytearray(len(row) * size)
    solid_count = 0
    for key, i in row.items():
        unions = ([None if my & key else my | key for my in masks] if sponge
                  else [None if key else 0] * res)
        for u in set(unions) - lines.keys():
            bits = sum(1 << x for x, mx in enumerate(masks) if not mx & u)
            lines[u] = bits.to_bytes(width, byteorder="little"), bits.bit_count()
        # each slab is joined straight into place: the rows are never held twice
        packed[i * size:(i + 1) * size] = b"".join(lines[u][0] for u in unions)
        solid_count += sum(lines[u][1] for u in unions) * index.count(i)
    return VoxelGrid(kind=kind, n=n, resolution=res, packed=memoryview(packed).toreadonly(),
                     index=index, solid_count=solid_count)


def slab_counts(g: VoxelGrid) -> list[int]:
    """Solid cells of each z-slab, z = 0..resolution-1, popcounting each
    distinct row of ``g.packed`` once."""
    counts = {a: _slab_int(g, a).bit_count() for a in set(g.index)}
    return [counts[a] for a in g.index]


def measure_volume(g: VoxelGrid) -> Fraction:
    """Solid-cell count times the voxel volume, as an exact rational."""
    return g.solid_count * g.voxel_edge**3


def _in_plane(s: int, stride: int) -> tuple[int, int, int, int]:
    """The bitsets of slab ``s``'s cells exposed in +x, -x, +y, -y.  The zero
    guard bits stand for the coolant beyond both ends of each y-row, and the
    shifted-in zeros for the coolant beyond the first and last row."""
    return s & ~(s >> 1), s & ~(s << 1), s & ~(s >> stride), s & ~(s << stride)


def _across(a: int, b: int) -> int:
    """The bitset of slab ``a``'s cells exposed towards the adjacent slab
    ``b`` (0 when the neighbour lies outside the lattice)."""
    return a & ~b


def exposed_bits(g: VoxelGrid, z: int) -> tuple[int, ...]:
    """Slab z's exposed faces as six bitsets in the layout of ``g.packed``
    (bit x + g.stride * y), directions in the order +x, -x, +y, -y, +z, -z."""
    cur = _slab_int(g, g.index[z])
    above, below = (_slab_int(g, g.index[w]) if 0 <= w < g.resolution else 0
                    for w in (z + 1, z - 1))
    return (*_in_plane(cur, g.stride), _across(cur, above), _across(cur, below))


def face_counts(g: VoxelGrid) -> list[int]:
    """Exposed faces per direction (+x, -x, +y, -y, +z, -z), evaluated once
    per distinct entry of ``g.index`` (+-x, +-y) and once per distinct pair
    of consecutive entries (+-z).  Exact for any index, even one that puts
    two equal slabs in different rows.

    The distinct pairs are visited in z order.  Each slab is converted to an
    int when a pair first needs it, and dropped after the last distinct pair
    that uses it, so few slabs are live at once (a pair in the top third of
    the sponge repeats one from the bottom third)."""
    rows = Counter(g.index)
    ends = [None, *g.index, None]
    pairs = Counter(zip(ends, ends[1:]))  # in z order of first appearance
    last = {a: i for i, pair in enumerate(pairs) for a in pair}
    slabs = {None: 0}  # outside the lattice
    counts = [0] * 6
    for i, ((a, b), k) in enumerate(pairs.items()):
        for c in {a, b} - slabs.keys():
            slabs[c] = _slab_int(g, c)
            for d, mask in enumerate(_in_plane(slabs[c], g.stride)):
                counts[d] += rows[c] * mask.bit_count()
        counts[4] += k * _across(slabs[a], slabs[b]).bit_count()
        counts[5] += k * _across(slabs[b], slabs[a]).bit_count()
        for c in {a, b} - {None}:
            if last[c] == i:
                del slabs[c]
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
