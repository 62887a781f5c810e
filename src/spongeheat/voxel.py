"""Brute-force voxel oracle for volumes and surfaces.

Both geometries are unions of lattice-aligned boxes at resolution 3^n, so
voxelizing them on a 3^n x 3^n x 3^n grid is EXACT, not approximate: the
measured volume and surface must equal the closed forms in
:mod:`spongeheat.metrics` with plain rational equality.  That check is the
central anti-regression property of the package.

Occupancy is stored bit-packed per z-slab (one padded byte row per slab,
~48 MB at n = 6 instead of ~390 MB unpacked).  Conceptually the grid is a
flat bit array with x-fastest linear indexing
``index = x + resolution * (y + resolution * z)``.  Grids are built from
their distinct z-slabs: a sponge slab depends on z only through the set of
base-3 digits of z equal to 1 (2^n distinct slabs, 64 of the 729 at
n = 6), a slice slab only through z % 2.  Each distinct slab is enumerated
cell by cell once and its packed row copied to every z that shares it.
Grids are never mutated afterwards, and all measurements are read-only.

Exposure is defined here once: a face is exposed when its cell is solid and
the cell across it is coolant or outside the lattice.  The mesh writers read
it through :func:`exposed_masks`, and :func:`count_exposed_faces` counts it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metrics import ModelKind, check_iteration

#: Largest iteration order the oracle accepts by default (729^3 cells).
DEFAULT_ORACLE_CAP = 6


class OracleCapError(ValueError):
    """Iteration order outside the voxel oracle's cap (distinct from the
    closed-form cap in metrics)."""


class CoordinateOutOfRangeError(ValueError):
    """Voxel coordinate outside [0, 3^n)."""


def _check_coord(x: int, y: int, z: int, res: int) -> None:
    if not (0 <= x < res and 0 <= y < res and 0 <= z < res):
        raise CoordinateOutOfRangeError(f"coordinate ({x}, {y}, {z}) outside [0, {res})^3")


def is_solid_menger(x: int, y: int, z: int, n: int) -> bool:
    """Base-3 digit membership test for the level-n sponge.

    A cell survives iff at no digit position do at least two of the three
    coordinates have digit 1 (those are the removed center tunnels).
    """
    n = check_iteration(n)
    _check_coord(x, y, z, 3**n)
    for _ in range(n):
        if (x % 3 == 1) + (y % 3 == 1) + (z % 3 == 1) >= 2:
            return False
        x //= 3
        y //= 3
        z //= 3
    return True


def is_solid_slices(x: int, y: int, z: int, n: int) -> bool:
    """Slice-model membership: plates occupy the even z layers.

    Layers z = 0, 2, ..., 3^n - 1 are solid; since 3^n - 1 is even both the
    bottom and the top layer are plates, giving floor(3^n/2) + 1 plates.
    """
    n = check_iteration(n)
    _check_coord(x, y, z, 3**n)
    return z % 2 == 0


@dataclass
class VoxelGrid:
    """Immutable-by-convention occupancy grid of one model at order n.

    ``packed`` holds one bit-packed row of 3^n * 3^n cells per z-slab
    (row-major within the slab: bit index = x + resolution * y).
    """

    kind: ModelKind
    n: int
    resolution: int
    packed: np.ndarray  # uint8, shape (resolution, ceil(resolution^2 / 8))
    solid_count: int

    @property
    def voxel_edge(self) -> Fraction:
        return Fraction(1, self.resolution)

    def slab(self, z: int) -> np.ndarray:
        """Unpack slab z as a bool array of shape (resolution, resolution),
        indexed [y, x]."""
        return _unpack(self.packed[z], self.resolution)


def _unpack(row: np.ndarray, res: int) -> np.ndarray:
    return np.unpackbits(row, count=res * res).reshape(res, res).view(bool)


def _digit_one_masks(res: int, n: int) -> np.ndarray:
    """For each v in [0, res): a uint16 whose bit k is set iff base-3 digit k
    of v equals 1 (n <= 16; uint16 keeps the res^2 temporaries of
    _menger_slab at 2 bytes per cell)."""
    v = np.arange(res, dtype=np.int64)
    masks = np.zeros(res, dtype=np.uint16)
    for k in range(n):
        masks |= ((v // 3**k) % 3 == 1).astype(np.uint16) << k
    return masks


def _menger_slab(masks: np.ndarray, z: int) -> np.ndarray:
    # solid iff no digit position has >= 2 of the three digits equal to 1
    mx = masks[None, :]
    my = masks[:, None]
    mz = masks[z]
    return ((mx & my) | (mx & mz) | (my & mz)) == 0


def build_grid(kind: ModelKind, n: int, cap: int = DEFAULT_ORACLE_CAP) -> VoxelGrid:
    """Voxelize one model at iteration order n (n <= cap).

    Deterministic: the occupancy is a pure function of (kind, n), whatever
    the internal slab partitioning.
    """
    try:
        n = check_iteration(n, cap=cap)
    except ValueError as exc:
        raise OracleCapError(str(exc)) from None
    res = 3**n
    sponge = kind is ModelKind.MENGER_SPONGE
    if sponge:
        masks = _digit_one_masks(res, n)
        keys = masks  # _menger_slab reads z only through masks[z]
    else:
        keys = np.arange(res) % 2
    # filled in place, one distinct slab at a time: a table of every
    # distinct slab or packed row would cost up to 34 MB at n = 6
    packed = np.empty((res, (res * res + 7) // 8), dtype=np.uint8)
    solid_count = 0
    for key in dict.fromkeys(keys.tolist()):  # np.unique would import numpy.ma
        rows = keys == key
        z = int(rows.argmax())
        if sponge:
            slab = _menger_slab(masks, z)
        else:
            slab = np.full((res, res), z % 2 == 0, dtype=bool)
        solid_count += int(np.count_nonzero(slab)) * int(np.count_nonzero(rows))
        packed[rows] = np.packbits(slab.reshape(-1))
    return VoxelGrid(kind=kind, n=n, resolution=res, packed=packed, solid_count=solid_count)


def measure_volume(g: VoxelGrid) -> Fraction:
    """Solid-cell count times the voxel volume, as an exact rational."""
    return g.solid_count * g.voxel_edge**3


def _in_plane(cur: np.ndarray):
    """Yield the (y, x) masks of slab ``cur``'s cells exposed in +x, -x, +y, -y."""
    pad = np.pad(cur, 1)  # the lattice boundary is coolant
    yield cur & ~pad[1:-1, 2:]
    yield cur & ~pad[1:-1, :-2]
    yield cur & ~pad[2:, 1:-1]
    yield cur & ~pad[:-2, 1:-1]


def _across(g: VoxelGrid, z: int, w: int) -> np.ndarray:
    """The (y, x) mask of the cells of slab z exposed towards slab w = z +- 1
    (all solid cells of z when w lies outside the lattice)."""
    if not 0 <= w < g.resolution:
        return g.slab(z)
    return _unpack(g.packed[z] & ~g.packed[w], g.resolution)


def exposed_masks(g: VoxelGrid, z: int) -> np.ndarray:
    """The (y, x, direction) bool mask of slab z's exposed faces, directions
    in the order +x, -x, +y, -y, +z, -z."""
    return np.stack([*_in_plane(g.slab(z)), _across(g, z, z + 1), _across(g, z, z - 1)], -1)


def _face_counts(g: VoxelGrid) -> list[int]:
    """Exposed faces per direction (+x, -x, +y, -y, +z, -z), evaluated once
    per distinct packed row (+-x, +-y) and once per distinct pair of
    consecutive rows (+-z).  Rows are matched by content, so a hash
    collision only costs a memo miss."""
    first, ids = {}, []  # ids[z]: the first slab whose packed row equals z's
    for z, row in enumerate(g.packed):
        w = first.setdefault(hash(row.tobytes()), z)
        ids.append(w if np.array_equal(g.packed[w], row) else z)
    counts = [0] * 6
    for z, k in Counter(ids).items():
        for d, mask in enumerate(_in_plane(g.slab(z))):
            counts[d] += k * int(np.count_nonzero(mask))
    ends = [-1, *ids, g.resolution]
    for (z, w), k in Counter(zip(ends, ends[1:])).items():
        if z >= 0:
            counts[4] += k * int(np.count_nonzero(_across(g, z, w)))
        if w < g.resolution:
            counts[5] += k * int(np.count_nonzero(_across(g, w, z)))
    return counts


def count_exposed_faces(g: VoxelGrid) -> int:
    """Number of unit voxel faces belonging to exactly one solid voxel.

    Faces on the lattice boundary count as exposed: the wrapping container
    outside the unit cube is coolant.
    """
    return sum(_face_counts(g))


def measure_surface(g: VoxelGrid) -> Fraction:
    """Exposed-face count times the voxel face area, as an exact rational."""
    return count_exposed_faces(g) * g.voxel_edge**2
