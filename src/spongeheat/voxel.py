"""Brute-force voxel oracle for volumes and surfaces.

Both geometries are unions of lattice-aligned boxes at resolution 3^n, so
voxelizing them on a 3^n x 3^n x 3^n grid is EXACT, not approximate: the
measured volume and surface must equal the closed forms in
:mod:`spongeheat.metrics` with plain rational equality.  That check is the
central anti-regression property of the package.

Occupancy is stored bit-packed, one padded byte row per distinct z-slab
(row-major within the slab, x fastest).  A sponge slab depends on z only
through the set of base-3 digits of z equal to 1 (2^n distinct slabs, 64 of
the 729 at n = 6, ~4.3 MB packed), a slice slab only through z % 2.  Each
distinct slab is enumerated cell by cell once, and ``VoxelGrid.index`` maps
every z to its row.  Grids are never mutated afterwards, and all
measurements are read-only.

Exposure is defined here once: a face is exposed when its cell is solid and
the cell across it is coolant or outside the lattice.  The mesh writers read
it through :func:`exposed_masks`, and :func:`count_exposed_faces` counts it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metrics import ORACLE_CAP, ModelKind, check_iteration


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

    ``packed`` holds one bit-packed row of 3^n * 3^n cells per distinct
    z-slab (row-major within the slab: bit index = x + resolution * y), and
    slab z is row ``index[z]``.
    """

    kind: ModelKind
    n: int
    resolution: int
    packed: np.ndarray  # uint8, shape (distinct slabs, ceil(resolution^2 / 8))
    index: tuple[int, ...]  # one packed row id per z
    solid_count: int

    @property
    def voxel_edge(self) -> Fraction:
        return Fraction(1, self.resolution)

    def slab(self, z: int) -> np.ndarray:
        """Unpack slab z as a bool array of shape (resolution, resolution),
        indexed [y, x]."""
        return _unpack(self.packed[self.index[z]], self.resolution)


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


def _menger_slab(masks: np.ndarray, mz: int) -> np.ndarray:
    # the slab of every z whose digit-one mask is mz: solid iff no digit
    # position has >= 2 of the three digits equal to 1
    mx = masks[None, :]
    my = masks[:, None]
    return ((mx & my) | (mx & mz) | (my & mz)) == 0


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
    sponge = kind is ModelKind.MENGER_SPONGE
    if sponge:
        masks = _digit_one_masks(res, n)
        keys = masks.tolist()  # a sponge slab depends on z only through masks[z]
    else:
        keys = [z % 2 for z in range(res)]
    # distinct keys numbered in order of first appearance (np.unique would
    # import numpy.ma); each slab is packed once, one at a time, since a
    # table of all 64 unpacked sponge slabs would cost 34 MB at n = 6
    row = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    index = tuple(row[key] for key in keys)
    packed = np.empty((len(row), (res * res + 7) // 8), dtype=np.uint8)
    solid_count = 0
    for key, i in row.items():
        slab = _menger_slab(masks, key) if sponge else np.full((res, res), key == 0)
        packed[i] = np.packbits(slab.reshape(-1))
        solid_count += int(np.count_nonzero(slab)) * index.count(i)
    return VoxelGrid(kind=kind, n=n, resolution=res, packed=packed, index=index,
                     solid_count=solid_count)


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


def _across(g: VoxelGrid, a: int, b: int | None) -> np.ndarray:
    """The (y, x) mask of the cells of packed row a exposed towards the
    adjacent slab held in packed row b (all solid cells of a when b is None:
    the neighbour lies outside the lattice)."""
    return _unpack(g.packed[a] if b is None else g.packed[a] & ~g.packed[b], g.resolution)


def exposed_masks(g: VoxelGrid, z: int) -> np.ndarray:
    """The (y, x, direction) bool mask of slab z's exposed faces, directions
    in the order +x, -x, +y, -y, +z, -z."""
    above, below = (g.index[w] if 0 <= w < g.resolution else None for w in (z + 1, z - 1))
    a = g.index[z]
    return np.stack([*_in_plane(g.slab(z)), _across(g, a, above), _across(g, a, below)], -1)


def _face_counts(g: VoxelGrid) -> list[int]:
    """Exposed faces per direction (+x, -x, +y, -y, +z, -z), evaluated once
    per distinct entry of ``g.index`` (+-x, +-y) and once per distinct pair
    of consecutive entries (+-z).  Exact for any index, even one that puts
    two equal slabs in different rows."""
    counts = [0] * 6
    for a, k in Counter(g.index).items():
        for d, mask in enumerate(_in_plane(_unpack(g.packed[a], g.resolution))):
            counts[d] += k * int(np.count_nonzero(mask))
    ends = [None, *g.index, None]  # None: outside the lattice
    for (a, b), k in Counter(zip(ends, ends[1:])).items():
        if a is not None:
            counts[4] += k * int(np.count_nonzero(_across(g, a, b)))
        if b is not None:
            counts[5] += k * int(np.count_nonzero(_across(g, b, a)))
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
