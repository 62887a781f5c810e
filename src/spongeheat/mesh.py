"""Triangle-mesh export of voxelized geometries (binary STL and text OBJ).

One quad per exposed voxel face, split along the (v0, v2) diagonal; no
face merging, so triangle count is exactly twice the exposed-face count.
Faces are emitted in a fixed (z, y, x, then +x/-x/+y/-y/+z/-z) order and
vertex coordinates are the voxel corner integers divided by 3^n, rounded
to float32 once, so identical runs produce byte-identical files and
coincident corners are bit-identical.  The writers generate and write the
mesh one z-slab at a time, so export memory is bounded by one slab (plus,
for OBJ, one vertex id per lattice corner), not by the whole mesh.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .voxel import VoxelGrid, count_exposed_faces

#: Face directions in emission order; normals point from solid into coolant.
_NORMALS = np.array(
    [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    dtype=np.float32,
)

# Quad corners as (dx, dy, dz) offsets from the voxel origin, wound
# counter-clockwise when viewed from the normal side.
_CORNERS = np.array(
    [
        [[1, 0, 0], [1, 1, 0], [1, 1, 1], [1, 0, 1]],  # +x
        [[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 0]],  # -x
        [[0, 1, 0], [0, 1, 1], [1, 1, 1], [1, 1, 0]],  # +y
        [[0, 0, 0], [1, 0, 0], [1, 0, 1], [0, 0, 1]],  # -y
        [[0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]],  # +z
        [[0, 0, 0], [0, 1, 0], [1, 1, 0], [1, 0, 0]],  # -z
    ],
    dtype=np.int64,
)
# The same corners as two triangles per face, split along (v0, v2).
_TRIANGLES = _CORNERS[:, [0, 1, 2, 0, 2, 3]].reshape(6, 2, 3, 3)


#: Largest iteration order the ``mesh`` command exports: the n = 5 sponge
#: STL is 655 MB (13.1 M triangles); n = 6 would be 12.9 GB.
MESH_CAP = 5


@dataclass
class MeshBuffer:
    """Axis-aligned triangle soup of one voxel grid, two triangles per
    exposed voxel face, generated slab by slab on demand.

    ``triangle_count`` is known up front (twice the exposed-face count), so
    writers can emit their headers before the first triangle exists.
    ``triangles`` and ``normals`` build the full (T, 3, 3) float32 vertex
    coordinates in [0, 1] and (T, 3) float32 unit normals at once; the
    writers never use them.
    """

    grid: VoxelGrid
    triangle_count: int

    @property
    def triangles(self) -> np.ndarray:
        coords = _lattice_coords(self.grid.resolution)
        return np.concatenate([coords[lattice] for lattice, _ in _slabs(self.grid)])

    @property
    def normals(self) -> np.ndarray:
        return np.concatenate([_NORMALS[dirs] for _, dirs in _slabs(self.grid)])


def _exposed_masks(cur, prev, nxt):
    # (y, x, d): solid cells whose neighbour in direction d is coolant
    masks = np.repeat(cur[:, :, None], 6, axis=2)
    masks[:, :-1, 0] &= ~cur[:, 1:]  # +x
    masks[:, 1:, 1] &= ~cur[:, :-1]  # -x
    masks[:-1, :, 2] &= ~cur[1:, :]  # +y
    masks[1:, :, 3] &= ~cur[:-1, :]  # -y
    if nxt is not None:
        masks[:, :, 4] &= ~nxt  # +z
    if prev is not None:
        masks[:, :, 5] &= ~prev  # -z
    return masks


def _slabs(g: VoxelGrid):
    """Yield, per z-slab, the triangles' integer lattice corners (K, 3, 3)
    and their direction indices (K,): two triangles per exposed face, in
    (y, x, direction) order within the slab."""
    res = g.resolution
    prev = None
    cur = g.slab(0)
    for z in range(res):
        nxt = g.slab(z + 1) if z + 1 < res else None
        records = np.argwhere(_exposed_masks(cur, prev, nxt))  # (K, 3): y, x, d
        dirs = records[:, 2]
        base = np.column_stack((records[:, 1], records[:, 0], np.full(len(records), z)))
        lattice = base[:, None, None, :] + _TRIANGLES[dirs]
        yield lattice.reshape(-1, 3, 3), np.repeat(dirs, 2)
        prev, cur = cur, nxt


def _lattice_coords(res: int) -> np.ndarray:
    # lattice index i -> float32(i / res), rounded once from float64
    return (np.arange(res + 1) * (1.0 / res)).astype(np.float32)


def mesh_from_grid(g: VoxelGrid) -> MeshBuffer:
    """Two oriented triangles per exposed voxel face, deterministic order.

    Only counts the exposed faces; the triangles are generated, slab by
    slab, when the mesh is written or its arrays are read.
    """
    return MeshBuffer(grid=g, triangle_count=2 * count_exposed_faces(g))


_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("verts", "<f4", (3, 3)), ("attr", "<u2")])
assert _STL_RECORD.itemsize == 50


def write_stl_binary(m: MeshBuffer, sink) -> int:
    """Little-endian binary STL; returns the byte count (84 + 50 per triangle).

    The header carries ``m.triangle_count``; records follow one z-slab at a
    time.  Raises ValueError if the streamed triangles do not match that
    count, since the header would then be wrong.
    """
    coords = _lattice_coords(m.grid.resolution)
    header = b"spongeheat axis-aligned voxel surface".ljust(80, b"\0")
    sink.write(header + struct.pack("<I", m.triangle_count))
    written = 0
    for lattice, dirs in _slabs(m.grid):
        records = np.zeros(len(dirs), dtype=_STL_RECORD)
        records["normal"] = _NORMALS[dirs]
        records["verts"] = coords[lattice]
        sink.write(records)  # through the buffer protocol: no copy of the payload
        written += len(records)
    if written != m.triangle_count:
        raise ValueError(
            f"streamed {written} triangles, header announced {m.triangle_count}"
        )
    return 84 + 50 * written


def write_obj(m: MeshBuffer, sink) -> int:
    """Text OBJ with vertices deduplicated by lattice corner (equivalently,
    by bit-identical coordinates), numbered 1-based in order of first
    appearance; LF endings.  Returns the byte count.

    Two passes over the slabs: the first numbers and writes the vertices,
    the second writes the faces.  Memory is one int32 id per lattice
    corner, (3^n + 1)^3 of them, plus one slab.
    """
    side = m.grid.resolution + 1
    weights = np.array([1, side, side * side])  # lattice corner -> dense key
    labels = [f"{float(c):.9g}" for c in _lattice_coords(m.grid.resolution)]
    ids = np.zeros(side**3, dtype=np.int32)  # 0: not numbered yet
    nbytes = 0
    count = 0
    for lattice, _ in _slabs(m.grid):
        corners = lattice.reshape(-1, 3)
        keys = corners @ weights
        fresh = np.flatnonzero(ids[keys] == 0)
        _, first = np.unique(keys[fresh], return_index=True)
        fresh = fresh[np.sort(first)]  # first appearance, triangle-major
        ids[keys[fresh]] = np.arange(count + 1, count + 1 + len(fresh))
        count += len(fresh)
        nbytes += _write_lines(sink, "v %s %s %s\n",
                               [labels[i] for i in corners[fresh].ravel().tolist()])
    for lattice, _ in _slabs(m.grid):
        nbytes += _write_lines(sink, "f %d %d %d\n", ids[lattice @ weights].ravel().tolist())
    return nbytes


def _write_lines(sink, line: str, fields: list) -> int:
    # one ``line`` per three fields, formatted and written in one piece
    payload = ((line * (len(fields) // 3)) % tuple(fields)).encode("ascii")
    sink.write(payload)
    return len(payload)
