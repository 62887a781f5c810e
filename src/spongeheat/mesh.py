"""Triangle-mesh export of voxelized geometries (binary STL and text OBJ).

One quad per exposed voxel face, split along the (v0, v2) diagonal; no
face merging, so triangle count is exactly twice the exposed-face count.
Faces are emitted in a fixed (z, y, x, then +x/-x/+y/-y/+z/-z) order and
vertex coordinates are the voxel corner integers divided by 3^n, rounded
to float32 once, so identical runs produce byte-identical files and
coincident corners are bit-identical.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .voxel import VoxelGrid

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


@dataclass
class MeshBuffer:
    """Axis-aligned triangle soup: ``triangles`` is (T, 3, 3) float32 vertex
    coordinates in [0, 1], ``normals`` is (T, 3) float32 unit vectors."""

    triangles: np.ndarray
    normals: np.ndarray

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)


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


def mesh_from_grid(g: VoxelGrid) -> MeshBuffer:
    """Two oriented triangles per exposed voxel face, deterministic order."""
    res = g.resolution
    scale = 1.0 / res
    tri_chunks = []
    normal_chunks = []
    prev = None
    cur = g.slab(0)
    for z in range(res):
        nxt = g.slab(z + 1) if z + 1 < res else None
        records = np.argwhere(_exposed_masks(cur, prev, nxt))  # (K, 3): y, x, d
        dirs = records[:, 2]
        base = np.column_stack((records[:, 1], records[:, 0], np.full(len(records), z)))
        quads = ((base[:, None, :] + _CORNERS[dirs]) * scale).astype(np.float32)
        tri_chunks.append(quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3, 3))
        normal_chunks.append(np.repeat(_NORMALS[dirs], 2, axis=0))
        prev, cur = cur, nxt
    return MeshBuffer(
        triangles=np.concatenate(tri_chunks),
        normals=np.concatenate(normal_chunks),
    )


_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("verts", "<f4", (3, 3)), ("attr", "<u2")])
assert _STL_RECORD.itemsize == 50


def write_stl_binary(m: MeshBuffer, sink) -> int:
    """Little-endian binary STL; returns the byte count (84 + 50 per triangle)."""
    count = m.triangle_count
    header = b"spongeheat axis-aligned voxel surface".ljust(80, b"\0")
    records = np.zeros(count, dtype=_STL_RECORD)
    records["normal"] = m.normals
    records["verts"] = m.triangles
    sink.write(header + struct.pack("<I", count))
    sink.write(records)  # through the buffer protocol: no copy of the payload
    return 84 + records.nbytes


def write_obj(m: MeshBuffer, sink) -> int:
    """Text OBJ with vertices deduplicated by bit-identical coordinates and
    1-based face indices; LF endings.  Returns the byte count."""
    index: dict[bytes, int] = {}
    vertex_lines: list[str] = []
    face_lines: list[str] = []
    for tri in m.triangles:
        ids = []
        for vertex in tri:
            key = vertex.tobytes()
            i = index.get(key)
            if i is None:
                i = len(index) + 1
                index[key] = i
                vertex_lines.append(
                    "v " + " ".join(f"{float(c):.9g}" for c in vertex)
                )
            ids.append(i)
        face_lines.append("f {} {} {}".format(*ids))
    payload = "".join(line + "\n" for line in vertex_lines + face_lines).encode("utf-8")
    sink.write(payload)
    return len(payload)
