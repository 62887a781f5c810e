"""Triangle-mesh export of voxelized geometries (binary STL and text OBJ).

One quad per exposed voxel face, split along the (v0, v2) diagonal; no
face merging, so triangle count is exactly twice the exposed-face count.
Faces are emitted in a fixed (z, y, x, then +x/-x/+y/-y/+z/-z) order and
vertex coordinates are the voxel corner integers divided by 3^n, rounded
to float32 once, so identical runs produce byte-identical files and
coincident corners are bit-identical.

The writers generate and write the mesh in chunks of at most ``_CHUNK``
consecutive faces.  A slab's exposed faces come from
:func:`spongeheat.voxel.exposed_bits` as six int bitsets.  This is the only
module that imports numpy, and :func:`_slab_mask` does the one
int-to-array step: it unpacks the bitsets into the slab's (y, x, direction)
face mask, whose faces :func:`_faces` enumerates once, as ascending flat
indices, and hands out chunk by chunk.  Every triangle is then assembled
from small lookup tables indexed by (x, direction) and (y, direction): STL
record pairs and y corners, or OBJ lattice keys.  No per-face integer
lattice is built, and every STL chunk goes through one record buffer of
``2 * _CHUNK`` records, so export memory is bounded by one slab's face
mask and one chunk (plus, for OBJ, one vertex id per lattice corner), not
by the mesh or the records of its largest slab: the n = 5 sponge STL
traces under 2 MiB, and its command peaks at about 31 MB resident, a few
MB above the interpreter and numpy.
"""
from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from .voxel import VoxelGrid, count_exposed_faces, exposed_bits

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


class MeshBuffer(NamedTuple):
    """Axis-aligned triangle soup of one voxel grid, two triangles per
    exposed voxel face, generated chunk by chunk on demand.

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
        # copy each chunk out: the records are a view of one reused buffer
        return np.concatenate([rec["verts"].copy() for rec in _stl_records(self.grid)])

    @property
    def normals(self) -> np.ndarray:
        return np.concatenate([rec["normal"].copy() for rec in _stl_records(self.grid)])


def _slab_mask(g: VoxelGrid, z: int) -> np.ndarray:
    # the (y, x', direction) bool mask of slab z's exposed faces, x' < stride
    size = g.slab_bytes
    bits = b"".join(mask.to_bytes(size, byteorder="little") for mask in exposed_bits(g, z))
    # read the bytes as (y, byte, direction) and unpack bit x of each y-row:
    # that yields the mask directly, reordering the bytes rather than the 8x
    # larger mask.  Each bitset is a subset of the slab, so no guard bit
    # x' >= res is set
    packed = np.frombuffer(bits, dtype=np.uint8).reshape(6, g.resolution, size // g.resolution)
    return np.unpackbits(packed.transpose(1, 2, 0), axis=1, bitorder="little").view(bool)


#: Most faces the writers assemble at once; it sizes the STL record buffer.
_CHUNK = 4096


def _faces(g: VoxelGrid):
    """Yield ``(z, xd, yd)`` for runs of at most ``_CHUNK`` consecutive
    exposed faces in emission order, each face as its rows x * 6 + d and
    y * 6 + d of the (x, direction) and (y, direction) tables."""
    for z in range(g.resolution):
        flat = np.flatnonzero(_slab_mask(g, z))  # (y, x', d) indices, x' < stride
        for start in range(0, len(flat), _CHUNK):
            y, xd = np.divmod(flat[start:start + _CHUNK], 6 * g.stride)
            yield z, xd, y * 6 + xd - xd // 6 * 6  # xd % 6, which numpy computes more slowly


def _corner_table(res: int, axis: int) -> np.ndarray:
    # (res * 6, 2, 3): lattice coordinate along ``axis`` of the triangle
    # corners of the face at position p in direction d, row p * 6 + d
    corners = np.arange(res)[:, None, None, None] + _TRIANGLES[..., axis]
    return corners.reshape(res * 6, 2, 3)


def _lattice_coords(res: int) -> np.ndarray:
    # lattice index i -> float32(i / res), rounded once from float64
    return (np.arange(res + 1) * (1.0 / res)).astype(np.float32)


def mesh_from_grid(g: VoxelGrid) -> MeshBuffer:
    """Two oriented triangles per exposed voxel face, deterministic order.

    Only counts the exposed faces; the triangles are generated, chunk by
    chunk, when the mesh is written or its arrays are read.
    """
    return MeshBuffer(grid=g, triangle_count=2 * count_exposed_faces(g))


_STL_RECORD = np.dtype([("normal", "<f4", (3,)), ("verts", "<f4", (3, 3)), ("attr", "<u2")])
assert _STL_RECORD.itemsize == 50
# the two records of one face as one opaque item: np.take copies these
# several times faster than the structured records themselves
_STL_PAIR = np.dtype((np.void, 2 * _STL_RECORD.itemsize))
_Y_CORNERS = np.dtype((np.void, 6 * 4))  # one face's six float32 y corners


def _stl_records(g: VoxelGrid):
    """Yield, per chunk of :func:`_faces`, its triangles as STL records,
    two per exposed face.

    A record pair is copied from a per-(x, direction) template holding the
    normal, the x and z corners (refreshed when z changes) and a zero
    attribute; the y corners are then gathered from a per-(y, direction)
    table into a buffer of ``_CHUNK`` items and written in one step.  Each
    chunk's records are a view of one buffer of ``2 * _CHUNK`` records,
    valid until the next chunk is requested.
    """
    res = g.resolution
    coords = _lattice_coords(res)
    template = np.zeros((res * 6, 2), dtype=_STL_RECORD)
    by_x = template.reshape(res, 6, 2)
    by_x["normal"] = _NORMALS[:, None]
    template["verts"][..., 0] = coords[_corner_table(res, 0)]
    # the six y corners of each (y, direction) row as one opaque item (made
    # contiguous first: at res = 1 the gather comes back transposed)
    y_corners = np.ascontiguousarray(coords[_corner_table(res, 1)])
    y_corners = y_corners.reshape(res * 6, 6).view(_Y_CORNERS)[:, 0]
    pairs = template.view(_STL_PAIR)[:, 0]
    buffer = np.empty(2 * _CHUNK, dtype=_STL_RECORD)
    y_buffer = np.empty(_CHUNK, dtype=_Y_CORNERS)
    last = None
    for z, xd, yd in _faces(g):
        if z != last:
            by_x["verts"][..., 2] = coords[z + _TRIANGLES[..., 2]]
            last = z
        records = buffer[: 2 * len(xd)]
        np.take(pairs, xd, axis=0, out=records.view(_STL_PAIR))
        ys = y_buffer[: len(yd)]
        np.take(y_corners, yd, axis=0, out=ys)
        records.reshape(-1, 2)["verts"][..., 1] = ys.view(np.float32).reshape(-1, 2, 3)
        yield records


def write_stl_binary(m: MeshBuffer, sink) -> int:
    """Little-endian binary STL; returns the byte count (84 + 50 per triangle).

    The header carries ``m.triangle_count``; records follow one chunk at a
    time, each chunk written from the same reused buffer, so ``sink.write``
    must consume its argument before returning (as files and ``BytesIO``
    do).  Raises ValueError if the streamed triangles do not match that
    count, since the header would then be wrong.
    """
    header = b"spongeheat axis-aligned voxel surface".ljust(80, b"\0")
    sink.write(header + struct.pack("<I", m.triangle_count))
    written = 0
    for records in _stl_records(m.grid):
        sink.write(records)  # through the buffer protocol: no copy of the payload
        written += len(records)
    if written != m.triangle_count:
        raise ValueError(
            f"streamed {written} triangles, header announced {m.triangle_count}"
        )
    return 84 + 50 * written


def _lattice_keys(g: VoxelGrid):
    """Yield, per chunk of :func:`_faces`, the dense lattice key
    x + side * (y + side * z) of every triangle corner, shape (K, 2, 3) for
    K exposed faces, from a per-(x, direction) table (refreshed when z
    changes) and a per-(y, direction) table."""
    res = g.resolution
    side = res + 1
    x_keys = _corner_table(res, 0).reshape(res, 6, 2, 3)
    y_keys = _corner_table(res, 1) * side
    last = None
    for z, xd, yd in _faces(g):
        if z != last:
            xz_keys = (x_keys + (z + _TRIANGLES[..., 2]) * side * side).reshape(res * 6, 2, 3)
            last = z
        yield xz_keys[xd] + y_keys[yd]


def write_obj(m: MeshBuffer, sink) -> int:
    """Text OBJ with vertices deduplicated by lattice corner (equivalently,
    by bit-identical coordinates), numbered 1-based in order of first
    appearance; LF endings.  Returns the byte count.

    Two passes over the chunks: the first numbers and writes the vertices,
    the second writes the faces.  Memory is one int32 id per lattice
    corner, (3^n + 1)^3 of them, plus one slab's face mask and one chunk.
    """
    side = m.grid.resolution + 1
    labels = np.array([f"{float(c):.9g}" for c in _lattice_coords(m.grid.resolution)],
                      dtype=object)
    ids = np.zeros(side**3, dtype=np.int32)  # 0: not numbered yet
    nbytes = 0
    count = 0
    for keys in _lattice_keys(m.grid):
        keys = keys.reshape(-1)
        fresh = np.flatnonzero(ids[keys] == 0)
        _, first = np.unique(keys[fresh], return_index=True)
        fresh = keys[fresh[np.sort(first)]]  # first appearance, triangle-major
        ids[fresh] = np.arange(count + 1, count + 1 + len(fresh))
        count += len(fresh)
        z, y, x = np.unravel_index(fresh, (side, side, side))
        nbytes += _write_lines(sink, "v %s %s %s\n",
                               labels[np.column_stack((x, y, z))].ravel().tolist())
    for keys in _lattice_keys(m.grid):
        nbytes += _write_lines(sink, "f %d %d %d\n", ids[keys].ravel().tolist())
    return nbytes


def _write_lines(sink, line: str, fields: list) -> int:
    # one ``line`` per three fields, formatted and written in one piece
    payload = ((line * (len(fields) // 3)) % tuple(fields)).encode("ascii")
    sink.write(payload)
    return len(payload)
