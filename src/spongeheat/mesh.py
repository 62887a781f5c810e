"""Triangle-mesh export of voxelized geometries (binary STL and text OBJ).

One quad per exposed voxel face, split along the (v0, v2) diagonal; no
face merging, so triangle count is exactly twice the exposed-face count.
Faces are emitted in a fixed (z, y, x, then +x/-x/+y/-y/+z/-z) order and
vertex coordinates are the voxel corner integers divided by 3^n, rounded
to float32 once, so identical runs produce byte-identical files and
coincident corners are bit-identical.

The writers generate and write the mesh in chunks of at most ``_CHUNK``
consecutive faces.  This is the only module that imports numpy.  A y-row's
exposed faces depend only on its row key: the row itself, the rows at
y +- 1 and the same row in the slabs z +- 1, each an int bitset as
``voxel.slab_rows`` hands it out, and 0 beyond the lattice.  :func:`_faces`
works out each distinct key's faces once, by the exposure rule of
:mod:`spongeheat.voxel`, keeps them as int16 (x, direction) rows (1,599
keys and 0.6 MB for the n = 5 sponge), and visits every slab once, in
order: it joins the slab's rows, repeats each row's y once per face of
the row into one int16 y index as long as the slab's face list, and
hands both out in slices of at most ``_CHUNK`` faces.
Every triangle is then assembled from small lookup tables indexed by
(x, direction) and (y, direction): STL record pairs and y corners, or OBJ
corner keys.  No per-face integer lattice is built, and each STL chunk is
a new array of at most ``2 * _CHUNK`` records, which the sink may keep.
OBJ keeps vertex ids for the two z-planes of the current slab only,
2 * (3^n + 1)^2 int32, shifted down one plane per slab and set by one
scatter-min per chunk in the vertex pass and again, in the same order, in
the face pass.  So export memory is the row faces, one slab's int16 face
list with its y index and one chunk, and not the mesh or a lattice
table: the n = 5 sponge STL traces at about 1.8 MiB, and its command
peaks at about 30.6 MB resident, the OBJ at about 32.2 MB, 1.5 and 3 MB
above the interpreter and numpy.
"""
from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from .voxel import VoxelGrid, _exposed, count_exposed_faces, slab_rows

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
_QUAD_TRIANGLES = [0, 1, 2, 0, 2, 3]
_TRIANGLES = _CORNERS[:, _QUAD_TRIANGLES].reshape(6, 2, 3, 3)


class MeshBuffer(NamedTuple):
    """Axis-aligned triangle soup of one voxel grid, two triangles per
    exposed voxel face, generated chunk by chunk on demand.

    ``triangle_count`` is known up front (twice the exposed-face count), so
    writers can emit their headers before the first triangle exists.
    ``triangles`` and ``normals`` join the STL chunks into the full
    (T, 3, 3) float32 vertex coordinates in [0, 1] and (T, 3) float32 unit
    normals, T = 0 included; the writers never use them.
    """

    grid: VoxelGrid
    triangle_count: int

    @property
    def triangles(self) -> np.ndarray:
        return np.concatenate([np.zeros((0, 3, 3), np.float32),
                               *(rec["verts"] for rec in _stl_records(self.grid))])

    @property
    def normals(self) -> np.ndarray:
        return np.concatenate([np.zeros((0, 3), np.float32),
                               *(rec["normal"] for rec in _stl_records(self.grid))])


#: Most faces the writers assemble at once: an STL chunk holds at most
#: ``2 * _CHUNK`` records (205 KB).
_CHUNK = 2048


def _row_faces(keys: list, stride: int) -> list:
    """The exposed faces of each row key, as ascending int16 rows x * 6 + d
    of the (x, direction) tables.  A key holds the row, the rows at y + 1
    and y - 1, and the same row in slabs z + 1 and z - 1, as ints (0
    beyond the lattice), so one ``voxel._exposed(*key)`` call gives its six
    masks in direction order, +x, -x, +y, -y, +z, -z.  Each mask is
    unpacked from ``stride`` bits."""
    width = stride // 8
    masks = []
    for key in keys:
        masks += _exposed(*key)
    raw = b"".join(mask.to_bytes(width, byteorder="little") for mask in masks)
    # bit x of direction d of each key, unpacked as (key, direction, x) and
    # read as (key, x, direction)
    unpacked = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, 6, width),
                             axis=2, bitorder="little")
    row, xd = np.divmod(np.flatnonzero(unpacked.transpose(0, 2, 1)), 6 * stride)
    return np.split(xd.astype(np.int16), np.searchsorted(row, range(1, len(keys))))


def _faces(g: VoxelGrid):
    """Yield ``(z, chunks)`` once per z-slab, in order and empty slabs
    included, where ``chunks`` yields ``(xd, yd)`` for runs of at most
    ``_CHUNK`` consecutive exposed faces of the slab in emission order, each
    face as its rows x * 6 + d and y * 6 + d of the (x, direction) and
    (y, direction) tables.

    Each y-row's faces depend only on its row key (see :func:`_row_faces`),
    built from the rows of ``voxel.slab_rows`` with 0 for the row beyond
    the lattice in y and z, so they are worked out once per distinct key
    and kept as int16; a slab joins its rows' lists and repeats each row's
    y * 6 once per face of the row, so a chunk is a slice of both, and only
    its direction part is worked out per chunk.
    """
    res = g.resolution
    outside = (0,) * res  # no cell beyond the lattice, in any y
    slabs = [outside, *slab_rows(g), outside]
    cache = {}
    y6 = np.arange(0, 6 * res, 6, dtype=np.int16)
    for z in range(res):
        below, cur, above = slabs[z:z + 3]
        keys = list(zip(cur, cur[1:] + (0,), (0,) + cur[:-1], above, below))
        new = [key for key in dict.fromkeys(keys) if key not in cache]
        if new:
            cache.update(zip(new, _row_faces(new, g.stride)))
        rows = list(map(cache.__getitem__, keys))
        yield z, _chunks(np.concatenate(rows), np.repeat(y6, list(map(len, rows))))


def _chunks(xd: np.ndarray, ys: np.ndarray):
    # one slab's faces and the y * 6 of each, in runs of at most _CHUNK
    for i in range(0, len(xd), _CHUNK):
        chunk = xd[i:i + _CHUNK]
        yield chunk, ys[i:i + _CHUNK] + chunk - chunk // 6 * 6  # chunk % 6, only faster


def _corner_table(res: int, axis: int, corners: np.ndarray = _TRIANGLES) -> np.ndarray:
    # (res * 6, 2, 3), or (res * 6, 4) for the quad ``_CORNERS``: lattice
    # coordinate along ``axis`` of the corners of the face at position p in
    # direction d, row p * 6 + d
    table = np.add.outer(np.arange(res), corners[..., axis])
    return table.reshape(res * 6, *corners.shape[1:-1])


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


def _stl_records(g: VoxelGrid):
    """Yield, per chunk of :func:`_faces`, its triangles as a new array of
    STL records, two per exposed face.

    A record pair is copied from a per-(x, direction) template holding the
    normal, the x and z corners (set once per slab) and a zero attribute;
    the y corners are then gathered from a per-(y, direction) table and
    written in one step.
    """
    res = g.resolution
    coords = _lattice_coords(res)
    template = np.zeros((res * 6, 2), dtype=_STL_RECORD)
    by_x = template.reshape(res, 6, 2)
    by_x["normal"] = _NORMALS[:, None]
    template["verts"][..., 0] = coords[_corner_table(res, 0)]
    y_corners = coords[_corner_table(res, 1)]
    pairs = template.view(_STL_PAIR)[:, 0]
    for z, chunks in _faces(g):
        by_x["verts"][..., 2] = coords[z + _TRIANGLES[..., 2]]
        for xd, yd in chunks:
            records = np.take(pairs, xd, axis=0).view(_STL_RECORD)
            records.reshape(-1, 2)["verts"][..., 1] = np.take(y_corners, yd, axis=0)
            yield records


def write_stl_binary(m: MeshBuffer, sink) -> int:
    """Little-endian binary STL; returns the byte count (84 + 50 per triangle).

    The header carries ``m.triangle_count``; records follow one chunk at a
    time, each a new array that the sink may keep.  Raises ValueError if
    the streamed triangles do not match that count, since the header would
    then be wrong.
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


def _numbered(g: VoxelGrid):
    """Number the lattice corners of the mesh 1-based in order of first
    appearance (triangle-major), and yield, per chunk of :func:`_faces`,
    ``(z, keys, fresh, ids)``.  ``keys`` (K, 4) holds the four quad corners
    of each of the chunk's K faces as x + side * (y + side * dz), on the
    z-plane z + dz for dz in {0, 1}; ``fresh`` the keys the chunk numbers,
    in order; ``ids`` the id of each key, valid until the next chunk.

    A chunk numbers its unnumbered keys, ``new``, with one scatter-min: each
    slot takes the least provisional id, -len(new)..-1 by position, of its
    key (``np.minimum.at`` defines which repeat wins, ``ids[new] =`` does
    not), and the keys whose own slot it is take the next ids in order; no
    sort.  Only slab z's two planes hold ids: a corner on plane z can only
    be numbered by slab z - 1 or z, so each slab, empty or not, moves the
    ids of its lower plane down from the upper one and clears the upper.
    The numbering is a pure function of the grid, so every pass repeats it.
    """
    res = g.resolution
    side = res + 1
    plane = side * side
    # int32 quad-corner keys per (x, direction) and (y, direction) row, z
    # relative to the slab.  First appearance over the quads is first
    # appearance over the triangles, which only repeat the quad's (v0, v2)
    xz_keys = _corner_table(res, 0, _CORNERS).reshape(res, 6, 4) + _CORNERS[..., 2] * plane
    xz_keys = xz_keys.reshape(res * 6, 4).astype(np.int32)
    y_keys = (_corner_table(res, 1, _CORNERS) * side).astype(np.int32)
    ids = np.zeros(2 * plane, dtype=np.int32)  # 0: not numbered yet
    count = 0
    for z, chunks in _faces(g):
        ids[:plane] = ids[plane:]
        ids[plane:] = 0
        for xd, yd in chunks:
            # np.take: several times faster than fancy indexing at these sizes
            keys = np.take(xz_keys, xd, axis=0) + np.take(y_keys, yd, axis=0)
            new = keys[np.take(ids, keys) == 0]
            first = np.arange(-len(new), 0, dtype=np.int32)
            np.minimum.at(ids, new, first)
            fresh = new[np.take(ids, new) == first]
            ids[fresh] = np.arange(count + 1, count + 1 + len(fresh))
            count += len(fresh)
            yield z, keys, fresh, ids


def write_obj(m: MeshBuffer, sink) -> int:
    """Text OBJ with vertices deduplicated by lattice corner (equivalently,
    by bit-identical coordinates), numbered 1-based in order of first
    appearance; LF endings.  Returns the byte count.

    Two passes number the corners by one scatter-min per chunk, in the same
    order: the first writes the vertices, the second the faces.
    Memory is one int32 id per corner of two z-planes, 2 * (3^n + 1)^2 of
    them, plus the row faces, one slab's int16 face list and one chunk; the
    face pass formats the ``6 * _CHUNK`` vertex ids of one chunk at a time.
    """
    side = m.grid.resolution + 1
    labels = np.array([f"{float(c):.9g}" for c in _lattice_coords(m.grid.resolution)],
                      dtype=object)
    nbytes = 0
    for z, _, fresh, _ in _numbered(m.grid):
        dz, y, x = np.unravel_index(fresh, (2, side, side))
        nbytes += _write_lines(sink, "v %s %s %s\n",
                               labels[np.column_stack((x, y, z + dz))].ravel().tolist())
    for _, keys, _, ids in _numbered(m.grid):
        corners = np.take(np.take(ids, keys), _QUAD_TRIANGLES, axis=1)
        nbytes += _write_lines(sink, "f %d %d %d\n", corners.ravel().tolist())
    return nbytes


def _write_lines(sink, line: str, fields: list) -> int:
    # one ``line`` per three fields, formatted and written in one piece
    payload = ((line * (len(fields) // 3)) % tuple(fields)).encode("ascii")
    sink.write(payload)
    return len(payload)
