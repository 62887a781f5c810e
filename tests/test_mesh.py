"""Mesh extraction and STL/OBJ writer tests."""

import hashlib
import io
import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from spongeheat import mesh, metrics, voxel
from spongeheat.mesh import MeshBuffer, mesh_from_grid, write_obj, write_stl_binary
from spongeheat.metrics import ModelKind
from spongeheat.voxel import VoxelGrid, build_grid, count_exposed_faces

MENGER = ModelKind.MENGER_SPONGE
SLICES = ModelKind.SLICES


def _empty_mesh():
    # a single coolant voxel: nothing solid, so no exposed face
    grid = VoxelGrid(kind=SLICES, n=0, resolution=1, lines=(bytes(1),), slabs=((0,),),
                     index=(0,), solid_count=0)
    return mesh_from_grid(grid)


@pytest.mark.parametrize("n,expected", [(0, 12), (1, 144), (2, 2112)])
def test_menger_triangle_counts(n, expected):
    assert mesh_from_grid(build_grid(MENGER, n)).triangle_count == expected


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(3))
def test_triangles_are_two_per_exposed_face(kind, n):
    g = build_grid(kind, n)
    assert len(mesh_from_grid(g).triangles) == 2 * count_exposed_faces(g)


@pytest.mark.parametrize("kind", [MENGER, SLICES])
def test_orientation_matches_normals(kind):
    m = mesh_from_grid(build_grid(kind, 2))
    tris = m.triangles.astype(np.float64)
    cross = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    # positive multiple of the stored axis-aligned unit normal
    dots = np.einsum("ij,ij->i", cross, m.normals.astype(np.float64))
    assert (dots > 0).all()
    lengths = np.linalg.norm(cross, axis=1)
    assert np.allclose(cross / lengths[:, None], m.normals)


def test_vertices_are_voxel_corners():
    g = build_grid(MENGER, 2)
    m = mesh_from_grid(g)
    res = g.resolution
    flat = m.triangles.reshape(-1)
    steps = np.round(flat.astype(np.float64) * res).astype(int)
    assert ((0 <= steps) & (steps <= res)).all()
    assert (flat == (steps / res).astype(np.float32)).all()
    assert flat.min() >= 0.0 and flat.max() <= 1.0


def test_mesh_deterministic():
    a = mesh_from_grid(build_grid(MENGER, 2))
    b = mesh_from_grid(build_grid(MENGER, 2))
    assert a.triangles.tobytes() == b.triangles.tobytes()
    assert a.normals.tobytes() == b.normals.tobytes()


# -- STL --------------------------------------------------------------------------

def test_stl_byte_sizes():
    sink = io.BytesIO()
    assert write_stl_binary(mesh_from_grid(build_grid(MENGER, 1)), sink) == 7284
    assert len(sink.getvalue()) == 7284

    sink = io.BytesIO()
    assert write_stl_binary(_empty_mesh(), sink) == 84

    sink = io.BytesIO()
    assert write_stl_binary(mesh_from_grid(build_grid(MENGER, 2)), sink) == 105684


def test_stl_rejects_wrong_triangle_count():
    m = mesh_from_grid(build_grid(MENGER, 1))
    m = m._replace(triangle_count=m.triangle_count + 1)
    with pytest.raises(ValueError, match="header"):
        write_stl_binary(m, io.BytesIO())


class _ByteCounter:
    def __init__(self):
        self.nbytes = 0

    def write(self, data):
        self.nbytes += memoryview(data).nbytes


def test_stl_streams_in_bounded_memory():
    m = mesh_from_grid(build_grid(MENGER, 4))
    sink = _ByteCounter()
    tracemalloc.start()
    try:
        nbytes = write_stl_binary(m, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nbytes == sink.nbytes == 84 + 50 * m.triangle_count
    assert nbytes > 33_000_000
    assert peak < nbytes / 8


class _Sha256Sink:
    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, data):
        self.digest.update(data)


def test_stl_n5_sponge_hash():
    # 13.1 M triangles, hashed as they stream; chunk sizes vary within and
    # between slabs, so a stale byte left in the reused record buffer would
    # change the hash.  Memory is one slab's face mask and one fixed chunk
    # of records, whatever the size of the mesh or of its largest slab
    m = mesh_from_grid(build_grid(MENGER, 5))
    sink = _Sha256Sink()
    tracemalloc.start()
    try:
        write_stl_binary(m, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.digest.hexdigest() == (
        "ccaa469583aefe2db7a6baca993552d7e1d3924b2593a60fb977a07e596ed203")
    assert peak < 3 * 2**20


def test_stl_layout():
    m = mesh_from_grid(build_grid(MENGER, 1))
    sink = io.BytesIO()
    write_stl_binary(m, sink)
    raw = sink.getvalue()
    assert len(raw) == 84 + 50 * m.triangle_count
    assert raw[:80].rstrip(b"\0").isascii()
    (count,) = struct.unpack_from("<I", raw, 80)
    assert count == m.triangle_count == 144
    # first record: 12 little-endian float32 then a zero attribute
    record = struct.unpack_from("<12fH", raw, 84)
    assert record[:3] == tuple(m.normals[0])
    assert record[3:6] == tuple(m.triangles[0, 0])
    assert record[12] == 0
    # every attribute word is zero
    for i in range(count):
        (attr,) = struct.unpack_from("<H", raw, 84 + 50 * i + 48)
        assert attr == 0


def test_stl_deterministic_bytes():
    a, b = io.BytesIO(), io.BytesIO()
    write_stl_binary(mesh_from_grid(build_grid(SLICES, 2)), a)
    write_stl_binary(mesh_from_grid(build_grid(SLICES, 2)), b)
    assert a.getvalue() == b.getvalue()


@pytest.mark.parametrize("kind", [MENGER, SLICES])
def test_stl_file_matches_bytesio(kind, tmp_path):
    m = mesh_from_grid(build_grid(kind, 2))
    memory = io.BytesIO()
    expected = write_stl_binary(m, memory)
    path = tmp_path / "mesh.stl"
    with open(path, "wb") as sink:
        assert write_stl_binary(m, sink) == expected
    assert path.read_bytes() == memory.getvalue()
    assert expected == len(memory.getvalue())


def _digests(kind, n):
    m = mesh_from_grid(build_grid(kind, n))
    sinks = _Sha256Sink(), _Sha256Sink()
    write_stl_binary(m, sinks[0])
    write_obj(m, sinks[1])
    return [sink.digest.hexdigest() for sink in sinks]


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(4))
def test_chunk_size_does_not_change_bytes(kind, n, monkeypatch):
    # chunks of 1 and 7 faces split y-rows and vertex runs at every offset,
    # 1000 splits slabs mid-row; STL bytes and OBJ vertex numbering must
    # match the default chunk exactly
    expected = _digests(kind, n)
    for chunk in (1, 7, 1000):
        monkeypatch.setattr(mesh, "_CHUNK", chunk)
        assert _digests(kind, n) == expected, chunk


class _StlGeometry:
    """A sink that reads a binary STL back from its bytes as they stream in,
    whole records at a time.  It rounds each vertex to its lattice integer
    and sums, exactly in int64, det(v0, v1, v2) (six times the enclosed
    volume) and |(v1 - v0) x (v2 - v0)| (twice the area); it keeps every
    directed edge a -> b as one int key."""

    def __init__(self, res):
        self.res = res
        self.side = res + 1
        self.pending = bytearray()
        self.header = None
        self.det = 0
        self.area = 0
        self.edges = []

    def write(self, data):
        self.pending += memoryview(data).tobytes()
        if self.header is None:
            self.header = bytes(self.pending[:84])
            del self.pending[:84]
        whole = len(self.pending) // 50 * 50
        records = np.frombuffer(bytes(self.pending[:whole]), dtype=mesh._STL_RECORD)
        del self.pending[:whole]
        verts = np.rint(records["verts"].astype(np.float64) * self.res).astype(np.int64)
        assert ((verts >= 0) & (verts <= self.res)).all()
        assert ((verts / self.res).astype(np.float32) == records["verts"]).all()
        v0, v1, v2 = verts[:, 0], verts[:, 1], verts[:, 2]
        self.det += int((v0 * np.cross(v1, v2)).sum())
        cross = np.cross(v1 - v0, v2 - v0)
        # axis-aligned, so its length is its one nonzero component's size,
        # and it points along the stored normal
        assert (np.count_nonzero(cross, axis=1) == 1).all()
        assert (np.sign(cross) == records["normal"]).all()
        self.area += int(np.abs(cross).sum())
        keys = verts[..., 0] + self.side * (verts[..., 1] + self.side * verts[..., 2])
        self.edges.append(keys * self.side**3 + np.roll(keys, -1, axis=1))

    def unmatched_edges(self) -> int:
        """Directed edges a -> b without a matching b -> a, counted as the
        positions where the sorted edges and sorted reversed edges differ."""
        edges = np.concatenate(self.edges).reshape(-1)
        cube = self.side**3
        reverse = edges % cube * cube + edges // cube
        edges.sort()
        reverse.sort()
        return int(np.count_nonzero(edges != reverse))


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(5))
def test_stl_bytes_enclose_closed_form_volume_and_surface(kind, n):
    # read back from the written bytes: the divergence theorem gives the
    # solid count V * 27^n, the triangle areas twice the face count S * 9^n,
    # and matched directed edges a closed, consistently wound surface
    g = build_grid(kind, n)
    m = mesh_from_grid(g)
    sink = _StlGeometry(g.resolution)
    write_stl_binary(m, sink)
    assert not sink.pending
    volume = metrics.model_volume(kind, n) * 27**n
    surface = metrics.model_surface(kind, n) * 9**n
    assert volume.denominator == surface.denominator == 1
    assert sink.det == 6 * volume
    assert sink.area == 2 * surface == m.triangle_count
    assert sink.unmatched_edges() == 0


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(5))
def test_faces_per_direction_match_face_counts(kind, n):
    # the row-class face lists the writers emit, counted per direction,
    # against the oracle's per-direction count
    g = build_grid(kind, n)
    counts = np.zeros(6, dtype=np.int64)
    for _, xd, yd in mesh._faces(g):
        assert xd.dtype == yd.dtype == np.int16
        assert (xd % 6 == yd % 6).all()
        assert ((xd // 6 < g.resolution) & (yd // 6 < g.resolution)).all()
        counts += np.bincount(xd % 6, minlength=6)
    assert counts.tolist() == voxel.face_counts(g)


# -- OBJ --------------------------------------------------------------------------

def test_obj_streams_in_bounded_memory():
    # one int32 id per corner of two z-planes, 2 * 82^2 of them, plus the
    # row faces, one slab's face list and one chunk; a table of every
    # lattice corner would add 4 * 82^3 bytes (2.1 MiB)
    m = mesh_from_grid(build_grid(MENGER, 4))
    sink = _ByteCounter()
    tracemalloc.start()
    try:
        nbytes = write_obj(m, sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nbytes == sink.nbytes > 20_000_000
    assert peak < 2.5 * 2**20


def _obj_records(payload: bytes):
    lines = payload.decode("utf-8").splitlines()
    vs = [line for line in lines if line.startswith("v ")]
    fs = [line for line in lines if line.startswith("f ")]
    return vs, fs


def test_obj_cube():
    sink = io.BytesIO()
    write_obj(mesh_from_grid(build_grid(MENGER, 0)), sink)
    vs, fs = _obj_records(sink.getvalue())
    assert len(vs) == 8 and len(fs) == 12
    assert len(set(vs)) == 8  # dedup by bit-identical coordinates


def test_obj_two_slabs():
    # two disconnected 3x3x1-voxel slabs; one quad per voxel face (no
    # merging), so 60 faces -> 120 triangles over 2 * 32 lattice vertices
    sink = io.BytesIO()
    write_obj(mesh_from_grid(build_grid(SLICES, 1)), sink)
    vs, fs = _obj_records(sink.getvalue())
    assert len(vs) == 64 and len(fs) == 120


def test_obj_empty():
    sink = io.BytesIO()
    assert write_obj(_empty_mesh(), sink) == 0
    assert sink.getvalue() == b""


def test_obj_indices_valid_and_lf_only():
    sink = io.BytesIO()
    write_obj(mesh_from_grid(build_grid(MENGER, 1)), sink)
    payload = sink.getvalue()
    assert b"\r" not in payload
    vs, fs = _obj_records(payload)
    for line in fs:
        ids = [int(tok) for tok in line.split()[1:]]
        assert len(ids) == 3
        assert all(1 <= i <= len(vs) for i in ids)


def test_obj_round_trips_float32_exactly():
    g = build_grid(MENGER, 1)
    m = mesh_from_grid(g)
    sink = io.BytesIO()
    write_obj(m, sink)
    vs, _ = _obj_records(sink.getvalue())
    allowed = {np.float32(i / g.resolution).tobytes() for i in range(g.resolution + 1)}
    for line in vs:
        for token in line.split()[1:]:
            assert np.float32(float(token)).tobytes() in allowed


# -- watertightness -----------------------------------------------------------------

def _edge_counts(m: MeshBuffer) -> Counter:
    index = {}
    counts = Counter()
    for tri in m.triangles:
        ids = []
        for vertex in tri:
            key = vertex.tobytes()
            ids.append(index.setdefault(key, len(index)))
        for a, b in ((0, 1), (1, 2), (2, 0)):
            counts[tuple(sorted((ids[a], ids[b])))] += 1
    return counts


@pytest.mark.parametrize("n", [0, 1, 2])
def test_menger_mesh_watertight(n):
    counts = _edge_counts(mesh_from_grid(build_grid(MENGER, n)))
    assert counts and set(counts.values()) == {2}
