"""Mesh extraction and STL/OBJ writer tests."""

import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spongeheat import mesh, voxel
from spongeheat.mesh import mesh_from_grid, write_obj, write_stl_binary
from spongeheat.metrics import ModelKind
from spongeheat.voxel import VoxelGrid, build_grid, count_exposed_faces
import mesh_bytes
import mesh_geometry
from mesh_geometry import ObjGeometry, StlGeometry
from test_voxel import exposed_bits, stride
from traced import traced_peak

MENGER = ModelKind.MENGER_SPONGE
SLICES = ModelKind.SLICES


def _empty_mesh():
    # a single coolant voxel: nothing solid, so no exposed face
    grid = VoxelGrid(lines=(), table=({},), index=(0,))
    return mesh_from_grid(grid)


@pytest.mark.parametrize("n,expected", [(0, 12), (1, 144), (2, 2112)])
def test_menger_triangle_counts(n, expected):
    assert mesh_from_grid(build_grid(MENGER, n)).triangle_count == expected


# -- STL --------------------------------------------------------------------------

def test_stl_byte_sizes():
    sink = io.BytesIO()
    assert write_stl_binary(mesh_from_grid(build_grid(MENGER, 1)), sink) == 7284
    assert len(sink.getvalue()) == 7284

    sink = io.BytesIO()
    assert write_stl_binary(_empty_mesh(), sink) == 84

    sink = io.BytesIO()
    assert write_stl_binary(mesh_from_grid(build_grid(MENGER, 2)), sink) == 105684


def test_empty_mesh_arrays():
    m = _empty_mesh()
    for array, shape in ((m.triangles, (0, 3, 3)), (m.normals, (0, 3))):
        assert array.dtype == np.float32 and array.shape == shape


def test_stl_rejects_wrong_triangle_count():
    m = mesh_from_grid(build_grid(MENGER, 1))
    m = m._replace(triangle_count=m.triangle_count + 1)
    with pytest.raises(ValueError, match="header"):
        write_stl_binary(m, io.BytesIO())


@pytest.mark.parametrize("extra", [-1, 1])
def test_obj_rejects_wrong_triangle_count(extra):
    # the CLI prints triangle_count for either format, so the OBJ must hold it
    m = mesh_from_grid(build_grid(MENGER, 1))
    m = m._replace(triangle_count=m.triangle_count + extra)
    with pytest.raises(ValueError, match="triangles"):
        write_obj(m, io.BytesIO())


class _ByteCounter:
    def __init__(self):
        self.nbytes = 0

    def write(self, data):
        self.nbytes += memoryview(data).nbytes


def test_stl_streams_in_bounded_memory():
    m = mesh_from_grid(build_grid(MENGER, 4))
    sink = _ByteCounter()
    nbytes, peak = traced_peak(write_stl_binary, m, sink)
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
    # between slabs, so a record carried over from an earlier chunk would
    # change the hash.  Memory is the row faces, one slab's int16 face list
    # and (y, direction) index, and one chunk of at most 2 * 2048 records,
    # whatever the size of the mesh
    m = mesh_from_grid(build_grid(MENGER, 5))
    sink = _Sha256Sink()
    _, peak = traced_peak(write_stl_binary, m, sink)
    assert sink.digest.hexdigest() == mesh_bytes.PINS["m5.stl"]
    assert peak < 2.25 * 2**20


def test_stl_layout():
    m = mesh_from_grid(build_grid(MENGER, 1))
    sink = io.BytesIO()
    write_stl_binary(m, sink)
    raw = sink.getvalue()
    assert len(raw) == 84 + 50 * m.triangle_count
    assert raw[:80].rstrip(b"\0").isascii()
    (count,) = struct.unpack_from("<I", raw, 80)
    assert count == m.triangle_count == 144
    # first record, 12 little-endian float32 and a zero attribute: voxel
    # (0, 0, 0) exposes -x first, corners (0, 0, 0), (0, 0, 1), (0, 1, 1) / 3
    third = float(np.float32(1 / 3))
    assert struct.unpack_from("<12fH", raw, 84) == (
        -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, third, 0.0, third, third, 0)


def test_stl_deterministic_bytes():
    for kind in (MENGER, SLICES):
        a, b = io.BytesIO(), io.BytesIO()
        write_stl_binary(mesh_from_grid(build_grid(kind, 2)), a)
        write_stl_binary(mesh_from_grid(build_grid(kind, 2)), b)
        assert a.getvalue() == b.getvalue(), kind


class _KeepingSink:
    # keeps every object it is handed, as a sink that queues writes would
    def __init__(self):
        self.parts = []

    def write(self, data):
        self.parts.append(data)


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(4))
def test_stl_sink_may_keep_chunks(kind, n):
    m = mesh_from_grid(build_grid(kind, n))
    memory, kept = io.BytesIO(), _KeepingSink()
    write_stl_binary(m, memory)
    write_stl_binary(m, kept)
    assert b"".join(kept.parts) == memory.getvalue()


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
    # 1000 splits slabs mid-row, 4096 was the default before; STL bytes and
    # OBJ vertex numbering must match the default chunk exactly
    expected = _digests(kind, n)
    for chunk in (1, 7, 1000, 4096):
        monkeypatch.setattr(mesh, "_CHUNK", chunk)
        assert _digests(kind, n) == expected, chunk


_READERS = {"stl": (write_stl_binary, StlGeometry), "obj": (write_obj, ObjGeometry)}


def _read_back(m, fmt):
    """Mesh ``m`` written as ``fmt``, read back and checked by its reader."""
    write, reader = _READERS[fmt]
    sink = reader(m.grid.resolution)
    write(m, sink)
    sink.end()
    assert sink.triangles == m.triangle_count
    return sink


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(3))
def test_triangles_are_two_per_exposed_face(kind, n):
    g = build_grid(kind, n)
    assert _read_back(mesh_from_grid(g), "stl").triangles == 2 * count_exposed_faces(g)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_menger_mesh_watertight(n):
    assert _read_back(mesh_from_grid(build_grid(MENGER, n)), "stl").edge_defects() == (0, 0)


@pytest.mark.parametrize("block", [1, 7, 2**20])
def test_edge_defects_found_in_any_block(block, monkeypatch):
    # the reverses are looked up one block of sorted keys at a time: a
    # missing or a repeated triangle counts the same, whichever blocks its
    # edges and their reverses fall in
    monkeypatch.setattr(mesh_geometry, "_BLOCK", block)
    sink = _read_back(mesh_from_grid(build_grid(MENGER, 1)), "stl")
    edges = sink.edges.copy()
    assert sink.edge_defects() == (0, 0)
    for t in (0, 71, len(edges) - 1):
        sink._edges = [np.delete(edges, t, axis=0)]
        assert sink.edge_defects() == (0, 3), t
        sink._edges = [np.concatenate([edges, edges[t:t + 1]])]
        assert sink.edge_defects() == (3, 0), t


def test_same_edges_across_any_blocks():
    # the keys are compared as streams, wherever each reader's blocks end:
    # one changed key, one key more or less, or an order changed, is a
    # difference; empty blocks are not
    keys = _read_back(mesh_from_grid(build_grid(MENGER, 1)), "stl").edges.reshape(-1)
    a, b = ObjGeometry(3), StlGeometry(3)

    def blocks(*cuts, keys=keys):
        return [keys[i:j] for i, j in zip((0, *cuts), (*cuts, len(keys)))]

    a._edges = blocks(5, 5, 300)
    for cuts in [(), (1, 2, 3), (5, 300), (299, 301, len(keys))]:
        b._edges = blocks(*cuts)
        assert a.same_edges(b) and b.same_edges(a), cuts
    changed = keys.copy()
    changed[301] += 1
    for other in [changed, keys[:-1], keys[1:], np.append(keys, keys[0]), keys[::-1]]:
        b._edges = blocks(7, 302, keys=other)
        assert not a.same_edges(b) and not b.same_edges(a)
    b._edges = []
    assert not a.same_edges(b) and b.same_edges(StlGeometry(3))


# the STL cases keep the ids of n and kind alone
@pytest.mark.parametrize("fmt,n,kind", [
    pytest.param(fmt, n, kind, id=f"{n}-{kind}" + ("-obj" if fmt == "obj" else ""))
    for fmt in ("stl", "obj") for n in range(5) for kind in (MENGER, SLICES)])
def test_stl_bytes_enclose_closed_form_volume_and_surface(fmt, n, kind):
    # the closed forms by the divergence theorem, each directed edge once
    # with its reverse (a closed, consistently wound surface) and, for the
    # OBJ, the STL's edge keys: the same vertices, triangle by triangle
    m = mesh_from_grid(build_grid(kind, n))
    sink = _read_back(m, fmt)
    sink.assert_encloses(kind, n)
    assert fmt == "stl" or sink.same_edges(_read_back(m, "stl"))
    assert sink.edge_defects() == (0, 0)


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(5))
def test_faces_per_direction_match_face_counts(kind, n):
    # the row-class face lists the writers emit, counted per direction,
    # against the oracle's per-direction count; every slab comes once, in
    # order, empty ones included, since the OBJ id window shifts per slab
    g = build_grid(kind, n)
    counts = np.zeros(6, dtype=np.int64)
    zs = []
    for z, chunks in mesh._faces(g):
        zs.append(z)
        for xd, yd in chunks:
            assert xd.dtype == yd.dtype == np.int16
            assert len(xd) == len(yd) <= mesh._CHUNK
            assert (xd % 6 == yd % 6).all()
            assert ((xd // 6 < g.resolution) & (yd // 6 < g.resolution)).all()
            counts += np.bincount(xd % 6, minlength=6)
    assert zs == list(range(g.resolution))
    assert counts.tolist() == voxel.measure(g)[1]


def test_faces_of_empty_grid_visit_its_slab():
    g = _empty_mesh().grid
    assert [(z, list(chunks)) for z, chunks in mesh._faces(g)] == [(0, [])]


@pytest.mark.parametrize("chunk", [1, 7, 2048])
@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(4))
def test_faces_are_the_exposed_bits_in_order(n, kind, chunk, monkeypatch):
    # each slab's faces, decoded to (y, x, direction), come in ascending
    # order and are exactly the set bits of the slab-level reference: bit
    # x + stride * y of direction d
    monkeypatch.setattr(mesh, "_CHUNK", chunk)
    g = build_grid(kind, n)
    w = stride(g.resolution)
    for z, chunks in mesh._faces(g):
        faces = [(y, x, d) for xd, yd in chunks
                 for y, x, d in zip((yd // 6).tolist(), (xd // 6).tolist(), (xd % 6).tolist())]
        assert faces == sorted(faces)
        expected = {(bit // w, bit % w, d)
                    for d, mask in enumerate(exposed_bits(g, z))
                    for bit in range(mask.bit_length()) if mask >> bit & 1}
        assert set(faces) == expected and len(faces) == len(expected)


# -- OBJ --------------------------------------------------------------------------

def test_obj_streams_in_bounded_memory():
    # one int32 id per corner of two z-planes, 2 * 82^2 of them, plus the
    # row faces, one slab's int16 face list and one chunk of keys and
    # formatted lines; a table of every lattice corner would add 4 * 82^3
    # bytes (2.1 MiB)
    m = mesh_from_grid(build_grid(MENGER, 4))
    sink = _ByteCounter()
    nbytes, peak = traced_peak(write_obj, m, sink)
    assert nbytes == sink.nbytes > 20_000_000
    assert peak < 1.5 * 2**20


def test_obj_cube():
    # one v line per lattice corner: the reader refuses two equal ones
    obj = _read_back(mesh_from_grid(build_grid(MENGER, 0)), "obj")
    assert (obj.vertices, obj.triangles) == (8, 12)


def test_obj_two_slabs():
    # two disconnected 3x3x1-voxel slabs; one quad per voxel face (no
    # merging), so 60 faces -> 120 triangles over 2 * 32 lattice vertices
    obj = _read_back(mesh_from_grid(build_grid(SLICES, 1)), "obj")
    assert (obj.vertices, obj.triangles) == (64, 120)


def test_obj_empty():
    sink = io.BytesIO()
    assert write_obj(_empty_mesh(), sink) == 0
    assert sink.getvalue() == b""


def _obj_records(payload: bytes):
    lines = payload.decode("utf-8").splitlines()
    vs = [line for line in lines if line.startswith("v ")]
    fs = [line for line in lines if line.startswith("f ")]
    return vs, fs


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


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(3))
def test_obj_vertices_numbered_by_first_mention(n, kind, chunk, monkeypatch):
    # the OBJ contract, stated directly: read in order, the f lines mention
    # new vertex ids as 1, 2, 3, ..., every v line is used, and no two v
    # lines are equal
    if chunk is not None:
        monkeypatch.setattr(mesh, "_CHUNK", chunk)
    sink = io.BytesIO()
    write_obj(mesh_from_grid(build_grid(kind, n)), sink)
    vs, fs = _obj_records(sink.getvalue())
    seen = {}
    for line in fs:
        for token in line.split()[1:]:
            seen.setdefault(int(token), len(seen) + 1)
    assert list(seen) == list(seen.values()) == list(range(1, len(vs) + 1))
    assert len(set(vs)) == len(vs)


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk1", "chunk7", "default"])
@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(4))
def test_obj_decodes_to_the_stl_triangles(n, kind, chunk, monkeypatch):
    # chunks of 1 and 7 faces split vertex runs at every offset; read back,
    # the OBJ passes its reader's checks (LF only, every v line before the
    # first f line, ids first mentioned as 1, 2, 3, ..., every vertex used
    # and no two equal) and its edge keys, every vertex of every triangle
    # in order, equal the STL's
    if chunk is not None:
        monkeypatch.setattr(mesh, "_CHUNK", chunk)
    m = mesh_from_grid(build_grid(kind, n))
    assert _read_back(m, "obj").same_edges(_read_back(m, "stl"))


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


# -- OBJ face lines against %-formatting --------------------------------------------

def _percent_faces(corners) -> bytes:
    # the reference: each row of ids %-formatted as an f line
    return b"".join(b"f %d %d %d\n" % tuple(row) for row in corners.tolist())


def _assert_percent_faces(corners) -> None:
    sink = io.BytesIO()
    assert mesh._write_faces(sink, corners) == len(sink.getvalue())
    assert sink.getvalue() == _percent_faces(corners)


@pytest.mark.parametrize("w", range(1, 10))
def test_fixed_width_faces_match_percent_formatting(w):
    # every id w digits long: both ends of the width, digits that differ
    # from their neighbours, and random ones; a one-line chunk too
    lo, hi = 10 ** (w - 1), 10**w - 1
    edges = [[lo, hi, lo + 1], [hi - 1, int("123456789"[:w]), int("987654321"[:w])]]
    rng = np.random.default_rng(w)
    corners = np.concatenate([edges, rng.integers(lo, hi + 1, size=(500, 3))]).astype(np.int32)
    for chunk in (corners, corners[:1], corners[1:2]):
        _assert_percent_faces(chunk)
        assert len(_percent_faces(chunk)) == len(chunk) * (3 * w + 5)


@pytest.mark.parametrize("below", [9, 999, 9_999_999])
def test_faces_across_a_power_of_ten(below):
    # ids one digit apart, in every place of a line, and a line of the
    # shorter width alone
    _assert_percent_faces(np.array([[below, below, below], [below, below + 1, below],
                                    [below + 1, below, below + 1], [below + 1] * 3],
                                   dtype=np.int32))


def test_faces_hold_every_power_of_ten():
    # each exact power of ten 10^0 .. 10^9 keeps its leading 1, next to
    # the ids one below it and single digits
    powers = [10**e for e in range(10)]
    _assert_percent_faces(np.array([powers[:3], powers[3:6], powers[6:9], [powers[9], 7, 1],
                                    [p - 1 for p in powers[7:]], [3, 10, 99_999]],
                                   dtype=np.int32))


_IDS = st.one_of(
    st.integers(1, 2**31 - 1),
    st.integers(0, 9).flatmap(lambda e: st.integers(10**e, min(10 ** (e + 1), 2**31) - 1)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_IDS, _IDS, _IDS), min_size=1, max_size=40))
def test_faces_match_percent_formatting_for_any_ids(rows):
    # any int32 ids, of one width or of many
    _assert_percent_faces(np.array(rows, dtype=np.int32))


def test_obj_pinned_in_chunks_of_7(monkeypatch):
    # chunks of 7 faces: most hold ids of one width, and those that cross
    # 10, 100, 1000 or 10000 drop leading zeros; the bytes are those of
    # the %-only writer, pinned
    monkeypatch.setattr(mesh, "_CHUNK", 7)
    sink = _Sha256Sink()
    write_obj(mesh_from_grid(build_grid(MENGER, 3)), sink)
    assert sink.digest.hexdigest() == (
        "66a7355bfb1ae63c5cb8beab360e8f9e8381de2e1a3b220b66ca5a63c734cb87")
