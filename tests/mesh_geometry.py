"""A voxel mesh read back from its own bytes, binary STL or text OBJ, for
the mesh tests, the acceptance suite and the CI check of the n = 5 files.
Both layouts are spelled out here, apart from the writers'.  Each reader
is a sink fed byte chunks of any size; ``end()`` reads what is left and
checks that the stream stops where its format says.  Both pass every
triangle, as three float32 vertices, through :meth:`MeshGeometry._add`."""

import struct

import numpy as np

#: One binary STL triangle: normal, three vertices, attribute word (50 bytes).
RECORD = np.dtype([("normal", "<f4", (3,)), ("verts", "<f4", (3, 3)), ("attr", "<u2")])
#: Sorted edge keys per reverse lookup in :meth:`MeshGeometry.edge_defects` (8 MiB).
_BLOCK = 2**20


class MeshGeometry:
    """The triangles of a mesh at lattice resolution ``res``.  Each vertex
    must be a lattice corner i / res rounded to float32 and each cross
    product (v1 - v0) x (v2 - v0) must lie along one axis.  Sums, exactly in
    int64, det(v0, v1, v2) (six times the enclosed volume) and
    |(v1 - v0) x (v2 - v0)| (twice the area), and keeps each triangle's
    directed edges v0 -> v1 -> v2 -> v0 as int keys in ``edges``, so they
    hold every vertex of every triangle, in order.  ``triangles`` counts the
    triangles read so far."""

    def __init__(self, res):
        self.res = res
        self.side = res + 1
        self.pending = bytearray()
        self.triangles = 0
        self.det = 0
        self.area = 0
        self._edges = []

    def write(self, data):
        self.pending += memoryview(data).cast("B")
        if len(self.pending) >= 2**20:  # read in blocks, whatever the writes
            self._read()

    def end(self):
        self._read()
        assert not self.pending, "the stream ends inside a record or a line"

    def _lattice(self, coords):
        # the corner keys and int64 lattice indices of float32 coordinates
        ints = np.rint(coords.astype(np.float64) * self.res).astype(np.int64)
        assert ((ints >= 0) & (ints <= self.res)).all()
        assert ((ints / self.res).astype(np.float32) == coords).all()
        return ints[..., 0] + self.side * (ints[..., 1] + self.side * ints[..., 2]), ints

    def _add(self, verts):
        """Check and sum (T, 3, 3) float32 triangles; returns their cross products."""
        keys, ints = self._lattice(verts)
        v0, v1, v2 = ints[:, 0], ints[:, 1], ints[:, 2]
        self.det += int((v0 * np.cross(v1, v2)).sum())
        cross = np.cross(v1 - v0, v2 - v0)
        # axis-aligned, so its length is its one nonzero component's size
        assert (np.count_nonzero(cross, axis=1) == 1).all()
        self.area += int(np.abs(cross).sum())
        self._edges.append(keys * self.side**3 + np.roll(keys, -1, axis=1))
        self.triangles += len(verts)
        return cross

    @property
    def edges(self) -> np.ndarray:
        if len(self._edges) != 1:
            self._edges = [np.concatenate([np.empty((0, 3), np.int64), *self._edges])]
        return self._edges[0]

    def same_edges(self, other: "MeshGeometry") -> bool:
        """Whether ``edges`` of both meshes are equal, compared block
        against block as each reader kept them, so that neither list of
        blocks is joined into one array."""
        mine, theirs = ((b.reshape(-1) for b in m._edges if b.size) for m in (self, other))
        a = b = np.empty(0, np.int64)
        while True:
            if not len(a):
                a = next(mine, None)
            if not len(b):
                b = next(theirs, None)
            if a is None or b is None:
                return a is b  # equal only when both streams end together
            k = min(len(a), len(b))
            if not np.array_equal(a[:k], b[:k]):
                return False
            a, b = a[k:], b[k:]

    def edge_defects(self) -> tuple[int, int]:
        """(directed edges a -> b that occur more than once, directed edges
        a -> b with no b -> a), both 0 for a closed, consistently wound
        surface.  Sorts ``edges`` in place, then looks the reverses up one
        block of sorted keys at a time, so the lookup's arrays are as long
        as a block, not as the edge list."""
        edges = self.edges.reshape(-1)
        if not len(edges):
            return 0, 0
        edges.sort()
        repeats = int(np.count_nonzero(edges[1:] == edges[:-1]))
        cube = self.side**3
        unmatched = 0
        for start in range(0, len(edges), _BLOCK):
            keys = edges[start:start + _BLOCK]
            reverse = keys % cube * cube + keys // cube
            at = np.minimum(np.searchsorted(edges, reverse), len(edges) - 1)
            unmatched += int(np.count_nonzero(edges[at] != reverse))
        return repeats, unmatched


class StlGeometry(MeshGeometry):
    """A binary STL: an 84-byte header ending in the triangle count,
    ``count``, then exactly that many records, each with a zero attribute
    word and a normal that is the sign of its cross product."""

    count = None

    def _read(self):
        if self.count is None:
            if len(self.pending) < 84:
                return
            (self.count,) = struct.unpack_from("<I", self.pending, 80)
            del self.pending[:84]
        whole = len(self.pending) // RECORD.itemsize * RECORD.itemsize
        records = np.frombuffer(bytes(self.pending[:whole]), dtype=RECORD)
        del self.pending[:whole]
        assert self.triangles + len(records) <= self.count, "more records than the header"
        assert (records["attr"] == 0).all()
        assert (np.sign(self._add(records["verts"])) == records["normal"]).all()

    def end(self):
        super().end()
        assert self.triangles == self.count, "fewer records than the header"


class ObjGeometry(MeshGeometry):
    """A text OBJ: LF-ended lines of four words, ``v x y z`` and then, after
    the last v line, ``f a b c`` with 1-based vertex ids.  No two v lines
    may be equal; ids must be in range and mentioned first in the order
    1, 2, 3, ..., so that every vertex is used once ``mentioned``, the
    highest id read, reaches ``vertices``.  Each f line gathers its three
    vertices into one triangle."""

    def __init__(self, res):
        super().__init__(res)
        self.vertices = 0
        self.mentioned = 0
        self.table = None  # the v lines as float32 rows, from the first f line on
        self._rows = []

    def _read(self):
        block = bytes(self.pending[:self.pending.rfind(b"\n") + 1])
        del self.pending[:len(block)]
        if not block:
            return
        # each line a kind letter, then three numbers with one space before each
        text = np.frombuffer(block, np.uint8)
        starts = np.concatenate([[0], np.flatnonzero(text == ord("\n"))[:-1] + 1])
        assert b"\r" not in block and (text[starts + 1] == ord(" ")).all()
        assert (np.add.reduceat(text == ord(" "), starts) == 3).all()
        v = int(np.count_nonzero(text[starts] == ord("v")))
        assert (text[starts[:v]] == ord("v")).all() and (text[starts[v:]] == ord("f")).all()
        cut = int(starts[v]) if v < len(starts) else len(block)
        coords = np.fromstring(block[:cut].replace(b"v", b" "), sep=" ")
        flat = np.fromstring(block[cut:].replace(b"f", b" "), dtype=np.int64, sep=" ")
        assert len(coords) == 3 * v and len(flat) == 3 * (len(starts) - v)
        if v:
            assert self.table is None, "a v line after the first f line"
            self._rows.append(coords.astype(np.float32).reshape(-1, 3))
            self.vertices += v
        if not len(flat):
            return
        if self.table is None:
            self.table = np.concatenate([np.empty((0, 3), np.float32), *self._rows])
            self._rows = None
            keys = np.sort(self._lattice(self.table)[0])
            assert (keys[1:] != keys[:-1]).all(), "two equal v lines"
        # numbered by first mention: each id at most one above every id before it
        before = np.maximum.accumulate(np.concatenate([[self.mentioned], flat[:-1]]))
        assert (flat >= 1).all() and (flat <= before + 1).all()
        self.mentioned = max(self.mentioned, int(flat.max()))
        assert self.mentioned <= self.vertices, "an id past the last v line"
        self._add(self.table[flat.reshape(-1, 3) - 1])

    def end(self):
        super().end()
        assert self.mentioned == self.vertices, "a v line that no f line uses"
