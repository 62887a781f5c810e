"""A binary STL of a voxel mesh read back from its own bytes, for the mesh
tests, the acceptance suite and the CI check of the n = 5 sponge.  The
record layout is spelled out here, apart from the writer's."""

import struct

import numpy as np

#: One binary STL triangle: normal, three vertices, attribute word (50 bytes).
RECORD = np.dtype([("normal", "<f4", (3,)), ("verts", "<f4", (3, 3)), ("attr", "<u2")])


class StlGeometry:
    """A sink that reads a binary STL at lattice resolution ``res`` back
    from its bytes as they stream in, whole records at a time.  Each record
    must hold lattice corners i / res rounded to float32, a zero attribute
    word, and a cross product (v1 - v0) x (v2 - v0) along one axis and the
    stored normal.  It sums, exactly in int64, det(v0, v1, v2) (six times
    the enclosed volume) and |(v1 - v0) x (v2 - v0)| (twice the area), and
    keeps every directed edge a -> b as one int key for
    :meth:`edge_defects`.  ``count`` is the header's triangle count and
    ``records`` the records read so far."""

    def __init__(self, res):
        self.res = res
        self.side = res + 1
        self.pending = bytearray()
        self.count = None
        self.records = 0
        self.det = 0
        self.area = 0
        self.edges = None

    def write(self, data):
        self.pending += memoryview(data).tobytes()
        if self.count is None:  # the first write holds the whole 84-byte header
            (self.count,) = struct.unpack_from("<I", self.pending, 80)
            del self.pending[:84]
            self.edges = np.empty((self.count, 3), dtype=np.int64)
        whole = len(self.pending) // RECORD.itemsize
        assert self.records + whole <= self.count, "more records than the header announced"
        records = np.frombuffer(bytes(self.pending[:whole * RECORD.itemsize]), dtype=RECORD)
        del self.pending[:whole * RECORD.itemsize]
        assert (records["attr"] == 0).all()
        verts = np.rint(records["verts"].astype(np.float64) * self.res).astype(np.int64)
        assert ((verts >= 0) & (verts <= self.res)).all()
        assert ((verts / self.res).astype(np.float32) == records["verts"]).all()
        v0, v1, v2 = verts[:, 0], verts[:, 1], verts[:, 2]
        self.det += int((v0 * np.cross(v1, v2)).sum())
        cross = np.cross(v1 - v0, v2 - v0)
        # axis-aligned, so its length is its one nonzero component's size
        assert (np.count_nonzero(cross, axis=1) == 1).all()
        assert (np.sign(cross) == records["normal"]).all()
        self.area += int(np.abs(cross).sum())
        keys = verts[..., 0] + self.side * (verts[..., 1] + self.side * verts[..., 2])
        edges = keys * self.side**3 + np.roll(keys, -1, axis=1)  # v0 -> v1 -> v2 -> v0
        self.edges[self.records:self.records + whole] = edges
        self.records += whole

    def edge_defects(self) -> tuple[int, int]:
        """(directed edges a -> b that occur more than once, directed edges
        a -> b with no b -> a), both 0 for a closed, consistently wound
        surface.  Sorts the kept edges in place."""
        edges = self.edges[:self.records].reshape(-1)
        if not len(edges):
            return 0, 0
        edges.sort()
        repeats = int(np.count_nonzero(edges[1:] == edges[:-1]))
        cube = self.side**3
        reverse = edges % cube * cube + edges // cube
        at = np.minimum(np.searchsorted(edges, reverse), len(edges) - 1)
        return repeats, int(np.count_nonzero(edges[at] != reverse))
