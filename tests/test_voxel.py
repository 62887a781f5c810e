"""Voxel oracle tests: membership predicates, grid construction, exact
agreement of measured volume/surface with the closed forms."""

import random
import sys
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from spongeheat import metrics, voxel
from spongeheat.metrics import IterationOutOfRangeError, ModelKind, check_iteration
from spongeheat.voxel import VoxelGrid, build_grid, count_exposed_faces, measure
from traced import traced_peak

MENGER = ModelKind.MENGER_SPONGE
SLICES = ModelKind.SLICES


# -- scalar membership reference: one cell at a time, from the digit rule ------

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


def stride(res):
    """Bits per packed y-row: whole bytes, at least one guard bit past
    x = res - 1."""
    return 8 * ((res + 8) // 8)


_last_rows = [None, None]


def _slab_rows(g):
    # once per grid in a row (a grid holds dicts, so it cannot key a cache):
    # ``cell`` reads one bit at a time
    if _last_rows[0] is not g:
        _last_rows[:] = g, voxel.slab_rows(g)
    return _last_rows[1]


def slab_lines(g, z):
    """Slab z as its y-rows, in y order, each an int with cell x at bit x,
    as ``voxel.slab_rows`` hands them out."""
    return list(_slab_rows(g)[z])


def reference_rows(g):
    """Independent decode of the line table, one (z, y) at a time: line
    ``table[index[z]][index[y]]``, or 0 when slab ``index[z]`` does not
    store class ``index[y]``."""
    return [tuple(g.lines[g.table[s][r]] if r in g.table[s] else 0 for r in g.index)
            for s in g.index]


def cell(g, x, y, z):
    """Bit x of row y of slab z."""
    return bool(slab_lines(g, z)[y] >> x & 1)


def decode_slab(g, z):
    """Slab z as a (y, x) bool array."""
    res = g.resolution
    width = (res + 7) // 8
    raw = b"".join(line.to_bytes(width, "little") for line in slab_lines(g, z))
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(res, width), axis=1,
                         bitorder="little")
    return bits[:, :res].view(bool)


def table_bytes(g):
    """Memory held by the grid's line table: lines, slab maps and index."""
    return sum(map(sys.getsizeof, (*g.lines, *g.table, g.lines, g.table, g.index)))


def menger_by_subdivision(x, y, z, n, res):
    """Independent reference: recursive 3x3x3 subdivision from the top."""
    if n == 0:
        return True
    third = res // 3
    cx, cy, cz = x // third, y // third, z // third
    if (cx == 1) + (cy == 1) + (cz == 1) >= 2:
        return False
    return menger_by_subdivision(x % third, y % third, z % third, n - 1, third)


def test_menger_membership_examples():
    assert is_solid_menger(1, 1, 1, 1) is False  # center subcube removed
    assert is_solid_menger(0, 0, 0, 1) is True   # corner survives
    assert is_solid_menger(1, 0, 0, 1) is True   # edge midcube survives
    assert is_solid_menger(1, 0, 1, 1) is False  # face center removed


@pytest.mark.parametrize("n", [0, 1, 2])
def test_menger_solid_count_by_enumeration(n):
    res = 3**n
    count = sum(
        is_solid_menger(x, y, z, n)
        for z in range(res) for y in range(res) for x in range(res)
    )
    assert count == 20**n


@pytest.mark.parametrize("n", [1, 2])
def test_menger_digit_test_matches_subdivision(n):
    res = 3**n
    for z in range(res):
        for y in range(res):
            for x in range(res):
                assert is_solid_menger(x, y, z, n) == menger_by_subdivision(x, y, z, n, res)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.data())
def test_menger_digit_test_matches_subdivision_random(n, data):
    res = 3**n
    x = data.draw(st.integers(0, res - 1))
    y = data.draw(st.integers(0, res - 1))
    z = data.draw(st.integers(0, res - 1))
    assert is_solid_menger(x, y, z, n) == menger_by_subdivision(x, y, z, n, res)


def test_slices_membership():
    assert is_solid_slices(0, 0, 1, 1) is False  # the single gap layer
    assert is_solid_slices(2, 2, 0, 1) is True
    assert is_solid_slices(0, 0, 2, 1) is True   # top layer solid
    count = sum(
        is_solid_slices(x, y, z, 1) for z in range(3) for y in range(3) for x in range(3)
    )
    assert count == 18
    assert Fraction(count, 27) == Fraction(2, 3)


def test_slices_count_n2():
    count = sum(
        is_solid_slices(x, y, z, 2) for z in range(9) for y in range(9) for x in range(9)
    )
    assert count == 5 * 81
    assert Fraction(count, 729) == Fraction(5, 9)


def test_coordinate_validation():
    with pytest.raises(CoordinateOutOfRangeError):
        is_solid_menger(3, 0, 0, 1)
    with pytest.raises(CoordinateOutOfRangeError):
        is_solid_slices(0, -1, 0, 2)


# -- grid construction ---------------------------------------------------------

@pytest.mark.parametrize("n", range(5))
def test_menger_grid_solid_count(n):
    assert build_grid(MENGER, n).solid_count == 20**n


@pytest.mark.parametrize("n", range(5))
def test_slices_grid_solid_count(n):
    assert build_grid(SLICES, n).solid_count == metrics.slice_count(n) * 9**n


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_grid_bits_match_scalar_predicate(kind, n):
    g = build_grid(kind, n)
    predicate = is_solid_menger if kind is MENGER else is_solid_slices
    res = g.resolution
    for z in range(res):
        for y in range(res):
            for x in range(res):
                assert cell(g, x, y, z) == predicate(x, y, z, n)


def menger_slab_by_digits(z, n):
    """Independent reference for sponge slab z: the base-3 digit test applied
    one digit position at a time, with no digit-one masks.  Digit k removes
    cell (x, y) when two of x, y and z have digit 1 there: x and y both, or
    either of them when z does."""
    res = 3**n
    v = np.arange(res)
    removed = np.zeros((res, res), dtype=bool)
    for k in range(n):
        one = (v // 3**k) % 3 == 1
        pair = np.logical_or if (z // 3**k) % 3 == 1 else np.logical_and
        removed |= pair.outer(one, one)
    return ~removed


@pytest.mark.parametrize("n", range(7))
def test_distinct_slab_build_matches_per_slab_build(n):
    # reference: every z-slab enumerated on its own, cell by cell, nothing
    # shared between z values with the same digit-one mask; the grid grows
    # its lines one digit at a time
    g = build_grid(MENGER, n)
    res = g.resolution
    # each distinct y-row once: the 2^n digit-one unions, every one of them
    # stored and none empty (x = 0 is solid in each), so no empty line is
    # kept for the classes a slab lacks; one slab per digit-one mask of z,
    # storing only the classes (masks of y) disjoint from it: 3^n entries,
    # where a dense table would hold 4^n
    assert len(set(g.lines)) == len(g.lines) == 2**n
    assert all(g.lines)
    assert {i for row in g.table for i in row.values()} == set(range(2**n))
    assert len(g.table) == 2**n
    assert all(not s & r for s, row in enumerate(g.table) for r in row)
    assert sum(map(len, g.table)) == 3**n
    assert set(g.index) == set(range(2**n))
    solids = 0
    for z in range(res):
        slab = menger_slab_by_digits(z, n)
        assert np.array_equal(decode_slab(g, z), slab), z
        solids += int(np.count_nonzero(slab))
    assert g.solid_count == solids

    g = build_grid(SLICES, n)
    assert g.index == tuple(z % 2 for z in range(g.resolution))
    assert g.table == ({0: 0, 1: 0}, {})
    res, full = g.resolution, 2**g.resolution - 1
    assert g.lines == (full,)
    assert [slab_lines(g, z) for z in range(res)] == [[full * (1 - z % 2)] * res
                                                      for z in range(res)]


@pytest.mark.parametrize("n", range(9))
def test_sponge_table_matches_pair_filter(n):
    # reference: every (slab, class) pair tested, 4^n tests for the 3^n
    # entries that the build's walk over the submasks reaches directly
    g = build_grid(MENGER, n)
    ids = range(2**n)
    assert g.table == tuple({r: s | r for r in ids if not s & r} for s in ids)


def test_sponge_table_shares_its_ids():
    # one int object per id, as key and as value: ints above 256 are not
    # cached, and a fresh key per entry added 13 MB to the n = 12 build
    g = build_grid(MENGER, 9)
    assert len({id(i) for row in g.table for entry in row.items() for i in entry}) == 2**9


@pytest.mark.parametrize("n", range(7))
def test_one_axis_map(n):
    # the digit rule treats y and z alike, so one map gives the slab of z
    # and the row class of y, and the classes a slab stores are slab ids
    # too: the sponge's table is symmetric in slab and class, and a slice
    # slab stores one line in every class or none
    sponge, slices = build_grid(MENGER, n), build_grid(SLICES, n)
    for g in (sponge, slices):
        assert g.resolution == 3**n
        assert all(set(row) <= set(range(len(g.table))) for row in g.table)
    assert all(sponge.table[r][s] == i for s, row in enumerate(sponge.table)
               for r, i in row.items())
    assert all(set(row) in ({0, 1}, set()) and len(set(row.values())) <= 1
               for row in slices.table)


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", [5, 6])
def test_grid_bits_match_scalar_predicate_sampled(kind, n):
    g = build_grid(kind, n)
    predicate = is_solid_menger if kind is MENGER else is_solid_slices
    res = g.resolution
    rng = random.Random(n)
    for _ in range(2000):
        x, y, z = rng.randrange(res), rng.randrange(res), rng.randrange(res)
        assert cell(g, x, y, z) == predicate(x, y, z, n), (x, y, z)


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(7))
def test_guard_bits_are_zero(kind, n):
    # the +-x exposure shifts read the zeros past each end of a line as
    # coolant, so no line holds a bit at or above the resolution; packed,
    # every line is stride bits, little-endian, so its guard bits are zero
    g = build_grid(kind, n)
    assert all(0 <= line < 1 << g.resolution for line in g.lines)
    assert g.stride == stride(g.resolution) > g.resolution
    width = g.stride // 8
    packed = g.packed
    assert (packed.format, packed.ndim, packed.readonly) == ("B", 1, True)
    assert packed.nbytes == width * len(g.lines)
    assert [int.from_bytes(packed[i * width:(i + 1) * width], "little")
            for i in range(len(g.lines))] == list(g.lines)


def test_grid_build_memory_n6():
    # the build allocates the line table (for the sponge, 64 int lines of
    # 124 bytes, 64 slab maps holding 3^6 line ids and the index, 46 KB in
    # all, where a 64 x 64 table took 50 KB; 6 KB for the slices) plus
    # O(res) scratch, under 8 KB; a line id per slab and y took 0.39 MB, and
    # joining the slabs as bitsets would add 4.3 MB
    for kind in (MENGER, SLICES):
        g, peak = traced_peak(build_grid, kind, 6)
        assert peak < table_bytes(g) + 32 * 2**10, (kind, peak - table_bytes(g))


def test_face_counts_memory_n6():
    # the count holds no slab bitset and no column of line ids per y: only
    # the line ints, the id pairs, the class successors and the memo of 384
    # stored line pairs (about 44 KB for the sponge, 80 KB over a dense
    # table; 0.56 MB with a column per y); joining each distinct slab as an
    # int took 1 MB, and 4.6 MB for all
    _, peak = traced_peak(measure, build_grid(MENGER, 6))
    assert peak < 2**17, peak / 2**10


def test_face_counts_memory_n9():
    # the count reads the grid's line ints as they are and counts each axis
    # once, over the stored entries only: the memo of 4608 line pairs, the
    # id pairs, the class successors and the per-line run counts take about
    # 0.75 MB for the sponge, where the dense table's empty entries took
    # 1.07 MB.  Counting + and - apart, with an outside line and slab, took
    # 1.33 MB, and a second copy of the 513 lines as ints, decoded from
    # bytes, 2.7 MB
    _, peak = traced_peak(measure, build_grid(MENGER, 9))
    assert peak < 1.0e6, peak / 1e6


@pytest.mark.parametrize("kind", [MENGER, SLICES])
def test_slab_rows(kind):
    # row y of slab z as an int, 0 for a class the slab does not store, and
    # one tuple shared by every z of a distinct slab
    g = build_grid(kind, 3)
    rows = voxel.slab_rows(g)
    assert rows == reference_rows(g)
    assert all(type(line) is int for row in rows for line in row)
    if kind is SLICES:
        assert rows[1] == (0,) * 27  # the gap stores no class
    assert len({id(row) for row in rows}) == len(set(g.index))


def test_public_api():
    # one entry per job: build, count (and the count's face total), read
    public = {name for name, obj in vars(voxel).items()
              if not name.startswith("_") and getattr(obj, "__module__", None) == voxel.__name__}
    assert public == {"VoxelGrid", "build_grid", "measure", "slab_counts", "slab_rows",
                      "count_exposed_faces"}
    # what a grid stores: the resolution is len(index), not a field
    assert VoxelGrid._fields == ("lines", "table", "index")


def test_grid_build_deterministic():
    # every field: the line table and its numbering
    assert build_grid(MENGER, 3) == build_grid(MENGER, 3)


def test_oracle_cap():
    # the build accepts every n the closed forms accept, with their check
    cap = metrics.CLOSED_FORM_CAP
    for kind in (MENGER, SLICES):
        for n in (-1, cap + 1):
            with pytest.raises(IterationOutOfRangeError, match=rf"^iteration order {n} "
                               rf"outside \[0, {cap}\]$"):
                build_grid(kind, n)


# -- measurements ---------------------------------------------------------------

MENGER_FACES = {0: 6, 1: 72, 2: 1056, 3: 18048}
SLICES_FACES = {0: 6, 1: 60, 2: 990, 3: 21924}


@pytest.mark.parametrize("n", range(4))
def test_menger_faces_frozen(n):
    assert count_exposed_faces(build_grid(MENGER, n)) == MENGER_FACES[n]


@pytest.mark.parametrize("n", range(4))
def test_slices_faces_frozen(n):
    assert count_exposed_faces(build_grid(SLICES, n)) == SLICES_FACES[n]


@pytest.mark.parametrize("n", range(5))
def test_face_count_closed_forms(n):
    assert count_exposed_faces(build_grid(MENGER, n)) == 2 * 20**n + 4 * 8**n
    rho = metrics.slice_count(n)
    assert count_exposed_faces(build_grid(SLICES, n)) == rho * (2 * 9**n + 4 * 3**n)


def pair_count_faces(g):
    """Reference face count: 6 * solids - 2 * (solid-solid adjacent pairs),
    one pass over every z-slab, with no memo and no per-direction masks."""
    res = g.resolution
    solids = pairs = 0
    prev = None
    for z in range(res):
        cur = decode_slab(g, z)
        solids += int(np.count_nonzero(cur))
        pairs += int(np.count_nonzero(cur[:, 1:] & cur[:, :-1]))  # x-neighbors
        pairs += int(np.count_nonzero(cur[1:, :] & cur[:-1, :]))  # y-neighbors
        if prev is not None:
            pairs += int(np.count_nonzero(cur & prev))  # z-neighbors
        prev = cur
    return 6 * solids - 2 * pairs


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(7))
def test_face_count_matches_pair_count_reference(kind, n):
    g = build_grid(kind, n)
    assert count_exposed_faces(g) == pair_count_faces(g)


def _counts(kind, n):
    g = build_grid(kind, n)
    return voxel.slab_counts(g), *measure(g)


@pytest.fixture(scope="module")
def counted():
    """``counted(kind, n)`` is ``(slab_counts(g), *measure(g))`` for the grid
    of (kind, n), built and counted once for the whole module: the n = 12
    sponge takes seconds.  The grid itself is not kept (its lines alone take
    290 MB at n = 12), only the counts, whose per-z lists share their ints."""
    return lru_cache(maxsize=None)(_counts)


@pytest.mark.parametrize("n", range(metrics.CLOSED_FORM_CAP + 1))
def test_face_counts_per_direction_closed_forms(n, counted):
    # the sponge is symmetric under the cube's rotations; slices expose
    # their plate faces on +-z and their rims on +-x and +-y
    assert (2 * 20**n + 4 * 8**n) % 6 == 0
    sponge = counted(MENGER, n)[2]
    assert sponge == [(2 * 20**n + 4 * 8**n) // 6] * 6
    rho = metrics.slice_count(n)
    slices = counted(SLICES, n)[2]
    assert slices == [rho * 3**n] * 4 + [rho * 9**n] * 2
    # the expected counts voxel-verify reports on a mismatch
    assert tuple(sponge) == metrics.model_face_counts(MENGER, n)
    assert tuple(slices) == metrics.model_face_counts(SLICES, n)


def slab_int(g, z):
    """Slab z as one int bitset, its rows joined in y order
    at ``stride`` bits each: cell (x, y) at bit x + stride * y, and zero
    guard bits between the rows."""
    width = stride(g.resolution) // 8
    return int.from_bytes(b"".join(line.to_bytes(width, "little")
                                   for line in slab_lines(g, z)), "little")


def exposed_bits(g, z):
    """Slab-level reference: slab z's exposed faces as six bitsets in the
    joined slab layout, directions in the order +x, -x, +y, -y, +z, -z.
    Each is a whole-slab shift: by 1 for +-x, the guard bits standing for
    the coolant beyond each row's ends, by ``stride`` for +-y, and against
    the adjacent slab (0 outside the lattice) for +-z."""
    w = stride(g.resolution)
    cur = slab_int(g, z)
    above, below = (slab_int(g, v) if 0 <= v < g.resolution else 0
                    for v in (z + 1, z - 1))
    return (cur & ~(cur >> 1), cur & ~(cur << 1), cur & ~(cur >> w), cur & ~(cur << w),
            cur & ~above, cur & ~below)


def _summed_masks(g):
    # the six exposure bitsets of every z-slab, counted slab by slab
    counts = [0] * 6
    for z in range(g.resolution):
        for d, mask in enumerate(exposed_bits(g, z)):
            counts[d] += mask.bit_count()
    return counts


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(7))
def test_face_counts_match_exposed_masks(kind, n):
    # the row-class count against slab-by-slab popcounts of whole-slab
    # exposure bitsets
    g = build_grid(kind, n)
    assert measure(g)[1] == _summed_masks(g)


@pytest.mark.parametrize("kind", [MENGER, SLICES])
def test_face_counts_exact_for_one_row_per_slab(kind):
    # the same occupancy with every z its own slab and every (z, y) its own
    # line, so equal slabs and equal lines sit under different ids: the
    # count must not assume distinct ids differ
    g = build_grid(kind, 3)
    res = g.resolution
    lines = tuple(line for z in range(res) for line in slab_lines(g, z))
    table = tuple({y: z * res + y for y in range(res)} for z in range(res))
    spread = g._replace(lines=lines, table=table, index=tuple(range(res)))
    assert [slab_lines(spread, z) for z in range(res)] == [slab_lines(g, z) for z in range(res)]
    assert measure(spread) == measure(g)
    assert _summed_masks(spread) == _summed_masks(g)


@st.composite
def line_table_grids(draw):
    """A hand-built sparse line table of any resolution: a pool of random,
    empty or full lines ending in an empty line, one map per slab from a
    random subset of the ids to random lines, and an index drawing its ids
    in any order for z and y, so equal rows and slabs recur both adjacent
    and apart.  A slab may store a class as an empty line or leave it out,
    and store a class that the next slab lacks.  The pool may also hold a
    second copy of one of its lines, and the table a second copy of one id
    (its slab and its class in every slab), so equal lines, slabs and
    classes need not share an id; lines and ids may be unused.  The
    resolution is the length of the index."""
    res = draw(st.integers(1, 12))
    line = st.one_of(st.just(0), st.just(2**res - 1), st.integers(0, 2**res - 1))
    pool = draw(st.lists(line, max_size=res + 1))
    if pool and draw(st.booleans()):
        pool.append(draw(st.sampled_from(pool)))
    pool.append(0)
    size = draw(st.integers(1, 4))
    row = st.dictionaries(st.integers(0, size - 1), st.integers(0, len(pool) - 1))
    table = draw(st.lists(row, min_size=size, max_size=size))
    if draw(st.booleans()):
        twin = draw(st.integers(0, size - 1))
        for ids in table:
            if twin in ids:
                ids[size] = ids[twin]
        table.append(dict(table[twin]))
    index = draw(st.lists(st.integers(0, len(table) - 1), min_size=res, max_size=res))
    return VoxelGrid(lines=tuple(pool), table=tuple(table), index=tuple(index))


def test_line_table_grids_draw_the_sparse_layout():
    # the strategy reaches each feature of the sparse layout that the count
    # must not trip on
    def stored_empty(g):
        return any(g.lines[i] == 0 for row in g.table for i in row.values())

    def equal_lines(g):
        stored = {i for row in g.table for i in row.values()}
        return len({g.lines[i] for i in stored}) < len(stored)

    def missing_class(g):
        return any(r not in g.table[s] for s in set(g.index) for r in set(g.index))

    def dropped_next(g):
        return any(g.table[s].keys() - g.table[t].keys() for s, t in zip(g.index, g.index[1:]))

    def unused_line(g):
        return len({i for row in g.table for i in row.values()}) < len(g.lines)

    for feature in (stored_empty, equal_lines, missing_class, dropped_next, unused_line):
        found = find(line_table_grids(), feature,
                     settings=settings(database=None, derandomize=True,
                                       phases=[Phase.generate]))
        assert feature(found)


@settings(max_examples=150, deadline=None)
@given(line_table_grids())
def test_face_counts_random_pooled_grids(g):
    # the rows handed out, 0 for every class a slab lacks, against the
    # reference decode, whatever the pool's empty, equal or unused lines
    assert voxel.slab_rows(g) == reference_rows(g)
    assert count_exposed_faces(g) == pair_count_faces(g)
    reference = _summed_masks(g)
    # every run of solid cells along an axis ends in one + and one - face
    assert reference[0::2] == reference[1::2]
    assert measure(g)[1] == reference


@pytest.mark.parametrize("kind", [MENGER, SLICES])
def test_oracle_equivalence_n7(kind):
    # the line table reaches n = 7 (2187^3 cells) within a second
    started = time.perf_counter()
    g = build_grid(kind, 7)
    slabs, faces = measure(g)
    elapsed = time.perf_counter() - started
    assert tuple(faces) == metrics.model_face_counts(kind, 7)
    assert sum(slabs) == g.solid_count == metrics.model_volume(kind, 7) * 27**7
    assert elapsed < 1.0, elapsed


def measured_volume(g):
    """Solid-cell count times the voxel volume, as the CLI works it out."""
    return sum(measure(g)[0]) * g.voxel_edge**3


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(5))
def test_oracle_equivalence_small(kind, n):
    # exact rational equality against the closed forms; n = 5 runs in the
    # acceptance suite
    g = build_grid(kind, n)
    assert measured_volume(g) == metrics.model_volume(kind, n)
    assert count_exposed_faces(g) * g.voxel_edge**2 == metrics.model_surface(kind, n)


@pytest.mark.parametrize("kind", [MENGER, SLICES])
@pytest.mark.parametrize("n", range(metrics.CLOSED_FORM_CAP + 1))
def test_slab_counts(kind, n, counted):
    # per-z solid counts: each equals its closed form, and together they are
    # the solid count V * 27^n
    counts, slabs, _ = counted(kind, n)
    assert len(counts) == 3**n
    assert sum(counts) == metrics.model_volume(kind, n) * 27**n
    assert counts == [metrics.model_slab_count(kind, n, z) for z in range(3**n)]
    assert slabs == counts
    if n <= 3:
        g = build_grid(kind, n)
        assert counts == [int(decode_slab(g, z).sum()) for z in range(g.resolution)]


def test_measure_examples():
    assert measured_volume(build_grid(MENGER, 1)) == Fraction(20, 27)
    assert measured_volume(build_grid(SLICES, 1)) == Fraction(2, 3)
    assert measured_volume(build_grid(MENGER, 4)) == Fraction(160000, 531441)
    for kind, n, surface in [(MENGER, 0, 6), (SLICES, 4, Fraction(6806, 81)),
                             (MENGER, 3, Fraction(18048, 729))]:
        g = build_grid(kind, n)
        assert count_exposed_faces(g) * g.voxel_edge**2 == surface


def test_grid_shape_and_edge():
    g = build_grid(MENGER, 2)
    assert g.resolution == 9
    assert g.voxel_edge == Fraction(1, 9)
    # 4 lines: the digit-one unions 0, 1, 2, 3, and no empty line
    assert g.lines == (0b111111111, 0b101101101, 0b111000111, 0b101000101)
    # packed as 2 bytes a line: 9 cells and 7 zero guard bits, little-endian
    assert g.stride == 16
    assert bytes(g.packed) == b"\xff\x01\x6d\x01\xc7\x01\x45\x01"
    # slab s stores row class r as line s | r only when not s & r; a class
    # it lacks reads as the empty row, 0 (slab mask 3 at z = 4, class 3 at
    # y = 4)
    assert voxel.slab_rows(g)[4][4] == 0
    assert g.table == ({0: 0, 1: 1, 2: 2, 3: 3}, {0: 1, 2: 3}, {0: 2, 1: 3}, {0: 3})
    assert g.index == (0, 1, 0, 2, 3, 2, 0, 1, 0)
