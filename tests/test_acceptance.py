"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criterion 2 includes
the n = 6 oracle run (729^3 cells, about a second for both models).
"""

import io
import math
import time
from fractions import Fraction
from pathlib import Path

import golden
from spongeheat import analysis, mesh, metrics, voxel
from spongeheat.metrics import ModelKind
from mesh_geometry import StlGeometry
from test_analysis import _interp  # piecewise log-linear, as the crossover tests check it
from test_metrics import menger_surface_simplified  # the sponge surface's second form
from test_voxel import table_bytes  # the line table's memory, as the voxel tests measure it

MENGER = ModelKind.MENGER_SPONGE
SLICES = ModelKind.SLICES

README = Path(__file__).resolve().parent.parent / "README.md"


def test_criterion_1_table_golden_reproduction():
    """Every printed cell of the reference table reproduced exactly, modulo
    the six documented errata (exact rational shown for each)."""
    started = time.perf_counter()
    mismatches = {}
    for n in range(7):
        strings = analysis.format_paper_precision(analysis.table_row(n))
        for col in golden.COLUMNS:
            published = golden.PUBLISHED_TABLE[n][golden.COLUMNS.index(col)]
            if strings[col] != published:
                mismatches[(n, col)] = (published, strings[col])
    elapsed = time.perf_counter() - started

    undocumented = set(mismatches) - set(golden.ERRATA)
    assert not undocumented, f"undocumented mismatches: {undocumented}"
    assert set(mismatches) == set(golden.ERRATA)
    for key, (published, computed) in sorted(mismatches.items()):
        expected_published, corrected, rational = golden.ERRATA[key]
        assert published == expected_published
        assert computed == corrected, (key, rational)
    assert elapsed < 1.0, f"table reproduction took {elapsed:.3f}s"

    print(f"\nACCEPTANCE 1 table-golden: PASS "
          f"(85/91 cells verbatim, 6 documented errata, {elapsed * 1000:.1f} ms)")
    for (n, col), (published, computed) in sorted(mismatches.items()):
        rational = golden.ERRATA[(n, col)][2]
        print(f"  erratum n={n} {col}: published {published!r}, "
              f"exact {rational} -> {computed!r}")


def test_criterion_2_oracle_equivalence():
    """Voxel-measured volume and surface equal the closed forms exactly for
    both models, n = 0..5; n = 5 within 10 s and a line table under 128 KB."""
    n5_elapsed = {}
    for kind in (MENGER, SLICES):
        for n in range(6):
            started = time.perf_counter()
            grid = voxel.build_grid(kind, n)
            slabs, faces = voxel.measure(grid)
            measured_v = sum(slabs) * grid.voxel_edge**3
            measured_s = voxel.count_exposed_faces(grid, faces) * grid.voxel_edge**2
            elapsed = time.perf_counter() - started
            assert measured_v == metrics.model_volume(kind, n), (kind, n)
            assert measured_s == metrics.model_surface(kind, n), (kind, n)
            if n == 5:
                n5_elapsed[kind] = elapsed
                assert elapsed < 10.0, f"n=5 {kind} took {elapsed:.2f}s"
                assert table_bytes(grid) < 128 * 2**10
    print(f"\nACCEPTANCE 2 oracle-equivalence: PASS "
          f"(exact rational equality, both models, n=0..5; "
          f"n=5 in {max(n5_elapsed.values()):.2f}s)")


def test_criterion_2_oracle_equivalence_n6():
    """The same exact equality at n = 6 (729^3 cells) for both models, each
    within 10 s and a line table under 512 KB."""
    for kind in (MENGER, SLICES):
        started = time.perf_counter()
        grid = voxel.build_grid(kind, 6)
        slabs, faces = voxel.measure(grid)
        measured_s = voxel.count_exposed_faces(grid, faces) * grid.voxel_edge**2
        assert sum(slabs) * grid.voxel_edge**3 == metrics.model_volume(kind, 6)
        assert measured_s == metrics.model_surface(kind, 6)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"n=6 {kind} took {elapsed:.2f}s"
        assert table_bytes(grid) < 512 * 2**10
        print(f"\nACCEPTANCE 2b oracle n=6 {kind.value}: PASS ({elapsed:.1f}s, "
              f"{table_bytes(grid) / 2**10:.0f} KB line table)")


def test_criterion_3_algebraic_identities():
    """Exact equality for n = 0..12 of the quality-ratio identity, the slice
    volume asymptotics, and the two sponge-surface forms."""
    for n in range(metrics.CLOSED_FORM_CAP + 1):
        r = analysis.table_row(n)
        coolant_ratio = (
            (metrics.total_volume(n) - metrics.model_volume(MENGER, n))
            / (metrics.total_volume(n) - metrics.model_volume(SLICES, n))
        )
        assert r.R_n == coolant_ratio, n
        assert metrics.model_volume(SLICES, n) - Fraction(1, 2) == Fraction(1, 2 * 3**n), n
        assert metrics.model_surface(MENGER, n) == menger_surface_simplified(n), n
    print("\nACCEPTANCE 3 algebraic-identities: PASS (three identities, n=0..12, exact)")


def test_criterion_4_crossover_property():
    """find_crossover returns s_star in [12, 52] on the reference series, and
    the sponge strictly beats the interpolated slice curve at every sponge
    sample with S >= 51.27."""
    sponge, slabs = analysis.curves(analysis.full_table(6))
    report = analysis.find_crossover(sponge, slabs)
    assert 12.0 <= report.s_star <= 52.0

    # independent check of the dominance claim at the tabulated points
    ts = [math.log(float(s)) for s, _ in slabs]
    es = [float(e) for _, e in slabs]
    margins = {}
    for n, (surface, eff) in enumerate(sponge):
        if float(surface) >= 51.27:
            slice_eff = _interp(ts, es, math.log(float(surface)))
            assert float(eff) > slice_eff, (n, float(eff), slice_eff)
            margins[n] = float(eff) / slice_eff
    assert set(margins) == {4, 5, 6}
    print(f"\nACCEPTANCE 4 crossover: PASS (s_star={report.s_star:.6f} in [12, 52]; "
          f"sponge/slice at S>=51.27: "
          + ", ".join(f"n={n}: {m:.4f}" for n, m in sorted(margins.items())))


def test_criterion_5_threshold_reproduction():
    """Smallest n with R_n > 1 is 2, R_1 < 1, R_n strictly increasing for
    n = 1..6; the README documents the published prose discrepancy."""
    rn = [analysis.table_row(n).R_n for n in range(7)]
    assert rn[1] < 1
    assert min(n for n in range(7) if rn[n] > 1) == 2
    assert analysis.format_paper_precision(analysis.table_row(2))["R_n"] == "1.0054"
    assert all(a < b for a, b in zip(rn[1:], rn[2:]))

    text = " ".join(README.read_text(encoding="utf-8").split())
    assert "first exceeds 1 at n = 2" in text
    assert "n > 3" in text
    print("\nACCEPTANCE 5 threshold: PASS (R_1 < 1 < R_2 = 1.0054, strictly "
          "increasing to n=6; README documents the published n > 3 prose)")


def test_criterion_6_mesh_conformance():
    """STL of the n=1 sponge is exactly 7284 bytes / 144 triangles; for both
    models n <= 4, read back from the STL bytes, the triangle count is twice
    the exposed faces, and every directed edge occurs once, with its reverse
    (a closed, consistently wound surface)."""
    sink = io.BytesIO()
    buffer = mesh.mesh_from_grid(voxel.build_grid(MENGER, 1))
    assert buffer.triangle_count == 144
    assert mesh.write_stl_binary(buffer, sink) == 7284
    assert len(sink.getvalue()) == 7284

    for kind in (MENGER, SLICES):
        for n in range(5):
            grid = voxel.build_grid(kind, n)
            reader = StlGeometry(grid.resolution)
            mesh.write_stl_binary(mesh.mesh_from_grid(grid), reader)
            reader.end()
            assert reader.triangles == 2 * voxel.count_exposed_faces(grid), (kind, n)
            assert reader.edge_defects() == (0, 0), (kind, n)
    print("\nACCEPTANCE 6 mesh-conformance: PASS (7284-byte n=1 STL, 144 triangles; "
          "read back for both models n<=4: 2 triangles per exposed face, every directed "
          "edge once and reversed once)")
