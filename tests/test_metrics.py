"""Closed-form metric tests: frozen values, range errors, exact identities."""

import math
from fractions import Fraction
from functools import partial

import pytest

from spongeheat import analysis, metrics
from spongeheat.metrics import (
    CLOSED_FORM_CAP,
    IterationOutOfRangeError,
    ModelKind,
    char_length,
    efficiency,
    model_face_counts,
    model_slab_count,
    model_surface,
    model_volume,
    slice_count,
    total_volume,
)

MENGER = ModelKind.MENGER_SPONGE
SLICES = ModelKind.SLICES


@pytest.mark.parametrize("n,expected", [(0, 1), (3, Fraction(1, 27)), (6, Fraction(1, 729))])
def test_char_length(n, expected):
    assert char_length(n) == expected


@pytest.mark.parametrize("n,expected", [(0, 1), (3, 14), (6, 365)])
def test_slice_count(n, expected):
    assert slice_count(n) == expected


def test_slice_count_closed_form():
    # floor(3^n/2) + 1 == (3^n + 1)/2 since 3^n is odd
    for n in range(CLOSED_FORM_CAP + 1):
        assert slice_count(n) == (3**n + 1) // 2


@pytest.mark.parametrize("n,expected", [(0, 1), (2, Fraction(5, 9)), (5, Fraction(122, 243))])
def test_slice_volume(n, expected):
    assert model_volume(SLICES, n) == expected


@pytest.mark.parametrize("n,expected", [(0, 6), (1, Fraction(20, 3)), (4, Fraction(6806, 81))])
def test_slice_surface(n, expected):
    assert model_surface(SLICES, n) == expected


@pytest.mark.parametrize(
    "n,expected",
    [(0, 1), (2, Fraction(400, 729)), (6, Fraction(64000000, 387420489))],
)
def test_menger_volume(n, expected):
    assert model_volume(MENGER, n) == expected


@pytest.mark.parametrize("n,expected", [(0, 6), (1, 8), (2, Fraction(1056, 81))])
def test_menger_surface(n, expected):
    assert model_surface(MENGER, n) == expected


@pytest.mark.parametrize(
    "n,expected",
    [(0, 27), (2, Fraction(1331, 729)), (4, Fraction(83, 81) ** 3)],
)
def test_total_volume(n, expected):
    assert total_volume(n) == expected


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        (MENGER, 0, 26),
        (SLICES, 3, Fraction(14183, 19683)),
        (MENGER, 3, Fraction(16389, 19683)),
    ],
)
def test_coolant_volume(kind, n, expected):
    assert total_volume(n) - model_volume(kind, n) == expected


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        (SLICES, 0, Fraction(26, 6)),
        (MENGER, 5, Fraction(3835375, 529016832)),
        (SLICES, 6, Fraction(98320963, 141796430415)),
    ],
)
def test_efficiency(kind, n, expected):
    assert efficiency(kind, n) == expected


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, (1, 1, 1)),
        (1, (Fraction(175, 214), Fraction(6, 5), Fraction(105, 107))),
        (4, (Fraction(12611800449, 5658464768), Fraction(18688, 30627), Fraction(411787, 302786))),
    ],
)
def test_ratios(n, expected):
    assert analysis.table_row(n)[-3:] == expected


@pytest.mark.parametrize("bad", [-1, 13, 100])
def test_iteration_cap(bad):
    # every function of n refuses it outside the cap; the sponge branches of
    # model_volume and model_surface check n themselves
    calls = [char_length, slice_count, total_volume, analysis.table_row]
    for kind in ModelKind:
        calls += [partial(fn, kind) for fn in (model_volume, model_surface, model_face_counts,
                                               efficiency)]
        calls.append(lambda n, kind=kind: model_slab_count(kind, n, 0))
    for fn in calls:
        with pytest.raises(IterationOutOfRangeError):
            fn(bad)


def test_iteration_rejects_non_integers():
    with pytest.raises(IterationOutOfRangeError):
        char_length(1.5)


def test_cap_inclusive():
    assert char_length(CLOSED_FORM_CAP) == Fraction(1, 3**12)


# -- exact identities over the full admissible range -------------------------

def menger_surface_simplified(n: int) -> Fraction:
    """Independent expression tree for the sponge surface: (2*20^n + 4*8^n)/9^n."""
    return Fraction(2 * 20**n + 4 * 8**n, 9**n)


def test_surface_forms_identical():
    for n in range(CLOSED_FORM_CAP + 1):
        assert model_surface(MENGER, n) == menger_surface_simplified(n)


def test_face_counts_sum_to_surface():
    # the per-direction unit-face counts are whole and add up to the surface
    for kind in ModelKind:
        for n in range(CLOSED_FORM_CAP + 1):
            counts = metrics.model_face_counts(kind, n)
            assert len(counts) == len(metrics.DIRECTIONS) == 6
            assert all(isinstance(c, int) and c > 0 for c in counts)
            assert Fraction(sum(counts), 9**n) == metrics.model_surface(kind, n)
    assert metrics.model_face_counts(MENGER, 6) == (21_508_096,) * 6
    assert metrics.model_face_counts(SLICES, 6) == (266_085,) * 4 + (193_975_965,) * 2


def test_slab_counts_sum_to_volume():
    # the per-layer cell counts are whole and add up to V * 27^n
    for kind in ModelKind:
        for n in range(7):
            counts = [metrics.model_slab_count(kind, n, z) for z in range(3**n)]
            assert sum(counts) == metrics.model_volume(kind, n) * 27**n
    assert [metrics.model_slab_count(MENGER, 2, z) for z in range(9)] == [
        64, 32, 64, 32, 16, 32, 64, 32, 64]
    assert [metrics.model_slab_count(SLICES, 1, z) for z in range(3)] == [9, 0, 9]
    for z in (-1, 9, 0.5, 1.0):
        with pytest.raises(ValueError):
            metrics.model_slab_count(MENGER, 2, z)


def test_quality_ratio_equals_coolant_ratio():
    for n in range(CLOSED_FORM_CAP + 1):
        want = ((total_volume(n) - model_volume(MENGER, n))
                / (total_volume(n) - model_volume(SLICES, n)))
        assert analysis.table_row(n).R_n == want


def test_slice_volume_asymptotics():
    # V_s approaches 1/2 with exact excess 1/(2*3^n)
    for n in range(CLOSED_FORM_CAP + 1):
        assert model_volume(SLICES, n) - Fraction(1, 2) == Fraction(1, 2 * 3**n)


def test_results_are_reduced_rationals():
    for n in range(CLOSED_FORM_CAP + 1):
        for value in (model_volume(SLICES, n), model_surface(SLICES, n), model_volume(MENGER, n),
                      model_surface(MENGER, n), total_volume(n), efficiency(MENGER, n)):
            assert isinstance(value, Fraction)
            assert math.gcd(value.numerator, value.denominator) == 1


def test_monotonicity():
    vm = [model_volume(MENGER, n) for n in range(CLOSED_FORM_CAP + 1)]
    vs = [model_volume(SLICES, n) for n in range(CLOSED_FORM_CAP + 1)]
    sm = [model_surface(MENGER, n) for n in range(CLOSED_FORM_CAP + 1)]
    ss = [model_surface(SLICES, n) for n in range(CLOSED_FORM_CAP + 1)]
    assert all(a > b for a, b in zip(vm, vm[1:]))
    assert all(a > b for a, b in zip(vs, vs[1:]))
    assert all(a < b for a, b in zip(sm[1:], sm[2:]))
    assert all(a < b for a, b in zip(ss[1:], ss[2:]))


def test_quality_ratio_threshold_seed():
    rn = [analysis.table_row(n).R_n for n in range(7)]
    assert rn[1] < 1
    assert all(rn[n] > 1 for n in range(2, 7))
    assert all(a < b for a, b in zip(rn[1:], rn[2:]))


# -- per-model invariants -----------------------------------------------------

@pytest.mark.parametrize("kind", [MENGER, SLICES])
def test_summary_invariants(kind):
    for n in range(CLOSED_FORM_CAP + 1):
        volume = metrics.model_volume(kind, n)
        surface = metrics.model_surface(kind, n)
        assert 0 < volume <= 1
        assert surface >= 6
        if kind is SLICES:
            rho, L = slice_count(n), char_length(n)
            assert volume == rho * L
            assert surface == rho * (2 + 4 * L)
        else:
            assert volume == Fraction(20, 27) ** n


def test_model_dispatch_total():
    for kind in ModelKind:
        assert metrics.model_volume(kind, 2) > 0
        assert metrics.model_surface(kind, 2) >= 6
