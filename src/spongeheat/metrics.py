"""Exact closed-form metrics for the two substrate geometries.

Everything in this module is evaluated over arbitrary-precision rationals
(`fractions.Fraction`); no floating point is used at any point, so equality
checks between independently derived expressions are exact.  Lengths are in
units of the unit-cube edge, areas and volumes in its square and cube.

The two geometries, parameterised by the iteration order ``n``:

* slices -- the unit cube cut into ``rho = floor(3^n / 2) + 1`` plates of
  thickness ``L = 1 / 3^n``, separated by coolant gaps of the same thickness
  (bottom and top plates solid);
* Menger sponge -- the fractal obtained by recursively removing the 7 center
  subcubes of each 3x3x3 subdivision, leaving 20.

Each per-model quantity is one function of ``(kind, n)``, with no second
entry per model.  The ratios between the two models are composed by
``analysis.table_row`` from its own columns.  All functions are pure and
safe to call concurrently.
"""
from __future__ import annotations

import enum
import operator
from fractions import Fraction

#: Every range check on n compares against one of the two caps below, and no
#: option moves them.  They live in this numpy-free module so that the CLI
#: can check arguments without importing ``voxel`` or ``mesh``.
#:
#: Hard cap on the iteration order for closed-form evaluation, and for the
#: voxel oracle that checks them.  The values stay exact at any n; the cap
#: bounds rational bit growth, and the oracle's sponge at n = 12 (531441^3
#: cells) holds 4096 int lines of 71 KB, 290 MB, and a table of 3^12 ids.
CLOSED_FORM_CAP = 12

#: Largest iteration order the ``mesh`` command exports: the n = 5 sponge
#: STL is 653 MB (13.1 M triangles); n = 6 would be 12.9 GB.
MESH_CAP = 5


class IterationOutOfRangeError(ValueError):
    """Iteration order outside [0, CLOSED_FORM_CAP]."""


class ModelKind(enum.Enum):
    """The two substrate geometries under comparison."""

    SLICES = "slices"
    MENGER_SPONGE = "menger"


def check_iteration(n: int) -> int:
    """Validate an iteration order, in [0, CLOSED_FORM_CAP] for the closed
    forms and the voxel oracle alike; returns it as a plain int."""
    try:
        n = operator.index(n)
    except TypeError:
        raise IterationOutOfRangeError(f"iteration order must be an integer, got {n!r}") from None
    if not 0 <= n <= CLOSED_FORM_CAP:
        raise IterationOutOfRangeError(f"iteration order {n} outside [0, {CLOSED_FORM_CAP}]")
    return n


def char_length(n: int) -> Fraction:
    """Characteristic length L = 1/3^n (slice thickness and gap width)."""
    n = check_iteration(n)
    return Fraction(1, 3**n)


def slice_count(n: int) -> int:
    """Number of plates rho = floor(3^n/2) + 1, equal to (3^n + 1)/2."""
    n = check_iteration(n)
    return 3**n // 2 + 1


def total_volume(n: int) -> Fraction:
    """Volume (1 + 2L)^3 of the wrapping cube that holds model plus coolant."""
    return (1 + 2 * char_length(n)) ** 3


def model_volume(kind: ModelKind, n: int) -> Fraction:
    """Substrate volume of either model: rho * L = 1/2 + 1/(2*3^n) for the
    slices, (20/27)^n for the level-n Menger sponge."""
    if kind is ModelKind.SLICES:
        return slice_count(n) * char_length(n)
    n = check_iteration(n)
    return Fraction(20, 27) ** n


def model_surface(kind: ModelKind, n: int) -> Fraction:
    """Heat-emitting surface of either model.

    The slices expose rho * (2 + 4L): both plate faces plus the four edge
    strips of every plate.  The sponge's is evaluated as the product form
    (1/9) * (20/9)^(n-1) * (40 + 80*(2/5)^n); at n = 0 the rational negative
    power makes this reduce exactly to 6, the unit cube.  Algebraically
    identical to (2*20^n + 4*8^n)/9^n, which the test suite checks by exact
    equality for every admissible n.
    """
    if kind is ModelKind.SLICES:
        return slice_count(n) * (2 + 4 * char_length(n))
    n = check_iteration(n)
    return Fraction(1, 9) * Fraction(20, 9) ** (n - 1) * (40 + 80 * Fraction(2, 5) ** n)


#: Face directions in the order of :func:`model_face_counts`.
DIRECTIONS = ("+x", "-x", "+y", "-y", "+z", "-z")


def model_face_counts(kind: ModelKind, n: int) -> tuple[int, ...]:
    """Exposed unit faces (edge 1/3^n) of either model in each direction.

    The sponge is symmetric under the cube's rotations, so each direction
    holds a sixth of its 2*20^n + 4*8^n faces; the slices expose rho*3^n
    rim faces in each of +-x and +-y and rho*9^n plate faces in each of +-z.
    Their sum times 1/9^n is ``model_surface``.
    """
    n = check_iteration(n)
    if kind is ModelKind.SLICES:
        rho = slice_count(n)
        return (rho * 3**n,) * 4 + (rho * 9**n,) * 2
    return ((2 * 20**n + 4 * 8**n) // 6,) * 6


def model_slab_count(kind: ModelKind, n: int, z: int) -> int:
    """Solid unit cells (edge 1/3^n) in layer z of either model, 0 <= z < 3^n.

    A slice layer is a whole plate, 9^n cells, when z is even and coolant
    when z is odd.  A sponge cell survives iff no base-3 digit position holds
    a 1 in two or more of its coordinates, so each digit where z has a 1
    leaves 4 of the 9 (x, y) digit pairs and each other digit leaves 8: a
    layer whose z has k digits equal to 1 holds 4^k * 8^(n-k) cells.  Over
    all z the layers sum to ``model_volume`` times 27^n.
    """
    n = check_iteration(n)
    try:
        z = operator.index(z)
    except TypeError:
        raise ValueError(f"layer must be an integer, got {z!r}") from None
    if not 0 <= z < 3**n:
        raise ValueError(f"layer {z} outside [0, {3**n})")
    if kind is ModelKind.SLICES:
        return 0 if z % 2 else 9**n
    k = sum(z // 3**i % 3 == 1 for i in range(n))
    return 4**k * 8 ** (n - k)


def efficiency(kind: ModelKind, n: int) -> Fraction:
    """Coolant volume, the wrapping cube minus the substrate, available per
    unit of heat-emitting surface; smaller values mean a thermally harder
    configuration."""
    return (total_volume(n) - model_volume(kind, n)) / model_surface(kind, n)
