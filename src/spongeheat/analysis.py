"""Reference-table reproduction, printed-precision formatting, the
efficiency curves and their crossover, and the text/CSV/JSON renderers of
each report.  The curves are the (S, E) columns of the table's rows, so the
series and the crossover read the very values that the table prints.

Formatting conventions follow the published reference table: plain columns
carry 4 decimal places (3 once the value reaches 100, i.e. 6 significant
digits), efficiency values below 1 use the ``mantissa(-p)`` shorthand for
``mantissa * 10^-p``, and rounding is half-away-from-zero applied to the
exact rational.  Each renderer returns one report as a string for the
caller to print or write.  The CSV and JSON ones follow one cell rule: the
int columns (``n``, ``rho``) are written as is, and every rational as a
fixed-point decimal at 10 significant digits (CSV), or as that decimal next
to the exact ``p/q`` form (JSON).  Every printed decimal goes through
:func:`round_half_away`, and every exact value prints as ``str(Fraction)``.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import metrics
from .metrics import ModelKind, check_iteration

class EfficiencyRow(NamedTuple):
    """One full row of the reference table (13 columns, exact rationals)."""

    n: int
    rho: int
    L: Fraction
    V_M: Fraction
    V_s: Fraction
    S_M: Fraction
    S_s: Fraction
    V_tot: Fraction
    E_M: Fraction
    E_s: Fraction
    R_E: Fraction
    R_S: Fraction
    R_n: Fraction


TABLE_COLUMNS = EfficiencyRow._fields

#: Columns rendered with the scientific shorthand when below 1.
EFFICIENCY_COLUMNS = ("E_M", "E_s")


def table_row(n: int) -> EfficiencyRow:
    """All 13 columns for iteration order n, populated from the closed forms.
    The ratios between the two models are composed from the row's own
    columns: R_E = E_M/E_s, R_S = S_M/S_s and R_n = R_E * R_S, above 1 where
    the sponge cools better and equal to (V_tot - V_M)/(V_tot - V_s)."""
    n = check_iteration(n)
    sponge, slices = ModelKind.MENGER_SPONGE, ModelKind.SLICES
    s_m, s_s = metrics.model_surface(sponge, n), metrics.model_surface(slices, n)
    e_m, e_s = metrics.efficiency(sponge, n), metrics.efficiency(slices, n)
    r_e, r_s = e_m / e_s, s_m / s_s
    return EfficiencyRow(
        n=n, rho=metrics.slice_count(n), L=metrics.char_length(n),
        V_M=metrics.model_volume(sponge, n), V_s=metrics.model_volume(slices, n),
        S_M=s_m, S_s=s_s, V_tot=metrics.total_volume(n), E_M=e_m, E_s=e_s,
        R_E=r_e, R_S=r_s, R_n=r_e * r_s,
    )


def full_table(n_max: int) -> list[EfficiencyRow]:
    """Rows for n = 0..n_max in order."""
    n_max = check_iteration(n_max)
    return [table_row(n) for n in range(n_max + 1)]


# ---------------------------------------------------------------------------
# printed-precision formatting


def _half_up(value: Fraction) -> int:
    # the integer nearest a non-negative rational, halves rounded up
    return (2 * value.numerator + value.denominator) // (2 * value.denominator)


def _exponent(mag: Fraction) -> int:
    # e with 10^e <= mag < 10^(e + 1) for mag > 0 (-1 for 0): the digit
    # counts of numerator and denominator fix it to within one
    e = len(str(mag.numerator)) - len(str(mag.denominator))
    return e - 1 if mag < Fraction(10) ** e else e


def _rounded_exponent(mag: Fraction, sig: int) -> int:
    # the exponent of mag > 0 once rounded half up to sig significant
    # digits: one higher when the rounding carries into the next power of ten
    e = _exponent(mag)
    return e + (_half_up(mag * Fraction(10) ** (sig - 1 - e)) == 10**sig)


def round_half_away(value: Fraction, decimals: int) -> str:
    """Render a rational rounded half away from zero to a multiple of
    ``10^-decimals`` (exact integer arithmetic, no float involved): with
    ``decimals`` places after the point, or for ``decimals <= 0`` as an
    integer with no point."""
    sign = "-" if value < 0 else ""
    units = _half_up(abs(value) * Fraction(10) ** decimals)
    if decimals <= 0:
        return sign + str(units * 10**-decimals)
    digits = str(units).rjust(decimals + 1, "0")
    return sign + digits[:-decimals] + "." + digits[-decimals:]


def format_fixed(value: Fraction) -> str:
    """A volume or surface as the table prints it: 4 decimals, capped to 6
    significant digits for values >= 100 (by the exponent before rounding)."""
    return round_half_away(value, max(0, min(4, 5 - _exponent(abs(value)))))


def _format_shorthand(value: Fraction) -> str:
    # mantissa(-p) with 1 <= |mantissa| < 10, for 0 < |value| < 1, so e <= 0
    e = _rounded_exponent(abs(value), 5)
    return f"{round_half_away(value * 10**-e, 4)}({e})"


def format_paper_precision(row: EfficiencyRow) -> dict[str, str]:
    """Render one row with the reference table's printed conventions.

    Returns one string per column, keyed and ordered by TABLE_COLUMNS.
    """
    out = {
        "n": str(row.n),
        "rho": str(row.rho),
        "L": str(row.L),
    }
    for col in TABLE_COLUMNS[3:]:
        value = getattr(row, col)
        if col in EFFICIENCY_COLUMNS and abs(value) < 1:
            out[col] = _format_shorthand(value)
        else:
            out[col] = format_fixed(value)
    return out


def decimal_string(value: Fraction) -> str:
    """Decimal rendering of a rational at 10 significant digits
    (half-away-from-zero), in fixed-point notation at every magnitude."""
    if value == 0:
        return "0.000000000"
    return round_half_away(value, 9 - _rounded_exponent(abs(value), 10))


# ---------------------------------------------------------------------------
# efficiency curves, taken from the table rows, and their crossover


#: An efficiency curve: one model's (S, E) samples, S increasing.
Curve = Sequence[tuple[Fraction, Fraction]]


def curves(rows: Sequence[EfficiencyRow]) -> tuple[Curve, Curve]:
    """The sponge and slice efficiency curves of a table: the (S_M, E_M)
    and (S_s, E_s) columns of its rows, one point per row."""
    return [(row.S_M, row.E_M) for row in rows], [(row.S_s, row.E_s) for row in rows]


class NoCrossoverError(ValueError):
    """The two efficiency curves never cross within the shared surface range."""


class CrossoverReport(NamedTuple):
    """Where the sponge efficiency curve overtakes the slice curve.

    ``s_star`` is the interpolated surface size of the meets-then-exceeds
    crossing; the brackets give the (n_low, n_high) segment of each series
    containing it.
    """

    s_star: float
    menger_bracket: tuple[int, int]
    slices_bracket: tuple[int, int]
    method = "log-linear"


def _interp_log_linear(ts: list[float], es: list[float], t: float) -> float:
    # piecewise linear in (ln S, E); t is ln S, within [ts[0], ts[-1]]
    i = bisect_right(ts, t) - 1
    if i >= len(ts) - 1:
        return es[-1]
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    return es[i] + w * (es[i + 1] - es[i])


def find_crossover(menger: Curve, slices: Curve) -> CrossoverReport:
    """Locate the smallest surface size at which the sponge curve meets and
    then exceeds the slice curve, each given as its (S, E) samples in order
    of increasing S (see :func:`curves`).

    Both curves are treated as piecewise log-linear: E interpolated linearly
    against ln S between samples.  The difference of the two interpolants is
    piecewise linear in ln S, so bracketing on the union of segment
    boundaries and solving the two-line intersection is exact for the model.
    A touch without a preceding strict undercut (e.g. the shared n = 0 cube
    point) is not a crossing, nor is a touch followed by another undercut; a
    touch after an undercut and followed by an overtake is the crossing,
    computed by the same interpolation.

    Raises NoCrossoverError when one curve dominates the whole shared range
    or the curves are identical.
    """
    if len(menger) < 2 or len(slices) < 2:
        raise ValueError("each series needs at least 2 points")
    tm = [math.log(float(s)) for s, _ in menger]
    em = [float(e) for _, e in menger]
    ts = [math.log(float(s)) for s, _ in slices]
    es = [float(e) for _, e in slices]
    lo, hi = max(tm[0], ts[0]), min(tm[-1], ts[-1])
    if lo >= hi:
        raise ValueError("series surface ranges do not overlap")

    grid = sorted({t for t in tm + ts if lo <= t <= hi})
    diffs = [
        _interp_log_linear(tm, em, t) - _interp_log_linear(ts, es, t) for t in grid
    ]

    undercut = False
    for i, d in enumerate(diffs):
        if d < 0:
            undercut = True
            continue
        if d > 0 and undercut:
            d0 = diffs[i - 1]  # <= 0; at a touch, 0, the step below is exactly 0.0
            t_star = grid[i - 1] + (grid[i] - grid[i - 1]) * (-d0) / (d - d0)
            s_star = math.exp(t_star)
            return CrossoverReport(
                s_star=s_star,
                menger_bracket=_bracket(tm, t_star),
                slices_bracket=_bracket(ts, t_star),
            )
    raise NoCrossoverError(
        "curves do not cross: one dominates the shared surface range"
        if any(diffs)
        else "curves do not cross: series are identical"
    )


def _bracket(ts: list[float], t: float) -> tuple[int, int]:
    # no lower clamp: t_star >= grid[i - 1] >= lo >= ts[0]
    i = min(bisect_right(ts, t) - 1, len(ts) - 2)
    return (i, i + 1)


# ---------------------------------------------------------------------------
# renderers: each returns one whole report, ASCII lines each ending in LF

def table_text(rows: Sequence[EfficiencyRow]) -> str:
    """Table rows as the reference table prints them (see
    :func:`format_paper_precision`): a header line, then one line per row,
    each column right-aligned to its widest cell, two spaces apart."""
    cells = [dict(zip(TABLE_COLUMNS, TABLE_COLUMNS))]
    cells += [format_paper_precision(row) for row in rows]
    widths = {col: max(len(line[col]) for line in cells) for col in TABLE_COLUMNS}
    return "".join("  ".join(line[col].rjust(widths[col]) for col in TABLE_COLUMNS) + "\n"
                   for line in cells)


def table_csv(rows: Sequence[EfficiencyRow]) -> str:
    """Table rows as RFC-4180 CSV with a header line."""
    lines = [",".join(TABLE_COLUMNS)]
    lines += [",".join([str(row.n), str(row.rho), *map(decimal_string, row[2:])]) for row in rows]
    return "\n".join(lines) + "\n"


def series_csv(rows: Sequence[EfficiencyRow]) -> str:
    """Both efficiency curves of the table rows (see :func:`curves`) as
    RFC-4180 CSV, one line per point: model, n, S, E; the sponge's points
    first, then the slices'."""
    labels = (ModelKind.MENGER_SPONGE.value, ModelKind.SLICES.value)
    return "model,n,S,E\n" + "".join(
        f"{label},{row.n},{decimal_string(s)},{decimal_string(e)}\n"
        for label, curve in zip(labels, curves(rows)) for row, (s, e) in zip(rows, curve))


def table_json(rows: Sequence[EfficiencyRow]) -> str:
    """Table rows as JSON ``{"rows": [...]}``, each rational as decimal and p/q."""
    return _json({"rows": [
        {"n": row.n, "rho": row.rho,
         **{col: {"decimal": decimal_string(value), "ratio": str(value)}
            for col, value in zip(TABLE_COLUMNS[2:], row[2:])}}
        for row in rows]})


def crossover_text(report: CrossoverReport | NoCrossoverError) -> str:
    """Method, ``s_star`` and brackets, a line each, or the reason there is none."""
    if isinstance(report, NoCrossoverError):
        return f"no crossover: {report}\n"
    return (f"method:  {report.method}\n"
            f"s_star:  {report.s_star:.8g}\n"
            f"bracket: menger n in {list(report.menger_bracket)}, "
            f"slices n in {list(report.slices_bracket)}\n")


def crossover_json(report: CrossoverReport | NoCrossoverError) -> str:
    """The crossover as JSON ``{"crossover": ...}``, null when there is none."""
    return _json({"crossover": None if isinstance(report, NoCrossoverError) else {
        "s_star": f"{report.s_star:.10g}",
        "bracket": {"menger": list(report.menger_bracket), "slices": list(report.slices_bracket)},
        "method": report.method,
    }})


def _json(doc: dict) -> str:
    import json  # only JSON output pays for this import

    return json.dumps(doc, indent=2) + "\n"
