"""Reference-table reproduction, printed-precision formatting, efficiency
series, crossover location, and text/CSV/JSON emission.

Formatting conventions follow the published reference table: plain columns
carry 4 decimal places (3 once the value reaches 100, i.e. 6 significant
digits), efficiency values below 1 use the ``mantissa(-p)`` shorthand for
``mantissa * 10^-p``, and rounding is half-away-from-zero applied to the
exact rational.  Machine-readable emitters follow one cell rule: an int
column (``n``, ``rho``) is written as is, and every rational as a fixed-point
decimal at 10 significant digits (CSV), or as that decimal next to the exact
``p/q`` form (JSON).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import BinaryIO, NamedTuple, Sequence

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
    """All 13 columns for iteration order n, populated from the closed forms."""
    n = check_iteration(n)
    r_e, r_s, r_n = metrics.ratios(n)
    return EfficiencyRow(
        n=n, rho=metrics.slice_count(n), L=metrics.char_length(n),
        V_M=metrics.menger_volume(n), V_s=metrics.slice_volume(n),
        S_M=metrics.menger_surface(n), S_s=metrics.slice_surface(n),
        V_tot=metrics.total_volume(n),
        E_M=metrics.efficiency(ModelKind.MENGER_SPONGE, n),
        E_s=metrics.efficiency(ModelKind.SLICES, n),
        R_E=r_e, R_S=r_s, R_n=r_n,
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


def _significant(mag: Fraction, sig: int) -> tuple[int, int]:
    """A positive rational rounded half up to ``sig`` significant digits,
    as ``(digits, e)``: the ``sig``-digit integer ``digits`` times
    ``10^(e - sig + 1)``."""
    e = _exponent(mag)
    digits = _half_up(mag * Fraction(10) ** (sig - 1 - e))
    if digits == 10**sig:  # rounding carried into the next power of ten
        return 10 ** (sig - 1), e + 1
    return digits, e


def round_half_away(value: Fraction, decimals: int) -> str:
    """Render a rational at a fixed number of decimals, rounding halves away
    from zero (exact integer arithmetic, no float involved)."""
    sign = "-" if value < 0 else ""
    digits = str(_half_up(abs(value) * 10**decimals)).rjust(decimals + 1, "0")
    if decimals == 0:
        return sign + digits
    return sign + digits[:-decimals] + "." + digits[-decimals:]


def format_fixed(value: Fraction) -> str:
    """A volume or surface as the table prints it: 4 decimals, capped to 6
    significant digits for values >= 100 (by the exponent before rounding)."""
    return round_half_away(value, max(0, min(4, 5 - _exponent(abs(value)))))


def _format_shorthand(value: Fraction) -> str:
    # mantissa(-p) with 1 <= mantissa < 10, for 0 < value < 1
    sign = "-" if value < 0 else ""
    q, e = _significant(abs(value), 5)
    digits = str(q)
    return f"{sign}{digits[0]}.{digits[1:]}({e})"


def format_paper_precision(row: EfficiencyRow) -> dict[str, str]:
    """Render one row with the reference table's printed conventions.

    Returns one string per column, keyed and ordered by TABLE_COLUMNS.
    """
    out = {
        "n": str(row.n),
        "rho": str(row.rho),
        "L": "1" if row.L == 1 else f"1/{row.L.denominator}",
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
    sign = "-" if value < 0 else ""
    q, e = _significant(abs(value), 10)
    digits = str(q)
    if e >= 9:
        return sign + digits + "0" * (e - 9)
    if e >= 0:
        return sign + digits[: e + 1] + "." + digits[e + 1 :]
    return sign + "0." + "0" * (-e - 1) + digits


# ---------------------------------------------------------------------------
# efficiency series and crossover


class EfficiencySeries(NamedTuple):
    """Ordered (surface, efficiency) samples of one model for n = 0..n_max.

    Point index equals the iteration order.  S strictly increases and E
    strictly decreases along the series.
    """

    model: ModelKind
    points: tuple[tuple[Fraction, Fraction], ...]


def efficiency_series(kind: ModelKind, n_max: int) -> EfficiencySeries:
    """(S, E) samples of one model for n = 0..n_max, exact rationals."""
    n_max = check_iteration(n_max)
    points = tuple(
        (metrics.model_surface(kind, n), metrics.efficiency(kind, n))
        for n in range(n_max + 1)
    )
    return EfficiencySeries(model=kind, points=points)


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


def find_crossover(menger: EfficiencySeries, slices: EfficiencySeries) -> CrossoverReport:
    """Locate the smallest surface size at which the sponge curve meets and
    then exceeds the slice curve.

    Both series are treated as piecewise log-linear: E interpolated linearly
    against ln S between samples.  The difference of the two interpolants is
    piecewise linear in ln S, so bracketing on the union of segment
    boundaries and solving the two-line intersection is exact for the model.
    A touch without a preceding strict undercut (e.g. the shared n = 0 cube
    point) is not a crossing; a touch after one is the crossing, computed by
    the same interpolation.

    Raises NoCrossoverError when one curve dominates the whole shared range
    or the curves are identical.
    """
    for series in (menger, slices):
        if len(series.points) < 2:
            raise ValueError("each series needs at least 2 points")
    tm = [math.log(float(s)) for s, _ in menger.points]
    em = [float(e) for _, e in menger.points]
    ts = [math.log(float(s)) for s, _ in slices.points]
    es = [float(e) for _, e in slices.points]
    lo, hi = max(tm[0], ts[0]), min(tm[-1], ts[-1])
    if lo >= hi:
        raise ValueError("series surface ranges do not overlap")

    grid = sorted({t for t in tm + ts if lo <= t <= hi} | {lo, hi})
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
    i = min(max(bisect_right(ts, t) - 1, 0), len(ts) - 2)
    return (i, i + 1)


# ---------------------------------------------------------------------------
# emitters

def emit_text(rows: Sequence[EfficiencyRow], sink: BinaryIO) -> int:
    """Write table rows as the reference table prints them (see
    :func:`format_paper_precision`): a header line, then one line per row,
    each column right-aligned to its widest cell, two spaces apart.
    Returns the byte count."""
    cells = [dict(zip(TABLE_COLUMNS, TABLE_COLUMNS))]
    cells += [format_paper_precision(row) for row in rows]
    widths = {col: max(len(line[col]) for line in cells) for col in TABLE_COLUMNS}
    return _write_text(sink, "".join(
        "  ".join(line[col].rjust(widths[col]) for col in TABLE_COLUMNS) + "\n"
        for line in cells))


def emit_csv(data, sink: BinaryIO) -> int:
    """Write table rows or efficiency series as RFC-4180 CSV (UTF-8, LF,
    header line, decimals at 10 significant digits).  Returns the byte
    count."""
    items = list(data)
    if not items:
        raise ValueError("nothing to emit")
    build = _rows_csv_lines if isinstance(items[0], EfficiencyRow) else _series_csv_lines
    return _write_text(sink, "\n".join(build(items)) + "\n")


def _rows_csv_lines(rows: Sequence[EfficiencyRow]) -> list[str]:
    lines = [",".join(TABLE_COLUMNS)]
    for row in rows:
        lines.append(",".join(
            str(value) if isinstance(value, int) else decimal_string(value) for value in row))
    return lines


def _series_csv_lines(series: Sequence[EfficiencySeries]) -> list[str]:
    lines = ["model,n,S,E"]
    for one in series:
        for n, (s, e) in enumerate(one.points):
            lines.append(f"{one.model.value},{n},{decimal_string(s)},{decimal_string(e)}")
    return lines


def emit_json(sink: BinaryIO, **sections) -> int:
    """Write a single JSON document with table rows (``rows=``) and/or a
    crossover report (``crossover=``; None when the curves do not cross,
    written as null), one key per section in the order given (KeyError for
    an unknown one).  Rationals carry a 10-significant-digit decimal and the
    exact p/q string; row keys follow TABLE_COLUMNS.  Returns the byte count."""
    import json  # only JSON output pays for this import

    doc = {key: _JSON_SECTIONS[key](value) for key, value in sections.items()}
    return _write_text(sink, json.dumps(doc, indent=2) + "\n")


def _json_value(value: Fraction) -> dict[str, str]:
    num, den = value.numerator, value.denominator
    ratio = str(num) if den == 1 else f"{num}/{den}"
    return {"decimal": decimal_string(value), "ratio": ratio}


def _rows_json(rows: Sequence[EfficiencyRow]) -> list[dict]:
    return [{col: value if isinstance(value, int) else _json_value(value)
             for col, value in zip(TABLE_COLUMNS, row)} for row in rows]


def _crossover_json(report: CrossoverReport | None) -> dict | None:
    if report is None:
        return None
    return {
        "s_star": f"{report.s_star:.10g}",
        "bracket": {
            "menger": list(report.menger_bracket),
            "slices": list(report.slices_bracket),
        },
        "method": report.method,
    }


_JSON_SECTIONS = {"rows": _rows_json, "crossover": _crossover_json}


def _write_text(sink: BinaryIO, text: str) -> int:
    payload = text.encode("utf-8")
    sink.write(payload)
    return len(payload)
