"""Table reproduction, printed-precision formatting, series, crossover and
renderer tests."""

import json
import math
from bisect import bisect_right
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from spongeheat import analysis, metrics
from spongeheat.analysis import (
    NoCrossoverError,
    curves,
    decimal_string,
    find_crossover,
    format_paper_precision,
    full_table,
    round_half_away,
    table_row,
)
from spongeheat.metrics import ModelKind

MENGER = ModelKind.MENGER_SPONGE
SLICES = ModelKind.SLICES


# -- rows ---------------------------------------------------------------------

def test_row_zero():
    row = table_row(0)
    assert (row.n, row.rho) == (0, 1)
    assert row.L == 1 and row.V_M == 1 and row.V_s == 1
    assert row.S_M == 6 and row.S_s == 6 and row.V_tot == 27
    assert row.E_M == row.E_s == Fraction(13, 3)
    assert row.R_E == row.R_S == row.R_n == 1


def test_row_three():
    row = table_row(3)
    assert row.E_M == Fraction(607, 18048)
    assert row.E_s == Fraction(14183, 591948)
    assert row.R_n == Fraction(16389, 14183)


def test_row_six():
    row = table_row(6)
    assert row.rho == 365
    strings = format_paper_precision(row)
    assert strings["S_s"] == "732.003"
    assert strings["R_n"] == "1.6610"


def test_row_invariants():
    for n in range(13):
        row = table_row(n)
        assert row.R_n == row.R_E * row.R_S
        assert row.E_M == (row.V_tot - row.V_M) / row.S_M
        assert row.E_s == (row.V_tot - row.V_s) / row.S_s


def test_full_table_lengths_and_prefix():
    assert len(full_table(6)) == 7
    assert len(full_table(0)) == 1
    long = full_table(12)
    assert len(long) == 13
    assert long[:7] == full_table(6)


# -- printed-precision formatting ----------------------------------------------

def test_round_half_away_basics():
    assert round_half_away(Fraction(175, 214), 4) == "0.8178"
    assert round_half_away(Fraction(13, 3), 4) == "4.3333"
    assert round_half_away(Fraction(533630, 729), 3) == "732.003"
    assert round_half_away(Fraction(1, 8), 2) == "0.13"
    assert round_half_away(Fraction(-1, 8), 2) == "-0.13"
    assert round_half_away(Fraction(5, 1), 0) == "5"
    # decimals <= 0 round to a multiple of 10^-decimals, printed with no point
    assert round_half_away(Fraction(12345), -2) == "12300"
    assert round_half_away(Fraction(-15), -1) == "-20"
    assert round_half_away(Fraction(1249, 10), -2) == "100"
    assert round_half_away(Fraction(49), -2) == "0"
    # zero has no sign, at any number of decimals
    assert round_half_away(Fraction(0), 4) == "0.0000"
    assert round_half_away(Fraction(0), 0) == "0"


def test_shorthand_examples():
    row4 = table_row(4)
    assert format_paper_precision(row4)["E_s"] == "6.7807(-3)"
    assert format_paper_precision(table_row(5))["V_M"] == "0.2230"
    assert format_paper_precision(table_row(2))["R_S"] == "1.0667"


def test_shorthand_mantissa_carry():
    # 0.0999996 -> mantissa 9.99996 rounds past 10, must renormalize
    assert analysis._format_shorthand(Fraction(999996, 10**7)) == "1.0000(-1)"
    assert analysis._format_shorthand(Fraction(-999995, 10**8)) == "-1.0000(-2)"
    assert analysis._format_shorthand(Fraction(999994, 10**8)) == "9.9999(-3)"
    # at and just below a power of ten
    assert analysis._format_shorthand(Fraction(1, 10)) == "1.0000(-1)"
    assert analysis._format_shorthand(Fraction(99999, 10**6)) == "9.9999(-2)"


def test_efficiency_format_threshold():
    # >= 1 prints plain, < 1 uses the shorthand
    assert table_row(0).E_M == Fraction(13, 3)
    assert format_paper_precision(table_row(0))["E_M"] == "4.3333"
    assert table_row(1).E_M == Fraction(35, 72)
    assert format_paper_precision(table_row(1))["E_M"] == "4.8611(-1)"


def test_fixed_decimals_drop_at_100():
    strings5 = format_paper_precision(table_row(5))
    assert strings5["S_M"] == "110.604"
    assert strings5["S_s"] == "246.008"
    strings2 = format_paper_precision(table_row(2))
    assert strings2["S_M"] == "13.0370"
    # 10^e itself has exponent e: 4 decimals below 100, then 6 significant digits
    assert [analysis.format_fixed(Fraction(10**e)) for e in range(6)] == [
        "1.0000", "10.0000", "100.000", "1000.00", "10000.0", "100000"]
    # the decimals are fixed by the exponent before rounding, so a value
    # that rounds up to 100 keeps 4
    assert analysis.format_fixed(Fraction(99999995, 10**6)) == "100.0000"


def test_golden_table_with_documented_errata():
    mismatches = {}
    for n in range(7):
        strings = format_paper_precision(table_row(n))
        for col in golden.COLUMNS:
            published = golden.PUBLISHED_TABLE[n][golden.COLUMNS.index(col)]
            if strings[col] != published:
                mismatches[(n, col)] = strings[col]
    assert set(mismatches) == set(golden.ERRATA)
    for key, corrected in mismatches.items():
        assert corrected == golden.ERRATA[key][1]


def _quotient(num: int, den: int) -> Decimal:
    # to 60 digits, far past any digit that the rounding looks at
    with localcontext() as context:
        context.prec = 60
        return Decimal(num) / Decimal(den)


@settings(max_examples=300, deadline=None)
@given(
    num=st.integers(-(10**9), 10**9),
    den=st.integers(1, 10**9),
    decimals=st.integers(-3, 8),
)
def test_round_half_away_matches_decimal_module(num, den, decimals):
    want = _quotient(num, den).quantize(Decimal(1).scaleb(-decimals), ROUND_HALF_UP)
    got = round_half_away(Fraction(num, den), decimals)
    assert Decimal(got) == want
    # fixed-point shape: optional sign, no exponent, exactly `decimals`
    # places, or no point at all when decimals <= 0
    digits = got.lstrip("-")
    assert "E" not in got and "e" not in got
    assert len(digits.split(".")[1]) == decimals if decimals > 0 else "." not in digits


def test_decimal_string():
    assert decimal_string(Fraction(20, 27)) == "0.7407407407"
    assert decimal_string(Fraction(1056, 81)) == "13.03703704"
    assert decimal_string(Fraction(1, 2)) == "0.5000000000"
    assert decimal_string(Fraction(0)) == "0.000000000"
    assert decimal_string(Fraction(27)) == "27.00000000"
    assert decimal_string(Fraction(-20, 27)) == "-0.7407407407"
    # a 10-digit mantissa that rounds up to 10^10 carries into the exponent
    assert decimal_string(Fraction(99999999995, 10**11)) == "1.000000000"
    assert decimal_string(Fraction(-99999999995)) == "-100000000000"
    # fixed point at every magnitude, never an exponent
    assert decimal_string(Fraction(1, 10**12)) == "0.000000000001000000000"
    assert decimal_string(Fraction(10**17) + Fraction(1, 3)) == "100000000000000000"
    # powers of ten on both sides of the point
    assert decimal_string(Fraction(1, 1000)) == "0.001000000000"
    assert decimal_string(Fraction(1)) == "1.000000000"
    assert decimal_string(Fraction(10**9)) == "1000000000"
    assert decimal_string(Fraction(10**10)) == "10000000000"


#: (num, den) with 10^-12 <= num / den <= 10^16: any ratio from 10^-9 to
#: 10^9, and halves at the 10th or 5th significant digit, and carries to a
#: power of ten, each scaled by 10^-3..10^7
_RATIOS = st.tuples(
    st.one_of(
        st.tuples(st.integers(1, 10**9), st.integers(1, 10**9)),
        st.tuples(st.one_of(st.integers(10**9, 10**10 - 1).map(lambda m: 10 * m + 5),
                            st.integers(10**4, 10**5 - 1).map(lambda m: 10 * m + 5),
                            st.integers(1, 10**5).map(lambda t: 10**11 - t)),
                  st.integers(2, 14).map(lambda k: 10**k)),
    ),
    st.integers(-3, 7),
).map(lambda r: (r[0][0] * 10 ** max(r[1], 0), r[0][1] * 10 ** max(-r[1], 0)))


@settings(max_examples=300, deadline=None)
@given(ratio=_RATIOS, sign=st.sampled_from([1, -1]))
def test_significant_digits_match_decimal_module(ratio, sign):
    # decimal_string at 10 significant digits, and below 1 the shorthand's
    # mantissa in [1, 10) at 4 decimals, against ROUND_HALF_UP
    num, den = ratio
    exact = sign * _quotient(num, den)

    def want(sig):
        return exact.quantize(Decimal(1).scaleb(exact.adjusted() - sig + 1), ROUND_HALF_UP)

    got = decimal_string(Fraction(sign * num, den))
    assert Decimal(got) == want(10)
    # fixed point: 10 significant digits, then zeros up to the units digit
    body = got.lstrip("-").replace(".", "").lstrip("0")
    assert "e" not in got and len(body) == max(10, want(10).adjusted() + 1)
    assert not body[10:].strip("0")
    if num < den:
        mantissa, exponent = analysis._format_shorthand(Fraction(sign * num, den))[:-1].split("(")
        assert Decimal(mantissa).scaleb(int(exponent)) == want(5)
        assert 1 <= abs(Decimal(mantissa)) < 10 and len(mantissa.split(".")[1]) == 4


# -- series ----------------------------------------------------------------------

def _curve(kind, n_max):
    """One model's (S, E) points, read from the table rows for n = 0..n_max."""
    sponge, slices = curves(full_table(n_max))
    return sponge if kind is MENGER else slices


def test_series_examples():
    sponge = _curve(MENGER, 4)
    assert sponge[-1] == (Fraction(336384, 6561), Fraction(411787, 27247104))
    slabs = _curve(SLICES, 1)
    assert slabs[-1] == (Fraction(20, 3), Fraction(107, 180))
    single = _curve(MENGER, 0)
    assert single == [(6, Fraction(26, 6))]


@pytest.mark.parametrize("kind", [MENGER, SLICES])
def test_series_monotonicity(kind):
    points = _curve(kind, 6)
    surfaces = [s for s, _ in points]
    efficiencies = [e for _, e in points]
    assert all(a < b for a, b in zip(surfaces, surfaces[1:]))
    assert all(a > b for a, b in zip(efficiencies, efficiencies[1:]))


# -- crossover ---------------------------------------------------------------------

def _interp(ts, es, t):
    i = min(max(bisect_right(ts, t) - 1, 0), len(ts) - 2)
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    return es[i] + w * (es[i + 1] - es[i])


def dense_crossover(menger_points, slice_points, samples=200001):
    """Independent oracle: brute-force scan of the two interpolants."""
    tm = [math.log(float(s)) for s, _ in menger_points]
    em = [float(e) for _, e in menger_points]
    ts = [math.log(float(s)) for s, _ in slice_points]
    es = [float(e) for _, e in slice_points]
    lo, hi = max(tm[0], ts[0]), min(tm[-1], ts[-1])
    below = False
    for i in range(samples):
        t = lo + (hi - lo) * i / (samples - 1)
        d = _interp(tm, em, t) - _interp(ts, es, t)
        if d < 0:
            below = True
        elif d > 0 and below:
            return math.exp(t)
    return None


def test_crossover_table_series():
    report = find_crossover(*curves(full_table(6)))
    assert 12 <= report.s_star <= 52
    assert report.s_star == pytest.approx(27.914021858771495, rel=1e-12)
    assert report.menger_bracket == (3, 4)
    assert report.slices_bracket == (2, 3)
    assert report.method == "log-linear"


def test_crossover_against_dense_scan():
    sponge, slabs = curves(full_table(6))
    report = find_crossover(sponge, slabs)
    scanned = dense_crossover(sponge, slabs)
    assert scanned is not None
    assert abs(scanned - report.s_star) / report.s_star < 1e-3


def test_crossover_stable_under_truncation():
    # the crossing sits between the n=3 and n=4 sponge samples, so dropping
    # the tail rows must not move it
    for n_max in (4, 5):
        report = find_crossover(*curves(full_table(n_max)))
        assert report.s_star == pytest.approx(27.914021858771495, rel=1e-12)


def test_crossover_identical_series():
    sponge = _curve(MENGER, 6)
    with pytest.raises(NoCrossoverError):
        find_crossover(sponge, sponge)


def test_crossover_truncated_to_n1():
    with pytest.raises(NoCrossoverError):
        find_crossover(*curves(full_table(1)))


def test_crossover_requires_two_points():
    single = _curve(MENGER, 0)
    with pytest.raises(ValueError):
        find_crossover(single, _curve(SLICES, 6))


def test_crossover_requires_overlap():
    a = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1)))
    b = ((Fraction(10), Fraction(2)), (Fraction(20), Fraction(1)))
    with pytest.raises(ValueError, match="overlap"):
        find_crossover(a, b)


def test_crossover_requires_more_than_one_shared_surface():
    # the ranges meet at S = 10 only: no interval to look for a crossing in
    a = ((Fraction(1), Fraction(2)), (Fraction(10), Fraction(1)))
    b = ((Fraction(10), Fraction(2)), (Fraction(20), Fraction(1)))
    with pytest.raises(ValueError) as raised:
        find_crossover(a, b)
    assert (type(raised.value), str(raised.value)) == (
        ValueError, "series surface ranges do not overlap")


def test_crossover_touch_without_undercut_is_not_a_crossing():
    a = ((Fraction(1), Fraction(10)), (Fraction(10), Fraction(10)))
    b = ((Fraction(1), Fraction(10)), (Fraction(10), Fraction(1)))
    with pytest.raises(NoCrossoverError, match="dominates"):
        find_crossover(a, b)


def test_crossover_synthetic_two_lines():
    rising = ((Fraction(1), Fraction(1)), (Fraction(100), Fraction(100)))
    flat = ((Fraction(1), Fraction(10)), (Fraction(100), Fraction(10)))
    report = find_crossover(rising, flat)
    assert report.s_star == pytest.approx(math.exp(9 / 99 * math.log(100)), rel=1e-12)
    assert report.menger_bracket == (0, 1)
    assert report.slices_bracket == (0, 1)


def test_crossover_exact_touch_after_undercut():
    # the difference goes -, 0, + at the shared breakpoints S = 1, 10, 100:
    # the touch at S = 10 is the crossing, exp(log(10)) bit for bit
    sponge = ((Fraction(1), Fraction(1)), (Fraction(10), Fraction(5)),
              (Fraction(100), Fraction(10)))
    slices = ((Fraction(1), Fraction(2)), (Fraction(10), Fraction(5)),
              (Fraction(100), Fraction(5)))
    report = find_crossover(sponge, slices)
    assert report.s_star == math.exp(math.log(10)) == 10.000000000000002
    assert report.menger_bracket == (1, 2)
    assert report.slices_bracket == (1, 2)


def test_crossover_touch_between_undercuts_is_not_a_crossing():
    # the difference goes -, 0, -, + at S = 1, 10, 100, 1000: the touch at
    # S = 10 is followed by another undercut, so the crossing is the later
    # sign change inside (100, 1000)
    sponge = [(Fraction(s), Fraction(e)) for s, e in ((1, 1), (10, 5), (100, 4), (1000, 9))]
    slices = [(Fraction(s), Fraction(e)) for s, e in ((1, 2), (10, 5), (100, 6), (1000, 6))]
    report = find_crossover(sponge, slices)
    assert report.s_star == 251.18864315095806
    assert report.menger_bracket == (2, 3)
    assert report.slices_bracket == (2, 3)


def test_bracket_at_the_last_sample():
    # a crossing that lands exactly on the last sample is in the last segment
    assert analysis._bracket([0.0, 1.0, 2.0], 2.0) == (1, 2)
    assert analysis._bracket([0.0, 1.0, 2.0], 0.0) == (0, 1)


# -- renderers: what each report emits ---------------------------------------------

def test_emit_csv_rows():
    text = analysis.table_csv(full_table(2))
    lines = text.split("\n")
    assert lines[0] == "n,rho,L,V_M,V_s,S_M,S_s,V_tot,E_M,E_s,R_E,R_S,R_n"
    assert len(lines) == 5 and lines[-1] == ""  # header + 3 rows + trailing LF
    assert "0.7407407407" in lines[2]
    assert "\r" not in text


def test_emit_csv_series():
    text = analysis.series_csv(full_table(2))
    lines = text.split("\n")
    assert lines[0] == "model,n,S,E"
    assert len(lines) == 8 and lines[-1] == ""  # header + 3 + 3 points + trailing LF
    assert lines[1].startswith("menger,0,6.000000000,")
    assert lines[4].startswith("slices,0,")


def test_series_csv_cells_are_the_table_columns():
    # each model's S and E cells are its table columns, row for row
    rows = full_table(metrics.CLOSED_FORM_CAP)
    columns = {"menger": ("S_M", "E_M"), "slices": ("S_s", "E_s")}
    lines = analysis.series_csv(rows).splitlines()
    assert lines[0] == "model,n,S,E"
    for line in lines[1:]:
        model, n, s, e = line.split(",")
        row = rows[int(n)]
        assert [s, e] == [decimal_string(getattr(row, col)) for col in columns[model]], line
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [model, str(n)] for model in columns for n in range(len(rows))]


def test_csv_round_trip_precision():
    lines = analysis.table_csv(full_table(6)).splitlines()
    rows = full_table(6)
    for line, row in zip(lines[1:], rows):
        cells = line.split(",")
        for col, cell in zip(analysis.TABLE_COLUMNS[2:], cells[2:]):
            exact = getattr(row, col)
            parsed = Fraction(cell)
            exponent = math.floor(math.log10(float(exact)))
            assert abs(parsed - exact) <= Fraction(10) ** (exponent - 9)


def test_emit_json_rows_and_crossover():
    text = analysis.table_json(full_table(6))
    assert text.endswith("}\n")
    doc = json.loads(text)
    assert list(doc) == ["rows"] and len(doc["rows"]) == 7
    assert doc["rows"][1]["V_M"] == {"decimal": "0.7407407407", "ratio": "20/27"}
    assert doc["rows"][0]["rho"] == 1
    report = find_crossover(*curves(full_table(6)))
    assert analysis.crossover_text(report) == ("method:  log-linear\n"
                                               "s_star:  27.914022\n"
                                               "bracket: menger n in [3, 4], slices n in [2, 3]\n")
    text = analysis.crossover_json(report)
    assert text.endswith("}\n")
    doc = json.loads(text)
    assert list(doc) == ["crossover"]
    assert doc["crossover"]["method"] == "log-linear"
    assert doc["crossover"]["bracket"] == {"menger": [3, 4], "slices": [2, 3]}
    assert float(doc["crossover"]["s_star"]) == pytest.approx(27.914022, rel=1e-6)


def test_emit_json_null_crossover():
    with pytest.raises(NoCrossoverError) as none:
        find_crossover(*curves(full_table(1)))
    assert analysis.crossover_json(none.value) == '{\n  "crossover": null\n}\n'
    assert analysis.crossover_text(none.value) == (
        "no crossover: curves do not cross: one dominates the shared surface range\n")


def test_emit_json_stable_key_order():
    text = analysis.table_json(full_table(3))
    assert analysis.table_json(full_table(3)) == text
    keys = list(json.loads(text)["rows"][0])
    assert keys == list(analysis.TABLE_COLUMNS)
