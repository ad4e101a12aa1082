"""The CLI's CSV outputs render by column, byte for byte as the row loops did.

Every CSV is written by ``_text._csv_text``. The oracle is a per-row
renderer: ``",".join(repr(float(v)) for v in row)`` per line, and for the
density curves the whole per-row algorithm of ``cli._density_curves``,
copied here. A table of float64 columns with no nan, inf or cell in
1e-5 <= |v| < 1e-4 is written from one flat dump, and any other table a
column at a time; the oracle tests feed both. Every float cell comes from a
flat orjson dump, one of the table's rows or, in ``_repr_cells``, one of a
column, so both are also checked against ``repr`` cell by cell, over arbitrary
64-bit patterns (nan payloads, infinities, signed zeros and subnormals among
them): a version of orjson that lays out a float otherwise fails here. The
CLI's JSON numbers share the cells' exponent rule, so the same patterns are
checked against ``json.dumps`` through ``_json_text``.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probleak import Evidence, Normal, StudentT, TruncatedNormal, calibration_report
from probleak.calibration import ForecastCase
from probleak.cli import _density_curves, _finite_bounds
from probleak._text import _csv_text, _float_lines, _json_text, _repr_cells


def _lines(text):
    # a list of lines, so that a failure reports the first differing row
    # instead of diffing two long strings
    return text.splitlines(keepends=True)


def _rows_text(header, rows, end="\n"):
    lines = [header] if header else []
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "".join(line + end for line in lines)


def _density_curves_by_row(dists, evidence, grid_points):
    q = 5e-5
    lo = min(d.quantile(q) for _, d in dists)
    hi = max(d.quantile(1.0 - q) for _, d in dists)
    grid = np.linspace(lo, hi, grid_points)
    bounds = _finite_bounds(evidence)
    if bounds:
        grid = np.unique(np.concatenate([grid, np.asarray(bounds, dtype=float)]))
    bound_set = set(float(b) for b in bounds)
    columns = [d.density(grid) for _, d in dists]
    header = "y," + ",".join(f"density_{label}" for label, _ in dists) + ",marker"
    lines = [header]
    for i, y in enumerate(grid):
        marker = "support_bound" if float(y) in bound_set else ""
        cells = [repr(float(y))] + [repr(float(col[i])) for col in columns] + [marker]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


_EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 0.1, 1.0, -3.0, 2.0**53, 1e300,
    # the edges of repr's layout: 1e-05, 0.0001, 1e-07 and 1e+16
    float(np.nextafter(1e-5, 0)), -1.5e-05, 9.999999999999999e-05, 1e-4,
    float(np.nextafter(1e-4, 0)), 1e-7, float(np.nextafter(1e16, 0)), 1.5e16, -1e22,
]
_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6).map(float),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
# nan with payloads and a sign, inf, -inf, -0.0, the least and the largest subnormal
@example([0x7FF8000000000001, 0xFFF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
          0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF])
def test_repr_cells_is_repr_over_every_bit_pattern(bits):
    values = np.array(bits, dtype=np.uint64).view(float)
    assert _repr_cells(values) == list(map(repr, values.tolist()))


def _flat(values):
    """Whether a table of float64 columns takes ``_float_lines``'s flat dump:
    no cell is nan, inf or in 1e-5 <= |v| < 1e-4, where orjson's layout is
    not repr's but for the exponent."""
    return all(math.isfinite(v) and not 1e-5 <= abs(v) < 1e-4 for v in values)


def test_repr_cells_is_repr_over_a_million_random_bit_patterns():
    bits = np.random.default_rng(2018).integers(0, 2**64, size=10**6, dtype=np.uint64)
    values = bits.view(float)
    cells = list(map(repr, values.tolist()))
    assert _repr_cells(values) == cells
    # the same cells, bar the odd ones, as a table of four columns from the flat dump
    kept = [cell for cell, v in zip(cells, values.tolist()) if _flat([v])]
    rows = [kept[i : i + 4] for i in range(0, len(kept) - len(kept) % 4, 4)]
    columns = list(np.array(rows, dtype=float).T)
    assert _float_lines(columns, "\n") is not None
    want = "".join(",".join(row) + "\r\n" for row in rows)
    assert _lines(_csv_text([], columns, "\r\n")) == _lines(want)


# strings spelled as numbers, as either layout writes them, alone or after a
# blank, with what follows a number in indented text: no string is rewritten
_NUMBER_LIKE = st.one_of(
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", " ", "x ", "-", "e"]),
        st.sampled_from(["e5", "1e-7", "1e16", "1e+16", "0.00001", "0.0000123", ".0000", "1.00001"])
        | st.sampled_from(_EDGE_FLOATS).map(repr),
        st.sampled_from(["", ",", "\n", ",\n", "]"]),
    ),
    _floats.map(repr),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), max_size=40), st.lists(_NUMBER_LIKE, max_size=6))
@example([0x7FF8000000000001, 0xFFF0000000000001, 0x7FF0000000000000, 0xFFF0000000000000,
          0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF], ["e5", "x 0.00001"])
@example([np.float64(v).view(np.uint64).item() for v in _EDGE_FLOATS], ["1e-7", "0.0000123"])
def test_csv_cells_and_json_numbers_spell_every_bit_pattern_as_repr(bits, strings):
    # the one rule for both writers: a CSV cell is repr's text, and a JSON
    # number json.dumps's, as a list element, an object value and alone
    values = np.array(bits, dtype=np.uint64).view(float)
    floats = values.tolist()
    assert _repr_cells(values) == list(map(repr, floats))
    # a column, and a table of two, through the flat dump when no cell is odd
    assert (_float_lines([values], "\n") is not None) == _flat(floats)
    assert _csv_text(["v"], [values]) == _rows_text("v", [[v] for v in floats])
    pairs = values[: values.size // 2 * 2].reshape(-1, 2)
    assert _csv_text([], list(pairs.T), "\r\n") == _rows_text(None, pairs.tolist(), "\r\n")
    for value in floats:  # nan and inf too, which json writes as NaN and Infinity
        assert _json_text(value) == json.dumps(value, indent=2) + "\n"
    finite = [v for v in floats if math.isfinite(v)]
    for doc in ([*finite, *strings], {s: v for s, v in zip(strings, finite)}, [strings, finite]):
        assert _json_text(doc) == json.dumps(doc, indent=2) + "\n"


def test_json_numbers_are_json_dumps_over_a_hundred_thousand_random_bit_patterns():
    bits = np.random.default_rng(2018).integers(0, 2**64, size=10**5, dtype=np.uint64)
    doc = [v for v in bits.view(float).tolist() if math.isfinite(v)]
    assert _json_text(doc) == json.dumps(doc, indent=2) + "\n"


# the cells that send a float table to the per-column path
_ODD_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, 1e-5, -3e-5, float(np.nextafter(1e-4, 0))]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12), st.booleans(), st.data())
def test_csv_text_matches_the_row_renderer(width, n_rows, header, data):
    # float64 columns take the flat dump, or the per-column path once one
    # cell is odd; lists always take the per-column path
    rows = [data.draw(st.lists(_floats, min_size=width, max_size=width)) for _ in range(n_rows)]
    if rows and data.draw(st.booleans(), label="one odd cell"):
        i, j = data.draw(st.integers(0, n_rows - 1)), data.draw(st.integers(0, width - 1))
        rows[i][j] = data.draw(st.sampled_from(_ODD_FLOATS))
    names = [f"c{j}" for j in range(width)] if header else []
    columns = [np.array([row[j] for row in rows], dtype=float) for j in range(width)]
    as_lists = [[row[j] for row in rows] for j in range(width)]
    assert (_float_lines(columns, "\n") is not None) == _flat(v for row in rows for v in row)
    for end in ("\n", "\r\n"):
        want = _rows_text(",".join(names), rows, end)
        assert _csv_text(names, columns, end) == want
        assert _csv_text(names, as_lists, end) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_floats, min_size=2, max_size=2), max_size=10),
       st.lists(st.sampled_from(["", "support_bound"]), min_size=10, max_size=10))
def test_csv_text_appends_the_marker_column(rows, markers):
    markers = markers[: len(rows)]
    want = ["y,d,marker"] + [
        ",".join([repr(float(a)), repr(float(b)), m]) for (a, b), m in zip(rows, markers)
    ]
    columns = [[r[0] for r in rows], [r[1] for r in rows]]
    for marker in (markers, np.array(markers, dtype=str)):
        assert _csv_text(["y", "d", "marker"], [*columns, marker]) == "\n".join(want) + "\n"


def _dists():
    return [
        ("null", StudentT(30.0, 1.2, 0.8)),
        ("A", StudentT(100.0, 0.4, 0.5)),
        ("B", Normal(2.0, 1.5)),
    ]


def test_density_curves_with_a_bound_between_grid_points():
    dists = _dists()
    evidence = Evidence.interval(0.0, math.inf)
    grid = np.linspace(
        min(d.quantile(5e-5) for _, d in dists), max(d.quantile(1 - 5e-5) for _, d in dists), 2001
    )
    assert 0.0 not in set(grid.tolist())  # the bound adds a row of its own
    text = _density_curves(dists, evidence, 2001)
    assert _lines(text) == _lines(_density_curves_by_row(dists, evidence, 2001))
    assert text.count("support_bound") == 1
    assert len(text.splitlines()) == 1 + 2002


def test_density_curves_with_a_bound_on_a_grid_point():
    dists = _dists()
    grid = np.linspace(
        min(d.quantile(5e-5) for _, d in dists), max(d.quantile(1 - 5e-5) for _, d in dists), 201
    )
    lower, upper = float(grid[37]), float(grid[180])
    evidence = Evidence.interval(lower, upper)
    text = _density_curves(dists, evidence, 201)
    assert _lines(text) == _lines(_density_curves_by_row(dists, evidence, 201))
    assert text.count("support_bound") == 2
    assert len(text.splitlines()) == 1 + 201  # np.unique merged both bounds


def test_density_curves_with_no_finite_bound():
    dists = [("null", StudentT(5.0, 0.0, 1.0)), ("model", TruncatedNormal(0.5, 1.0, lower=0.0))]
    evidence = Evidence.interval(-math.inf, math.inf)
    text = _density_curves(dists, evidence, 101)
    assert _lines(text) == _lines(_density_curves_by_row(dists, evidence, 101))
    assert "support_bound" not in text
    assert len(text.splitlines()) == 1 + 101


def test_density_curves_with_lattice_and_finite_set_bounds():
    dists = _dists()
    for evidence in (Evidence.lattice_support(0.0, 4.0, 0.5), Evidence.finite_set([-1.0, 0.0, 3.0])):
        got = _density_curves(dists, evidence, 301)
        assert _lines(got) == _lines(_density_curves_by_row(dists, evidence, 301))


def test_curve_csv_matches_the_row_renderer_for_every_curve():
    rng = np.random.default_rng(5)
    loc = rng.normal(1.0, 0.5, 60)
    case = ForecastCase(StudentT(40.0, loc, 0.9), loc + rng.standard_t(40.0, 60) * 0.9)
    report = calibration_report([case], seed=3)
    curves = {
        "probability": ("p,frequency", report.probability_curve),
        "exceedance": ("y,mean_pooled_quantile", report.exceedance_curve),
        "marginal": ("y,mean_predictive_cdf,pooled_empirical_cdf", report.marginal_curve),
    }
    for which, (header, rows) in curves.items():
        assert len(rows) > 0
        assert _lines(report.curve_csv(which)) == _lines(_rows_text(header, rows)), which
