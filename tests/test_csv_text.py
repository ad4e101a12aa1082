"""The CLI's CSV outputs render by column, byte for byte as the row loops did.

The oracle is the per-row renderer every CSV writer used before:
``",".join(repr(float(v)) for v in row)`` per line, and for the density
curves the whole per-row algorithm of ``cli._density_curves``, copied here.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from probleak import Evidence, Normal, StudentT, TruncatedNormal, calibration_report
from probleak.calibration import ForecastCase, _csv_text
from probleak.cli import _density_curves, _finite_bounds


def _lines(text):
    # a list of lines, so that a failure reports the first differing row
    # instead of diffing two long strings
    return text.splitlines(keepends=True)


def _rows_text(header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


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


_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-5, 1e16, 0.1, 1.0, -3.0, 2.0**53, 1e300]
_floats = st.one_of(
    st.sampled_from(_EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6).map(float),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(0, 12), st.data())
def test_csv_text_matches_the_row_renderer(width, n_rows, data):
    rows = [data.draw(st.lists(_floats, min_size=width, max_size=width)) for _ in range(n_rows)]
    header = ",".join(f"c{j}" for j in range(width))
    columns = [np.array([row[j] for row in rows], dtype=float) for j in range(width)]
    as_lists = [[row[j] for row in rows] for j in range(width)]
    want = _rows_text(header, rows)
    assert _csv_text(header, columns) == want
    assert _csv_text(header, as_lists) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(_floats, min_size=2, max_size=2), max_size=10),
       st.lists(st.sampled_from(["", "support_bound"]), min_size=10, max_size=10))
def test_csv_text_appends_the_marker_column(rows, markers):
    markers = markers[: len(rows)]
    want = ["y,d,marker"] + [
        ",".join([repr(float(a)), repr(float(b)), m]) for (a, b), m in zip(rows, markers)
    ]
    got = _csv_text("y,d,marker", [[r[0] for r in rows], [r[1] for r in rows]], markers)
    assert got == "\n".join(want) + "\n"


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
