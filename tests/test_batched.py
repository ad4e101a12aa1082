"""Batched predictives: one fit gives array loc/scale, one call scores every row.

Every batched result is checked against the one-point API it replaces:
``predictive_at`` row by row, ``leakage`` per predictive, and the
calibration functions over a list of one-row cases.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from probleak import (
    Dataset,
    Evidence,
    ForecastCase,
    LeakageProfile,
    ModelError,
    ModelSpec,
    Normal,
    Poisson,
    StudentT,
    TruncatedNormal,
    calibration_report,
    crps,
    exceedance_calibration,
    fit_model,
    leakage,
    leakage_profile,
    load_dataset_text,
    marginal_calibration,
    pit,
    predictive_at,
    predictive_rows,
)


def _ulps(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.abs(got - want) / np.spacing(np.maximum(np.abs(got), np.abs(want)))


@st.composite
def _designs(draw):
    """A fitted table with numeric and categorical covariates, plus new rows."""
    n = draw(st.integers(12, 40))
    n_num = draw(st.integers(0, 3))
    n_cat = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.integers(-2, 4, size=n_num)
    columns = {"y": rng.normal(size=n) * 3.0}
    for k in range(n_num):
        columns[f"x{k}"] = rng.normal(size=n) * scales[k] + rng.normal() * scales[k]
    for k in range(n_cat):
        levels = np.array(["a", "b", "c"][: draw(st.integers(2, 3))])
        col = levels[rng.integers(0, levels.size, size=n)]
        col[: levels.size] = levels  # every level is observed
        columns[f"c{k}"] = col
    data = Dataset(columns)
    covariates = tuple(name for name in columns if name != "y")
    try:
        result = fit_model(data, ModelSpec("y", covariates))
    except ModelError:  # two categorical columns can come out collinear
        assume(False)
    m = draw(st.integers(1, 30))
    new = {}
    for name in covariates:
        if name.startswith("x"):
            new[name] = rng.normal(size=m) * scales[int(name[1:])] * 3.0
        else:
            new[name] = rng.choice(np.unique(columns[name]), size=m)
    return result, new, m


@settings(max_examples=150, deadline=None)
@given(_designs())
def test_predictive_rows_equals_predictive_at_row_by_row(design):
    result, new, m = design
    batch = predictive_rows(result, result.column_coding.encode_rows({**new, "y": np.zeros(m)}))
    assert batch.loc.shape == batch.scale.shape == (m,)
    for i in range(m):
        point = {name: col[i] for name, col in new.items()}
        one = predictive_at(result, point)
        assert one.df == batch.df
        assert isinstance(one.loc, float) and isinstance(one.scale, float)
        assert _ulps(batch.loc[i], one.loc) <= 4
        assert _ulps(batch.scale[i], one.scale) <= 4


def _site_fit():
    data = load_dataset_text("y,x,site\n1,0,a\n2,1,b\n3,2,a\n4,3,b\n4,5,a\n")
    return fit_model(data, ModelSpec("y", ("x", "site")))


def test_encode_rows_ignores_other_columns_and_reads_the_row_count():
    result = _site_fit()
    cols = {"x": [0.5, 2.0], "site": ["b", "a"], "y": [9.0, 9.0]}
    X = result.column_coding.encode_rows(cols)
    np.testing.assert_array_equal(X, [[1.0, 0.5, 1.0], [1.0, 2.0, 0.0]])
    null = fit_model(load_dataset_text("y\n1\n2\n4\n"), ModelSpec("y", ()))
    np.testing.assert_array_equal(null.column_coding.encode_rows({"y": [1.0, 2.0, 4.0]}), np.ones((3, 1)))
    with pytest.raises(ModelError, match="row count"):
        null.column_coding.encode_rows({})


def test_encode_rows_names_the_row_with_an_unknown_level():
    coding = _site_fit().column_coding
    with pytest.raises(ModelError, match=r"row 2: unknown level 'z' for 'site'"):
        coding.encode_rows({"x": [0.0, 1.0, 2.0, 3.0], "site": ["a", "b", "z", "q"]})
    with pytest.raises(ModelError, match="missing covariate 'site'"):
        coding.encode_rows({"x": [0.0]})
    with pytest.raises(ModelError, match="row count"):
        coding.encode_rows({"x": [0.0, 1.0], "site": ["a", "b", "a"]})


def test_encode_rows_refuses_a_categorical_column_of_more_than_one_dimension():
    coding = _site_fit().column_coding
    with pytest.raises(ModelError, match=r"^covariate 'site' needs one level per row, got a column of shape \(1, 2\)$"):
        coding.encode_rows({"x": [1.0], "site": [["a", "z"]]})


@pytest.mark.parametrize(
    "columns, message",
    [
        ({"x": 1.0, "site": ["a"]}, "covariate 'x' needs a column, one value per {}"),
        ({"x": [1.0], "site": "a"}, "covariate 'site' needs a column, one value per {}"),
    ],
)
def test_a_single_value_in_place_of_a_covariate_column_is_a_model_error(columns, message):
    result = _site_fit()
    with pytest.raises(ModelError, match=f"^{re.escape(message.format('row'))}$"):
        result.column_coding.encode_rows(columns)
    with pytest.raises(ModelError, match=f"^{re.escape(message.format('grid point'))}$"):
        leakage_profile(result, Evidence.interval(0.0, math.inf), columns)


def test_leakage_profile_keeps_its_grid_point_label():
    result = _site_fit()
    e = Evidence.interval(0.0, math.inf)
    with pytest.raises(ModelError, match=r"grid point 2: unknown level 'z'"):
        leakage_profile(result, e, {"x": [1.0, 1.0, 1.0], "site": ["a", "a", "z"]})
    with pytest.raises(ModelError, match=r"missing covariate 'site'"):
        leakage_profile(result, e, {"x": [1.0, 1.0]})
    with pytest.raises(ModelError, match=r"grid point 1: unknown level 'z'"):
        leakage_profile(result, e, {"x": [1.0, 2.0], "site": ["a", "z"]})
    with pytest.raises(ModelError, match=r"grid point 1: covariate 'x' needs a finite number, got None"):
        leakage_profile(result, e, {"x": [1.0, None], "site": ["a", "b"]})
    with pytest.raises(TypeError, match=r"leakage\(predictive_rows\(fit, X\), e\)"):
        leakage_profile(result, e, [[1.0, 2.0, 0.0], [1.0, 3.0, 1.0]])
    with pytest.raises(TypeError, match="mapping of covariate columns"):
        leakage_profile(result, e, [{"x": 1.0, "site": "a"}])


def test_an_empty_mapping_is_the_one_point_of_a_model_without_covariates():
    null = fit_model(load_dataset_text("y\n1\n2\n4\n"), ModelSpec("y", ()))
    e = Evidence.interval(0.0, math.inf)
    (report,) = leakage_profile(null, e, {})
    assert report.x_star == {}
    assert report.leakage == leakage(predictive_at(null, {}), e).leakage
    with pytest.raises(ModelError, match="missing covariate 'x'"):
        leakage_profile(_site_fit(), e, {})


def test_leakage_profile_encodes_each_point_as_predictive_at_does():
    data = load_dataset_text("y,x,site\n1,0,1\n2,1,2.5\n3,2,x\n4,3,1\n4,5,2.5\n6,4,x\n")
    result = fit_model(data, ModelSpec("y", ("x", "site")))
    e = Evidence.interval(0.0, math.inf)
    # an object column keeps each level as given: 1 reads "1", as it does alone
    columns = {"x": [1.0, 1.0, 2.0], "site": np.array([1, 2.5, "x"], dtype=object)}
    points = [{"x": 1.0, "site": 1}, {"x": 1.0, "site": 2.5}, {"x": 2.0, "site": "x"}]
    profile = leakage_profile(result, e, columns)
    for got, point in zip(profile.leakage, points):
        assert got == leakage(predictive_at(result, point), e).leakage
    row = [1.0, 1.0, 0.0, 1.0]  # encoded rows take predictive_rows
    assert leakage(predictive_rows(result, [row]), e).leakage[0] == leakage(predictive_at(result, row), e).leakage


def test_leakage_profile_matches_pointwise_leakage_in_every_input_form():
    result = _site_fit()
    e = Evidence.interval(0.0, 4.5)
    xs = np.linspace(-3.0, 8.0, 23)
    points = [{"x": float(x), "site": "b"} for x in xs]
    want = [leakage(predictive_at(result, pt), e, x_star=pt) for pt in points]
    arrays = {"x": xs, "site": np.full(xs.size, "b")}
    for columns in (arrays, {"x": xs.tolist(), "site": ["b"] * xs.size}):
        profile = leakage_profile(result, e, columns)
        assert isinstance(profile, LeakageProfile) and len(profile) == xs.size
        for got, ref in zip(profile, want):
            assert _ulps(got.leakage, ref.leakage) <= 4
            assert _ulps(got.below_mass, ref.below_mass) <= 4
            assert _ulps(got.above_mass, ref.above_mass) <= 4
        assert [r.x_star for r in profile] == points
    rows = result.column_coding.encode_rows(arrays)
    np.testing.assert_array_equal(
        leakage(predictive_rows(result, rows), e).leakage, leakage_profile(result, e, arrays).leakage
    )
    assert leakage_profile(result, e, {"x": [], "site": []}).leakage.shape == (0,)


def test_leakage_of_a_batch_broadcasts_every_evidence_shape():
    batch = StudentT(7.0, np.array([-1.0, 0.5, 3.0]), np.array([0.5, 1.0, 2.0]))
    singles = [StudentT(7.0, float(m), float(s)) for m, s in zip(batch.loc, batch.scale)]
    for e in (
        Evidence.interval(0.0, math.inf),
        Evidence.interval(-math.inf, 1.0),
        Evidence.interval(-0.5, 2.0),
        Evidence.interval_union([(-math.inf, -0.5), (0.0, 1.0), (2.0, math.inf)]),
        Evidence.lattice_support(0.0, 10.0, 1.0),
    ):
        rep = leakage(batch, e)
        for i, d in enumerate(singles):
            one = leakage(d, e)
            for name in ("leakage", "below_mass", "above_mass", "outside_mass_other"):
                got = np.broadcast_to(getattr(rep, name), (3,))[i]
                assert _ulps(got, getattr(one, name)) <= 4
            assert rep.complete == one.complete


@pytest.mark.parametrize(
    "make",
    [
        lambda loc, scale: StudentT(4.5, loc, scale),
        lambda loc, scale: Normal(loc, scale),
        lambda loc, scale: TruncatedNormal(loc, 1.3, lower=-0.5),
    ],
    ids=["student_t", "normal", "truncated_normal"],
)
def test_batched_pit_curves_and_crps_equal_the_per_case_results(make):
    rng = np.random.default_rng(3)
    loc = rng.normal(size=60)
    scale = rng.uniform(0.5, 2.0, size=60)
    y = np.maximum(loc + rng.normal(size=60), -0.5)
    batch = [ForecastCase(make(loc, scale), y)]
    single = [ForecastCase(make(float(m), float(s)), float(v)) for m, s, v in zip(loc, scale, y)]
    np.testing.assert_allclose(pit(batch, 1), pit(single, 1), rtol=0.0, atol=1e-12)
    grid = np.linspace(-3.0, 3.0, 41)
    for curve in (exceedance_calibration, marginal_calibration):
        np.testing.assert_allclose(curve(batch, grid), curve(single, grid), rtol=0.0, atol=1e-12)
    scores = crps(batch[0].predictive, y)
    assert scores.shape == (60,)
    want = [crps(c.predictive, c.observed) for c in single]
    np.testing.assert_allclose(scores, want, rtol=1e-12, atol=1e-12)
    a = calibration_report(batch, seed=5).to_json()
    b = calibration_report(single, seed=5).to_json()
    assert a.keys() == b.keys()
    for key in ("pit_values", "probability_curve", "exceedance_curve", "marginal_curve"):
        np.testing.assert_allclose(a[key], b[key], rtol=0.0, atol=1e-12)
    assert a["mean_crps"] == pytest.approx(b["mean_crps"], rel=1e-12)


def test_calibration_curves_cover_long_grids_in_blocks(monkeypatch):
    from probleak import calibration

    monkeypatch.setattr(calibration, "_TABLE_CELLS", 64)  # ten grid values per table
    rng = np.random.default_rng(8)
    cases = [ForecastCase(StudentT(3.0, rng.normal(size=7), np.ones(7)), rng.normal(size=7))]
    cases.append(ForecastCase(Normal(0.0, 1.0), 0.3))
    grid = np.linspace(-2.0, 2.0, 37)
    got = marginal_calibration(cases, grid)
    monkeypatch.undo()
    assert got == marginal_calibration(cases, grid)


def test_forecast_case_batch_rejects_a_non_finite_outcome():
    d = StudentT(3.0, np.zeros(2), np.ones(2))
    with pytest.raises(ValueError, match="finite"):
        ForecastCase(d, [0.0, math.nan])
    with pytest.raises(ValueError, match="finite"):
        crps(d, np.array([0.0, math.inf]))


def test_forecast_case_outcome_shape_must_match_the_batch():
    with pytest.raises(ValueError, match=r"shape \(5,\).*shape \(\)"):
        ForecastCase(Normal(0.0, 1.0), np.zeros(5))
    batches = (StudentT(3.0, np.zeros(3), 1.0), Normal(np.zeros(3), 1.0), TruncatedNormal(np.zeros(3), 1.0, 0.0))
    for one in (0.5, np.float64(0.5), 1, np.array(0.5)):
        for batch in batches:
            with pytest.raises(ValueError, match=r"shape \(\).*shape \(3,\)"):
                ForecastCase(batch, one)
    with pytest.raises(ValueError, match=r"shape \(2,\).*shape \(\)"):
        ForecastCase(Poisson(2.0), [1.0, 2.0])
