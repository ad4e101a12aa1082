"""CSV ingestion, design building, the flat-prior fit, and its predictive."""

import csv
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probleak import (
    DataError,
    Dataset,
    ModelError,
    ModelSpec,
    StudentT,
    build_design,
    fit,
    fit_model,
    load_dataset,
    load_dataset_text,
    predictive_at,
    regression,
)

HAND_CSV = "x,y\n0,0\n1,1\n2,3\n"


def hand_fit():
    data = load_dataset_text(HAND_CSV)
    return fit_model(data, ModelSpec("y", ("x",)))


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def test_load_dataset_types_columns():
    data = load_dataset_text("a,b,site\n1,2.5,north\n3,4.5,south\n")
    assert data.n == 2
    assert data.names == ("a", "b", "site")
    assert data.is_numeric("a") and data.is_numeric("b")
    assert not data.is_numeric("site")
    np.testing.assert_array_equal(data.column("a"), [1.0, 3.0])
    assert list(data.column("site")) == ["north", "south"]


def test_load_dataset_rejects_ragged_and_missing():
    with pytest.raises(DataError, match="row 3"):
        load_dataset_text("a,b\n1,2\n3\n")
    with pytest.raises(DataError, match="missing value"):
        load_dataset_text("a,b\n1,\n")
    with pytest.raises(DataError, match="missing value"):
        load_dataset_text("a\nnan\n")
    with pytest.raises(DataError, match="non-finite"):
        load_dataset_text("a\ninf\n")


def test_load_dataset_rejects_bad_headers():
    with pytest.raises(DataError, match="duplicate"):
        load_dataset_text("a,a\n1,2\n")
    with pytest.raises(DataError, match="empty column name"):
        load_dataset_text("a,\n1,2\n")
    with pytest.raises(DataError, match="missing header"):
        load_dataset_text("")
    with pytest.raises(DataError, match="no rows"):
        load_dataset_text("a,b\n")


def test_load_dataset_from_path(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(HAND_CSV)
    data = load_dataset(path)
    assert data.n == 3
    # a string is a path; raw CSV text must go through load_dataset_text
    with pytest.raises(OSError):
        load_dataset(HAND_CSV)


def test_dataset_rejects_mismatched_lengths():
    with pytest.raises(DataError, match="lengths differ"):
        Dataset({"a": np.array([1.0]), "b": np.array([1.0, 2.0])})
    with pytest.raises(DataError, match="no columns"):
        Dataset({})


def test_dataset_unknown_column():
    data = load_dataset_text(HAND_CSV)
    with pytest.raises(DataError, match="no column named 'z'"):
        data.column("z")


def test_to_csv_round_trips_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    data = Dataset(
        {
            "y": rng.normal(size=20),
            "grp": np.array(["a", "b"] * 10, dtype=str),
        }
    )
    path = tmp_path / "out.csv"
    data.to_csv(path)
    back = load_dataset(path)
    np.testing.assert_array_equal(back.column("y"), data.column("y"))
    assert list(back.column("grp")) == list(data.column("grp"))


def test_to_csv_to_file_object():
    data = load_dataset_text(HAND_CSV)
    buf = io.StringIO()
    data.to_csv(buf)
    assert buf.getvalue().splitlines()[0] == "x,y"


def _reference_text(data):
    """The text of the per-row writer Dataset.to_csv replaced, kept as the reference."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(data.names)
    cols = [data.columns[name] for name in data.names]
    for row in zip(*cols):
        writer.writerow([repr(float(v)) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()


def _assert_same_text(got, want):
    """Equal texts, or the first difference in a short message (no full diff)."""
    same = got == want
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(at - 20, 0)
    assert same, f"first difference at {at}: {got[lo:at + 20]!r} != {want[lo:at + 20]!r}"


class _ShownFloat(float):
    """A float whose str is not its value: the writer must take repr(float(v))."""

    def __str__(self):
        return "shown"


_BLOCK = regression._BLOCK_ROWS
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2e-308, 1e16, -1e16, 1e22, 3.0, -7.0, 0.1,
                     # the edges of repr's layout: 1e-05, 0.0001, 1e-07 and 1e+16
                     float(np.nextafter(1e-5, 0)), 1e-5, -1.5e-05, 9.999999999999999e-05, 1e-4,
                     float(np.nextafter(1e-4, 0)), 1e-7, float(np.nextafter(1e16, 0)), 1.5e16,
                     -1e22]),
)
_TEXT = st.text(st.one_of(st.sampled_from(list(',"\r\n a.-é中')), st.characters()), max_size=6)
_MIXED = st.one_of(
    st.integers(-(10**20), 10**20), _FLOATS, _TEXT, _FLOATS.map(_ShownFloat), _FLOATS.map(np.float64),
)


@st.composite
def _column(draw, n):
    """One column of n cells, each drawn from a small pool of values."""
    kind = draw(st.sampled_from(["float64", "float32", "int", "object", "str", "list", "bool"]))
    if kind == "float64":
        pool = draw(st.lists(_FLOATS, min_size=1, max_size=8))
    elif kind == "float32":
        pool = draw(st.lists(st.floats(width=32, allow_subnormal=True), min_size=1, max_size=8))
    elif kind == "int":
        pool = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=8))
    elif kind == "str":
        pool = draw(st.lists(_TEXT, min_size=1, max_size=8))
    elif kind == "bool":
        pool = [False, True]
    else:
        pool = draw(st.lists(_MIXED, min_size=1, max_size=8))
    picks = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(len(pool), size=n)
    cells = [pool[i] for i in picks]
    if kind == "list":
        return cells
    dtype = {"float64": np.float64, "float32": np.float32, "int": np.int64, "str": str, "bool": bool}
    return np.array(cells, dtype=dtype.get(kind, object))


@st.composite
def _datasets(draw):
    n = draw(st.one_of(st.integers(0, 6), st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1])))
    names = draw(st.lists(_TEXT, min_size=1, max_size=4, unique=True))
    return Dataset({name: draw(_column(n)) for name in names})


@settings(max_examples=300, deadline=None)
@given(_datasets())
@example(Dataset({"y": ["", "a", ""]}))  # a lone empty cell is quoted
@example(Dataset({"": np.array([1.0, 2.0])}))  # and so is a lone empty name
@example(Dataset({"a,b": ['x"y', "p\rq", "s\nt"], "c": [1, 2.5, "t u"]}))
@example(Dataset({"x": np.arange(_BLOCK + 1, dtype=float), "y": ["", "z"] * (_BLOCK // 2) + ["w"]}))
def test_to_csv_writes_the_bytes_of_the_row_writer(data):
    buf = io.StringIO()
    data.to_csv(buf)
    _assert_same_text(buf.getvalue(), _reference_text(data))


@pytest.mark.parametrize("n", [0, _BLOCK + 7])
def test_to_csv_writes_the_same_bytes_to_a_path_a_string_buffer_and_a_file(tmp_path, n):
    rng = np.random.default_rng(17)
    data = Dataset({
        "y": rng.normal(size=n),
        "k": rng.integers(-5, 5, size=n),
        "say, \"what\"": np.array(["", "a,b", 'q"', "x\ny", "é 中"] * (n // 5) + ["r\rs"] * (n % 5)),
    })
    want = _reference_text(data).encode()
    path = tmp_path / "by-path.csv"
    data.to_csv(path)
    assert path.read_bytes() == want
    data.to_csv(str(path))
    assert path.read_bytes() == want
    buf = io.StringIO()
    data.to_csv(buf)
    assert buf.getvalue().encode() == want
    with open(tmp_path / "by-handle.csv", "w", newline="", encoding="utf-8") as handle:
        handle.write("before\r\n")
        data.to_csv(handle)
        assert not handle.closed
    assert (tmp_path / "by-handle.csv").read_bytes() == b"before\r\n" + want


@pytest.mark.parametrize("categorical", [False, True])
def test_to_csv_round_trips_bit_for_bit_across_a_block_edge(tmp_path, categorical):
    n = 2 * _BLOCK + 1
    rng = np.random.default_rng(23)
    y = rng.normal(size=n) * 10.0 ** rng.integers(-320, 300, size=n)
    y[: 6] = [-0.0, 5e-324, 1e16, 2.0**53 + 2, -1.0, 0.0]
    columns = {"y": y, "x": rng.uniform(0.0, 1.0, size=n)}
    if categorical:
        columns["site"] = np.array(["north", "south, east", 'say "a"'])[rng.integers(3, size=n)]
    data = Dataset(columns)
    path = tmp_path / "round.csv"
    data.to_csv(path)
    back = load_dataset(path)
    assert back.names == data.names
    for name in ("y", "x"):
        assert back.column(name).dtype == np.float64
        assert back.column(name).tobytes() == data.column(name).tobytes()
    if categorical:
        assert list(back.column("site")) == list(data.column("site"))


class _Discard:
    def write(self, text):
        return len(text)


def _traced_write_peak(n):
    rng = np.random.default_rng(29)
    data = Dataset({name: rng.normal(size=n) for name in ("y", "x1", "x2")})
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        data.to_csv(_Discard())
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_to_csv_memory_does_not_grow_with_the_table():
    small, large = _traced_write_peak(20_000), _traced_write_peak(200_000)
    assert large <= 1.5 * small, (small, large)


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------


def test_build_design_intercept_first():
    data = load_dataset_text(HAND_CSV)
    X, y, coding = build_design(data, ModelSpec("y", ("x",)))
    np.testing.assert_array_equal(X[:, 0], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(X[:, 1], [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(y, [0.0, 1.0, 3.0])
    assert coding.names == ("(intercept)", "x")


def test_build_design_categorical_baseline_is_lexicographic():
    data = load_dataset_text("y,site\n1,b\n2,a\n3,c\n4,a\n")
    X, _, coding = build_design(data, ModelSpec("y", ("site",)))
    assert coding.levels["site"] == ("a", "b", "c")
    assert coding.names == ("(intercept)", "site=b", "site=c")
    np.testing.assert_array_equal(X[:, 1], [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(X[:, 2], [0.0, 0.0, 1.0, 0.0])


def test_build_design_errors():
    data = load_dataset_text(HAND_CSV)
    with pytest.raises(ModelError, match="response column 'z'"):
        build_design(data, ModelSpec("z", ("x",)))
    with pytest.raises(ModelError, match="covariate column 'w'"):
        build_design(data, ModelSpec("y", ("w",)))
    with pytest.raises(ModelError, match="no design columns"):
        build_design(data, ModelSpec("y", (), intercept=False))
    cat = load_dataset_text("y,g\none,a\ntwo,b\n")
    with pytest.raises(ModelError, match="must be numeric"):
        build_design(cat, ModelSpec("y", ("g",)))


def test_build_design_encodes_through_encode_rows():
    y = np.array([1.0, 2.0, 4.0, 3.0, 5.0])
    # levels are text, so an integer column fits and predicts with the same levels
    data = Dataset({"y": y, "g": np.array([2, 10, 2, 10, 3])})
    X, _, coding = build_design(data, ModelSpec("y", ("g",)))
    assert coding.levels["g"] == ("10", "2", "3")
    np.testing.assert_array_equal(X, coding.encode_rows({"g": ["2", "10", "2", "10", "3"]}))
    assert predictive_at(fit(X, y, coding), {"g": 2}) == predictive_at(fit(X, y, coding), {"g": "2"})
    bad = Dataset({"y": y, "x": np.array([0.0, math.nan, 1.0, 2.0, 3.0])})
    with pytest.raises(ModelError, match=r"^row 1: covariate 'x' needs a finite number, got nan$"):
        build_design(bad, ModelSpec("y", ("x",)))


def _column_loop_design(data, spec):
    """Reference design: each term's column built on its own and stacked."""
    terms, names, cols, levels = [], [], [], {}
    if spec.intercept:
        terms.append(("intercept",))
        names.append("(intercept)")
        cols.append(np.ones(data.n))
    for name in spec.covariates:
        if data.is_numeric(name):
            terms.append(("numeric", name))
            names.append(name)
            cols.append(np.asarray(data.column(name), dtype=float))
        else:
            col = data.column(name)
            lvls = sorted(np.unique(col).tolist())
            levels[name] = tuple(lvls)
            for level in lvls[1:]:
                terms.append(("indicator", name, level))
                names.append(f"{name}={level}")
                cols.append((col == level).astype(float))
    return cols, tuple(terms), tuple(names), levels


_LEVEL_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=3)


@st.composite
def _tables(draw):
    """A table of numeric and categorical covariates and a spec over some of them."""
    n = draw(st.integers(1, 12))
    columns = {"y": np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)))}
    for k in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            values = st.floats(allow_nan=False, allow_infinity=False)
            columns[f"x{k}"] = np.array(draw(st.lists(values, min_size=n, max_size=n)))
        else:
            pool = draw(st.lists(_LEVEL_TEXT, min_size=1, max_size=4, unique=True))
            columns[f"c{k}"] = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    covariates = draw(st.permutations([name for name in columns if name != "y"]))
    spec = ModelSpec("y", tuple(covariates[: draw(st.integers(0, len(covariates)))]), draw(st.booleans()))
    return Dataset(columns), spec


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_build_design_matches_the_column_loop_bit_for_bit(table):
    data, spec = table
    cols, terms, names, levels = _column_loop_design(data, spec)
    if not cols:  # no intercept, and no covariate with a column
        with pytest.raises(ModelError, match="no design columns"):
            build_design(data, spec)
        return
    X, y, coding = build_design(data, spec)
    want = np.column_stack(cols)
    assert X.shape == want.shape and X.tobytes() == want.tobytes()
    assert (coding.terms, coding.names, coding.levels) == (terms, names, levels)
    assert y.tobytes() == data.column("y").tobytes()


def test_model_spec_validation():
    with pytest.raises(ModelError, match="distinct"):
        ModelSpec("y", ("x", "x"))
    with pytest.raises(ModelError, match="also listed"):
        ModelSpec("y", ("y",))


def test_encode_rejects_bad_points():
    data = load_dataset_text("y,x,site\n1,0,a\n2,1,b\n3,2,a\n4,3,b\n")
    X, y, coding = build_design(data, ModelSpec("y", ("x", "site")))
    with pytest.raises(ModelError, match="missing covariate 'site'"):
        coding.encode_rows({"x": [1.0]})
    with pytest.raises(ModelError, match="unknown covariate"):
        predictive_at(fit(X, y, coding), {"x": 1.0, "site": "a", "bogus": 2.0})
    with pytest.raises(ModelError, match="row 0: unknown level 'z'"):
        coding.encode_rows({"x": [1.0], "site": ["z"]})
    for bad, shown in ((None, "None"), ("abc", "'abc'"), ([1, 2], r"\[1, 2\]"), (math.inf, "inf")):
        column = np.array([0.5, None], dtype=object)
        column[1] = bad
        with pytest.raises(ModelError, match=rf"row 1: covariate 'x' needs a finite number, got {shown}$"):
            coding.encode_rows({"x": column, "site": ["a", "b"]})
    # anything that converts to a finite float is a number
    np.testing.assert_array_equal(
        coding.encode_rows({"x": np.array(["1500", 5, True], dtype=object), "site": ["a", "b", "a"]}),
        [[1.0, 1500.0, 0.0], [1.0, 5.0, 1.0], [1.0, 1.0, 0.0]],
    )


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


def test_hand_ols_sufficient_statistics():
    result = hand_fit()
    # oracle: normal equations by hand for x=(0,1,2), y=(0,1,3):
    # beta = (-1/6, 3/2), sse = 1/6, df = 1
    np.testing.assert_allclose(result.beta_hat, [-1.0 / 6.0, 1.5], atol=1e-13)
    assert result.s2 == pytest.approx(1.0 / 6.0, abs=1e-13)
    assert (result.n, result.p, result.df) == (3, 2, 1)
    coefs = result.coefficients()
    assert coefs["(intercept)"] == pytest.approx(-1.0 / 6.0, abs=1e-13)
    assert coefs["x"] == pytest.approx(1.5, abs=1e-13)


def test_fit_requires_more_rows_than_columns():
    with pytest.raises(ModelError, match="n=2 <= p=2"):
        fit(np.array([[1.0, 0.0], [1.0, 1.0]]), np.array([0.0, 1.0]))


def test_fit_detects_rank_deficiency_with_names():
    data = load_dataset_text("y,a,b\n1,1,2\n2,2,4\n3,3,6\n4,4,8\n")
    # b is exactly 2a, so one of the pair must be flagged
    with pytest.raises(ModelError, match="rank-deficient"):
        fit_model(data, ModelSpec("y", ("a", "b")))


def test_fit_matrix_shape_validation():
    with pytest.raises(ModelError, match="two-dimensional"):
        fit(np.zeros(3), np.zeros(3))
    with pytest.raises(ModelError, match="does not match"):
        fit(np.zeros((3, 1)), np.zeros(4))


def test_exact_fit_collapses_s2_and_blocks_predictive():
    data = load_dataset_text("x,y\n0,1\n1,3\n2,5\n")  # y = 1 + 2x exactly
    result = fit_model(data, ModelSpec("y", ("x",)))
    assert result.s2 == 0.0
    with pytest.raises(ModelError, match="degenerate predictive"):
        predictive_at(result, {"x": 1.0})


def _scipy_fit(X, y):
    """The fit through ``scipy.linalg.qr(..., pivoting=True)`` and
    ``solve_triangular``: the bit-level reference for ``fit``, which makes
    the same LAPACK calls without the wrappers. Returns (beta, s2,
    xtx_inverse), or the rank-deficiency message."""
    from scipy import linalg

    n, p = X.shape
    eps = np.finfo(float).eps
    Q, R, piv = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(R))
    rank = int(np.sum(diag > eps * max(n, p) * diag.max()))
    if rank < p:
        return f"design matrix is rank-deficient; redundant: {[f'column {j}' for j in piv[rank:]]}"
    beta = np.empty(p)
    beta[piv] = linalg.solve_triangular(R, Q.T @ y)
    resid = y - X @ beta
    sse = float(resid @ resid)
    if sse <= n * eps**2 * max(1.0, float(y @ y)):
        sse = 0.0
    r_inv = linalg.solve_triangular(R, np.eye(p))
    xtx_inv = np.empty((p, p))
    xtx_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
    return beta, sse / (n - p), 0.5 * (xtx_inv + xtx_inv.T)


@st.composite
def _designs(draw, collinear=True, decades=8.0, blocked=True):
    """(X, y): p from 1 to 40, across LAPACK's block size of 32, with n from
    p + 1 to 3,000; with ``blocked``, also p from 129 to 160 with n up to
    600, since past 128 columns LAPACK's blocked QR takes over and the
    result depends on the workspace size. Columns are scaled by up to
    10^decades either way, in C or Fortran order; with ``collinear``, a pair
    is also near-collinear or exactly duplicated. The noise is 1e-3 to 1e3
    times the signal's spread."""
    p = draw(st.one_of(st.integers(1, 40), st.integers(129, 160)) if blocked else st.integers(1, 40))
    n = draw(st.integers(p + 1, 3000 if p <= 40 else 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, p))
    if draw(st.booleans()):
        X[:, 0] = 1.0  # an intercept
    spread = draw(st.sampled_from([0.0, 2.0, decades]))  # a wide spread makes most large p singular
    X *= 10.0 ** rng.uniform(-spread, spread, size=p)
    pair = draw(st.sampled_from(["none", "near", "duplicate"] if collinear else ["none"]))
    if p >= 2 and pair != "none":
        j, k = rng.choice(p, size=2, replace=False)
        X[:, k] = 3.0 * X[:, j]
        if pair == "near":
            X[:, k] += 10.0 ** draw(st.integers(-14, -4)) * np.abs(X[:, j]).max() * rng.standard_normal(n)
    if draw(st.booleans()):
        X = np.asfortranarray(X)
    signal = X @ rng.standard_normal(p)
    noise = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
    return X, signal + noise * (np.std(signal) or 1.0)


@settings(max_examples=150, deadline=None)
@given(_designs())
def test_fit_has_the_bits_of_scipy_linalg_qr_and_solve_triangular(design):
    X, y = design
    expected = _scipy_fit(X, y)
    if isinstance(expected, str):
        with pytest.raises(ModelError) as err:
            fit(X, y)
        assert str(err.value) == expected
        return
    result = fit(X, y)
    beta, s2, xtx_inverse = expected
    assert result.beta_hat.tobytes() == beta.tobytes()
    assert result.s2.hex() == s2.hex()
    assert result.xtx_inverse.tobytes() == xtx_inverse.tobytes()


@settings(max_examples=100, deadline=None)
@given(_designs(collinear=False, decades=4.0, blocked=False))
def test_fit_agrees_with_lstsq(design):
    # an independent oracle: the SVD solver, on the design with its columns
    # scaled to unit norm, since its cut-off for small singular values is
    # relative to the largest and so not invariant to a column's scale.
    # Columns within 1e8 of each other in scale stay above the fit's own
    # rank tolerance
    X, y = design
    norms = np.linalg.norm(X, axis=0)
    scaled = np.linalg.lstsq(X / norms, y)[0]
    result = fit(X, y)
    np.testing.assert_allclose(
        result.beta_hat * norms, scaled, rtol=1e-10, atol=1e-10 * np.linalg.norm(scaled)
    )
    sse = float(np.sum((y - (X / norms) @ scaled) ** 2))
    assert result.s2 == pytest.approx(sse / result.df, rel=1e-10)


@pytest.mark.parametrize("where", ["X", "y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fit_refuses_a_non_finite_design_or_response(where, bad):
    rng = np.random.default_rng(0)
    X, y = rng.standard_normal((20, 3)), rng.standard_normal(20)
    if where == "X":
        X[7, 1] = bad
    else:
        y[7] = bad
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        fit(X, y)


def test_fit_of_a_design_without_columns_is_the_zero_mean_model():
    y = np.array([1.0, -2.0, 3.0, 0.5])
    result = fit(np.empty((4, 0)), y)
    assert result.beta_hat.shape == (0,) and result.xtx_inverse.shape == (0, 0)
    assert result.s2 == float(y @ y) / 4


# ---------------------------------------------------------------------------
# predictive
# ---------------------------------------------------------------------------


def test_predictive_at_hand_values():
    result = hand_fit()
    d = predictive_at(result, {"x": 1.0})
    assert isinstance(d, StudentT)
    # oracle: loc = -1/6 + 3/2 = 4/3; leverage at x*=(1,1) is 1/3;
    # scale = sqrt(s2 * (1 + 1/3)) = sqrt(2)/3
    assert d.df == 1.0
    assert d.loc == pytest.approx(4.0 / 3.0, abs=1e-13)
    assert d.scale == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-13)


def test_predictive_accepts_encoded_row():
    result = hand_fit()
    via_dict = predictive_at(result, {"x": 2.0})
    via_row = predictive_at(result, np.array([1.0, 2.0]))
    assert via_dict == via_row
    with pytest.raises(ModelError, match="dimension mismatch"):
        predictive_at(result, np.array([1.0, 2.0, 3.0]))


def test_null_model_predictive():
    data = load_dataset_text("y\n1\n2\n3\n")
    result = fit_model(data, ModelSpec("y", ()))
    d = predictive_at(result, {})
    # oracle: mean 2, s2 = 1, leverage 1/n = 1/3 -> scale = sqrt(4/3), df = 2
    assert d.df == 2.0
    assert d.loc == pytest.approx(2.0, abs=1e-13)
    assert d.scale == pytest.approx(math.sqrt(4.0 / 3.0), abs=1e-13)


def test_categorical_fit_end_to_end():
    rows = ["y,x,site"]
    rng = np.random.default_rng(0)
    for i in range(40):
        site = "A" if i % 2 == 0 else "B"
        x = float(i)
        y = 1.0 + 0.5 * x + (2.0 if site == "B" else 0.0) + rng.normal(0, 0.3)
        rows.append(f"{y!r},{x!r},{site}")
    data = load_dataset_text("\n".join(rows) + "\n")
    result = fit_model(data, ModelSpec("y", ("x", "site")))
    coefs = result.coefficients()
    assert coefs["site=B"] == pytest.approx(2.0, abs=0.5)
    a = predictive_at(result, {"x": 10.0, "site": "A"})
    b = predictive_at(result, {"x": 10.0, "site": "B"})
    assert b.loc - a.loc == pytest.approx(coefs["site=B"], abs=1e-12)
