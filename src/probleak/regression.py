"""Flat-prior normal linear regression and its exact Student-t predictive.

The model is ordinary normal linear regression with improper flat priors on
the coefficients and log-variance. Integrating the parameters out in closed
form leaves the classical OLS sufficient statistics, and the predictive at a
new covariate point is Student t with

    df    = n - p
    loc   = x* . beta_hat
    scale = sqrt(s2 * (1 + x* (X'X)^-1 x*'))

Covariate points enter as named columns, and predictives are built in
batches: ``ColumnCoding.encode_rows`` turns the columns into design rows, and
``predictive_rows`` gives one ``StudentT`` whose ``loc``/``scale`` are arrays
with one entry per row, ready for the broadcasting scores downstream.
``predictive_at`` is the one-row case of the same encoder.

Fitting goes through a pivoted QR factorization so rank deficiency is
detected rather than silently absorbed: LAPACK's dgeqp3, dorgqr and dtrtrs,
the routines ``scipy.linalg.qr`` and ``solve_triangular`` call, called
directly. Categorical covariates are expanded to indicator columns against a
deterministic baseline (the lexicographically smallest level).
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.linalg import lapack

from . import _text
from .exceptions import DataError, ModelError
from .predictive import StudentT

__all__ = [
    "Dataset",
    "ModelSpec",
    "ColumnCoding",
    "FitResult",
    "load_dataset",
    "load_dataset_text",
    "build_design",
    "fit",
    "fit_model",
    "predictive_at",
    "predictive_rows",
]


# ---------------------------------------------------------------------------
# data ingestion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """Immutable table of named columns; numeric columns are float arrays,
    categorical columns are string arrays. No missing values by construction."""

    columns: dict

    def __post_init__(self):
        if not self.columns:
            raise DataError("dataset has no columns")
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) != 1:
            raise DataError(f"column lengths differ: {lengths}")

    @property
    def n(self) -> int:
        return len(next(iter(self.columns.values())))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.columns)

    def is_numeric(self, name: str) -> bool:
        return np.asarray(self.columns[name]).dtype.kind == "f"

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise DataError(f"no column named {name!r}") from None

    def to_csv(self, target) -> None:
        """Write the table in the same CSV dialect ``load_dataset`` reads, to
        a path or a file object.

        Floats are written as ``repr`` writes them, the shortest digits that
        round-trip, so a write/read cycle reproduces the numeric columns bit
        for bit. The bytes are those of ``csv.writer``'s default dialect
        (``\\r\\n`` line ends), formatted by ``_text._csv_text`` a block of
        rows at a time, so the memory a write holds does not grow with the
        table. A path's file is rewritten in place by ``_text._write_text``.
        """
        cols = list(self.columns.values())
        blocks = (
            _text._csv_text((), [col[start : start + _BLOCK_ROWS] for col in cols], "\r\n")
            for start in range(0, self.n, _BLOCK_ROWS)
        )
        _text._write_text(target, itertools.chain([_text._csv_text(self.names, (), "\r\n")], blocks))


_BLOCK_ROWS = 1024  # rows formatted and written at a time by Dataset.to_csv
_FIRST_ROW = 2  # data rows are numbered from 1 at the header


def _check_finite(values: np.ndarray, name: str) -> None:
    """Raise for the first NaN or infinite value of a parsed column, if any."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        what = "missing" if math.isnan(values[i]) else "non-finite"
        raise DataError(f"{what} value at row {i + _FIRST_ROW}, column {name!r}")


def load_dataset(source) -> Dataset:
    """Parse CSV with a header row into typed columns.

    A column is numeric when every cell parses as a finite float; otherwise
    it is categorical. Empty cells, NaN/inf cells, and ragged rows are
    rejected with the offending row and column named (rows are numbered from
    1 at the header). A ragged row or an empty cell is reported first in row
    order, and before a later line that csv refuses; a NaN or inf cell only
    counts when it comes before the column's first non-numeric cell.

    A table whose data lines are all plain finite numbers is parsed in C
    by ``_text._numeric_table`` through orjson, whose number parser rounds
    as ``float()`` does: the data lines' bytes, read again from the path of
    a regular file or taken from the rest of a file object or pipe, go to it
    a block of lines at a time.
    A quote, a blank line, a line of another width, a cell outside the JSON
    number grammar or a NaN or inf refuses its block, and so does a block
    longer than csv's field size limit. A table with a refused block goes
    through the per-cell parser, which alone decides categorical columns
    and reports errors; both give the same columns, signed zeros included.
    """
    own = isinstance(source, (str, Path))
    handle = open(source, "r", newline="") if own else source
    try:
        if isinstance(handle, (bytes, str)):
            raise TypeError("pass a path or a file object, not raw text")
        # readline, not iteration, so that nothing past the header is read
        reader = csv.reader(iter(handle.readline, ""))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("missing header row") from None
        header = [h.strip() for h in header]
        if any(not h for h in header):
            raise DataError("header contains an empty column name")
        if len(set(header)) != len(header):
            raise DataError("header contains duplicate column names")
        # the body is read by opening the path again, so only a regular file
        # goes by path: a pipe or FIFO would be drained, or block
        if own and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            body, skiprows = str(source), reader.line_num
        else:
            body, skiprows = handle.readlines(), 0
            reader = csv.reader(body)
        first = next(reader, None)
        table = _text._numeric_table(body, skiprows, first, len(header))
        if table is not None:
            return Dataset(dict(zip(header, table)))
        rows, error = [] if first is None else [first], None
        try:
            rows.extend(reader)
        except csv.Error as err:  # raised once the rows before it pass
            error = err
    finally:
        if own:
            handle.close()

    # the rows before the first ragged one are parsed column by column; the
    # first empty cell among them, in row order, comes before that row
    ragged = next((i for i, row in enumerate(rows) if len(row) != len(header)), len(rows))
    cells = [list(map(str.strip, col)) for col in zip(*rows[:ragged])]
    empty = min(
        ((col.index(""), j) for j, col in enumerate(cells) if "" in col), default=None
    )
    if empty is not None:
        i, j = empty
        raise DataError(f"missing value at row {i + _FIRST_ROW}, column {header[j]!r}")
    if ragged < len(rows):
        raise DataError(
            f"row {ragged + _FIRST_ROW}: expected {len(header)} fields, got {len(rows[ragged])}"
        )
    if error is not None:
        raise error
    if not header or not rows:
        raise DataError("dataset has no rows")

    columns = {}
    for name, col in zip(header, cells):
        try:
            values = np.fromiter(map(float, col), dtype=float, count=len(col))
        except ValueError:
            # categorical; only the cells before its first non-numeric one
            # were ever read as numbers
            stop = next(i for i, cell in enumerate(col) if _text._parse_cell(cell) is None)
            _check_finite(np.fromiter(map(float, col[:stop]), dtype=float, count=stop), name)
            columns[name] = np.array(col, dtype=str)
        else:
            _check_finite(values, name)
            columns[name] = values
    return Dataset(columns)


def load_dataset_text(text: str) -> Dataset:
    """Convenience wrapper for CSV already held in a string.

    Lines split as in a file opened by path (``newline=""``), so text
    with bare carriage-return line endings loads too.
    """
    return load_dataset(io.StringIO(text, newline=""))


# ---------------------------------------------------------------------------
# design construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Structural choice of the regression: response, covariates, intercept."""

    response: str
    covariates: tuple[str, ...] = ()
    intercept: bool = True

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        if len(set(self.covariates)) != len(self.covariates):
            raise ModelError("covariate names must be distinct")
        if self.response in self.covariates:
            raise ModelError(f"response {self.response!r} also listed as covariate")


@dataclass(frozen=True)
class ColumnCoding:
    """Record of how covariates map to design columns.

    ``terms`` holds one tuple per design column: ("intercept",),
    ("numeric", name), or ("indicator", name, level). ``levels`` lists every
    observed level per categorical covariate, baseline first.
    """

    terms: tuple[tuple, ...]
    names: tuple[str, ...]
    levels: dict = field(default_factory=dict)
    covariates: tuple[str, ...] = ()

    @property
    def p(self) -> int:
        return len(self.terms)

    def encode_rows(self, columns: Mapping, label: str = "row") -> np.ndarray:
        """Encode named covariate columns into a design matrix, one row per entry.

        ``build_design`` encodes the training table through it too. Columns
        the coding does not use are ignored (a ``Dataset``'s ``columns`` can be
        passed as is). Levels compare as text. A column that is a single
        value, not one entry per row, raises ModelError naming it. An
        unknown categorical level, or a numeric value that is not a finite
        number, raises ModelError naming the covariate and the first row that
        has it (as ``label`` i). A coding without covariates reads the row
        count off the other columns.
        """
        missing = [name for name in self.covariates if name not in columns]
        if missing:
            raise ModelError(f"columns are missing covariate {missing[0]!r}")
        cols = {name: np.asarray(columns[name]) for name in self.covariates}
        counted = cols or {name: np.asarray(col) for name, col in columns.items()}
        single = [name for name, col in counted.items() if col.ndim == 0]
        if single and cols:
            raise ModelError(f"covariate {single[0]!r} needs a column, one value per {label}")
        if single:  # no covariates: every column counts the rows
            raise ModelError(f"column {single[0]!r} is a single value, not one value per {label}")
        sizes = {len(col) for col in counted.values()}
        if len(sizes) != 1:
            raise ModelError(f"cannot tell the row count from column lengths {sorted(sizes)}")
        X = np.empty((sizes.pop(), self.p))
        for j, term in enumerate(self.terms):
            if term[0] == "intercept":
                X[:, j] = 1.0
            elif term[0] == "numeric":
                col = cols[term[1]]
                if col.dtype.kind in "US" and not isinstance(columns[term[1]], np.ndarray):
                    # numpy made every entry of a list that holds one text a
                    # text: check the entries as the caller gave them
                    col = np.asarray(columns[term[1]], dtype=object)
                X[:, j] = _finite_floats(col, term[1], label)
            else:  # indicator
                name, col = term[1], cols[term[1]].astype(str)
                if col.ndim != 1:
                    raise ModelError(
                        f"covariate {name!r} needs one level per {label}, "
                        f"got a column of shape {col.shape}"
                    )
                unknown = np.flatnonzero(~np.isin(col, self.levels[name]))
                if unknown.size:
                    i = int(unknown[0])
                    raise ModelError(
                        f"{label} {i}: unknown level {str(col[i])!r} for {name!r}; "
                        f"saw {self.levels[name]}"
                    )
                X[:, j] = col == term[2]
        return X


def _finite_floats(col: np.ndarray, name: str, label: str) -> np.ndarray:
    """A numeric covariate column as floats; ModelError names the first row
    whose entry is not a finite number. A bool or a text is no number,
    though ``float`` takes ``True``, ``"3"`` and ``b"3"``: neither in a bool,
    str or bytes column nor in an object column, such as a JSON ``--at``
    point's. A str or bytes column is an array of texts, so the row named
    is the first whose text is not a finite number, or else the first row."""
    text = col.dtype.kind in "US"
    not_numbers = () if text else (bool, str, bytes)
    try:
        values = np.asarray(col, dtype=float)
        if values.ndim == 1 and np.isfinite(values).all() and col.dtype.kind not in "bUS":
            if col.dtype != object or not any(isinstance(value, not_numbers) for value in col.flat):
                return values
    except (TypeError, ValueError, OverflowError):  # text, sequences, or ints past float64
        pass
    rows = col.tolist()
    for i, value in enumerate(rows):
        try:
            if np.ndim(value) == 0 and not isinstance(value, not_numbers) and math.isfinite(float(value)):
                continue
        except (TypeError, ValueError, OverflowError):
            pass
        break
    else:
        if not (text and rows):
            raise ModelError(f"covariate {name!r} needs one finite number per {label}")
        i, value = 0, rows[0]  # each text reads as a finite number, but is text
    raise ModelError(f"{label} {i}: covariate {name!r} needs a finite number, got {value!r}")


def build_design(data: Dataset, spec: ModelSpec):
    """Build the design matrix and response vector for a model spec.

    Returns ``(X, y, coding)``. The intercept column of ones comes first when
    enabled; categorical covariates expand to one indicator per non-baseline
    level, levels read as text, with the lexicographically smallest as
    baseline; numeric covariates pass through in declared order. ``X`` is
    ``coding.encode_rows`` of the table, so a numeric covariate entry that is
    not finite raises ModelError.
    """
    if spec.response not in data.columns:
        raise ModelError(f"response column {spec.response!r} not in dataset")
    if not data.is_numeric(spec.response):
        raise ModelError(f"response column {spec.response!r} must be numeric")
    y = np.asarray(data.column(spec.response), dtype=float)

    terms: list[tuple] = [("intercept",)] if spec.intercept else []
    names: list[str] = ["(intercept)"] if spec.intercept else []
    levels: dict = {}
    for name in spec.covariates:
        if name not in data.columns:
            raise ModelError(f"covariate column {name!r} not in dataset")
        if data.is_numeric(name):
            terms.append(("numeric", name))
            names.append(name)
        else:
            levels[name] = tuple(np.unique(np.asarray(data.column(name), dtype=str)).tolist())
            for level in levels[name][1:]:
                terms.append(("indicator", name, level))
                names.append(f"{name}={level}")
    if not terms:
        raise ModelError("model has no design columns (no intercept, no covariates)")
    coding = ColumnCoding(
        terms=tuple(terms), names=tuple(names), levels=levels, covariates=spec.covariates
    )
    X = coding.encode_rows(data.columns)
    return X, y, coding


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitResult:
    """Sufficient statistics of the flat-prior posterior (parameters integrated out)."""

    beta_hat: np.ndarray
    s2: float
    xtx_inverse: np.ndarray
    n: int
    p: int
    column_coding: ColumnCoding | None = None

    @property
    def df(self) -> int:
        return self.n - self.p

    def coefficients(self) -> dict:
        if self.column_coding is None:
            return {f"b{j}": float(b) for j, b in enumerate(self.beta_hat)}
        return {
            name: float(b) for name, b in zip(self.column_coding.names, self.beta_hat)
        }


def _solve_upper(R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """R^-1 b for an upper-triangular R, by the dtrtrs call that
    ``scipy.linalg.solve_triangular`` makes: LAPACK reads Fortran order, so
    a C-ordered R goes in as its transpose, lower and transposed."""
    if not b.size:  # a design without columns; LAPACK refuses the empty system
        return b
    a, flip = (R, 0) if R.flags.f_contiguous else (R.T, 1)
    return lapack.dtrtrs(a, b, lower=flip, trans=flip)[0]


def fit(X: np.ndarray, y: np.ndarray, coding: ColumnCoding | None = None) -> FitResult:
    """OLS by pivoted QR; equals the flat-prior posterior's sufficient statistics.

    LAPACK's dgeqp3 factors X with column pivoting, dorgqr forms Q, and
    dtrtrs solves with R for beta and for R^-1. These are the routines, and
    the calls, of ``scipy.linalg.qr(X, mode="economic", pivoting=True)`` and
    ``scipy.linalg.solve_triangular``, made without their wrappers, so the
    results have the same bits.

    Raises ModelError when n <= p (the posterior would be improper under the
    flat prior) or when the design is rank-deficient at the pivoted-QR
    tolerance eps * max(n, p) * max|R_ii|, and ValueError when X or y holds
    a NaN or an infinity.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ModelError("design matrix must be two-dimensional")
    n, p = X.shape
    if y.shape != (n,):
        raise ModelError(f"response length {y.shape} does not match {n} rows")
    if n <= p:
        raise ModelError(
            f"n={n} <= p={p}: posterior improper under flat prior (need n > p)"
        )

    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise ValueError("array must not contain infs or NaNs")
    factor = np.array(X, order="F")  # dgeqp3 overwrites it with R and the reflectors
    lwork = int(lapack.dgeqp3(factor, lwork=-1, overwrite_a=1)[3][0])
    _, piv, tau, _, _ = lapack.dgeqp3(factor, lwork=lwork, overwrite_a=1)
    piv -= 1  # LAPACK counts columns from 1
    # R before dorgqr overwrites the factor, C-ordered as solve_triangular
    # gets it; dtrtrs never reads the reflectors below its diagonal
    R = factor[:p].copy(order="C")
    lwork = int(lapack.dorgqr(factor, tau, lwork=-1, overwrite_a=1)[1][0])
    Q = lapack.dorgqr(factor, tau, lwork=lwork, overwrite_a=1)[0]
    diag = np.abs(np.diag(R))
    tol = np.finfo(float).eps * max(n, p) * (diag.max() if diag.size else 0.0)
    rank = int(np.sum(diag > tol))
    if rank < p:
        dropped = piv[rank:]
        if coding is not None:
            labels = [coding.names[j] for j in dropped]
        else:
            labels = [f"column {j}" for j in dropped]
        raise ModelError(f"design matrix is rank-deficient; redundant: {labels}")

    z = _solve_upper(R, Q.T @ y)
    beta = np.empty(p)
    beta[piv] = z

    resid = y - X @ beta
    sse = float(resid @ resid)
    # residuals at pure rounding level collapse to an exact zero
    if sse <= n * (np.finfo(float).eps ** 2) * max(1.0, float(y @ y)):
        sse = 0.0
    s2 = sse / (n - p)

    r_inv = _solve_upper(R, np.eye(p))
    a = r_inv @ r_inv.T
    xtx_inv = np.empty((p, p))
    xtx_inv[piv[:, None], piv] = a
    xtx_inv = 0.5 * (xtx_inv + xtx_inv.T)

    beta.setflags(write=False)
    xtx_inv.setflags(write=False)
    return FitResult(
        beta_hat=beta, s2=s2, xtx_inverse=xtx_inv, n=n, p=p, column_coding=coding
    )


def fit_model(data: Dataset, spec: ModelSpec) -> FitResult:
    """Build the design for ``spec`` and fit it."""
    X, y, coding = build_design(data, spec)
    return fit(X, y, coding)


def predictive_rows(fit_result: FitResult, X) -> StudentT:
    """Exact posterior predictives at every row of an encoded design matrix.

    Returns one ``StudentT`` whose ``loc`` and ``scale`` are arrays, entry i
    belonging to row i of ``X`` (shape (rows, p)). A row whose ``loc`` or
    ``scale`` is not a finite number, as covariates far too large for the fit
    give, raises ModelError.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != fit_result.p:
        raise ModelError(f"dimension mismatch: rows have shape {X.shape}, fit has p={fit_result.p}")
    if fit_result.s2 == 0.0:
        raise ModelError("degenerate predictive: s2 = 0 (residuals vanish)")
    # einsum rather than BLAS: a row's sums then run in the same order
    # whatever the number of rows, so predictive_at agrees bit for bit
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        loc = np.einsum("ij,j->i", X, fit_result.beta_hat)
        leverage = (np.einsum("ij,jk->ik", X, fit_result.xtx_inverse) * X).sum(axis=1)
        scale = np.sqrt(fit_result.s2 * (1.0 + np.maximum(leverage, 0.0)))
    if not (np.isfinite(loc) & np.isfinite(scale)).all():
        raise ModelError("covariates too large for the fit: a predictive is not finite")
    return StudentT(df=float(fit_result.df), loc=loc, scale=scale)


def _encode_columns(fit_result: FitResult, columns: Mapping, label: str = "row") -> np.ndarray:
    """Design rows of covariate columns through the fit's column coding.

    An empty mapping is the one point of a model without covariates, which
    leaves no column to count rows by.
    """
    coding = fit_result.column_coding
    if coding is None:
        raise ModelError("fit carries no column coding; pass encoded rows to predictive_rows")
    if columns or coding.covariates:
        return coding.encode_rows(columns, label)
    return np.ones((1, fit_result.p))


def predictive_at(fit_result: FitResult, x_star) -> StudentT:
    """Exact posterior predictive at one covariate point.

    ``x_star`` is either a mapping of covariate names to values, encoded as
    one row of ``encode_rows`` with the fit's column coding, or an
    already-encoded design row of length p.
    """
    if isinstance(x_star, Mapping):
        coding = fit_result.column_coding
        unknown = set(x_star) - set(coding.covariates) if coding is not None else set()
        if unknown:
            raise ModelError(f"unknown covariate(s) in point: {sorted(unknown)}")
        X = _encode_columns(fit_result, {name: [value] for name, value in x_star.items()}, "point")
    else:  # predictive_rows checks the row's length
        X = np.asarray(x_star, dtype=float)[None]
    batch = predictive_rows(fit_result, X)
    return StudentT(df=batch.df, loc=float(batch.loc[0]), scale=float(batch.scale[0]))
