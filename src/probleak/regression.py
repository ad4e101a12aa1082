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
detected rather than silently absorbed, and categorical covariates are
expanded to indicator columns against a deterministic baseline (the
lexicographically smallest level).
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy import linalg

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
        """Write the table in the same CSV dialect ``load_dataset`` reads.

        Floats are written with shortest round-trip repr, so a write/read
        cycle reproduces the numeric columns bit for bit.
        """
        own = isinstance(target, (str, Path))
        handle = open(target, "w", newline="") if own else target
        try:
            writer = csv.writer(handle)
            writer.writerow(self.names)
            cols = [self.columns[name] for name in self.names]
            for row in zip(*cols):
                writer.writerow(
                    [repr(float(v)) if isinstance(v, float) else str(v) for v in row]
                )
        finally:
            if own:
                handle.close()


def _parse_cell(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


_FIRST_ROW = 2  # data rows are numbered from 1 at the header


def _check_finite(values: np.ndarray, name: str) -> None:
    """Raise for the first NaN or infinite value of a parsed column, if any."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        what = "missing" if math.isnan(values[i]) else "non-finite"
        raise DataError(f"{what} value at row {i + _FIRST_ROW}, column {name!r}")


# np.loadtxt opens a path with these suffixes through a decompressor
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _loadtxt_lines(data: bytes, start: int = 0) -> int | None:
    """The number of lines in ``data[start:]`` as ``newline=""`` splits
    them (at \\n, \\r and \\r\\n), or None where np.loadtxt may read them
    otherwise than csv: it does not unquote and has no field size limit. It
    also skips blank lines, which show as a row count short of this one.
    """
    if data.find(b'"', start) >= 0:
        return None
    limit, pos = csv.field_size_limit(), start
    while len(data) - pos > limit:  # each window of limit + 1 bytes holds a line end
        end = pos + limit + 1
        cut = max(data.rfind(b"\n", pos, end), data.rfind(b"\r", pos, end))
        if cut < 0:
            return None
        pos = cut + 1
    lines = data.count(b"\n", start)
    if data.find(b"\r", start) >= 0:
        lines += data.count(b"\r", start) - data.count(b"\r\n", start)
    return lines + (len(data) > start and not data.endswith((b"\n", b"\r")))  # an unended last line


_LINE_END = re.compile(rb"\r\n?|\n")


def _past_lines(data: bytes, lines: int) -> int:
    """The offset just past the first ``lines`` lines of ``data``, split as
    ``newline=""`` splits them."""
    pos = 0
    for _ in range(lines):
        found = _LINE_END.search(data, pos)
        pos = found.end() if found else len(data)
    return pos


def _numeric_table(source, skiprows: int, first: list | None, width: int) -> np.ndarray | None:
    """The lines of ``source`` past the first ``skiprows``, parsed in C into
    one contiguous row per column, or None for the per-cell parser.

    ``source`` is the path of a regular file, which np.loadtxt reads itself
    (only its lines past the header are scanned), or a list of lines.
    ``first``, the first data row as csv read it, must hold ``width``
    numbers: so a categorical table never reaches C, and loadtxt never
    meets a body of blank lines, on which it warns. None also follows what
    ``_loadtxt_lines`` refuses, a cell that is not a number to C, a row of
    another width, a skipped blank line, or a NaN or inf.
    """
    if not first or len(first) != width or any(_parse_cell(cell) is None for cell in first):
        return None
    if isinstance(source, str):
        data = Path(source).read_bytes()
        start = _past_lines(data, skiprows)
    else:
        data, start = "".join(source).encode("utf-8", "surrogatepass"), 0
    lines = _loadtxt_lines(data, start)
    if lines is None:
        return None
    try:
        table = np.loadtxt(
            source, skiprows=skiprows, delimiter=",", comments=None, ndmin=2, dtype=float
        )
    except ValueError:
        return None
    if len(table) != lines or table.shape[1] != width or not np.isfinite(table).all():
        return None
    return np.ascontiguousarray(table.T)


def load_dataset(source) -> Dataset:
    """Parse CSV with a header row into typed columns.

    A column is numeric when every cell parses as a finite float; otherwise
    it is categorical. Empty cells, NaN/inf cells, and ragged rows are
    rejected with the offending row and column named (rows are numbered from
    1 at the header). A ragged row or an empty cell is reported first in row
    order; a NaN or inf cell only counts when it comes before the column's
    first non-numeric cell.

    A table whose data lines are all plain finite numbers is parsed in C by
    ``np.loadtxt``: from the path of a regular file, numpy reads the file
    itself; from a file object, a pipe or a compressed file's path, it gets
    the rest of the stream as a list of lines. One scan of the data lines'
    bytes first refuses quotes and lines past csv's field size limit, and a
    blank line shows as a missing row. Anything else goes through the
    per-cell parser, which alone decides categorical columns and reports
    errors; both give the same columns.
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
        # numpy opens the path again, so only a regular file goes by path:
        # a pipe or FIFO would be drained, or block, on the second open
        regular = own and stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
        if regular and not str(source).endswith(_COMPRESSED):
            body, skiprows = str(source), reader.line_num
        else:
            body, skiprows = handle.readlines(), 0
            reader = csv.reader(body)
        first = next(reader, None)
        table = _numeric_table(body, skiprows, first, len(header))
        if table is not None:
            return Dataset(dict(zip(header, table)))
        rows = [] if first is None else [first, *reader]
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
    if not header or not rows:
        raise DataError("dataset has no rows")

    columns = {}
    for name, col in zip(header, cells):
        try:
            values = np.fromiter(map(float, col), dtype=float, count=len(col))
        except ValueError:
            # categorical; only the cells before its first non-numeric one
            # were ever read as numbers
            stop = next(i for i, cell in enumerate(col) if _parse_cell(cell) is None)
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
                X[:, j] = _finite_floats(cols[term[1]], term[1], label)
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
    whose entry is not a finite number."""
    try:
        values = np.asarray(col, dtype=float)
        if values.ndim == 1 and np.isfinite(values).all():
            return values
    except (TypeError, ValueError):  # text, or sequences among the entries
        pass
    for i, value in enumerate(col.tolist()):
        try:
            if np.ndim(value) == 0 and math.isfinite(float(value)):
                continue
        except (TypeError, ValueError):
            pass
        raise ModelError(f"{label} {i}: covariate {name!r} needs a finite number, got {value!r}")
    raise ModelError(f"covariate {name!r} needs one finite number per {label}")


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


def fit(X: np.ndarray, y: np.ndarray, coding: ColumnCoding | None = None) -> FitResult:
    """OLS by pivoted QR; equals the flat-prior posterior's sufficient statistics.

    Raises ModelError when n <= p (the posterior would be improper under the
    flat prior) or when the design is rank-deficient at the pivoted-QR
    tolerance eps * max(n, p) * max|R_ii|.
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

    Q, R, piv = linalg.qr(X, mode="economic", pivoting=True)
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

    z = linalg.solve_triangular(R, Q.T @ y)
    beta = np.empty(p)
    beta[piv] = z

    resid = y - X @ beta
    sse = float(resid @ resid)
    # residuals at pure rounding level collapse to an exact zero
    if sse <= n * (np.finfo(float).eps ** 2) * max(1.0, float(y @ y)):
        sse = 0.0
    s2 = sse / (n - p)

    r_inv = linalg.solve_triangular(R, np.eye(p))
    a = r_inv @ r_inv.T
    xtx_inv = np.empty((p, p))
    xtx_inv[np.ix_(piv, piv)] = a
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
    belonging to row i of ``X`` (shape (rows, p)).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != fit_result.p:
        raise ModelError(
            f"dimension mismatch: rows have shape {X.shape}, fit has p={fit_result.p}"
        )
    if fit_result.s2 == 0.0:
        raise ModelError("degenerate predictive: s2 = 0 (residuals vanish)")
    # einsum rather than BLAS: a row's sums then run in the same order
    # whatever the number of rows, so predictive_at agrees bit for bit
    loc = np.einsum("ij,j->i", X, fit_result.beta_hat)
    leverage = (np.einsum("ij,jk->ik", X, fit_result.xtx_inverse) * X).sum(axis=1)
    scale = np.sqrt(fit_result.s2 * (1.0 + np.maximum(leverage, 0.0)))
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
