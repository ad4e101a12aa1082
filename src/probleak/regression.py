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
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.linalg import lapack

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
        (``\\r\\n`` line ends), formatted by ``_csv_text`` a block of rows at
        a time, so the memory a write holds does not grow with the table. A
        path's file is rewritten in place by ``_write_text``.
        """
        cols = list(self.columns.values())
        blocks = (
            _csv_text((), [col[start : start + _BLOCK_ROWS] for col in cols], "\r\n")
            for start in range(0, self.n, _BLOCK_ROWS)
        )
        _write_text(target, itertools.chain([_csv_text(self.names, (), "\r\n")], blocks))


_BLOCK_ROWS = 1024  # rows formatted and written at a time by Dataset.to_csv
_QUOTED = ',"\r\n'  # csv.writer quotes a cell holding any of these


_EXP_ONE_DIGIT = re.compile(rb"e-(?=\d[,\]])")  # orjson writes 1e-7 where repr writes 1e-07
_EXP_POSITIVE = re.compile(rb"e(?=\d)")  # and 1e16 where repr writes 1e+16


def _repr_cells(values: np.ndarray) -> list[str]:
    """``repr(float(v))`` for every cell of a 1-d float64 array, from one
    ``orjson.dumps`` call, whose shortest round-trip digits are repr's.

    Two byte substitutions give its exponents repr's spelling. The cells it
    lays out otherwise, nan and inf (``null``) and 1e-5 <= |v| < 1e-4
    (``0.00001234``, where repr writes ``1.234e-05``), are dumped as 0.0 and
    then replaced by their ``repr``.
    """
    import orjson  # here, as in the loader, so that importing the package does not load it

    mag = np.abs(values)
    odd = ((mag >= 1e-5) & (mag < 1e-4)) | ~np.isfinite(mag)
    text = orjson.dumps(np.where(odd, 0.0, values), option=orjson.OPT_SERIALIZE_NUMPY)
    text = _EXP_POSITIVE.sub(b"e+", _EXP_ONE_DIGIT.sub(b"e-0", text))
    cells = text[1:-1].decode("ascii").split(",") if values.size else []
    where = np.flatnonzero(odd)
    for i, cell in zip(where.tolist(), map(repr, values[where].tolist())):
        cells[i] = cell
    return cells


def _csv_text(names, columns, end: str = "\n") -> str:
    """CSV lines: a header of ``names`` (none when it is empty), then one row
    per entry of ``columns``, each line ended by ``end``.

    This is the one writer of every CSV the package writes, in
    ``csv.writer``'s default dialect but for the line end. Each column
    becomes text in one ``_csv_cells`` call and the rows are joined in C,
    so no Python code runs per row.
    """
    alone = (len(names) or len(columns)) == 1
    cells = [_csv_cells(col, alone) for col in columns]
    header = [",".join(_csv_cells(names, alone))] if len(names) else []
    text = end.join([*header, *map(",".join, zip(*cells))])
    return text + end if text else ""  # no line is empty: a lone empty cell is quoted


def _csv_cells(values, alone: bool) -> list[str]:
    """The cells of a column or a row as ``csv.writer`` writes them:
    ``repr(float(v))`` for a float, ``str(v)`` otherwise, quoted where it
    quotes, which is for a delimiter, a quote or a line-end character, and
    for an empty cell ``alone`` on its row. A 1-d float64 or str array is
    formatted without a Python step per cell, and repr's digits, which hold
    none of those characters, are never scanned for them."""
    flat = isinstance(values, np.ndarray) and values.ndim == 1
    if flat and values.dtype.type is np.float64:
        return _repr_cells(values)
    if flat and values.dtype.kind == "U":
        cells = values.tolist()
    else:
        cells = [repr(float(v)) if isinstance(v, float) else str(v) for v in values]
    if _needs_quotes("".join(cells)) or (alone and "" in cells):
        cells = [_quote(cell, alone) for cell in cells]
    return cells


def _write_text(target, chunks) -> None:
    """Write the strings ``chunks`` to ``target``: a file object, or a path
    whose file is rewritten in place.

    The path is opened without truncation, so a new file gets the mode
    ``open(target, "w")`` gives it and an existing one keeps its own, and a
    symlink is written through. On a regular file, the text written is then
    cut from the old file's tail with ``ftruncate``: overwriting a file's
    blocks and cutting at the end costs the filesystem far less than
    truncating the file to zero and growing it again. A file that is not
    regular, such as ``/dev/null``, gets no cut. The cut is made in a
    ``finally``, so a write that raises leaves only what it wrote, as
    ``open(target, "w")`` would. A process killed between the write and the
    cut leaves the old file's tail past the new text; nothing is synced to
    disk.
    """
    if not isinstance(target, (str, os.PathLike)):
        for chunk in chunks:
            target.write(chunk)
        return
    fd = os.open(target, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        with open(fd, "w", newline="", closefd=False) as handle:
            handle.writelines(chunks)
    finally:
        try:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
        finally:
            os.close(fd)


def _needs_quotes(text: str) -> bool:
    return any(ch in text for ch in _QUOTED)


def _quote(cell: str, alone: bool) -> str:
    if _needs_quotes(cell) or (alone and not cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


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


_LINE_END = re.compile(rb"\r\n?|\n")


def _past_lines(data: bytes, lines: int) -> int:
    """The offset just past the first ``lines`` lines of ``data``, split as
    ``newline=""`` splits them."""
    pos = 0
    for _ in range(lines):
        found = _LINE_END.search(data, pos)
        pos = found.end() if found else len(data)
    return pos


_BLOCK_BYTES = 1 << 16  # body bytes, rounded up to a line end, parsed at a time
_NUMBER_BYTES = b"0123456789+-.eE \t"  # the bytes of JSON numbers and the blanks around them
_MINUS_ZERO = re.compile(rb"-0(?![0-9.eE])")  # an integer -0, or the -0 of an exponent


def _numeric_table(source, skiprows: int, first: list | None, width: int) -> np.ndarray | None:
    """The lines of ``source`` past the first ``skiprows``, parsed as JSON
    numbers into one contiguous row per column, or None for the per-cell
    parser.

    ``source`` is the path of a regular file, whose bytes are read again
    (only its lines past the header are parsed), or a list of lines.
    ``first``, the first data row as csv read it, must hold ``width``
    numbers, so a categorical table is never parsed twice and never loads
    orjson. The rest goes to ``orjson.loads``, whose number parser rounds
    as ``float()`` does, a block of lines at a time written as one flat JSON
    array; the blocks are copied into the table once the bytes are freed.
    None also follows a line longer than csv's field size limit, which csv
    may refuse, a line of another width or with a byte no number holds (a
    quote among them), or a cell that the JSON number grammar refuses (a
    blank line among them) or that orjson cannot make a finite double
    (``1e400``), so no NaN or inf is ever parsed.
    """
    if not first or len(first) != width or any(_parse_cell(cell) is None for cell in first):
        return None
    import orjson  # here, so that only a table that may be all numbers loads it

    if isinstance(source, str):
        data = Path(source).read_bytes()
        start = _past_lines(data, skiprows)
    else:
        data, start = "".join(source).encode("utf-8", "surrogatepass"), 0
    blocks, limit = [], csv.field_size_limit()
    while start < len(data):
        found = _LINE_END.search(data, start + _BLOCK_BYTES)
        stop = found.end() if found else len(data)
        # only a block past the limit can hold a line past it, which csv may refuse
        if stop - start > limit and max(map(len, data[start:stop].splitlines())) > limit:
            return None
        try:
            block = _json_rows(data[start:stop], width, orjson.loads)
        except orjson.JSONDecodeError:
            return None
        if block is None:
            return None
        blocks.append(block)
        start = stop
    del data
    rows = sum(map(len, blocks))
    return np.concatenate([b.T for b in blocks], axis=1, out=np.empty((width, rows)))


def _json_rows(block: bytes, width: int, loads) -> np.ndarray | None:
    """The lines of ``block``, which ends at a line end or at the end of the
    data, parsed by ``loads`` as rows of ``width`` numbers, or None for a
    line of another width or with a byte no number holds.

    The line end is the block's first one; a block that mixes line ends is
    parsed again with each made a \\n.
    """
    found = _LINE_END.search(block)
    end = found.group() if found else b"\n"
    # what is left once the numbers are gone: width - 1 commas and a line end a line
    seps, line = block.translate(None, _NUMBER_BYTES), b"," * (width - 1) + end
    rows = len(seps) // len(line) + (not block.endswith(end))  # the last line may have no end
    if seps != (line * rows)[: len(seps)]:
        plain = block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        return None if plain == block else _json_rows(plain, width, loads)
    text = b"[%s]" % block.removesuffix(end).replace(end[-1:], b",")
    values = np.array(loads(text), dtype=float)
    if values.size != rows * width:
        return None
    # orjson reads the integer -0 as 0, where float() gives -0.0. A minus
    # that follows no e or E is a cell's sign; text[0] is its "[".
    if not values.all() and _MINUS_ZERO.search(text):
        buf = np.frombuffer(text, dtype=np.uint8)
        minus = np.flatnonzero(buf == ord("-"))
        signs = minus[(buf[minus - 1] != ord("e")) & (buf[minus - 1] != ord("E"))]
        cells = np.searchsorted(np.flatnonzero(buf == ord(",")), signs)
        values[cells] = -np.abs(values[cells])
    return values.reshape(rows, width)


def load_dataset(source) -> Dataset:
    """Parse CSV with a header row into typed columns.

    A column is numeric when every cell parses as a finite float; otherwise
    it is categorical. Empty cells, NaN/inf cells, and ragged rows are
    rejected with the offending row and column named (rows are numbered from
    1 at the header). A ragged row or an empty cell is reported first in row
    order, and before a later line that csv refuses; a NaN or inf cell only
    counts when it comes before the column's first non-numeric cell.

    A table whose data lines are all plain finite numbers is parsed in C
    by orjson, whose number parser rounds as ``float()`` does: the data
    lines' bytes, read again from the path of a regular file or taken from
    the rest of a file object or pipe, go to it a block of lines at a time.
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
        table = _numeric_table(body, skiprows, first, len(header))
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
