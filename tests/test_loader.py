"""The column-wise CSV loader against a per-cell reference parser."""

import csv
import io
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probleak import DataError, load_dataset, load_dataset_text
from probleak import regression


def _reference_load(text: str, newline: str = "\n") -> dict:
    """Cell by cell, in row order: the loader's contract spelled out."""
    reader = csv.reader(io.StringIO(text, newline=newline))
    header = next(reader, None)
    if header is None:
        _raise("missing header row")
    header = [h.strip() for h in header]
    if any(not h for h in header):
        _raise("header contains an empty column name")
    if len(set(header)) != len(header):
        _raise("header contains duplicate column names")
    cells = {name: [] for name in header}
    for line_no, row in enumerate(reader, start=2):
        if len(row) != len(header):
            _raise(f"row {line_no}: expected {len(header)} fields, got {len(row)}")
        for name, cell in zip(header, row):
            if not cell.strip():
                _raise(f"missing value at row {line_no}, column {name!r}")
            cells[name].append((line_no, cell.strip()))
    if not header or not cells[header[0]]:
        _raise("dataset has no rows")
    columns = {}
    for name, col in cells.items():
        values = []
        for line_no, cell in col:
            try:
                v = float(cell)
            except ValueError:
                values = None
                break
            if math.isnan(v):
                _raise(f"missing value at row {line_no}, column {name!r}")
            if math.isinf(v):
                _raise(f"non-finite value at row {line_no}, column {name!r}")
            values.append(v)
        columns[name] = np.array(values) if values is not None else [c for _, c in col]
    return columns


def _raise(message):
    raise DataError(message)


def _outcome(load, text):
    try:
        return load(text)
    except DataError as err:
        return f"DataError: {err}"


_CELLS = st.sampled_from(
    ["0", "1", "-2.5", "1e3", " 4 ", "\t5", "0.1", "1_000", "", " ", "nan", "NaN", "-inf",
     "inf", "Infinity", "abc", "x y", " b ", "A"]
)


@st.composite
def _csv_text(draw):
    k = draw(st.integers(1, 3))
    names = draw(st.lists(st.sampled_from(["a", "b", "c", " d", ""]), min_size=k, max_size=k))
    lines = [",".join(names)]
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.sampled_from([k, k, k, k, k - 1, k + 1, 0]))
        lines.append(",".join(draw(_CELLS) for _ in range(width)))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@settings(max_examples=800, deadline=None)
@given(_csv_text())
def test_loader_matches_the_per_cell_reference(text):
    want = _outcome(_reference_load, text)
    got = _outcome(load_dataset_text, text)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.names == tuple(want)
    for name, col in want.items():
        if isinstance(col, np.ndarray):
            assert got.is_numeric(name)
            np.testing.assert_array_equal(got.column(name), col)
        else:
            assert not got.is_numeric(name)
            assert got.column(name).tolist() == col


@pytest.mark.parametrize(
    "text, message",
    [
        # a NaN before the column's first non-numeric cell is an error
        ("a\nnan\nabc\n", "missing value at row 2, column 'a'"),
        # the first bad row wins, whether its fault is an empty cell or its width
        ("a,b\n1,\n3\n", "missing value at row 2, column 'b'"),
        ("a,b\n1,2\n3\n,4\n", "row 3: expected 2 fields, got 1"),
        ("a,b\n1,2\n3,4,5\n", "row 3: expected 2 fields, got 3"),
    ],
)
def test_loader_error_precedence(text, message):
    with pytest.raises(DataError) as info:
        load_dataset_text(text)
    assert str(info.value) == message


def test_loader_keeps_cells_after_the_first_non_numeric_one():
    data = load_dataset_text("a,b\nabc,1\nnan,2\ninf,3\n")
    assert data.column("a").tolist() == ["abc", "nan", "inf"]
    np.testing.assert_array_equal(data.column("b"), [1.0, 2.0, 3.0])


# cells on which C's float parser and the csv + float() reference could part
_TRICKY_CELLS = st.sampled_from(
    ['"1"', '"a,b"', "#1", "0x10", "1e400", "-1e400", "１", "1_000", "", " ", "nan", "abc"]
)
_LONG_DECIMALS = st.builds(
    "{}.{}{}".format,
    st.integers(-(10**25), 10**25),
    st.integers(0, 10**40),
    st.sampled_from(["", "e-300", "e-17", "e5", "e290"]),
)
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**20), 10**20).map(str),
    _LONG_DECIMALS,
)


@st.composite
def _mostly_numeric_text(draw):
    """Tables that are all numbers more often than not, in any line layout."""
    k = draw(st.integers(1, 4))
    lines = [",".join(["a", "b", "c", "d"][:k])]
    tricky = draw(st.booleans()) and draw(st.booleans())
    cell = st.one_of(_NUMBERS, _TRICKY_CELLS) if tricky else _NUMBERS
    for _ in range(draw(st.integers(0, 12))):
        lines.append(",".join(draw(cell) for _ in range(k)))
    if draw(st.integers(0, 5)) == 0 and len(lines) > 1:
        lines[-1] = lines[-1].rpartition(",")[0] + ("," if k > 1 else "") + "abc"
    for _ in range(draw(st.integers(0, 2)) if draw(st.booleans()) else 0):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " "])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def _assert_same(want, got):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.names == tuple(want)
    for name, col in want.items():
        if isinstance(col, np.ndarray):
            assert got.is_numeric(name)
            np.testing.assert_array_equal(got.column(name), col)
            assert got.column(name).tobytes() == col.tobytes()
        else:
            assert not got.is_numeric(name)
            assert got.column(name).tolist() == col


@settings(max_examples=400, deadline=None)
@given(text=_mostly_numeric_text())
def test_numeric_fast_path_matches_the_per_cell_reference(tmp_path_factory, text):
    # newline="" splits lines as a file opened by path does, at \r too
    want = _outcome(lambda t: _reference_load(t, newline=""), text)
    got = _outcome(lambda t: load_dataset(io.StringIO(t, newline="")), text)
    _assert_same(want, got)
    # a path is read by numpy itself, not line by line
    path = tmp_path_factory.getbasetemp() / "drawn.csv"
    path.write_text(text, newline="")
    _assert_same(want, _outcome(load_dataset, path))


def _spy_on_fast_path(monkeypatch):
    parsed = []
    real = regression._numeric_table

    def spy(*args):
        table = real(*args)
        parsed.append(table is not None)
        return table

    monkeypatch.setattr(regression, "_numeric_table", spy)
    return parsed


def test_fast_path_columns_are_contiguous_float64(monkeypatch, tmp_path):
    parsed = _spy_on_fast_path(monkeypatch)
    path = tmp_path / "t.csv"
    path.write_bytes(b"y,x\r\n1.5,2\r\n-3,4e-3\r\n0.1,7")
    data = load_dataset(path)
    assert parsed == [True]
    for name, want in [("y", [1.5, -3.0, 0.1]), ("x", [2.0, 4e-3, 7.0])]:
        col = data.column(name)
        assert col.dtype == np.float64 and col.flags.c_contiguous
        assert col.tolist() == want


def test_categorical_and_blank_lines_fall_back_to_the_per_cell_parser(monkeypatch):
    parsed = _spy_on_fast_path(monkeypatch)
    data = load_dataset_text("y,site\n1,a\n2,b\n")
    assert data.column("site").tolist() == ["a", "b"]
    with pytest.raises(DataError, match=r"^row 3: expected 1 fields, got 0$"):
        load_dataset_text("y\n1\n\n2\n")
    assert parsed == [False, False]


@pytest.mark.parametrize(
    "text, fast",
    [
        ("y,x\r1,2\r3,4.25\r", True),
        ("y,x\r\n1,2\r\n3,4.25\r\n", True),
        ("y,x\n1,2\r\n3,4.25\r5,-6\n", True),
        # a last line with no line end
        ("y,x\n1,2\n3,4.25", True),
        ("y\r\n1\r\n2", True),
        ("y,x\r1,2\r3,4.25", True),
        # whitespace-only lines are cells, not blank lines
        ("y,x\n1,2\n \n3,4\n", False),
        ("y\n1\n\t\n2\n", False),
        ("y\n1\n2\n \n", False),
        # blank lines, in the body and as all of it
        ("y,x\n1,2\n\n3,4\n", False),
        ("y,x\n\n", False),
        ("y,x\n\n\n", False),
        ("y\r\n\r\n\r\n", False),
        ("y\r\r", False),
        ("y,x\r\n1,2\r\n\r\n", False),
        ("\n\n\n", False),
    ],
)
def test_line_layouts_load_by_path_as_the_reference_reads_them(monkeypatch, tmp_path, text, fast):
    parsed = _spy_on_fast_path(monkeypatch)
    want = _outcome(lambda t: _reference_load(t, newline=""), text)
    path = tmp_path / "t.csv"
    path.write_text(text, newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # loadtxt warns on a body with no data
        _assert_same(want, _outcome(load_dataset, path))
        _assert_same(want, _outcome(load_dataset_text, text))
    assert parsed == [fast, fast]


@pytest.mark.parametrize(
    "text, name",
    [
        ('"y\nz",x\n1,2\n3,4.25\n', "y\nz"),
        ('"y\r\nz",x\r\n1,2\r\n', "y\r\nz"),
        ('"y\rz","x"\r1,2\r3,4.25', "y\rz"),
        # a quoted header on one line, as R's write.csv writes it
        ('"y","x"\n1,2\n3,4.25\n', "y"),
    ],
)
def test_a_quoted_header_loads_as_the_reference_reads_it(monkeypatch, tmp_path, text, name):
    parsed = _spy_on_fast_path(monkeypatch)
    want = _outcome(lambda t: _reference_load(t, newline=""), text)
    assert list(want) == [name, "x"]
    path = tmp_path / "t.csv"
    path.write_text(text, newline="")
    _assert_same(want, _outcome(load_dataset, path))
    _assert_same(want, _outcome(load_dataset_text, text))
    # only the lines after the header are scanned for quotes
    assert parsed == [True, True]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@pytest.mark.parametrize(
    "text",
    [
        "y,x\n" + "".join(f"{i},{i / 7!r}\n" for i in range(1000)),
        "y,site\n" + "".join(f"{i / 7!r},{'ab'[i % 2]}\n" for i in range(1000)),
    ],
    ids=["numeric", "categorical"],
)
def test_a_pipe_given_by_path_is_read_once_through_its_one_handle(text):
    # opened again, as numpy opens a path, the pipe would read as drained;
    # the whole table, far past one read buffer, must load
    assert 16384 < len(text) < 65536  # fits a pipe's buffer, so no writer thread
    want = _outcome(_reference_load, text)
    assert len(want["y"]) == 1000
    read, write = os.pipe()
    try:
        os.write(write, text.encode())
        os.close(write)
        got = _outcome(load_dataset, f"/dev/fd/{read}")
    finally:
        os.close(read)
    _assert_same(want, got)


class _Unseekable(io.StringIO):
    """A pipe's view of a text stream: no tell, no seek."""

    def seekable(self):
        return False

    def tell(self):
        raise io.UnsupportedOperation("tell")

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


@pytest.mark.parametrize(
    "text",
    ["y,x\n1,2\n3,4.25\n", "y,site\n1,a\n2,b\n", "y\n1\n\n", "a,b\n1,nan\n", "y,x\n"],
)
def test_an_unseekable_file_loads_as_a_seekable_one(text):
    want = _outcome(_reference_load, text)
    _assert_same(want, _outcome(load_dataset_text, text))
    _assert_same(want, _outcome(load_dataset, _Unseekable(text)))


def test_a_header_only_file_has_no_rows_and_no_loadtxt_warning(tmp_path):
    path = tmp_path / "header.csv"
    for body in ["a,b\n", "a,b"]:
        path.write_text(body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for load, source in [(load_dataset, path), (load_dataset_text, body)]:
                with pytest.raises(DataError, match="^dataset has no rows$"):
                    load(source)


def test_a_cell_past_the_csv_field_limit_is_refused_as_csv_refuses_it():
    text = "a\n0." + "0" * csv.field_size_limit() + "1\n"
    with pytest.raises(csv.Error, match="field larger than field limit"):
        _reference_load(text)
    with pytest.raises(csv.Error, match="field larger than field limit"):
        load_dataset_text(text)


def test_a_cell_past_the_csv_field_limit_in_a_file_is_refused_as_csv_refuses_it(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("a\r\n1\r\n0." + "0" * csv.field_size_limit() + "1\r\n2\r\n", newline="")
    with pytest.raises(csv.Error, match="field larger than field limit"):
        load_dataset(path)


_BYTE_PIECES = st.lists(st.sampled_from(["a", "1", ",", "\n", "\r", "\r\n", '"']), max_size=30)


@settings(max_examples=500, deadline=None)
@given(_BYTE_PIECES, _BYTE_PIECES, st.integers(1, 5))
def test_the_byte_scan_counts_lines_as_newline_empty_splits_them(head, pieces, limit):
    # the header, which ends at a line end, is skipped, quotes and all
    head, text = "".join(head) + "\n", "".join(pieces)
    data = (head + text).encode()
    assert regression._past_lines(data, len(list(io.StringIO(head, newline="")))) == len(head)
    lines = list(io.StringIO(text, newline=""))
    refused = '"' in text or any(len(line.rstrip("\r\n")) > limit for line in lines)
    old = csv.field_size_limit(limit)
    try:
        got = regression._loadtxt_lines(data, len(head))
    finally:
        csv.field_size_limit(old)
    assert got == (None if refused else len(lines))


def test_bare_carriage_returns_load_from_text_as_from_a_path(tmp_path):
    text = "y,x\r1,2\r2,3\r3,5\r"
    path = tmp_path / "cr.csv"
    path.write_bytes(text.encode())
    want = load_dataset(path)
    got = load_dataset_text(text)
    assert got.names == want.names == ("y", "x")
    for name in want.names:
        assert got.column(name).tobytes() == want.column(name).tobytes()
    np.testing.assert_array_equal(got.column("x"), [2.0, 3.0, 5.0])
