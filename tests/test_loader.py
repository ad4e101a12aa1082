"""The column-wise CSV loader against a per-cell reference parser."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probleak import DataError, load_dataset_text


def _reference_load(text: str) -> dict:
    """Cell by cell, in row order: the loader's contract spelled out."""
    reader = csv.reader(io.StringIO(text))
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
