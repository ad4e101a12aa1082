"""The package's text formats in one place: CSV cells, lines and quoting,
the CLI's JSON documents, the in-place file writer, and the block number
parser behind ``load_dataset`` (the csv module reads everything else).

Floats are written as ``repr`` writes them, from orjson's digits: both print
the shortest digits that round-trip, and they differ only in layout. orjson
spells an exponent ``1e-7`` or ``1e16`` where repr spells ``1e-07`` and
``1e+16``, and writes 1e-5 <= |x| < 1e-4 out in full (``0.0000123``) where
repr writes ``1.23e-05``. ``_repr_exponents`` is the one rule for the
exponents, given where a number ends: at a line end, bar a comma, in
orjson's indented text of a JSON document, and at a comma or the closing
bracket in its flat dump of a float array, the one layout of every CSV
float cell. The band, and NaN and inf, which orjson writes as ``null``, are
found and given to ``repr``.

A CSV table of 1-d float64 columns none of whose cells lies in the band or
is not finite is one flat dump of its rows, one after another, whose every
``width``-th comma becomes a line end; in every other table each float
column is a flat dump of its own, split at its commas, and the columns are
joined row by row.

orjson is imported where it is used, so that importing the package, or
loading a categorical table, does not load it.
"""

import csv
import json
import os
import re
import stat
import struct
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# floats as repr writes them
# ---------------------------------------------------------------------------

# Where a number ends in orjson's text. In indented text it ends its line,
# bar a comma; a string ends with its quote and holds no raw line end, so no
# match is in a string, though a string may hold "e-5]". A flat dump of a
# float array holds no string, and a number there ends at a comma or at the
# closing bracket.
_INDENTED_END = rb",?\n"
_FLAT_END = rb"[,\]]"


def _repr_exponents(text: bytes, number_end: bytes) -> bytes:
    """orjson's ``text`` with each number's exponent spelled as ``repr``
    spells it: ``1e-7`` as ``1e-07`` and ``1e16`` as ``1e+16``, for a number
    followed by ``number_end``. A text without an "e", as a column of
    numbers often is, is found by a byte search, far faster than re's scan."""
    if b"e" not in text:
        return text
    text = re.sub(rb"e-(?=\d%s)" % number_end, b"e-0", text)
    return re.sub(rb"e(?=\d+%s)" % number_end, b"e+", text)


def _odd_cells(values: np.ndarray) -> np.ndarray:
    """Where orjson lays a float out otherwise than repr but for its
    exponent: nan and inf (``null``) and 1e-5 <= |v| < 1e-4."""
    mag = np.abs(values)
    return ((mag >= 1e-5) & (mag < 1e-4)) | ~np.isfinite(mag)


def _flat_dump(values: np.ndarray) -> bytes:
    """One flat ``orjson.dumps`` of a float64 array, ``[1.0,2.5,...]``, with
    its exponents spelled as ``repr`` spells them."""
    import orjson

    return _repr_exponents(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY), _FLAT_END)


def _repr_cells(values: np.ndarray) -> list[str]:
    """``repr(float(v))`` for every cell of a 1-d float64 array, from one
    ``_flat_dump``, in which the ``_odd_cells`` are 0.0 until they are
    replaced by their ``repr``."""
    odd = _odd_cells(values)
    cells = _flat_dump(np.where(odd, 0.0, values))[1:-1].decode("ascii").split(",") if values.size else []
    where = np.flatnonzero(odd)
    for i, cell in zip(where.tolist(), map(repr, values[where].tolist())):
        cells[i] = cell
    return cells


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------

_QUOTED = re.compile('[,"\r\n]')  # csv.writer quotes a cell holding any of these


def _csv_text(names, columns, end: str = "\n") -> str:
    """CSV lines: a header of ``names`` (none when it is empty), then one row
    per entry of ``columns``, each line ended by ``end``.

    This is the one writer of every CSV the package writes, in
    ``csv.writer``'s default dialect but for the line end. A table of 1-d
    float64 columns with no ``_odd_cells`` is written by ``_float_lines``
    from one flat dump. Any other table becomes text a column at a time, in
    one ``_csv_cells`` call each, and the rows are joined in C. Either way
    no Python code runs per row.
    """
    alone = (len(names) or len(columns)) == 1
    header = [",".join(_csv_cells(names, alone))] if len(names) else []
    body = _float_lines(columns, end)
    if body is not None:
        return "".join(line + end for line in header) + body
    cells = [_csv_cells(col, alone) for col in columns]
    text = end.join([*header, *map(",".join, zip(*cells))])
    return text + end if text else ""  # no line is empty: a lone empty cell is quoted


def _float_lines(columns, end: str) -> str | None:
    """The rows of ``columns`` as CSV lines, each ended by ``end``, or None
    unless every column is a 1-d float64 array and no cell is one of the
    ``_odd_cells``.

    The rows, one after another, are one ``_flat_dump``; then every
    ``width``-th comma, and the closing bracket, becomes the line end, in
    one numpy step over the text's bytes.
    """
    columns = list(columns)
    floats = all(isinstance(col, np.ndarray) and col.ndim == 1 and col.dtype == np.float64 for col in columns)
    if not (columns and floats) or any(_odd_cells(col).any() for col in columns):
        return None
    flat = np.column_stack(columns).ravel()
    if not flat.size:
        return ""
    buf = np.frombuffer(_flat_dump(flat), dtype=np.uint8).copy()
    commas = np.flatnonzero(buf == ord(","))
    buf[commas[len(columns) - 1 :: len(columns)]] = ord("\n")
    buf[-1] = ord("\n")  # the closing bracket
    lines = buf[1:].tobytes()  # its only \n are the line ends set here
    return (lines if end == "\n" else lines.replace(b"\n", end.encode())).decode("ascii")


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
    if _QUOTED.search("".join(cells)) or (alone and "" in cells):
        cells = [_quote(cell, alone) for cell in cells]
    return cells


def _quote(cell: str, alone: bool) -> str:
    if _QUOTED.search(cell) or (alone and not cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

# the fraction of a number orjson writes in full where repr uses an exponent
# (0.0000123); the rare literal ".0000" comes first, which re finds fast
_BAND = re.compile(rb"\.0000\d*(?=,?\n)")
_NOT_ASCII = re.compile("[^\x00-\x7e]")  # json escapes these, orjson writes them as they are


def _json_text(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, from orjson.

    ``json`` indents with its pure-Python encoder, which takes about six
    times as long on the CLI's documents. orjson's text is given json's
    layout: its exponents are spelled as ``repr`` spells them, a number in
    the band is rewritten as ``repr`` writes it, and a character past
    ``\\x7e`` is escaped by ``json.dumps`` itself. A document orjson
    refuses, or whose text does not read back as the document, goes to
    ``json.dumps``."""
    import orjson

    try:
        text = orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE)
    except orjson.JSONEncodeError:  # an integer past 64 bits, or a lone surrogate
        return json.dumps(doc, indent=2) + "\n"
    if orjson.loads(text) != doc:  # NaN or an infinity, which orjson writes as null
        return json.dumps(doc, indent=2) + "\n"
    text = _repr_exponents(text, _INDENTED_END)
    # a match may be the fraction of a number such as 1.00001, which repr
    # writes as orjson does
    pieces, done = [], 0
    for match in _BAND.finditer(text):
        start = text.rfind(b" ", 0, match.start()) + 1  # a number holds no space
        pieces += [text[done:start], repr(float(text[start : match.end()])).encode()]
        done = match.end()
    text = b"".join([*pieces, text[done:]]).decode()
    if not text.isascii() or "\x7f" in text:
        text = _NOT_ASCII.sub(lambda match: json.dumps(match[0])[1:-1], text)
    return text


# ---------------------------------------------------------------------------
# files
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# the block number parser of load_dataset
# ---------------------------------------------------------------------------


def _parse_cell(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


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
    array, whose numbers become doubles in one ``struct.pack`` (see
    ``_json_rows``); the blocks are copied into the table once the bytes are
    freed, the one copy of each block.
    None also follows a line longer than csv's field size limit, which csv
    may refuse, a line of another width or with a byte no number holds (a
    quote among them), or a cell that the JSON number grammar refuses (a
    blank line among them) or that orjson cannot make a finite double
    (``1e400``), so no NaN or inf is ever parsed.
    """
    if not first or len(first) != width or any(_parse_cell(cell) is None for cell in first):
        return None
    import orjson

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
    parsed again with each made a \\n. The Python ints and floats ``loads``
    returns become doubles in one ``struct.pack``, which converts each as
    ``float()`` does, at less than half the cost of ``np.array``'s
    conversion object by object. The packed bytes are viewed, not copied,
    unless an integer -0 must be given its sign.
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
    cells = loads(text)
    if len(cells) != rows * width:
        return None
    values = np.frombuffer(struct.pack(f"{len(cells)}d", *cells))
    # orjson reads the integer -0 as 0, where float() gives -0.0. A minus
    # that follows no e or E is a cell's sign; text[0] is its "[".
    if not values.all() and _MINUS_ZERO.search(text):
        values = values.copy()  # the packed bytes are read-only
        buf = np.frombuffer(text, dtype=np.uint8)
        minus = np.flatnonzero(buf == ord("-"))
        signs = minus[(buf[minus - 1] != ord("e")) & (buf[minus - 1] != ord("E"))]
        where = np.searchsorted(np.flatnonzero(buf == ord(",")), signs)
        values[where] = -np.abs(values[where])
    return values.reshape(rows, width)
