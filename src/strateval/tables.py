"""The one reader and the one writer of strateval's table files.

Every file a workflow step hands to the next -- the pool (CSV or JSONL),
the class-score sidecar, ``calibrated.csv`` and ``worksheet.csv`` --
follows the same rules, implemented here once; so do ``partition.csv``
and ``efficiency.csv``, which are written for the record and read by no
step:

* a line that starts with ``#`` is a comment, and a blank line is
  skipped; tool outputs carry their run config in a leading comment;
* in a CSV file the first remaining line is the header, which names each
  column once, and every data row has as many fields as the header;
* error messages name the physical line of the file, counting comment
  and blank lines;
* an id is stripped of surrounding whitespace and must then be nonempty,
  must not start with ``#`` and must not contain a line break: exactly
  the ids that come back unchanged when :func:`write_csv` writes them and
  :func:`read_csv` reads them.  :mod:`strateval.idcolumn` holds this
  rule, the id column (:class:`Ids`) and its repeat test, and this
  module re-exports them: readers convert ids as one more
  :class:`Converted` column (:func:`id_cells`, then :func:`id_column`;
  :func:`ids` for a list of cells), writers through :func:`writable_ids`;
* a NaN of a float column is written as a blank cell, which an optional
  column reads back as NaN: "no value yet", such as a loss not annotated.

CSV tables are read column first, a batch of lines at a time.  A file is
read and decoded as UTF-8 a slice at a time, each slice about 64 KiB of
whole lines (a leading byte-order mark is dropped), so the reader never
holds the file's bytes or text, only one slice of them.  A line feed
byte is part of no other character, so each slice decodes on its own and
a bad byte is named at the line a decode of the whole file would name.
One regular expression search tells whether a slice holds a comment or
blank line; only then are its lines tested one by one.  A slice with no
quote, carriage return or NUL is split on line feeds and then, once, on
commas, and each column is sliced out of its cells; from the first slice
that has one, the ``csv`` module reads the rest of the file line by
line.  The split is only a faster way to the same table.  The numeric
columns a caller names are converted by numpy a slice at a time, before
the next slice is split, and so is the id column: each slice's ids are
stripped, tested against the id rule, hashed for the repeat test and
encoded, and their ``str`` objects dropped.  So only one slice's cells
are ever held as ``str``; cells are scanned one by one only when a
slice's column fails, to name the line.  A bad byte is raised when
its slice is decoded, a field too long for the ``csv`` module once the
rest of the file has decoded, and every other error waits until the
whole file is read, so the error that wins does not depend on the
slices.

:func:`write_csv` writes 4096 rows at a time, decoding an id column's
rows as it writes them (:func:`writable_ids` tests them first, decoded
the same way), and formats each distinct number of a batch's numeric
column once.  On a 2-core host, ``ingest`` of an ``id,proxy,loss`` CSV
costs about 0.8-1.6 µs per row and writing
``calibrated.csv`` about 1.1-1.8 µs per row, most of it the ``repr`` of
the raw proxy, whose values are nearly all distinct.  ``ingest`` of a
10⁵-row pool peaks at 5.9 MB of traced allocations and keeps 3.2 MB (10.0
and 8.0 MB with the ids as a tuple of str); ``calibrate`` on a 10⁵-row
pool peaks at 39 MB resident (44 MB with the ids as a tuple
of str, 53 MB when the file was decoded whole and the ids tested with a
set, 76 MB when the file was also read and written whole), and ``plan``
on a 10⁶-row pool at 137 MB (178 MB with the ids as a tuple of str).

JSONL files are read column first too, in bounded batches:
:func:`read_jsonl` yields the records of about 64 KiB of lines at a time,
each decoded by the C scanner that ``json.loads`` runs, and its callers
test a whole batch at once and take each field into its column a batch
at a time: :func:`json_numbers` converts a batch of a numeric field in one
numpy call, and a pool's ids are converted by :func:`id_cells` as a CSV
file's are.  A JSON number field must hold a JSON number, not a string or
a bool.  On a 2-core host this costs about 2-3 µs per record of an
``id,proxy,loss`` pool and about 7.5 µs per record of a 10-class score
sidecar (7 and 11 µs read record by record).
"""

from __future__ import annotations

import csv
import io
import json
import json.scanner
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ParseError
# the id column's names and the join of every converted column, part of this module's interface
from .idcolumn import (IdIndex, Ids, Where, first_repeat, id_cells, id_column,  # noqa: F401
                       ids, joined, writable_ids)


def _content(line: str) -> bool:
    """Whether a line is read at all: comment and blank lines are skipped."""
    return not line.startswith("#") and not line.isspace() and line != ""


def _open(path: Path, binary: bool = False):
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    return open(path, "rb") if binary else open(path, encoding="utf-8-sig", newline="")


# bytes of lines per batch of a CSV file: bounds the text and cells alive at once
_CSV_BATCH_BYTES = 64 * 1024


def _decoded(path: Path, f) -> Iterator[str]:
    """The text of the binary file ``f`` as UTF-8, in slices of whole lines of
    about ``_CSV_BATCH_BYTES`` bytes; a leading byte-order mark is dropped.

    A line feed byte is never part of another character, so each slice
    decodes on its own, and its first bad byte is the one a decode of the
    whole file finds first: the error names that byte's line.
    """
    line = 1  # physical line of the slice's first byte
    while chunk := f.read(_CSV_BATCH_BYTES):
        if chunk[-1:] != b"\n":
            chunk += f.readline()
        try:
            text = chunk.decode("utf-8")
        except UnicodeDecodeError as e:
            line += chunk.count(b"\n", 0, e.start)
            raise ParseError(f"{path} line {line}: not valid UTF-8 "
                             f"(byte {chunk[e.start]:#04x})") from None
        yield text.removeprefix("\ufeff") if line == 1 else text  # only the first slice has line 1
        line += chunk.count(b"\n")


def _not_utf8(path: Path) -> ParseError:
    """The error for a file that does not decode, naming the line of its first bad byte.

    The file is decoded again a slice at a time, and the slice that holds
    the bad byte raises that error itself.
    """
    with _open(path, binary=True) as f:
        for _ in _decoded(path, f):
            pass
    return ParseError(f"{path}: not valid UTF-8")


# characters of lines per batch of a JSONL file: bounds the decoded records alive at once
_JSONL_BATCH_BYTES = 64 * 1024
_scan = json.scanner.make_scanner(json.JSONDecoder())  # the C scanner json.loads runs
_JSON_SPACE = " \t\n\r"
# a JSONDecodeError, an integer with more digits than int() takes, or arrays nested too deep
_BAD_JSON = (ValueError, RecursionError)


def _decode(line: str) -> object:
    """``json.loads(line)``: the scanner straight, and ``json.loads`` itself on a failure.

    A line with leading whitespace, trailing data or a syntax error thus
    gets exactly ``json.loads``'s value or error.
    """
    try:
        value, end = _scan(line, 0)
        if not line[end:].strip(_JSON_SPACE):
            return value
    except (StopIteration, ValueError):
        pass
    return json.loads(line)


def read_jsonl(path) -> Iterator[tuple[list[int], list[object]]]:
    """The records of a JSONL file, a batch of lines at a time.

    Each batch is the physical line numbers and the decoded values of the
    records among about ``_JSONL_BATCH_BYTES`` characters of lines, so a
    reader holds one batch of decoded records at a time.
    """
    path = Path(path)
    first = 1
    with _open(path) as f:
        while True:
            try:
                lines = f.readlines(_JSONL_BATCH_BYTES)
            except UnicodeDecodeError:
                raise _not_utf8(path) from None
            if not lines:
                return
            keep = list(map(_content, lines))
            linenos = list(compress(count(first), keep))
            first += len(lines)
            try:
                records = list(map(_decode, compress(lines, keep)))
            except _BAD_JSON:
                # the records before the bad line come first, as if read one by one
                records = []
                for lineno, line in zip(linenos, compress(lines, keep)):
                    try:
                        records.append(_decode(line))
                    except _BAD_JSON as e:
                        yield linenos[:len(records)], records
                        msg = getattr(e, "msg", e)
                        raise ParseError(f"{path} line {lineno}: invalid JSON ({msg})") from None
                raise
            yield linenos, records


@dataclass
class CsvTable:
    """A CSV file read column first, a batch of lines at a time.

    ``header`` holds the stripped column names, ``lines[i]`` the physical
    line of data row ``i`` and ``columns[name]`` the raw text cells, in row
    order, of each column not read as numbers or ids.  A numeric column
    was converted a batch at a time; :meth:`numbers` returns it, or raises
    the error of its first cell that did not convert.  The id column was
    converted a batch at a time too; :meth:`ids` returns it.
    """

    path: Path
    header: list[str]
    header_line: int
    lines: np.ndarray
    columns: dict[str, list[str]]
    converted: dict[str, Converted]

    def where(self, i: int) -> str:
        return f"{self.path} line {self.lines[i]}"

    def require(self, *names: str) -> None:
        for name in names:
            if name not in self.header:
                raise ParseError(f"{self.path} line {self.header_line}: missing column {name!r}")

    def numbers(self, name: str) -> np.ndarray:
        """A numeric column, converted as :func:`numbers` converts it."""
        return self.converted[name].values()

    def optional_numbers(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """An optional column as :func:`optional_numbers` returns it; a file without
        the column has no value in any row."""
        if name not in self.converted:
            return np.full(self.lines.size, np.nan), np.zeros(self.lines.size, dtype=bool)
        return self.converted[name].values()

    def ids(self, name: str) -> Ids:
        """The id column as :func:`ids` makes it, or the error of its first bad or repeated id."""
        return self.converted[name].values(lambda parts: id_column(parts, self.where))


def read_csv(path, *, ids: str | None = None, floats: Iterable[str] = (),
             ints: Iterable[str] = (), optional: Iterable[str] = ()) -> CsvTable:
    """Read a CSV table: header, then rows of exactly the header's width.

    The column named ``ids`` is read as unit ids (:meth:`CsvTable.ids`).
    The columns named in ``floats`` and ``ints`` are converted to float
    and int64 arrays, and those in ``optional`` to floats whose blank
    cells mean "no value"; each of these is built a batch of lines at a
    time, before the next batch is split.  Every other column is kept as
    text.
    """
    path = Path(path)
    table = _Rows(path, {**({} if ids is None else {ids: id_cells}),
                         **dict.fromkeys(floats, numbers),
                         **dict.fromkeys(ints, partial(numbers, dtype=np.int64)),
                         **dict.fromkeys(optional, optional_numbers)})
    with _open(path, binary=True) as f:
        slices = _decoded(path, f)
        first = 1  # physical line number of the slice's first line
        for chunk in slices:
            lines = chunk.split("\n")
            if _all_content(chunk):
                # the lines but the empty string after the last line feed
                rows = lines[:-1] if lines[-1] == "" else lines
                linenos = np.arange(first, first + len(rows))
            else:
                # the rule of _content, spelled out: a function call per line would cost twice
                keep = [line != "" and line[0] != "#" and not line.isspace() for line in lines]
                rows = list(compress(lines, keep))
                linenos = np.flatnonzero(keep) + first
            if not _splittable(chunk, rows):
                _module_rows(path, chain([chunk], slices), first, table)
                break
            if rows:
                table.split_rows(linenos, rows)
            first += len(lines) - 1
    return table.table()


# a line :func:`_content` skips, with the line feed before it: ``\s`` is exactly
# what ``str.isspace`` accepts, and the leading literal makes a search one fast scan
_SKIPPED = re.compile(r"\n(?:#|[^\S\n]*(?:\n|\Z))")


def _all_content(chunk: str) -> bool:
    """Whether no line of a slice is a comment or blank line, in one search of
    the whole slice; the line feed that ends the slice starts no line."""
    return _SKIPPED.search("\n" + chunk, 0, len(chunk) + 1 - chunk.endswith("\n")) is None


def _splittable(chunk: str, rows: list[str]) -> bool:
    """Whether splitting on line feeds and commas reads a slice's content lines
    as the csv module would: no quoted field, no line end but a line feed, and
    no field the csv module would refuse as too long (no row is longer than
    its slice)."""
    limit = csv.field_size_limit()
    return not ("\r" in chunk or "\0" in chunk or ('"' in chunk and '"' in "".join(rows))
                or (len(chunk) > limit and rows and max(map(len, rows)) > limit))


def _module_rows(path: Path, slices: Iterable[str], first: int, table: "_Rows") -> None:
    """Feed ``table`` the rows the csv module reads from ``slices``, whose first line is
    physical line ``first``, in batches of about ``_CSV_BATCH_BYTES`` characters."""
    linenos: list[int] = []  # of the lines handed to the reader since the last batch
    size = 0  # characters handed to the reader since the last batch

    def records():
        nonlocal size
        lineno = first
        for chunk in slices:  # a slice ends at a line feed, so no line end is cut in two
            for raw in io.StringIO(chunk, newline=""):
                if _content(raw):
                    linenos.append(lineno)
                    size += len(raw)
                    yield raw
                lineno += 1

    reader = csv.reader(records())
    starts: list[int] = []
    rows: list[list[str]] = []
    used = done = 0  # lines the reader had consumed before the current record, and before the batch
    try:
        for row in reader:
            # a record starts on the first line the reader had not consumed yet
            starts.append(linenos[used - done])
            rows.append(row)
            used = reader.line_num
            if size >= _CSV_BATCH_BYTES:
                table.cell_rows(np.array(starts, dtype=np.int64), rows)
                starts, rows, size, done = [], [], 0, used
                linenos.clear()
    except csv.Error as e:  # a field longer than csv.field_size_limit()
        lineno = linenos[reader.line_num - 1 - done]
        for _ in slices:  # a byte that is not UTF-8, later in the file, wins
            pass
        raise ParseError(f"{path} line {lineno}: {e}") from None
    if rows:
        table.cell_rows(np.array(starts, dtype=np.int64), rows)


class _Rows:
    """The rows of a CSV file as they are read, a batch at a time.

    The file's first row is its header.  Each later batch of rows is cut
    into columns, and each of its id and numeric columns is converted at
    once (:class:`Converted`), before the next batch is read.  An error
    found on the way waits until the whole file is read, so that the error
    that wins does not depend on the batches: no header, repeated column,
    no data rows, ragged row, then the ids and the conversions, in the
    order a caller asks for the columns (:meth:`CsvTable.ids`,
    :meth:`CsvTable.numbers`).  A field too long for the csv module comes
    first of all; it is raised where it is read.
    """

    def __init__(self, path: Path, converters: dict[str, Callable]):
        self.path = path
        self.converters = converters  # name -> (cells, col, where) -> the converted cells
        self.header: list[str] | None = None
        self.header_line = 0
        self.rows = 0  # data rows read
        self.ragged: tuple[int, int] | None = None  # line and width of the first ragged row
        self.refused = False  # the header repeats a name, or a row was ragged
        self.lines: list[np.ndarray] = []
        self.text: dict[str, list[str]] = {}
        self.converted: dict[str, Converted] = {}

    def _start(self, cells: list[str], line: int) -> None:
        """Take the file's first row as its header."""
        self.header = [h.strip() for h in cells]
        self.header_line = int(line)
        self.refused = len(set(self.header)) < len(self.header)
        for name in self.header:
            if name in self.converters:
                self.converted[name] = Converted(name, self.converters[name])
            else:
                self.text[name] = []

    def _counted(self, rows: list) -> bool:
        """Count a batch's data rows; whether they are to be kept.  Once the header
        repeats a name or a row was ragged, the file is refused and none is."""
        self.rows += len(rows)
        return bool(rows) and not self.refused

    def split_rows(self, linenos: np.ndarray, rows: list[str]) -> None:
        """A batch of content lines with no quote: a comma ends every field."""
        if self.header is None:
            self._start(rows[0].split(","), linenos[0])
            linenos, rows = linenos[1:], rows[1:]
        if not self._counted(rows):
            return
        width = len(self.header)
        if set(map(str.count, rows, repeat(","))) != {width - 1}:
            i = next(i for i, row in enumerate(rows) if row.count(",") != width - 1)
            self.ragged, self.refused = (int(linenos[i]), rows[i].count(",") + 1), True
            return
        cells = ",".join(rows).split(",")
        self._keep(linenos, [cells[j::width] for j in range(width)])

    def cell_rows(self, linenos: np.ndarray, rows: list[list[str]]) -> None:
        """A batch of rows as the csv module reads them."""
        if self.header is None:
            self._start(rows[0], linenos[0])
            linenos, rows = linenos[1:], rows[1:]
        if not self._counted(rows):
            return
        width = len(self.header)
        for i, row in enumerate(rows):
            if len(row) != width:
                self.ragged, self.refused = (int(linenos[i]), len(row)), True
                return
        self._keep(linenos, list(map(list, zip(*rows))))

    def _keep(self, linenos: np.ndarray, columns: list[list[str]]) -> None:
        """Keep a batch's text columns and convert its id and numeric columns."""
        self.lines.append(linenos)

        def where(i: int) -> str:
            return f"{self.path} line {linenos[i]}"

        for name, cells in zip(self.header, columns):
            if name in self.text:
                self.text[name] += cells
            else:
                self.converted[name].add(cells, where)

    def table(self) -> CsvTable:
        """The table read, or the first of its errors."""
        path, header = self.path, self.header
        if header is None:
            raise ParseError(f"{path}: no header row")
        if len(set(header)) < len(header):
            name = next(h for i, h in enumerate(header) if h in header[:i])
            raise ParseError(f"{path} line {self.header_line}: repeated column {name!r}")
        if not self.rows:
            raise ParseError(f"{path}: no data rows")
        if self.ragged is not None:
            line, got = self.ragged
            raise ParseError(f"{path} line {line}: expected {len(header)} fields, got {got}")
        lines, self.lines = np.concatenate(self.lines), []
        return CsvTable(path, header, self.header_line, lines, self.text, self.converted)


class Converted:
    """A column converted a batch of cells at a time, by ``convert(cells, name, where)``.

    A batch that fails makes the error of its first bad cell the column's
    outcome, and no later batch is converted: every earlier batch
    converted, so that cell is the column's first bad one.
    """

    def __init__(self, name: str, convert: Callable):
        self.name, self.convert = name, convert
        self.parts: list = []
        self.outcome: object = None  # the finished column, or its error

    def add(self, cells: Sequence, where: Where) -> None:
        """Convert a batch of cells; ``where(i)`` names the place of ``cells[i]``."""
        if self.outcome is None:
            try:
                self.parts.append(self.convert(cells, self.name, where))
            except ParseError as e:
                self.outcome, self.parts = e, []

    def values(self, finish: Callable[[list], object] = joined):
        """The converted column, ``finish`` of its converted batches -- by
        default their values joined, with their present-mask when ``convert``
        gives one -- or the error of its first bad cell, else of ``finish``.
        The batches are released as they are joined."""
        if self.outcome is None:
            parts, self.parts = self.parts, []
            try:
                self.outcome = finish(parts)
            except ParseError as e:
                self.outcome = e
        if isinstance(self.outcome, ParseError):
            raise self.outcome
        return self.outcome


def numbers(cells: Sequence[str], col: str, where: Where, dtype=float) -> np.ndarray:
    """Convert a text column with numpy, as ``float()`` (or ``int()``) would.

    On failure the cells are scanned one by one, so the error names the
    first cell that does not convert.
    """
    try:
        return np.array(cells, dtype=dtype)
    except (ValueError, OverflowError):
        for i, cell in enumerate(cells):
            try:
                np.array(cell, dtype=dtype)
            except (ValueError, OverflowError):
                raise ParseError(f"{where(i)}: cannot parse {col}={cell!r} as a number") from None
        raise


def optional_numbers(cells: Sequence[str], col: str, where: Where) -> tuple[np.ndarray, np.ndarray]:
    """A float column whose blank cells mean "no value yet".

    Returns the values, NaN at blank cells, and the mask of cells that
    hold a value.  A cell that spells ``nan`` holds a value (NaN), so a
    range check on ``values[present]`` rejects it.
    """
    present = list(map(bool, map(str.strip, cells)))
    if not all(present):
        cells = [c if p else "nan" for c, p in zip(cells, present)]
    return numbers(cells, col, where), np.array(present, dtype=bool)


_JSON_NUMBERS = {int, float}  # the types a JSON number decodes to; a bool is not one


def json_numbers(values: Sequence[object], col: str, where: Where) -> np.ndarray:
    """Convert decoded JSON values that must be numbers with numpy, at once.

    On failure the values are scanned one by one, so the error names the
    first one that is not a number (a string or a bool, say) or is an
    integer too large for a float.
    """
    try:
        if set(map(type, values)) <= _JSON_NUMBERS:
            return np.array(values, dtype=float)
    except OverflowError:  # an integer past the largest float
        pass
    i = next(i for i, value in enumerate(values) if not _json_number(value))
    raise ParseError(f"{where(i)}: cannot parse {col}={values[i]!r} as a number")


def _json_number(value: object) -> bool:
    """Whether a decoded JSON value is a number that a float can hold."""
    if type(value) not in _JSON_NUMBERS:
        return False
    try:
        float(value)
    except OverflowError:  # an integer past the largest float
        return False
    return True


def optional_json_numbers(values: Sequence[object], col: str,
                          where: Where) -> tuple[np.ndarray, np.ndarray]:
    """:func:`optional_numbers` for decoded JSON values: ``None`` means "no value yet"."""
    present = [v is not None for v in values]
    if not all(present):
        values = [v if p else math.nan for v, p in zip(values, present)]
    return json_numbers(values, col, where), np.array(present, dtype=bool)


def check(ok: np.ndarray, where: Where, problem: Callable[[int], str]) -> None:
    """Raise a ParseError at the first row of a column check that failed."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise ParseError(f"{where(i)}: {problem(i)}")


def _quoted(cell: str) -> str:
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(column) -> list[str]:
    """The text cells of a column of str, int and float values."""
    cells = list(map(str, column))  # a float's str is its repr
    joined = "".join(cells)
    if "," in joined or '"' in joined or "\n" in joined:
        cells = list(map(_quoted, cells))
    return cells


# rows per batch of a CSV file being written: bounds the cells and row text alive at once
_CSV_WRITE_ROWS = 4096


def _number_cells(values: np.ndarray) -> list[str]:
    """The text cells of a 1-D int or float array, each distinct value formatted once.

    Floats are told apart by their bits, so ``-0.0`` and ``0.0`` keep their
    own cells; a NaN is a blank cell, which :func:`optional_numbers` reads.
    """
    bits = values.view(f"u{values.itemsize}") if values.dtype.kind == "f" else values
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(["" if v != v else str(v)  # a float's str is its repr
                      for v in distinct.view(values.dtype).tolist()], dtype=object)
    return texts[inverse].tolist()


def _batch_cells(column, rows: slice) -> list[str]:
    """The text cells of a column's rows ``rows``."""
    if isinstance(column, np.ndarray):
        return _number_cells(column[rows])
    return _cells(column[rows])


def _csv_chunks(header: Sequence[str], columns) -> Iterator[str]:
    """The header line, then the rows ``_CSV_WRITE_ROWS`` at a time, as text.

    A column is a sequence or a 1-D int or float array; only one batch of
    rows is ever held as cells and text.
    """
    yield ",".join(_cells(header)) + "\n"
    for start in range(0, max(map(len, columns), default=0), _CSV_WRITE_ROWS):
        rows = slice(start, start + _CSV_WRITE_ROWS)
        cells = [_batch_cells(column, rows) for column in columns]
        lines = list(map(",".join, zip(*cells, strict=True)))
        del cells  # released before the text is joined
        lines.append("")  # the line feed that ends the last row
        yield "\n".join(lines)


def write_csv(path, comment: str, header: Sequence[str], columns) -> None:
    """Write ``comment``, then a CSV table of ``header`` and ``columns``, to ``path``,
    ``_CSV_WRITE_ROWS`` rows at a time.

    A column holds str, int or float cells.  Floats are written as
    ``repr``, but a NaN of a float array as a blank cell, and a cell
    holding a comma, a quote or a line feed is quoted: byte for byte what
    ``csv.writer`` with ``lineterminator="\\n"`` writes for rows of two or
    more cells.  Every CSV file strateval writes goes through here, so
    every one of them reads back through :func:`read_csv`.
    """
    with open(path, "w", encoding="utf-8") as f:
        f.write(comment)
        f.writelines(_csv_chunks(header, columns))
