"""The one reader and the one writer of strateval's table files.

Every file a workflow step hands to the next -- the pool (CSV or JSONL),
the class-score sidecar, ``calibrated.csv``, ``partition.csv`` and
``worksheet.csv`` -- follows the same rules, implemented here once:

* a line that starts with ``#`` is a comment, and a blank line is
  skipped; tool outputs carry their run config in a leading comment;
* in a CSV file the first remaining line is the header, which names each
  column once, and every data row has as many fields as the header;
* error messages name the physical line of the file, counting comment
  and blank lines;
* an id is stripped of surrounding whitespace and must then be nonempty,
  must not start with ``#`` and must not contain a line break: exactly
  the ids that come back unchanged when :func:`csv_text` writes them and
  :func:`read_csv` reads them.  Readers apply this rule through
  :func:`ids`, which also refuses a repeated id, and writers of id
  columns through :func:`writable_ids`.

CSV tables are parsed column first.  A file is read once, as UTF-8 (a
leading byte-order mark is dropped).  A text with no quote, carriage
return or NUL is split on line feeds and then, once, on commas, and each
column is sliced out of the cells; any other text goes through the
``csv`` module line by line.  The split is only a faster way to the same
table and the same errors.  Each numeric column is then converted by
numpy as a whole, and cells are scanned one by one only after a column
fails, to name the line.

JSONL files are read column first too, in bounded batches:
:func:`read_jsonl` yields the records of about 64 KiB of lines at a time,
each decoded by the C scanner that ``json.loads`` runs, and its callers
test a whole batch at once and gather each field as one list, which
:func:`json_numbers` converts in one numpy call (class scores a batch at
a time).  A JSON number field must hold a JSON number, not a string or a
bool.  On a 2-core host this costs
about 3 µs per record of an ``id,proxy,loss`` pool and about 7.5 µs per
record of a 10-class score sidecar (7 and 11 µs read record by record).
"""

from __future__ import annotations

import csv
import io
import json
import json.scanner
import math
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, PreconditionError

Where = Callable[[int], str]


def _content(line: str) -> bool:
    """Whether a line is read at all: comment and blank lines are skipped."""
    return not line.startswith("#") and not line.isspace() and line != ""


def _open(path: Path):
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    return open(path, encoding="utf-8-sig", newline="")


def _not_utf8(path: Path) -> ParseError:
    """The error for a file that does not decode, naming the line of its first bad byte."""
    raw = path.read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        return ParseError(f"{path} line {line}: not valid UTF-8 (byte {raw[e.start]:#04x})")
    return ParseError(f"{path}: not valid UTF-8")


def _records(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """Physical line number and text (line ending kept) of each line not skipped."""
    for lineno, raw in enumerate(lines, start=1):
        if _content(raw):
            yield lineno, raw


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
    """A CSV file read column first.

    ``header`` holds the stripped column names, ``lines[i]`` the physical
    line of data row ``i`` and ``columns[name]`` the raw text cells of a
    column, in row order.
    """

    path: Path
    header: list[str]
    header_line: int
    lines: list[int]
    columns: dict[str, list[str]]

    def where(self, i: int) -> str:
        return f"{self.path} line {self.lines[i]}"

    def require(self, *names: str) -> None:
        for name in names:
            if name not in self.columns:
                raise ParseError(f"{self.path} line {self.header_line}: missing column {name!r}")


def read_csv(path) -> CsvTable:
    """Read a CSV table: header, then rows of exactly the header's width."""
    path = Path(path)
    with _open(path) as f:
        try:
            text = f.read()
        except UnicodeDecodeError:
            raise _not_utf8(path) from None
    if "\r" in text or "\0" in text:
        return _csv_table(path, text)
    lines = text.split("\n")
    del text
    # the rule of _content, spelled out: a function call per line would cost twice as much
    keep = [line != "" and line[0] != "#" and not line.isspace() for line in lines]
    rows = list(compress(lines, keep))
    if not rows:
        raise ParseError(f"{path}: no header row")
    body = ",".join(islice(rows, 1, None))
    if '"' in rows[0] or '"' in body or max(map(len, rows)) > csv.field_size_limit():
        # quoted fields, or a field the csv module would refuse as too long
        return _csv_table(path, "\n".join(lines))
    del lines  # each stage is released before the next: the text, lines and cells never coexist
    linenos = list(compress(count(1), keep))
    del keep
    header_line = linenos.pop(0)
    header = _header(path, rows.pop(0).split(","), header_line)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(header)
    if set(map(str.count, rows, repeat(","))) != {width - 1}:
        for i, row in enumerate(rows):
            if row.count(",") != width - 1:
                raise _ragged(path, linenos[i], width, row.count(",") + 1)
    del rows
    cells = body.split(",")
    del body
    return CsvTable(path, header, header_line, linenos,
                    {name: cells[j::width] for j, name in enumerate(header)})


def _csv_table(path: Path, text: str) -> CsvTable:
    """:func:`read_csv` by the csv module, one physical line at a time."""
    linenos: list[int] = []

    def records():
        for lineno, raw in _records(io.StringIO(text, newline="")):
            linenos.append(lineno)
            yield raw

    reader = csv.reader(records())
    rows: list[list[str]] = []
    lines: list[int] = []
    used = 0
    try:
        for row in reader:
            # a record starts on the first line the reader had not consumed yet
            rows.append(row)
            lines.append(linenos[used])
            used = reader.line_num
    except csv.Error as e:  # a field longer than csv.field_size_limit()
        raise ParseError(f"{path} line {linenos[reader.line_num - 1]}: {e}") from None
    if not rows:
        raise ParseError(f"{path}: no header row")
    header_line = lines.pop(0)
    header = _header(path, rows.pop(0), header_line)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise _ragged(path, lines[i], width, len(row))
    return CsvTable(path, header, header_line, lines, dict(zip(header, map(list, zip(*rows)))))


def _header(path: Path, cells: list[str], line: int) -> list[str]:
    """Stripped column names; a name may occur once."""
    header = [h.strip() for h in cells]
    if len(set(header)) < len(header):
        name = next(h for i, h in enumerate(header) if h in header[:i])
        raise ParseError(f"{path} line {line}: repeated column {name!r}")
    return header


def _ragged(path: Path, line: int, width: int, got: int) -> ParseError:
    return ParseError(f"{path} line {line}: expected {width} fields, got {got}")


def _first_unreadable(uids: Sequence[str]) -> int:
    """Position of the first id that would not come back unchanged from a file, or -1.

    The whole column is tested at once; the ids are walked one by one
    only when that test fails, to find the first bad one.
    """
    text = "\n".join(uids)
    if (all(uids) and text.count("\n") == len(uids) - 1 and "\r" not in text
            and text[:1] != "#" and "\n#" not in text
            and tuple(map(str.strip, uids)) == tuple(uids)):
        return -1
    for i, uid in enumerate(uids):
        if not uid or uid[0] == "#" or uid != uid.strip() or "\n" in uid or "\r" in uid:
            return i
    return -1


_ID_RULE = "ids must be nonempty, must not start with '#' and must not contain a line break"


def ids(cells: Sequence[str], where: Where) -> tuple[str, ...]:
    """Unit ids from text cells: stripped, nonempty, not ``#``-led, one line, unique."""
    out = tuple(map(str.strip, cells))
    i = _first_unreadable(out)
    if i >= 0:
        raise ParseError(f"{where(i)}: bad id {out[i]!r} ({_ID_RULE})")
    if len(set(out)) < len(out):
        first: dict[str, int] = {}
        for i, uid in enumerate(out):
            if first.setdefault(uid, i) != i:
                raise ParseError(f"{where(i)}: duplicate id {uid!r}")
    return out


def writable_ids(uids: Sequence[str]) -> Sequence[str]:
    """Ids about to be written, refused if one would not read back unchanged."""
    i = _first_unreadable(uids)
    if i >= 0:
        raise PreconditionError(f"cannot write id {uids[i]!r}: it would not read back "
                                f"({_ID_RULE}, and must have no surrounding whitespace)")
    return uids


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


def csv_text(header: Sequence[str], columns) -> str:
    """CSV text of a header and columns of str, int or float cells.

    Floats are written as ``repr``, and a cell holding a comma, a quote or
    a line feed is quoted: byte for byte what ``csv.writer`` with
    ``lineterminator="\\n"`` writes for rows of two or more cells.  Every
    CSV file strateval writes goes through here, so every one of them
    reads back through :func:`read_csv`.
    """
    rows = map(",".join, zip(*map(_cells, columns), strict=True))
    return "\n".join([",".join(_cells(header)), *rows, ""])
