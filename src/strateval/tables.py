"""The one reader and the one writer of strateval's table files.

Every file a workflow step hands to the next -- the pool (CSV or JSONL),
the class-score sidecar, ``calibrated.csv``, ``partition.csv`` and
``worksheet.csv`` -- follows the same rules, implemented here once:

* a line that starts with ``#`` is a comment, and a blank line is
  skipped; tool outputs carry their run config in a leading comment;
* in a CSV file the first remaining line is the header, and every data
  row has as many fields as the header;
* error messages name the physical line of the file, counting comment
  and blank lines;
* an id is stripped of surrounding whitespace and must then be nonempty,
  must not start with ``#`` and must not contain a line break: exactly
  the ids that come back unchanged when :func:`csv_text` writes them and
  :func:`read_csv` reads them.  Readers apply this rule through
  :func:`ids`, which also refuses a repeated id, and writers of id
  columns through :func:`writable_ids`.

CSV tables are parsed column first: one pass of the CSV reader over the
file, then each numeric column is converted by numpy as a whole.  Cells
are scanned one by one only after a column fails, to name the line.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ParseError, PreconditionError

Where = Callable[[int], str]


def _skipped(line: str) -> bool:
    return line.startswith("#") or not line.strip()


def _records(path: Path) -> Iterator[tuple[int, str]]:
    """Physical line number and text (line ending kept) of each line not skipped."""
    if not path.exists():
        raise ParseError(f"{path}: no such file")
    with open(path, newline="") as f:
        for lineno, raw in enumerate(f, start=1):
            if not _skipped(raw):
                yield lineno, raw


def read_jsonl(path) -> Iterator[tuple[int, object]]:
    """Physical line number and decoded value of each record of a JSONL file."""
    path = Path(path)
    for lineno, raw in _records(path):
        try:
            yield lineno, json.loads(raw)
        except json.JSONDecodeError as e:
            raise ParseError(f"{path} line {lineno}: invalid JSON ({e.msg})") from None


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
    columns: dict[str, tuple[str, ...]]

    def where(self, i: int) -> str:
        return f"{self.path} line {self.lines[i]}"

    def require(self, *names: str) -> None:
        for name in names:
            if name not in self.columns:
                raise ParseError(f"{self.path} line {self.header_line}: missing column {name!r}")


def read_csv(path) -> CsvTable:
    """Read a CSV table: header, then rows of exactly the header's width."""
    path = Path(path)
    linenos: list[int] = []

    def text():
        for lineno, raw in _records(path):
            linenos.append(lineno)
            yield raw

    reader = csv.reader(text())
    rows: list[list[str]] = []
    lines: list[int] = []
    used = 0
    for row in reader:
        # a record starts on the first line the reader had not consumed yet
        rows.append(row)
        lines.append(linenos[used])
        used = reader.line_num
    if not rows:
        raise ParseError(f"{path}: no header row")
    header = [h.strip() for h in rows[0]]
    header_line = lines[0]
    rows, lines = rows[1:], lines[1:]
    if not rows:
        raise ParseError(f"{path}: no data rows")
    width = len(header)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"{path} line {lines[i]}: expected {width} fields, got {len(row)}"
            )
    return CsvTable(path, header, header_line, lines, dict(zip(header, zip(*rows))))


def _first_unreadable(uids: Sequence[str]) -> int:
    """Position of the first id that would not come back unchanged from a file, or -1."""
    for i, uid in enumerate(uids):
        if not uid or uid[0] == "#" or uid != uid.strip() or "\n" in uid or "\r" in uid:
            return i
    return -1


_ID_RULE = "ids must be nonempty, must not start with '#' and must not contain a line break"


def ids(cells: Sequence[str], where: Where) -> tuple[str, ...]:
    """Unit ids from text cells: stripped, nonempty, not ``#``-led, one line, unique."""
    out = tuple(c.strip() for c in cells)
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
    present = [c.strip() != "" for c in cells]
    values = numbers([c if p else "nan" for c, p in zip(cells, present)], col, where)
    return values, np.array(present, dtype=bool)


def check(ok: np.ndarray, where: Where, problem: Callable[[int], str]) -> None:
    """Raise a ParseError at the first row of a column check that failed."""
    if not ok.all():
        i = int(np.argmin(ok))
        raise ParseError(f"{where(i)}: {problem(i)}")


def csv_text(header: Sequence[str], rows) -> str:
    """CSV text of a header and rows; floats are written as ``repr``.

    Every CSV file strateval writes goes through here, so every one of
    them reads back through :func:`read_csv`.
    """
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()
