"""Unit ids: the id rule, and the id column every reader builds.

An id is stripped of surrounding whitespace and must then be nonempty,
must not start with ``#`` and must not contain a line break: exactly the
ids that come back unchanged when :func:`strateval.tables.write_csv`
writes them and :func:`strateval.tables.read_csv` reads them.  Readers
apply this rule through :class:`IdColumn` (:func:`ids` for a list of
cells), which also refuses a repeated id, and writers of id columns
through :func:`writable_ids`.  The ids are tested against the rule 4096
at a time, and for a repeat by sorting their hashes, 8 bytes an id where
a set of them takes about 40; only equal hashes make the reader walk the
ids to name the repeat.

An id column (:class:`Ids`) is one uint8 array of the ids' UTF-8, each id
followed by a line feed, and an int64 array of the N + 1 offsets where
the ids start: about (UTF-8 length + 9) bytes an id, where a tuple of
``str`` took about 64.  It reads as a sequence of ``str``, decoded 4096
ids at a time, and :meth:`Ids.take` gathers ids by position or by a
mask as bytes, 4096 ids at a time.  numpy's ``StringDType`` was measured
as the other choice and left: it needs numpy 2, and at 10⁵ ids its
fancy-index take of half the ids took 8.7 ms against 3.2 ms for a gather
from a tuple, and its ``tolist`` 10 ms.

The column lives in a module of its own, apart from the readers and
writers of :mod:`strateval.tables`, which re-exports its public names:
CPython parses a module whole, and the parse of one module of both
peaked at 2.3 MB of traced allocations against 1.5 MB for the larger of
the two, which every command's peak resident memory paid.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ParseError, PreconditionError

Where = Callable[[int], str]


# ids per batch of the id rule's test, of decoding an id column and of
# gathering one: bounds the text, str objects and byte positions alive at once
_ID_BATCH = 4096


def _first_unreadable(uids: Sequence[str], stripped: bool) -> int:
    """Position of the first id that would not come back unchanged from a file, or -1.

    The ids are tested ``_ID_BATCH`` at a time, each batch at once, with
    the test for surrounding whitespace left out when the ids were
    ``stripped`` already; a batch's ids are walked one by one only when
    its test fails, to find the first bad one.
    """
    for start in range(0, len(uids), _ID_BATCH):
        batch = uids[start:start + _ID_BATCH]
        text = "\n".join(batch)
        if (all(batch) and text.count("\n") == len(batch) - 1 and "\r" not in text
                and text[:1] != "#" and "\n#" not in text
                and (stripped or tuple(map(str.strip, batch)) == tuple(batch))):
            continue
        for i, uid in enumerate(batch, start):
            if not uid or uid[0] == "#" or uid != uid.strip() or "\n" in uid or "\r" in uid:
                return i
    return -1


def may_repeat(uids: Sequence) -> bool:
    """Whether two of ``uids`` may be equal: two of their hashes are.

    The hashes are sorted in one int64 array, 8 bytes an id, where a set
    of the ids would take about 40.  A caller that gets True walks the ids
    to name the repeat, so equal hashes of distinct ids cost time, never a
    wrong answer.
    """
    return _equal_neighbours(np.fromiter(map(hash, uids), np.int64, len(uids)))


def _equal_neighbours(hashes: np.ndarray) -> bool:
    """Whether two of ``hashes`` are equal; sorts them in place."""
    hashes.sort()
    return bool((hashes[1:] == hashes[:-1]).any())


_ID_RULE = "ids must be nonempty, must not start with '#' and must not contain a line break"
# the UTF-8 of ids in memory: a lone surrogate, which a JSON string can
# spell, is kept as the str holds it rather than refused
_ENCODING = ("utf-8", "surrogatepass")


def _encoded(strs: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """``strs`` as UTF-8 bytes, each ended by a line feed, and each one's end in them."""
    if not strs:
        return np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.int64)
    text = "\n".join(strs)
    text += "\n"
    data = np.frombuffer(text.encode(*_ENCODING), dtype=np.uint8)
    ends = np.flatnonzero(data == 10) + 1
    if ends.size != len(strs):  # some id holds a line feed of its own
        ends = np.cumsum([len(s.encode(*_ENCODING)) + 1 for s in strs])
    return data, ends


def _fill(out: np.ndarray, parts: list[np.ndarray], start: int = 0) -> np.ndarray:
    """``parts`` copied end to end into ``out`` from ``start``; each part is
    released once it is copied, so ``parts`` ends empty."""
    parts.reverse()
    while parts:
        part = parts.pop()
        out[start:start + part.size] = part
        start += part.size
    return out


class Ids(Sequence):
    """A read-only column of unit ids, held as UTF-8 bytes: no ``str`` per id.

    ``data`` is one uint8 array of every id's UTF-8 followed by a line
    feed, and ``offsets`` the N + 1 int64 positions where the ids start,
    the last one ``data.size``: about (UTF-8 length + 9) bytes an id,
    where a tuple of ``str`` takes about 64.  It is a ``Sequence[str]``:
    an int index decodes one id, a slice decodes a ``list`` of them, and
    iteration decodes ``_ID_BATCH`` ids at a time.  :meth:`take` gathers
    ids by position without decoding them.
    """

    __slots__ = ("data", "offsets")

    def __init__(self, data: np.ndarray, offsets: np.ndarray):
        self.data, self.offsets = data, offsets
        data.setflags(write=False)
        offsets.setflags(write=False)

    @classmethod
    def of(cls, strs: Iterable[str]) -> Ids:
        """The column of any ``str`` values, encoded ``_ID_BATCH`` at a time."""
        if isinstance(strs, Ids):
            return strs
        column, it = _IdParts(), iter(strs)
        while batch := list(islice(it, _ID_BATCH)):
            column.add(batch)
        return column.ids()

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            r = range(len(self))[i]
            if not r:
                return []
            lo, hi = min(r[0], r[-1]), max(r[0], r[-1]) + 1
            return self._decoded(lo, hi)[r[0] - lo::r.step]
        n, i = len(self), operator.index(i)
        if not -n <= i < n:
            raise IndexError("id index out of range")
        return self._decoded(i % n, i % n + 1)[0]

    def __iter__(self) -> Iterator[str]:
        starts = range(0, len(self), _ID_BATCH)
        return chain.from_iterable(map(self._decoded, starts, chain(starts[1:], [len(self)])))

    def _decoded(self, start: int, stop: int) -> list[str]:
        """Ids ``start`` to ``stop - 1``, ``0 <= start < stop <= len(self)``, as ``str``."""
        o, data = self.offsets, self.data
        strs = str(data[o[start]:o[stop]], *_ENCODING).split("\n")
        strs.pop()  # the empty string after the last id's line feed
        if len(strs) != stop - start:  # some id holds a line feed of its own
            strs = [str(data[a:b - 1], *_ENCODING) for a, b in zip(o[start:stop], o[start + 1:stop + 1])]
        return strs

    def take(self, indices) -> Ids:
        """The ids at ``indices``, positions (numpy's rules: a negative one counts
        from the end) or a boolean mask of the column's length, gathered as
        bytes ``_ID_BATCH`` ids at a time, so that the byte positions of one
        batch are alive at once, not a position per byte."""
        idx = np.asarray(indices)
        if idx.dtype == bool and idx.shape != (len(self),):
            raise IndexError(f"boolean index of {idx.size} for {len(self)} ids")

        def batches() -> Iterator[np.ndarray]:
            for a in range(0, idx.size, _ID_BATCH):
                at = idx[a:a + _ID_BATCH]
                yield np.flatnonzero(at) + a if at.dtype == bool else at.astype(np.int64, copy=False)

        src = self.offsets
        offsets = np.zeros(1 + (np.count_nonzero(idx) if idx.dtype == bool else idx.size), np.int64)
        a = 1
        for at in batches():
            offsets[a:a + at.size] = src[1:][at] - src[:-1][at]
            a += at.size
        np.cumsum(offsets, out=offsets)
        data, a = np.empty(offsets[-1], dtype=np.uint8), 0
        for at in batches():
            b = a + at.size
            # each gathered byte's source: its place in the batch's bytes, moved by its id's shift
            shift = np.repeat(src[:-1][at] - offsets[a:b], np.diff(offsets[a:b + 1]))
            shift += np.arange(offsets[a], offsets[b])
            data[offsets[a]:offsets[b]] = self.data[shift]
            a = b
        return Ids(data, offsets)

    def __eq__(self, other) -> bool:
        """Equal to another column of the same ids, or to any sequence of them."""
        if isinstance(other, Ids):
            return np.array_equal(self.offsets, other.offsets) and np.array_equal(self.data, other.data)
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    __hash__ = None

    def __repr__(self) -> str:
        more = ", ..." if len(self) > 4 else ""
        return f"Ids({self[:4]!r}{more}, n={len(self)})"


class _IdParts:
    """The bytes and id ends of a column of ids, a batch at a time."""

    def __init__(self) -> None:
        self.data: list[np.ndarray] = []
        self.ends: list[np.ndarray] = []  # from the column's first byte
        self.count = self.size = 0  # ids and bytes so far

    def add(self, strs: Sequence[str]) -> None:
        data, ends = _encoded(strs)
        self.data.append(data)
        self.ends.append(ends + self.size)
        self.count += len(strs)
        self.size += data.size

    def ids(self) -> Ids:
        """The column, each part released as it is copied in."""
        offsets = np.empty(self.count + 1, dtype=np.int64)
        offsets[0] = 0
        _fill(offsets, self.ends, 1)
        return Ids(_fill(np.empty(self.size, dtype=np.uint8), self.data), offsets)


class IdColumn:
    """A column of unit ids built a batch of text cells at a time (see :func:`ids`).

    Each batch is stripped, tested against the id rule, hashed for the
    repeat test and encoded, and its ``str`` objects are then dropped.
    The first bad id becomes the column's error and ends the work;
    :meth:`ids` raises it, so that a reader can raise the errors that come
    before it first.
    """

    def __init__(self) -> None:
        self.parts = _IdParts()
        self.hashes: list[np.ndarray] = []
        self.outcome: Ids | ParseError | None = None

    def add(self, cells: Sequence[str], where: Where) -> None:
        """Take in a batch of cells; ``where(i)`` names the place of ``cells[i]``."""
        if self.outcome is not None:
            return
        batch = list(map(str.strip, cells))
        i = _first_unreadable(batch, stripped=True)
        if i >= 0:
            self.outcome = ParseError(f"{where(i)}: bad id {batch[i]!r} ({_ID_RULE})")
            self.parts, self.hashes = _IdParts(), []
            return
        self.hashes.append(np.fromiter(map(hash, batch), np.int64, len(batch)))
        self.parts.add(batch)

    def ids(self, where: Where) -> Ids:
        """The column, or the error of its first bad id, else of its first
        repeated one; ``where(i)`` names the place of id ``i``."""
        if self.outcome is None:
            # the hashes are tested and released before the column is joined
            repeats = _equal_neighbours(_fill(np.empty(self.parts.count, np.int64), self.hashes))
            self.outcome = self.parts.ids()
            if repeats:
                first: dict[str, int] = {}
                for i, uid in enumerate(self.outcome):
                    if first.setdefault(uid, i) != i:
                        self.outcome = ParseError(f"{where(i)}: duplicate id {uid!r}")
                        break
        if isinstance(self.outcome, ParseError):
            raise self.outcome
        return self.outcome


def ids(cells: Sequence[str], where: Where) -> Ids:
    """Unit ids from text cells: stripped, nonempty, not ``#``-led, one line, unique.

    The cells are taken in ``_ID_BATCH`` at a time, as a reader takes in
    its batches; ``where(i)`` names the place of ``cells[i]``.
    """
    column = IdColumn()
    for start in range(0, len(cells), _ID_BATCH):
        column.add(cells[start:start + _ID_BATCH], lambda i: where(start + i))
    return column.ids(where)


def writable_ids(uids: Sequence[str]) -> Sequence[str]:
    """Ids about to be written, refused if one would not read back unchanged."""
    i = _first_unreadable(uids, stripped=False)
    if i >= 0:
        raise PreconditionError(f"cannot write id {uids[i]!r}: it would not read back "
                                f"({_ID_RULE}, and must have no surrounding whitespace)")
    return uids
