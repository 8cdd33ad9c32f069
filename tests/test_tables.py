"""The table files: byte-exact round trips, the id rule, line numbers in errors."""

import csv
import io
import json
import math
import re
import tracemalloc
from functools import partial
from itertools import compress
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strateval import idcolumn, tables
from strateval.cli import main
from strateval.dataset import Population, ingest
from strateval.errors import ConsistencyError, ParseError, PreconditionError
from strateval.losses import LossKind
from strateval.sampling import SampleDraw, load_worksheet, worksheet_table
from strateval.stratify import StrataPartition, partition_table
from strateval.tables import numbers, write_csv

SETTINGS = settings(max_examples=60)  # on top of the suite's profile (conftest.py)

# ids a writer can write and the reader reads back: commas, quotes, inner
# spaces and characters of two, three and four UTF-8 bytes included
ID_CHARS = st.sampled_from(list('ab7Z,"\' #;é日本😀'))
IDS = st.lists(
    st.text(ID_CHARS, min_size=1, max_size=6)
    .map(str.strip)
    .filter(lambda u: u and not u.startswith("#")),
    min_size=1,
    max_size=12,
    unique=True,
)
UNIT = st.floats(0.0, 1.0)
ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("tables")


# comment lines that fill more than one batch of the JSONL reader: after a
# file's first line they put every later record past the first batch
PAD = "# padding that moves the records below out of the first batch...\n"
PAD_LINES = 2 * tables._JSONL_BATCH_BYTES // len(PAD) + 1


def past_first_batch(text, message):
    """``text`` (str or bytes) with PAD_LINES comment lines after its first
    line, and ``message`` with the line numbers past that line moved to match."""
    pad = PAD * PAD_LINES
    if isinstance(text, bytes):
        pad = pad.encode()
    cut = text.index(pad[-1:]) + 1
    return text[:cut] + pad + text[cut:], re.sub(
        r"line (\d+)", lambda m: f"line {int(m[1]) + PAD_LINES * (int(m[1]) > 1)}", message)


# -- byte-exact round trips ----------------------------------------------------


@st.composite
def populations(draw):
    ids = draw(IDS)
    n = len(ids)
    column = lambda elements: np.array(draw(st.lists(elements, min_size=n, max_size=n)))
    return Population(
        ids=tuple(ids),
        proxy=column(UNIT),
        loss=column(st.one_of(st.just(math.nan), UNIT)),
        loss_kind=LossKind.SQUARED_ERROR,
        proxy_cal=column(UNIT) if draw(st.booleans()) else None,
    )


@SETTINGS
@given(pop=populations())
def test_canonical_csv_ingest_round_trip_is_byte_exact(scratch, pop):
    path, again = scratch / "pool.csv", scratch / "again.csv"
    write_csv(path, "# config line\n", *pop.canonical_table())
    back = ingest(path, "squared_error")
    write_csv(again, "# config line\n", *back.canonical_table())
    assert again.read_bytes() == path.read_bytes()
    assert back.ids == pop.ids
    assert np.array_equal(back.loss, pop.loss, equal_nan=True)


def _jsonl_pool(pop, ensure_ascii):
    """A population as a JSONL pool: a NaN loss is a null, not yet annotated."""
    lines = []
    for i, uid in enumerate(pop.ids):
        rec = {"id": uid, "proxy": float(pop.proxy[i]),
               "loss": None if math.isnan(pop.loss[i]) else float(pop.loss[i])}
        if pop.proxy_cal is not None:
            rec["proxy_cal"] = float(pop.proxy_cal[i])
        lines.append(json.dumps(rec, ensure_ascii=ensure_ascii) + "\n")
    return "".join(lines)


@SETTINGS
@given(pop=populations(), ensure_ascii=st.booleans())
def test_jsonl_ingest_round_trip_is_byte_exact(scratch, pop, ensure_ascii):
    # ids spelt as UTF-8 or as \u escapes read back as the ids written
    path, want, got = scratch / "pool.jsonl", scratch / "want.csv", scratch / "got.csv"
    path.write_text(_jsonl_pool(pop, ensure_ascii), encoding="utf-8")
    back = ingest(path, "squared_error")
    write_csv(want, "# config line\n", *pop.canonical_table())
    write_csv(got, "# config line\n", *back.canonical_table())
    assert got.read_bytes() == want.read_bytes()
    assert back.ids == pop.ids and tuple(back.ids) == tuple(pop.ids)


@SETTINGS
@given(
    ids=IDS,
    data=st.data(),
)
def test_worksheet_round_trip_is_byte_exact(scratch, ids, data):
    n = len(ids)
    strata = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    pi = data.draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=n, max_size=n))
    loss = data.draw(st.lists(st.one_of(st.just(math.nan), UNIT), min_size=n, max_size=n))
    draw = SampleDraw(indices=np.arange(n), ids=tuple(ids), strata=strata, pi=pi)
    path, again = scratch / "worksheet.csv", scratch / "again.csv"
    write_csv(path, "", *worksheet_table(draw))
    text = path.read_text()
    ws = load_worksheet(path)
    assert tuple(ws.ids) == draw.ids
    assert np.array_equal(ws.strata, draw.strata) and np.array_equal(ws.pi, draw.pi)
    back = SampleDraw(indices=np.arange(n), ids=ws.ids, strata=ws.strata, pi=ws.pi)
    write_csv(again, "", *worksheet_table(back))
    assert again.read_text() == text
    # the annotator appends a loss column; blank cells are not yet labelled
    head, *rows = text.splitlines()
    path.write_text("\n".join(
        [head + ",loss"] + [f"{r},{'' if math.isnan(v) else repr(v)}" for r, v in zip(rows, loss)]
    ) + "\n")
    assert np.array_equal(load_worksheet(path).loss, np.array(loss), equal_nan=True)


@SETTINGS
@given(ids=IDS, data=st.data())
def test_partition_round_trip_is_byte_exact(scratch, ids, data):
    raw = data.draw(st.lists(st.integers(0, 5), min_size=len(ids), max_size=len(ids)))
    labels, assignment = np.unique(raw, return_inverse=True)
    partition = StrataPartition(assignment, labels.size)
    path, again = scratch / "partition.csv", scratch / "again.csv"
    write_csv(path, "# config\n", *partition_table(partition, ids))
    t = tables.read_csv(path, ints=("stratum",))
    assert t.header == ["id", "stratum"]
    back_ids, strata = tables.ids(t.columns["id"], t.where), t.numbers("stratum")
    assert tuple(back_ids) == tuple(ids) and strata.tolist() == assignment.tolist()
    write_csv(again, "# config\n", *partition_table(StrataPartition(strata, labels.size), back_ids))
    assert again.read_bytes() == path.read_bytes()


# -- the id column -------------------------------------------------------------

# any ids at all, which the column holds as they are: empty, repeated, with
# surrounding spaces or line breaks of their own, or of several UTF-8 bytes
ANY_IDS = st.lists(st.text(st.sampled_from(list("a7 #é日本😀\n\r\x1c\u3000")), max_size=4),
                  max_size=12)
SLICE_BOUND = st.none() | st.integers(-15, 15)


@SETTINGS
@given(ids=IDS | ANY_IDS, batch=st.integers(1, 5), data=st.data())
def test_the_id_column_acts_as_the_list_of_its_ids(ids, batch, data):
    n = len(ids)
    with mock.patch.object(idcolumn, "_ID_BATCH", batch):  # columns of many batches
        column = tables.Ids.of(ids)
        assert len(column) == n and list(column) == ids
        for i in range(-n, n):
            assert column[i] == ids[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                column[i]
        step = data.draw(st.none() | st.integers(-4, 4).filter(bool))
        cut = slice(data.draw(SLICE_BOUND), data.draw(SLICE_BOUND), step)
        assert column[cut] == ids[cut]
        index = st.integers(-n, n - 1) if n else st.nothing()
        for idx in (
            sorted(set(data.draw(st.lists(st.integers(0, n - 1), max_size=n)))) if n else [],
            data.draw(st.permutations(range(n))),
            data.draw(st.lists(index, min_size=n and 1, max_size=3 * n)),  # repeated, negative
            [],
        ):
            taken = column.take(np.array(idx, dtype=np.int64))
            assert list(taken) == [ids[i] for i in idx]
            assert taken == tables.Ids.of([ids[i] for i in idx])
        keep = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        assert list(column.take(np.array(keep, dtype=bool))) == list(compress(ids, keep))
        for bad in ([n], np.ones(n + 1, dtype=bool)):
            with pytest.raises(IndexError):
                column.take(bad)
        # equal to any sequence of its ids, each way round, and to nothing else
        assert column == ids and tuple(ids) == column and not column != ids
        assert column != [*ids, "a"] and column != [*ids[:-1], ids[-1:] and ids[-1] + "a"]
        assert column != "".join(ids)
        # the writers' check refuses in the column what it refuses in the ids
        assert _outcome_of_write(column) == _outcome_of_write(ids)


def _outcome_of_write(uids):
    try:
        tables.writable_ids(uids)
    except PreconditionError as e:
        return str(e)
    return None


EDGE_CELLS = [" 1 ", "1_0", "+.5", "1e400", "-0.0", "nan", "inf", "-inf", "1e-320", ".5e1"]


@SETTINGS
@given(cells=st.lists(st.one_of(ANY_FLOAT.map(repr), st.sampled_from(EDGE_CELLS)), min_size=1))
def test_column_conversion_matches_float(cells):
    got = numbers(cells, "x", str)
    want = np.array([float(c) for c in cells])
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


# -- the bulk split and the csv module agree ----------------------------------

# no quote, carriage return or NUL: every text drawn here takes the bulk split
CELL = st.text(st.sampled_from(list("ab7 #;.é\t\x0c\x1c\u2028")), max_size=4)
BLANK = st.sampled_from(["", " ", "\t", "  \x0c", "\u2028"])


@st.composite
def quote_free_texts(draw):
    width = draw(st.integers(1, 4))
    row = st.lists(CELL, min_size=width, max_size=width).map(",".join)
    ragged = st.lists(CELL, min_size=1, max_size=5).map(",".join)
    comment = CELL.map("#".__add__)
    header = st.lists(st.sampled_from(["id", " a b", "proxy", "loss", "pi ", "x"]),
                      min_size=width, max_size=width, unique=True).map(",".join)
    before = draw(st.lists(st.one_of(comment, BLANK), max_size=3))
    body = draw(st.lists(st.one_of(row, row, row, row, row, ragged, comment, BLANK),
                         min_size=1, max_size=10))
    lines = [*before, draw(st.one_of(header, header, header, row)), *body]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def _outcome(read):
    try:
        t = read()
    except ParseError as e:
        return str(e)
    return t.header, t.header_line, t.lines.tolist(), t.columns


@settings(max_examples=300)
@given(text=quote_free_texts(), batch=st.sampled_from([1, 7, 64 * 1024]))
def test_bulk_split_and_csv_module_give_the_same_table(scratch, text, batch):
    path = scratch / "t.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(tables, "_CSV_BATCH_BYTES", batch):
        bulk = _outcome(lambda: tables.read_csv(path))
        with mock.patch.object(tables, "_splittable", lambda *_: False):
            assert bulk == _outcome(lambda: tables.read_csv(path))


@pytest.mark.parametrize("text,module", [
    ('id,proxy\n"a",0.1\n', True),
    ('id,"proxy"\na,0.1\n', True),
    ("id,proxy\r\na,0.1\r\n", True),
    ("id,proxy\na\0b,0.1\n", True),
    ('# a comment may hold "quotes"\nid,proxy\na,0.1\n', False),
    ("id,proxy\na,0.1", False),
], ids=["quoted-cell", "quoted-header", "crlf", "nul", "quoted-comment", "plain"])
def test_quotes_carriage_returns_and_nuls_take_the_csv_module(tmp_path, monkeypatch, text,
                                                                module):
    calls = []
    original = tables._module_rows
    monkeypatch.setattr(tables, "_module_rows", lambda *a: calls.append(a) or original(*a))
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())
    t = tables.read_csv(path)
    assert bool(calls) == module
    assert t.header == ["id", "proxy"] and t.lines.tolist() == [2 + text.startswith("#")]


WRITER_CELL = st.one_of(
    st.text(st.sampled_from(list('ab7 ,"\n#é')), max_size=5),
    st.integers(-10**20, 10**20),
    st.floats(),
)


# floats whose cells the array writer must keep apart or whose repr changes form;
# -math.nan is a NaN with its sign bit set
WRITER_FLOAT = st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf, math.nan, -math.nan,
                                5e-324, 2.5e-310, 1e16, 1e-05, 0.1 + 0.2]) | st.floats()
WRITER_INT = st.sampled_from([0, -1, 7]) | st.integers(-2**63, 2**63 - 1)


def writer_columns(n):
    """A column of ``n`` cells as a caller of write_csv holds it: a list, or a
    float64 or int64 array."""
    return st.one_of(
        st.lists(WRITER_CELL, min_size=n, max_size=n),
        st.lists(WRITER_FLOAT, min_size=n, max_size=n).map(np.array),
        st.lists(WRITER_INT, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
    )


def python_cells(column) -> list:
    """The cells csv.writer is given for a column: its Python values, "" for a float array's NaN."""
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return ["" if v != v else v for v in column.tolist()]
    return column.tolist() if isinstance(column, np.ndarray) else column


@SETTINGS
@given(data=st.data(), width=st.integers(2, 4), n=st.integers(0, 12),
       batch=st.integers(1, 5))
def test_write_csv_writes_what_the_csv_module_writes(scratch, data, width, n, batch):
    # a small batch makes repeated values span batches
    header = data.draw(st.lists(st.text(st.sampled_from(list('ab ,"')), max_size=4),
                                min_size=width, max_size=width))
    columns = [data.draw(writer_columns(n)) for _ in range(width)]
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(zip(*map(python_cells, columns)))
    path = scratch / "written.csv"
    with mock.patch.object(tables, "_CSV_WRITE_ROWS", batch):
        write_csv(path, "# c\n", header, columns)
    assert path.read_bytes().decode("utf-8") == "# c\n" + buf.getvalue()


@pytest.mark.parametrize("text", [
    "id,proxy,loss,proxy\na,0.1,1,0.9\nb,0.2,0,0.8\n",
    'id,proxy,loss,"proxy"\na,0.1,1,0.9\nb,0.2,0,0.8\n',
    "id,proxy,loss, proxy\r\na,0.1,1,0.9\r\nb,0.2,0,0.8\r\n",
], ids=["bulk", "quoted", "crlf"])
def test_a_repeated_column_is_refused(tmp_path, text):
    # before, the last of the two proxy columns silently won
    path = tmp_path / "pool.csv"
    path.write_bytes(("# c\n" + text).encode())
    with pytest.raises(ParseError, match="line 2: repeated column 'proxy'"):
        ingest(path, "accuracy")


@pytest.mark.parametrize("name", ["pool.csv", "pool.jsonl", "pool.txt"])
def test_a_byte_order_mark_is_dropped(tmp_path, name):
    text = ('{"id": "a", "proxy": 0.1}\n{"id": "b", "proxy": 0.5}\n' if name != "pool.csv"
            else "id,proxy\na,0.1\nb,0.5\n")
    path = tmp_path / name
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert tuple(ingest(path, "accuracy").ids) == ("a", "b")


NOT_UTF8 = {
    "csv": ("pool.csv", b"id,proxy\na,0.1\ncaf\xe9,0.5\n", 3),
    "bom-crlf": ("pool.csv", b"\xef\xbb\xbfid,proxy\r\n# caf\xe9\r\na,0.1\r\n", 2),
    "jsonl": ("pool.jsonl", b'{"id": "a", "proxy": 0.1}\n\n{"id": "caf\xe9", "proxy": 0.5}\n', 3),
    "peek-jsonl": ("pool.txt", b'{"id": "a", "proxy": 0.1}\n{"id": "caf\xe9", "proxy": 0.5}\n', 2),
    "peek-csv": ("pool.txt", b"id,proxy\na,0.1\ncaf\xe9,0.5\n", 3),
}


@pytest.mark.parametrize("name,data,line", NOT_UTF8.values(), ids=NOT_UTF8)
def test_a_file_that_is_not_utf8_names_its_line(tmp_path, name, data, line):
    # before, every reader (and the format peek) raised UnicodeDecodeError
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"line {line}: not valid UTF-8 \\(byte 0xe9\\)"):
        ingest(path, "accuracy")


@pytest.mark.parametrize("case", NOT_UTF8)
def test_a_bad_byte_past_the_first_batch_names_its_line(tmp_path, case):
    name, data, line = NOT_UTF8[case]
    data, message = past_first_batch(data, f"line {line}: not valid UTF-8 \\(byte 0xe9\\)")
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(ParseError, match=message):
        ingest(path, "accuracy")


SIDECAR_NOT_UTF8 = b'{"id": "a", "scores": [0.5, 0.5]}\n{"id": "b\xe9", "scores": [1, 0]}\n'


def _sidecar_not_utf8(tmp_path, data, message):
    pool, side = tmp_path / "pool.csv", tmp_path / "scores.jsonl"
    pool.write_text("id,proxy\na,0.1\nb,0.5\n")
    side.write_bytes(data)
    with pytest.raises(ParseError, match=f"{side} {message}"):
        ingest(pool, "cross_entropy", scores_path=side)


def test_a_sidecar_that_is_not_utf8_names_its_line(tmp_path):
    _sidecar_not_utf8(tmp_path, SIDECAR_NOT_UTF8, "line 2: not valid UTF-8")


def test_a_sidecar_bad_byte_past_the_first_batch_names_its_line(tmp_path):
    _sidecar_not_utf8(tmp_path, *past_first_batch(SIDECAR_NOT_UTF8, "line 2: not valid UTF-8"))


@pytest.mark.parametrize("head,end", [
    ("id,proxy", "\n"), ('"id",proxy', "\n"), ("id,proxy", "\r\n"),
], ids=["bulk", "quoted", "crlf"])
def test_a_field_longer_than_the_csv_limit_names_its_line(tmp_path, head, end):
    # before, the csv module's own error escaped as a traceback
    path = tmp_path / "pool.csv"
    rows = [head, "# c", "a,0.1", "b" * (csv.field_size_limit() + 1) + ",0.5", "c,0.2"]
    path.write_bytes((end.join(rows) + end).encode())
    with pytest.raises(ParseError, match=f"{path} line 4: field larger than field limit"):
        ingest(path, "accuracy")


@pytest.mark.parametrize("far", [False, True], ids=["next-line", "past-a-batch"])
@pytest.mark.parametrize("head,end", [
    ("id,proxy", "\n"), ('"id",proxy', "\n"), ("id,proxy", "\r\n"),
], ids=["bulk", "quoted", "crlf"])
def test_a_bad_byte_after_a_field_longer_than_the_csv_limit_wins(tmp_path, head, end, far):
    # a decode of the whole file before any parsing put a bad byte anywhere ahead
    # of a field too long for the csv module; decoded a slice at a time, it still is
    path = tmp_path / "pool.csv"
    rows = [head, "# c", "a,0.1", "b" * (csv.field_size_limit() + 1) + ",0.5", "c,0.2"]
    pad = [PAD.rstrip("\n")] * (PAD_LINES if far else 0)
    data = (end.join(rows + pad) + end).encode() + b"caf\xe9,0.3" + end.encode()
    path.write_bytes(data)
    line = len(rows) + len(pad) + 1
    with pytest.raises(ParseError, match=f"{path} line {line}: not valid UTF-8 \\(byte 0xe9\\)"):
        ingest(path, "accuracy")


# Peak of the traced allocations of `ingest` on the pool below, measured with
# the CSV decoded a slice at a time and the ids built a batch at a time into
# one UTF-8 column (hashed for the repeat test, then encoded, their strs
# dropped), plus 10%: 5.95 MB on Python 3.11 and numpy 2 (3.20 MB held after
# ingest).  Holding the ids as a tuple of str peaked at 9.98 MB (8.00 MB
# held), decoding the whole file first and testing the ids with a set at
# 16.07 MB, and reading the whole file as one batch at 25.4 MB.
INGEST_PEAK_BOUND_MB = 6.55

# Peak of the traced allocations of building the id column below, per id,
# plus 10%: 31.0 bytes on Python 3.11 and numpy 2, as the batches' hashes,
# UTF-8 and id lengths (8, 7 and 8 bytes an id) are joined one column after
# another, each batch released as it is copied, and the offsets (8 bytes an
# id) are then summed from the lengths; the column then holds 14.9.  This test
# makes the ids' str objects inside the traced span, a batch at a time: a
# tuple of them takes about 64 bytes an id, which the test of the tuple
# did not count (its ids were made before tracing, and it bounded the
# tuple and the hashes at 20 bytes an id).
ID_COLUMN_PEAK_BOUND_BYTES = 34


def test_an_id_column_holds_no_str_per_id():
    # a reader hands the column one batch of cells at a time and drops it;
    # each batch is encoded and its strs dropped, so only arrays of a few
    # bytes an id are alive at the peak, and the column keeps its bytes and
    # offsets alone
    n = 100_000
    tracemalloc.start()
    try:
        column = tables.Converted("id", tables.id_cells)
        for start in range(0, n, idcolumn._ID_BATCH):
            column.add([f"u{i}" for i in range(start, min(start + idcolumn._ID_BATCH, n))], str)
        uids = column.values(partial(tables.id_column, where=str))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert list(uids) == [f"u{i}" for i in range(n)]
    assert held <= 1.05 * (uids.data.nbytes + uids.offsets.nbytes)
    assert peak <= ID_COLUMN_PEAK_BOUND_BYTES * n


def test_ingest_memory_peak_is_bounded(tmp_path):
    n = 100_000
    rng = np.random.default_rng(0)
    proxy = rng.random(n)
    loss = (rng.random(n) < proxy).astype(int)
    path = tmp_path / "pool.csv"
    path.write_text("# pool\nid,proxy,loss\n" + "".join(
        f"u{i:06d},{p!r},{z}\n" for i, (p, z) in enumerate(zip(proxy.tolist(), loss.tolist()))
    ))
    tracemalloc.start()
    try:
        pop = ingest(path, "accuracy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pop.size == n
    assert peak / 1e6 <= INGEST_PEAK_BOUND_MB


# Peak of the traced allocations of writing the calibrated.csv below, measured
# with the rows written a batch at a time, plus 10%: 1.74 MB on Python 3.11 and
# numpy 2.  Writing the whole text at once, as calibrate did before,
# peaked at 21.3 MB.
WRITE_PEAK_BOUND_MB = 1.91


def test_csv_write_memory_peak_is_bounded(tmp_path, monkeypatch):
    n = 50_000
    rng = np.random.default_rng(1)
    pop = Population(ids=tuple(f"u{i:06d}" for i in range(n)), proxy=rng.random(n),
                     loss=np.where(rng.random(n) < 0.1, np.nan, rng.random(n) < 0.5),
                     loss_kind=LossKind.ACCURACY, proxy_cal=rng.random(n))
    path = tmp_path / "calibrated.csv"
    tracemalloc.start()
    try:
        tables.write_csv(path, "# config\n", *pop.canonical_table())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= WRITE_PEAK_BOUND_MB
    # written in batches, the file has the bytes of every row written in one batch
    monkeypatch.setattr(tables, "_CSV_WRITE_ROWS", n)
    whole = tmp_path / "whole.csv"
    tables.write_csv(whole, "# config\n", *pop.canonical_table())
    assert path.read_bytes() == whole.read_bytes()


# -- the id rule ---------------------------------------------------------------

# each reader gets a file whose fourth physical line carries the id
READERS = {
    "csv": ("pool.csv", lambda uid: "# c\nid,proxy\na,0.1\n" + _csv_row(uid, "0.5"),
            lambda p: ingest(p, "accuracy")),
    "jsonl": ("pool.jsonl", lambda uid: '# c\n\n{"id": "a", "proxy": 0.1}\n'
              + json.dumps({"id": uid, "proxy": 0.5}) + "\n",
              lambda p: ingest(p, "accuracy")),
    "sidecar": ("scores.jsonl", lambda uid: '# c\n\n{"id": "a", "scores": [1.0]}\n'
                + json.dumps({"id": uid, "scores": [1.0]}) + "\n",
                lambda p: ingest(_two_unit_pool(p.parent), "accuracy", scores_path=p)),
    "calibrated": ("calibrated.csv", lambda uid: "# c\nid,proxy,proxy_cal,loss\na,0.1,0.2,\n"
                   + _csv_row(uid, "0.5,0.4,1"), lambda p: ingest(p, "accuracy")),
    "worksheet": ("worksheet.csv", lambda uid: "# c\nid,stratum,pi\na,0,0.5\n"
                  + _csv_row(uid, "0,0.5"), load_worksheet),
    "annotated": ("annotated.csv", lambda uid: "# c\nid,stratum,pi,loss\na,0,0.5,1\n"
                  + _csv_row(uid, "0,0.5,"), load_worksheet),
}


def _csv_row(uid, rest):
    return '"' + uid.replace('"', '""') + '",' + rest + "\n"


def _two_unit_pool(d):
    path = d / "two.csv"
    path.write_text("id,proxy\na,0.1\nb,0.5\n")
    return path


def _reject(tmp_path, reader, uid):
    name, text, read = READERS[reader]
    path = tmp_path / name
    path.write_text(text(uid))
    with pytest.raises(ParseError, match="line 4: bad id"):
        read(path)


@pytest.mark.parametrize("reader", READERS)
def test_empty_id_rejected(tmp_path, reader):
    _reject(tmp_path, reader, "   ")


@pytest.mark.parametrize("reader", READERS)
def test_hash_id_rejected(tmp_path, reader):
    # such a row would be written out and then skipped as a comment
    _reject(tmp_path, reader, " #7")


@pytest.mark.parametrize("reader", READERS)
def test_line_feed_in_id_rejected(tmp_path, reader):
    _reject(tmp_path, reader, "u3\nx")


@pytest.mark.parametrize("reader", READERS)
def test_carriage_return_in_id_rejected(tmp_path, reader):
    _reject(tmp_path, reader, "u3\rx")


@pytest.mark.parametrize("uid", ["   ", " #7", "u3\nx", "u3\rx"], ids=["empty", "hash", "lf", "cr"])
@pytest.mark.parametrize("reader", READERS)
def test_a_bad_id_past_the_first_batch_names_its_line(tmp_path, reader, uid):
    name, text, read = READERS[reader]
    path = tmp_path / name
    text, message = past_first_batch(text(uid), "line 4: bad id")
    path.write_text(text)
    with pytest.raises(ParseError, match=message):
        read(path)


def test_ids_are_stripped_in_every_reader(tmp_path):
    p = tmp_path / "pool.jsonl"
    p.write_text(json.dumps({"id": " a b ", "proxy": 0.5}) + "\n")
    assert tuple(ingest(p, "accuracy").ids) == ("a b",)
    p = tmp_path / "w.csv"
    p.write_text("id,stratum,pi\n a b ,0,0.5\n")
    assert tuple(load_worksheet(p).ids) == ("a b",)


@pytest.mark.parametrize("uid", ["#7", "u3\nx"])
def test_cli_refuses_a_pool_whose_ids_cannot_round_trip(tmp_path, capsys, uid):
    # before the id rule, "#7" vanished from calibrated.csv and "u3\nx"
    # broke the worksheet that plan itself wrote
    ids = [f"u{i}" for i in range(40)]
    ids[7] = uid
    src = tmp_path / "pool.jsonl"
    src.write_text("".join(
        json.dumps({"id": u, "proxy": i / 40, "loss": i % 2}) + "\n" for i, u in enumerate(ids)
    ))
    for sub in (["calibrate"], ["plan", "--budget", "10", "--strata", "2"]):
        rc = main([*sub, "--input", str(src), "--out", str(tmp_path / sub[0])])
        assert rc == 2
        assert "line 8: bad id" in capsys.readouterr().err


# the writers hold ids to the same rule, so what they write reads back
WRITERS = {
    "canonical_table": lambda ids: Population(
        ids=ids, proxy=np.full(3, 0.5), loss=np.full(3, np.nan), loss_kind=LossKind.ACCURACY
    ).canonical_table(),
    "worksheet_table": lambda ids: worksheet_table(SampleDraw(
        indices=np.arange(3), ids=ids, strata=np.zeros(3), pi=np.full(3, 0.5),
    )),
    "partition_table": lambda ids: partition_table(StrataPartition(np.zeros(3), 1), ids),
}


@pytest.mark.parametrize("writer", WRITERS)
@pytest.mark.parametrize("uid", ["#7", "", " a", "a ", "u3\nx", "u3\rx"],
                         ids=["hash", "empty", "leading-space", "trailing-space", "lf", "cr"])
def test_writers_refuse_ids_that_would_not_read_back(writer, uid):
    # before, the pool writer wrote "#7" as a comment line and ingest dropped the unit
    with pytest.raises(PreconditionError, match="cannot write id"):
        WRITERS[writer]((uid, "b", "c"))


@pytest.mark.parametrize("name,text,read,line", [
    ("pool.csv", "id,proxy\n# c\na,0.1\nb,0.5\na,0.9\n", lambda p: ingest(p, "accuracy"), 5),
    ("scores.jsonl", '{"id": "a", "scores": [1.0]}\n# c\n{"id": "b", "scores": [1.0]}\n'
     '{"id": "a", "scores": [1.0]}\n',
     lambda p: ingest(_two_unit_pool(p.parent), "accuracy", scores_path=p), 4),
    ("worksheet.csv", "id,stratum,pi\n# c\na,0,0.5\nb,0,0.5\na,0,0.5\n", load_worksheet, 5),
], ids=["pool", "sidecar", "worksheet"])
def test_a_repeated_id_names_its_line(tmp_path, name, text, read, line):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ParseError, match=f"line {line}: duplicate id 'a'"):
        read(p)


def test_equal_hashes_of_distinct_ids_are_not_a_repeat(tmp_path, monkeypatch):
    # with every hash equal, the repeat test always finds two equal hashes:
    # distinct ids must still pass, and a true repeat must still be named
    monkeypatch.setattr(idcolumn, "hash", lambda _: 7, raising=False)
    assert tables.first_repeat(("a", "b")) == -1
    assert tuple(tables.ids([" a", "b ", "c"], str)) == ("a", "b", "c")
    pool = tmp_path / "pool.csv"
    pool.write_text("id,proxy\n# c\na,0.1\nb,0.5\nc,0.9\n")
    assert tuple(ingest(pool, "accuracy").ids) == ("a", "b", "c")
    # a sidecar's records are placed row for row, and an id the pool lacks is named
    side = tmp_path / "scores.jsonl"
    side.write_text('{"id": "c", "label": 0, "scores": [1.0, 0.0]}\n# c\n'
                    '{"id": "a", "label": 1, "scores": [0.25, 0.75]}\n')
    pop = ingest(pool, "accuracy", scores_path=side)
    assert pop.labels.tolist() == [1, -1, 0]
    assert pop.scores[[0, 2]].tolist() == [[0.25, 0.75], [1.0, 0.0]]
    assert np.isnan(pop.scores[1]).all()
    side.write_text('{"id": "c", "scores": [1.0]}\n# c\n{"id": "d", "scores": [1.0]}\n')
    with pytest.raises(ConsistencyError, match=f"{side} line 3: id 'd' not present in the dataset"):
        ingest(pool, "accuracy", scores_path=side)
    assert tuple(Population(ids=("a", "b", "c"), proxy=[0.1, 0.2, 0.3], loss=[0.0, 1.0, 0.0],
                            loss_kind=LossKind.ACCURACY).ids) == ("a", "b", "c")
    pool.write_text("id,proxy\n# c\na,0.1\nb,0.5\na,0.9\n")
    with pytest.raises(ParseError, match=f"{pool} line 5: duplicate id 'a'"):
        ingest(pool, "accuracy")
    with pytest.raises(ParseError, match="^duplicate id 'b'$"):
        Population(ids=("a", "b", "c", "b"), proxy=[0.1, 0.2, 0.3, 0.4],
                   loss=[0.0, 1.0, 0.0, 1.0], loss_kind=LossKind.ACCURACY)


# -- line numbers in errors ----------------------------------------------------

LINE_ERRORS = [
    ("pool.csv", "id,proxy,loss\n# c\na,0.1,0\nb,x,0\n", "line 4: cannot parse proxy"),
    ("pool.csv", "id,proxy,loss\n\na,0.1,0\nb,1.5,0\n", "line 4: proxy 1.5 outside"),
    ("pool.csv", "id,proxy,loss\n\na,0.1,0\nb,0.5,0.5\n", "line 4: accuracy loss must be 0 or 1"),
    ("pool.csv", "id,proxy,loss\n\na,0.1,0\nb,0.5,nan\n", "line 4: loss nan is not finite"),
    ("pool.csv", "id,proxy,loss\n\na,0.1,0\nb,0.5\n", "line 4: expected 3 fields, got 2"),
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":"x"}\n', "line 4: cannot parse"),
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":-1}\n', "line 4: proxy -1.0 outside"),
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":0.5,"loss":1e400}\n',
     "line 4: loss inf is not finite"),
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":0.5,"loss":2}\n',
     "line 4: accuracy loss must be 0 or 1"),
    # a proxy_cal that only later records carry would not line up with the ids
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":0.5,"proxy_cal":0.5}\n',
     "line 4: proxy_cal present in some records but not all"),
    # before, an unknown field was dropped: a misspelt loss left the unit unannotated
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":0.5,"los":1}\n',
     "line 4: unknown field 'los'"),
    ("pool.jsonl", '{"id":"a","proxy":0.1,"loss":0}\n\n\n{"id":"b","proxy":0.5,"embedding":[1]}\n',
     "line 4: unknown field 'embedding'"),
    # the earlier record checks keep their precedence over an unknown field
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":0.5,"proxy_cal":0.5,"x":1}\n',
     "line 4: proxy_cal present in some records but not all"),
    # numeric fields must be JSON numbers: before, each went through str() and was parsed
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":"0.5"}\n',
     "line 4: cannot parse proxy='0.5' as a number"),
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":true}\n',
     "line 4: cannot parse proxy=True as a number"),
    ("pool.jsonl", '{"id":"a","proxy":0.1,"proxy_cal":0.2}\n\n\n{"id":"b","proxy":0.5,"proxy_cal":[0.5]}\n',
     r"line 4: cannot parse proxy_cal=\[0.5\] as a number"),
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":0.5,"loss":"1"}\n',
     "line 4: cannot parse loss='1' as a number"),
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":0.5,"loss":""}\n',
     "line 4: cannot parse loss='' as a number"),
    pytest.param("pool.jsonl",
                 '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":0.5,"loss":1' + "0" * 400 + "}\n",
                 "line 4: cannot parse loss=10000", id="loss-too-large-for-a-float"),
    ("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":0.5\n',
     "line 4: invalid JSON"),
    # an id must be a JSON string: before, each went through str(), so 1 read as '1'
    *(pytest.param("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":%s,"proxy":0.5}\n' % uid,
                   r"line 4: bad id %s \(a JSONL id must be a JSON string\)" % re.escape(shown),
                   id=f"id-{name}")
      for name, uid, shown in (("number", "1", "1"), ("null", "null", "None"),
                               ("bool", "true", "True"), ("array", "[1]", "[1]"))),
    # before, these two escaped as a ValueError and a RecursionError traceback
    pytest.param("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n{"id":"b","proxy":1' + "0" * 5000 + "}\n",
                 r"line 4: invalid JSON \(Exceeds the limit", id="integer-with-too-many-digits"),
    pytest.param("pool.jsonl", '{"id":"a","proxy":0.1}\n\n\n' + "[" * 10**5 + "]" * 10**5 + "\n",
                 r"line 4: invalid JSON \(maximum recursion depth exceeded", id="nested-too-deep"),
]


@pytest.mark.parametrize("name,text,message", LINE_ERRORS)
def test_pool_errors_name_the_physical_line(tmp_path, name, text, message):
    p = tmp_path / name
    p.write_text(text)
    with pytest.raises(ParseError, match=message):
        ingest(p, "accuracy")


@pytest.mark.parametrize("name,text,message", LINE_ERRORS)
def test_pool_errors_past_the_first_batch_name_the_physical_line(tmp_path, name, text, message):
    p = tmp_path / name
    text, message = past_first_batch(text, message)
    p.write_text(text)
    with pytest.raises(ParseError, match=message):
        ingest(p, "accuracy")


@pytest.mark.parametrize("text,message", [
    ("id,stratum,pi\n# c\na,0,0.5\nb,x,0.5\n", "line 4: cannot parse stratum"),
    ("id,stratum,pi\n# c\na,0,0.5\nb,0,0\n", r"line 4: pi 0.0 outside \(0, 1\]"),
    ("id,stratum,pi\n# c\na,0,0.5\nb,0\n", "line 4: expected 3 fields, got 2"),
    ("id,stratum,pi,loss\n# c\na,0,0.5,1\nb,0,0.5,x\n", "line 4: cannot parse loss"),
])
def test_worksheet_errors_name_the_physical_line(tmp_path, text, message):
    p = tmp_path / "w.csv"
    p.write_text(text)
    with pytest.raises(ParseError, match=message):
        load_worksheet(p)


def test_estimate_names_the_worksheet_line_of_a_bad_loss(tmp_path, capsys):
    src = tmp_path / "pool.csv"
    src.write_text("id,proxy\n" + "".join(f"u{i},0.5\n" for i in range(4)))
    ws = tmp_path / "ws.csv"
    ws.write_text("# c\nid,stratum,pi,loss\nu0,0,0.5,1\nu1,0,0.5,0.5\n")
    rc = main(["estimate", "--input", str(src), "--worksheet", str(ws), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert f"{ws} line 4: accuracy loss must be 0 or 1" in capsys.readouterr().err


# the sidecar's third physical line carries the record under test
SIDECAR_ERRORS = {
    "not-an-object": ("5", "line 3: record must be a JSON object"),
    "label-string": ('{"id": "u1", "label": "x", "scores": [0.5, 0.5]}',
                     "line 3: label 'x' is not an integer in [0, 2)"),
    "label-float": ('{"id": "u1", "label": 1.7, "scores": [0.5, 0.5]}',
                    "line 3: label 1.7 is not an integer in [0, 2)"),
    "label-bool": ('{"id": "u1", "label": true, "scores": [0.5, 0.5]}',
                   "line 3: label True is not an integer in [0, 2)"),
    "label-range": ('{"id": "u1", "label": 2, "scores": [0.5, 0.5]}',
                    "line 3: label 2 is not an integer in [0, 2)"),
    "class-count": ('{"id": "u1", "scores": [0.2, 0.3, 0.5]}',
                    "line 3: 3 class scores, but the first record has 2"),
    # before, these were read as [1.0, 0.0] and [0.25, 0.75], and a huge integer
    # escaped as an OverflowError
    "scores-bool": ('{"id": "u1", "scores": [true, false]}',
                    "line 3: cannot parse scores=True as a number"),
    "scores-string": ('{"id": "u1", "scores": ["0.25", "0.75"]}',
                      "line 3: cannot parse scores='0.25' as a number"),
    "scores-huge-int": ('{"id": "u1", "scores": [1' + "0" * 400 + ', 0]}',
                        "line 3: cannot parse scores=10000"),
    "unknown-id": ('{"id": "u9", "scores": [0.5, 0.5]}',
                   "line 3: id 'u9' not present in the dataset"),
    "duplicate-id": ('{"id": "u0", "scores": [0.5, 0.5]}', "line 3: duplicate id 'u0'"),
    # before, a non-string id went through str(), so 1 matched a pool id "1"
    "id-number": ('{"id": 1, "scores": [0.5, 0.5]}', "line 3: bad id 1 (a JSONL id must be"),
    "id-null": ('{"id": null, "scores": [0.5, 0.5]}', "line 3: bad id None (a JSONL id must be"),
    "id-bool": ('{"id": true, "scores": [0.5, 0.5]}', "line 3: bad id True (a JSONL id must be"),
    "id-array": ('{"id": [1], "scores": [0.5, 0.5]}', "line 3: bad id [1] (a JSONL id must be"),
    "no-scores": ('{"id": "u1", "label": 0}', "line 3: record needs 'scores'"),
    "empty-scores": ('{"id": "u1", "scores": []}', "line 3: scores must be a nonempty array"),
    # before, an unknown field was dropped: a misspelt label read as -1
    "unknown-field": ('{"id": "u1", "lable": 1, "scores": [0.5, 0.5]}',
                      "line 3: unknown field 'lable'"),
    "unknown-field-after-label": ('{"id": "u1", "label": 5, "x": 1, "scores": [0.5, 0.5]}',
                                  "line 3: label 5 is not an integer in [0, 2)"),
}


def _plan_with_sidecar(tmp_path, lines):
    src = tmp_path / "pool.csv"
    src.write_text("id,proxy\n" + "".join(f"u{i},0.25\n" for i in range(8)))
    side = tmp_path / "scores.jsonl"
    side.write_text("\n".join(lines) + "\n")
    return main(["plan", "--input", str(src), "--scores", str(side), "--out", str(tmp_path / "o"),
                 "--loss-kind", "squared_error", "--strategy", "neyman", "--strata", "2",
                 "--budget", "4"])


@pytest.mark.parametrize("case", SIDECAR_ERRORS)
def test_sidecar_refuses_a_malformed_record(tmp_path, capsys, case):
    record, message = SIDECAR_ERRORS[case]
    rc = _plan_with_sidecar(tmp_path, ['{"id": "u0", "label": 0, "scores": [0.5, 0.5]}', "# c", record])
    assert rc == (4 if case == "unknown-id" else 2)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("case", SIDECAR_ERRORS)
def test_sidecar_refuses_a_malformed_record_past_the_first_batch(tmp_path, capsys, case):
    record, message = SIDECAR_ERRORS[case]
    text, message = past_first_batch(
        '{"id": "u0", "label": 0, "scores": [0.5, 0.5]}\n# c\n' + record, message)
    rc = _plan_with_sidecar(tmp_path, text.split("\n"))
    assert rc == (4 if case == "unknown-id" else 2)
    assert message in capsys.readouterr().err


def test_sidecar_scores_error_names_the_first_bad_record_in_file_order(tmp_path, capsys):
    rc = _plan_with_sidecar(tmp_path, [
        '{"id": "u0", "scores": [0.5, 0.5]}',
        '{"id": "u7", "scores": [0.5, 0.6]}',
        '{"id": "u1", "scores": [-0.5, 1.5]}',
    ])
    assert rc == 2
    assert "line 2: bad scores" in capsys.readouterr().err


# -- JSONL read a batch at a time -----------------------------------------------

JSON_UNIT = st.one_of(UNIT, st.sampled_from([0, 1]))  # a JSON number may be an integer
FILLER = st.sampled_from(["# a comment", "", "  ", "\t", "#"])


@st.composite
def jsonl_files(draw):
    """A valid JSONL pool and class-score sidecar, as text, with comment, blank and CRLF lines."""
    ids = draw(IDS)
    n = len(ids)
    has_cal = draw(st.booleans())
    records = []
    for uid in ids:
        rec = {"id": draw(st.sampled_from(["", " "])) + uid, "proxy": draw(JSON_UNIT)}
        loss = draw(st.one_of(st.just("absent"), st.none(), JSON_UNIT))
        if loss != "absent":
            rec["loss"] = loss
        if has_cal:
            rec["proxy_cal"] = draw(JSON_UNIT)
        records.append(json.dumps(rec))
    k = draw(st.integers(1, 4))
    weights = st.lists(st.integers(0, 5), min_size=k, max_size=k).filter(any)
    scored = draw(st.permutations(ids))[: draw(st.integers(1, n))]
    side = []
    for uid in scored:
        w = draw(weights)
        rec = {"id": uid, "scores": ([int(v == max(w)) for v in w] if w.count(max(w)) == 1
                                     else [v / sum(w) for v in w])}
        label = draw(st.one_of(st.just("absent"), st.none(), st.integers(0, k - 1)))
        if label != "absent":
            rec["label"] = label
        side.append(json.dumps(rec))

    def text(lines):
        out = []
        for line in lines:
            out += draw(st.lists(FILLER, max_size=2))
            out.append(line)
        ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(out),
                             max_size=len(out)))
        bom = draw(st.sampled_from(["", "\ufeff"]))
        return bom + "".join(map(str.__add__, out, ends))

    return text(records), text(side)


@settings(max_examples=150)
@given(files=jsonl_files(), batch=st.integers(1, 400))
def test_batched_jsonl_ingest_matches_the_record_by_record_oracle(scratch, files, batch):
    pool, side = scratch / "pool.jsonl", scratch / "scores.jsonl"
    pool.write_text(files[0], encoding="utf-8")
    side.write_text(files[1], encoding="utf-8")
    with mock.patch.object(tables, "_JSONL_BATCH_BYTES", batch):
        pop = ingest(pool, "squared_error", scores_path=side)
    want = oracles.ingest_jsonl(pool)
    labels, scores = oracles.attach_scores(want["ids"], side)
    assert tuple(pop.ids) == want["ids"]
    for name in ("proxy", "loss", "proxy_cal"):
        got = getattr(pop, name)
        assert (got is None) == (want[name] is None)
        if got is not None:  # bit for bit, NaN and -0.0 included
            assert got.shape == want[name].shape and got.tobytes() == want[name].tobytes()
    assert pop.labels.tobytes() == labels.tobytes()
    assert pop.scores.tobytes() == scores.tobytes()


def _fault(line, first_id, rng):
    """One malformed variant of a valid pool or sidecar record line."""
    rec = json.loads(line)
    key = "scores" if "scores" in rec else "proxy"
    faults = [
        "{" + line, "5", "[]", json.dumps({"id": rec["id"]}), json.dumps({key: rec[key]}),
        json.dumps({**rec, "id": " #x"}), json.dumps({**rec, "id": "zz"}),
        json.dumps({**rec, "id": first_id}), json.dumps({**rec, "id": 1}),
        json.dumps({**rec, key: "0.5"}), json.dumps({**rec, key: True}),
        json.dumps({**rec, key: [0.5, "x"]}), json.dumps({**rec, key: 10**400}),
        json.dumps({**rec, key: [1, 10**400]}), json.dumps({**rec, key: []}),
        json.dumps({**rec, key: 1.5}), json.dumps({**rec, key: [0.25, 0.25, 0.25, 0.25, 0.0]}),
        json.dumps({**rec, "loss": 7}), json.dumps({**rec, "loss": False}),
        json.dumps({**rec, "proxy_cal": 0.5}), json.dumps({**rec, "los": 1}),
        json.dumps({**rec, "label": 9}),
        json.dumps({**rec, "label": True}),
    ]
    return faults[int(rng.integers(len(faults)))]


def _outcome_of(read):
    try:
        read()
    except (ParseError, ConsistencyError) as e:
        return type(e).__name__, str(e)
    return None


@settings(max_examples=150)
@given(files=jsonl_files(), batch=st.integers(1, 400), seed=st.integers(0, 2**32 - 1),
       which=st.sampled_from([0, 1]), faults=st.integers(1, 2))
def test_the_error_a_jsonl_file_gets_does_not_depend_on_the_batches(scratch, files, batch, seed,
                                                                    which, faults):
    # the same error wins whether a batch holds one line or the whole file;
    # with one batch, every record goes through the record-by-record checks
    rng = np.random.default_rng(seed)
    files = list(files)
    lines = files[which].split("\n")
    at = [i for i, line in enumerate(lines) if line.lstrip("\ufeff").startswith("{")]
    first_id = json.loads(lines[at[0]].lstrip("\ufeff"))["id"]
    for i in rng.choice(at, size=min(faults, len(at)), replace=False):
        bom = "\ufeff" if lines[i].startswith("\ufeff") else ""
        end = "\r" if lines[i].endswith("\r") else ""
        lines[i] = bom + _fault(lines[i].lstrip("\ufeff").rstrip("\r"), first_id, rng) + end
    files[which] = "\n".join(lines)
    pool, side = scratch / "pool.jsonl", scratch / "scores.jsonl"
    pool.write_text(files[0], encoding="utf-8")
    side.write_text(files[1], encoding="utf-8")
    outcomes = []
    for size in (batch, 1 << 30):
        with mock.patch.object(tables, "_JSONL_BATCH_BYTES", size):
            outcomes.append(_outcome_of(lambda: ingest(pool, "squared_error", scores_path=side)))
    assert outcomes[0] == outcomes[1]


# Peak of the traced allocations of `ingest` on the pool and sidecar below,
# plus 10%: 2.02 MB on Python 3.11 and numpy 2, with the sidecar's records
# placed by the pool's sorted id hashes (16 bytes an id); 2.92 MB when they
# were placed by a dict of the decoded pool ids, 2.87 MB with every field
# gathered as a list of Python objects and converted at the end, and
# 3.26 MB at commit 6b73999, which read the records one at a time.  The
# batched read must not hold more at once.
JSONL_INGEST_PEAK_BOUND_MB = 2.22

# Peak of the traced allocations of `ingest` of the 10**5-record JSONL pool
# below, plus 10%: 6.28 MB on Python 3.11 and numpy 2.  Gathering each field
# as a list of Python objects, converted at the end, peaked at 17.7 MB.
JSONL_POOL_PEAK_BOUND_MB = 6.9


def test_jsonl_pool_ingest_memory_peak_is_bounded(tmp_path):
    n = 100_000
    rng = np.random.default_rng(0)
    proxy = rng.random(n)
    loss = (rng.random(n) < proxy).astype(int)
    path = tmp_path / "pool.jsonl"
    path.write_text("".join(f'{{"id": "u{i:06d}", "proxy": {p!r}, "loss": {z}}}\n'
                            for i, (p, z) in enumerate(zip(proxy.tolist(), loss.tolist()))))
    tracemalloc.start()
    try:
        pop = ingest(path, "accuracy")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pop.size == n and pop.ids[-1] == f"u{n - 1:06d}"
    assert pop.proxy.tobytes() == proxy.tobytes() and pop.loss.tolist() == loss.tolist()
    assert peak / 1e6 <= JSONL_POOL_PEAK_BOUND_MB


def test_jsonl_ingest_memory_peak_is_bounded(tmp_path):
    n, k = 10_000, 10
    rng = np.random.default_rng(0)
    scores = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(k, size=n)
    loss = (1.0 - scores[np.arange(n), labels]) ** 2
    proxy = np.einsum("ik,ik->i", scores, (1.0 - scores) ** 2)
    pool, side = tmp_path / "pool.jsonl", tmp_path / "scores.jsonl"
    pool.write_text("".join(
        f'{{"id": "u{i:05d}", "proxy": {p!r}, "loss": {z!r}}}\n'
        for i, (p, z) in enumerate(zip(proxy.tolist(), loss.tolist()))))
    side.write_text("".join(
        f'{{"id": "u{i:05d}", "label": {y}, "scores": {json.dumps(s)}}}\n'
        for i, (y, s) in enumerate(zip(labels.tolist(), scores.tolist()))))
    tracemalloc.start()
    try:
        pop = ingest(pool, "squared_error", scores_path=side)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 <= JSONL_INGEST_PEAK_BOUND_MB
    # the files span many batches of the real size; the values are the oracle's
    want = oracles.ingest_jsonl(pool)
    labels, scores = oracles.attach_scores(want["ids"], side)
    assert tuple(pop.ids) == want["ids"] and pop.proxy.tobytes() == want["proxy"].tobytes()
    assert pop.loss.tobytes() == want["loss"].tobytes()
    assert pop.scores.tobytes() == scores.tobytes() and pop.labels.tobytes() == labels.tobytes()


# -- CSV read a batch at a time -------------------------------------------------

LOSS_CELL = st.sampled_from(["0", "1", "0.25", "1.0", " 0.5 ", "", " ", "", "0", "nan"])
CSV_FAULTS = ["ragged", "bad-id", "duplicate-id", "unparsable", "out-of-range", "unknown-column"]


@st.composite
def csv_pools(draw, faults=0):
    """A CSV pool as text, with comment, blank, BOM, CRLF and quoted lines,
    blank and ``nan`` losses and maybe ``proxy_cal``, and ``faults`` of the
    kinds in CSV_FAULTS."""
    has_cal, has_loss = draw(st.booleans()), draw(st.booleans())
    header = ["id", "proxy", *["proxy_cal"] * has_cal, *["loss"] * has_loss]
    rows = []
    for uid in draw(IDS):
        row = [draw(st.sampled_from(["", " "])) + uid, repr(draw(UNIT))]
        row += [repr(draw(UNIT))] * has_cal + [draw(LOSS_CELL)] * has_loss
        rows.append(row)
    for _ in range(faults):
        fault, row = draw(st.sampled_from(CSV_FAULTS)), draw(st.sampled_from(rows))
        if fault == "ragged":
            row.append("0") if draw(st.booleans()) else row.pop()
        elif fault == "bad-id":
            row[0] = draw(st.sampled_from(["", "  ", "#x"]))
        elif fault == "duplicate-id":
            row[0] = rows[0][0]
        elif fault in ("unparsable", "out-of-range") and len(row) > 1:
            row[draw(st.integers(1, len(row) - 1))] = "x" if fault == "unparsable" else "1.5"
        elif fault == "unknown-column":
            header[-1] = "los"

    quote_some, crlf = draw(st.booleans()), draw(st.booleans())

    def cell(text):
        if (quote_some and draw(st.integers(0, 7)) == 0) or any(c in text for c in ',"'):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = []
    for row in [header, *rows]:
        lines += draw(st.lists(st.sampled_from(["# c", '# "a, b"', "", "  ", "\t", "\x0b", "\x1c",
                                                "\x85", "\xa0 ", "\u2028", "\u3000"]),
                               max_size=2))
        lines.append(",".join(map(cell, row)))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"] if crlf else ["\n"]),
                         min_size=len(lines), max_size=len(lines)))
    ends[-1] = draw(st.sampled_from(["\n", ""]))
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(map(str.__add__, lines, ends))


def _pool_outcome(read):
    """A pool's ids and columns as bytes, or the error it gets."""
    try:
        pop = read()
    except ParseError as e:
        return str(e)
    cal = None if pop.proxy_cal is None else pop.proxy_cal.tobytes()
    return pop.ids, pop.proxy.tobytes(), cal, pop.loss.tobytes()


def _table_outcome(read):
    try:
        t = read()
    except ParseError as e:
        return str(e)
    return t.header, t.header_line, list(t.lines), t.columns


@settings(max_examples=200)
@given(text=csv_pools(), batch=st.integers(1, 400))
def test_batched_csv_read_matches_the_whole_file_oracle(scratch, text, batch):
    path = scratch / "pool.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(tables, "_CSV_BATCH_BYTES", batch):
        table = _table_outcome(lambda: tables.read_csv(path))
        pool = _pool_outcome(lambda: ingest(path, "squared_error"))
    assert table == _table_outcome(lambda: oracles.read_csv(path))
    assert pool == _pool_outcome(lambda: oracles.ingest_csv(path, "squared_error"))


@settings(max_examples=200)
@given(text=csv_pools(faults=1) | csv_pools(faults=2), batch=st.integers(1, 400))
def test_the_error_a_csv_file_gets_does_not_depend_on_the_batches(scratch, text, batch):
    # the same error wins whether a batch holds one line or the whole file,
    # and it is the error of the whole-file read
    path = scratch / "pool.csv"
    path.write_bytes(text.encode())
    outcomes = []
    for size in (batch, 1 << 30):
        with mock.patch.object(tables, "_CSV_BATCH_BYTES", size):
            outcomes.append(_pool_outcome(lambda: ingest(path, "squared_error")))
    assert outcomes[0] == outcomes[1] == _pool_outcome(
        lambda: oracles.ingest_csv(path, "squared_error"))
