import json
import math

import numpy as np
import pytest

from strateval.dataset import Population, attach_scores, ingest
from strateval.errors import ConsistencyError, ParseError, PreconditionError
from strateval.losses import LossKind
from strateval.tables import write_csv


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def canonical(tmp_path, name, pop):
    """The canonical CSV of ``pop``, as the one table writer writes it to ``name``."""
    p = tmp_path / name
    write_csv(p, "", *pop.canonical_table())
    return p.read_text()


BASIC = "id,proxy,loss\na,0.1,0\nb,0.5,1\nc,0.9,\n"


def test_ingest_basic_csv(tmp_path):
    pop = ingest(write(tmp_path, "d.csv", BASIC), "accuracy")
    assert pop.size == 3
    assert tuple(pop.ids) == ("a", "b", "c")
    assert pop.proxy.tolist() == [0.1, 0.5, 0.9]
    assert pop.loss[0] == 0 and pop.loss[1] == 1 and math.isnan(pop.loss[2])
    assert not pop.has_all_losses


def test_ingest_preserves_file_order(tmp_path):
    text = "id,proxy\nz,0.9\nm,0.2\na,0.5\n"
    pop = ingest(write(tmp_path, "d.csv", text), "accuracy")
    assert tuple(pop.ids) == ("z", "m", "a")


def test_round_trip_is_identity(tmp_path):
    pop = ingest(write(tmp_path, "d.csv", BASIC), "accuracy")
    text = canonical(tmp_path, "rt.csv", pop)
    pop2 = ingest(tmp_path / "rt.csv", "accuracy")
    assert canonical(tmp_path, "rt2.csv", pop2) == text
    assert pop2.ids == pop.ids
    assert np.array_equal(pop2.proxy, pop.proxy)
    assert np.array_equal(pop2.loss, pop.loss, equal_nan=True)


def test_same_file_twice_bitwise_equal(tmp_path):
    p = write(tmp_path, "d.csv", BASIC)
    first = canonical(tmp_path, "a.csv", ingest(p, "accuracy"))
    assert canonical(tmp_path, "b.csv", ingest(p, "accuracy")) == first


def test_round_trip_with_cal(tmp_path):
    text = (
        "id,proxy,proxy_cal,loss\n"
        "a,0.1,0.15,0\n"
        "b,0.7,0.6,\n"
    )
    pop = ingest(write(tmp_path, "d.csv", text), "accuracy")
    assert pop.proxy_cal.tolist() == [0.15, 0.6]
    text = canonical(tmp_path, "rt.csv", pop)
    pop2 = ingest(tmp_path / "rt.csv", "accuracy")
    assert canonical(tmp_path, "rt2.csv", pop2) == text


def test_comment_lines_skipped_and_line_numbers_physical(tmp_path):
    text = "# run config here\nid,proxy\n# another comment\na,0.3\nb,oops\n"
    p = write(tmp_path, "d.csv", text)
    with pytest.raises(ParseError, match="line 5"):
        ingest(p, "accuracy")


def test_duplicate_id_rejected(tmp_path):
    p = write(tmp_path, "d.csv", "id,proxy\na,0.1\na,0.2\n")
    with pytest.raises(ParseError, match="duplicate id"):
        ingest(p, "accuracy")


def test_proxy_out_of_range_names_line(tmp_path):
    p = write(tmp_path, "d.csv", "id,proxy\na,0.2\nb,1.3\n")
    with pytest.raises(ParseError, match="line 3"):
        ingest(p, "accuracy")


def test_cross_entropy_allows_unbounded_proxy(tmp_path):
    p = write(tmp_path, "d.csv", "id,proxy,loss\na,2.7,\nb,0.0,1.5\n")
    pop = ingest(p, "cross_entropy")
    assert pop.proxy[0] == 2.7
    with pytest.raises(ParseError):
        ingest(p, "accuracy")  # same file invalid under a bounded kind


def test_loss_range_checked_per_kind(tmp_path):
    p = write(tmp_path, "d.csv", "id,proxy,loss\na,0.5,0.5\n")
    assert ingest(p, "squared_error").loss[0] == 0.5
    with pytest.raises(ParseError, match="0 or 1"):
        ingest(p, "accuracy")


def test_unknown_column_rejected(tmp_path):
    p = write(tmp_path, "d.csv", "id,proxy,score\na,0.5,1\n")
    with pytest.raises(ParseError, match="line 1: unknown column 'score'"):
        ingest(p, "accuracy")


def test_embedding_column_is_unknown(tmp_path):
    p = write(tmp_path, "d.csv", "id,proxy,emb_0,emb_1\na,0.5,1,2\n")
    with pytest.raises(ParseError, match="line 1: unknown column 'emb_0'"):
        ingest(p, "accuracy")


def test_ragged_row_rejected(tmp_path):
    p = write(tmp_path, "d.csv", "id,proxy,loss\na,0.5\n")
    with pytest.raises(ParseError, match="line 2"):
        ingest(p, "accuracy")


def test_missing_file():
    with pytest.raises(ParseError, match="no such file"):
        ingest("definitely/not/here.csv", "accuracy")


def test_jsonl_matches_csv(tmp_path):
    csv_pop = ingest(write(tmp_path, "d.csv", BASIC), "accuracy")
    lines = [
        {"id": "a", "proxy": 0.1, "loss": 0},
        {"id": "b", "proxy": 0.5, "loss": 1},
        {"id": "c", "proxy": 0.9},
    ]
    p = write(tmp_path, "d.jsonl", "".join(json.dumps(r) + "\n" for r in lines))
    jpop = ingest(p, "accuracy")
    assert canonical(tmp_path, "j.csv", jpop) == canonical(tmp_path, "c.csv", csv_pop)


def test_jsonl_embedding_field_is_unknown(tmp_path):
    lines = [
        {"id": "a", "proxy": 0.1, "loss": 1},
        {"id": "b", "proxy": 0.2, "embedding": [1, 2]},
    ]
    p = write(tmp_path, "d.jsonl", "".join(json.dumps(r) + "\n" for r in lines))
    with pytest.raises(ParseError, match="line 2: unknown field 'embedding'"):
        ingest(p, "accuracy")


def test_jsonl_sniffed_without_extension(tmp_path):
    p = write(tmp_path, "data.txt", '{"id":"a","proxy":0.4}\n')
    assert tuple(ingest(p, "accuracy").ids) == ("a",)


def test_scores_sidecar(tmp_path):
    d = write(tmp_path, "d.csv", BASIC)
    s = write(
        tmp_path,
        "s.jsonl",
        json.dumps({"id": "a", "label": 1, "scores": [0.3, 0.7]}) + "\n",
    )
    pop = ingest(d, "accuracy", scores_path=s)
    assert pop.labels[0] == 1
    assert pop.labels[1] == -1
    assert np.allclose(pop.scores[0], [0.3, 0.7])
    assert pop.scores.shape == (pop.size, 2) and not pop.scores.flags.writeable
    assert np.isnan(pop.scores[1]).all()


def test_scores_sidecar_unknown_id_is_consistency_error(tmp_path):
    d = write(tmp_path, "d.csv", BASIC)
    s = write(tmp_path, "s.jsonl", '{"id":"nope","label":0,"scores":[1.0]}\n')
    with pytest.raises(ConsistencyError):
        ingest(d, "accuracy", scores_path=s)


def test_finite_mean_requires_all_losses(tmp_path):
    pop = ingest(write(tmp_path, "d.csv", BASIC), "accuracy")
    with pytest.raises(PreconditionError, match="1 unit"):
        pop.finite_mean()
    full = Population(ids=pop.ids, proxy=pop.proxy, loss=[1.0, 0.0, 1.0],
                      loss_kind=pop.loss_kind)
    assert full.finite_mean() == pytest.approx(2 / 3)


def test_take_subsets_in_given_order(tmp_path):
    pop = ingest(write(tmp_path, "d.csv", BASIC), "accuracy")
    sub = pop.take([2, 0])
    assert tuple(sub.ids) == ("c", "a")
    assert sub.proxy.tolist() == [0.9, 0.1]


def test_ids_are_checked_where_they_can_repeat(tmp_path):
    # construction and a take with a repeated index (also as a negative
    # one) are refused; copies that keep the ids skip the check.  The error
    # names the first position that repeats an earlier id, as a reader does
    with pytest.raises(ParseError, match="duplicate id 'a'"):
        Population(ids=("a", "b", "a"), proxy=[0.1, 0.2, 0.3], loss=[0.0, 1.0, 0.0],
                   loss_kind=LossKind.ACCURACY)
    with pytest.raises(ParseError, match="^duplicate id 'b'$"):
        Population(ids=("a", "b", "b", "a"), proxy=[0.1, 0.2, 0.3, 0.4],
                   loss=[0.0, 1.0, 0.0, 1.0], loss_kind=LossKind.ACCURACY)
    pop = ingest(write(tmp_path, "d.csv", BASIC), "accuracy")
    with pytest.raises(ParseError, match="^duplicate id 'b'$"):
        pop.take([0, 1, 1, 0])
    with pytest.raises(ParseError, match="duplicate id 'c'"):
        pop.take([2, 0, 2])
    with pytest.raises(ParseError, match="duplicate id 'a'"):
        pop.take([0, 1, -3])
    with pytest.raises(ParseError, match="duplicate id 'a'"):
        pop.take([-3, 0])  # increasing, but the same unit
    assert tuple(pop.take([2, -2, 0]).ids) == ("c", "b", "a")
    assert pop.with_proxy_cal([0.2, 0.4, 0.8]).ids == pop.ids


def test_get_proxy_column_selection(tmp_path):
    pop = ingest(write(tmp_path, "d.csv", BASIC), "accuracy")
    assert np.array_equal(pop.get_proxy("proxy"), pop.proxy)
    with pytest.raises(PreconditionError):
        pop.get_proxy("proxy_cal")
    cal = pop.with_proxy_cal([0.2, 0.4, 0.8])
    assert cal.get_proxy("proxy_cal").tolist() == [0.2, 0.4, 0.8]


def test_arrays_are_read_only(tmp_path):
    pop = ingest(write(tmp_path, "d.csv", BASIC), "accuracy")
    with pytest.raises(ValueError):
        pop.proxy[0] = 0.0
