import json
import logging
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from avex import attribute_embeddings
from avex.attribute_embeddings import (
    AttributeEmbeddingTable,
    collect_instances,
    ingest_contextualized,
    random_table,
    static_phrase_embedding,
    uncontextualized_table,
)
from avex.corpus import AttributeVocab, Product, build_corpus
from avex.errors import DataError
from avex.synth import generate
from avex.tagging import span_text, tags_to_spans
from test_acceptance import SHARING_SPEC


VECS = {
    "skin": np.array([1.0, 0.0]),
    "type": np.array([0.0, 1.0]),
    "dry": np.array([2.0, 0.0]),
    "sensitive": np.array([0.0, 4.0]),
}


def labeled_examples():
    vocab = AttributeVocab([("SkinType", None)])
    products = [Product("p1", "Dry, Sensitive skin wash", [], None,
                        {"SkinType": ["Dry", "Sensitive"]})]
    examples, _ = build_corpus(products, vocab)
    return vocab, examples


# -- pooling -----------------------------------------------------------------


def test_static_phrase_embedding_means_tokens():
    np.testing.assert_allclose(
        static_phrase_embedding("Skin Type", VECS, 2), [0.5, 0.5])


def test_static_phrase_embedding_skips_oov():
    np.testing.assert_allclose(
        static_phrase_embedding("skin zzz", VECS, 2), [1.0, 0.0])
    np.testing.assert_array_equal(
        static_phrase_embedding("zzz yyy", VECS, 2), [0.0, 0.0])


def test_collect_instances_one_per_span():
    vocab, examples = labeled_examples()
    assert collect_instances(examples, ["SkinType", "Color"]) == {
        "SkinType": ["Dry", "Sensitive"], "Color": []}


def test_uncontextualized_embedding_concatenates_halves():
    vocab, examples = labeled_examples()
    emb = uncontextualized_table(vocab, examples, VECS).get("SkinType")
    assert emb.shape == (4,)
    np.testing.assert_allclose(emb[:2], [0.5, 0.5])  # name half
    # Value half: mean of embed("Dry") = (2,0) and embed("Sensitive") = (0,4).
    np.testing.assert_allclose(emb[2:], [1.0, 2.0])


def test_uncontextualized_embedding_flags_no_instances(caplog):
    vocab, _ = labeled_examples()
    with caplog.at_level(logging.WARNING):
        emb = uncontextualized_table(vocab, [], VECS).get("SkinType")
    assert "SkinType has no labeled values" in caplog.text
    np.testing.assert_array_equal(emb[2:], [0.0, 0.0])


def reference_table(vocab, examples, vectors):
    """``uncontextualized_table`` with one phrase embedding per value occurrence."""
    dim = next(iter(vectors.values())).shape[0]
    table = {}
    for attr_id in vocab.ids():
        values = [span_text(ex.token_texts(), span) for ex in examples
                  if ex.attribute == attr_id for span in sorted(tags_to_spans(ex.tags))]
        value_part = (np.mean([static_phrase_embedding(v, vectors, dim) for v in values], axis=0)
                      if values else np.zeros(dim))
        table[attr_id] = np.concatenate(
            [static_phrase_embedding(vocab.phrase(attr_id), vectors, dim), value_part])
    return table


# "zzz qqq" has only out-of-vocabulary tokens; Color and Scent share values.
POOL_VALUES = ("dry", "oily skin", "zzz qqq", "red", "rose red", "sensitive", "Skin")
POOL_WORDS = ("dry", "oily", "skin", "red", "rose", "sensitive", "type", "color", "scent")


def assert_pools_bitwise(pairs, seed):
    """Label one product per (attribute, values) pair, pool, and compare
    the table with the reference bit for bit."""
    rng = np.random.default_rng(seed)
    vectors = {w: rng.normal(size=5) for w in POOL_WORDS}
    # Finish has no occurrences: its value half is zero.
    vocab = AttributeVocab([(a, None) for a in ("SkinType", "Color", "Scent", "Finish")])
    products = [Product(f"p{i:03d}", " / ".join(values), [], None, {attr_id: values})
                for i, (attr_id, values) in enumerate(pairs)]
    examples, _ = build_corpus(products, vocab)
    got = uncontextualized_table(vocab, examples, vectors)
    want = reference_table(vocab, examples, vectors)
    assert got.ids() == sorted(want)
    for attr_id, vec in want.items():
        assert np.array_equal(got.get(attr_id).view(np.int64), vec.view(np.int64)), attr_id


def test_uncontextualized_table_is_bitwise_the_per_occurrence_mean(caplog):
    pairs = [("SkinType", ["dry", "zzz qqq"]), ("Color", ["red", "rose red"]),
             ("Scent", ["rose red", "red"]), ("SkinType", ["oily skin", "dry"])] * 40
    with caplog.at_level(logging.WARNING):
        assert_pools_bitwise(pairs, seed=3)
    assert [r.getMessage() for r in caplog.records] == [
        "attribute Finish has no labeled values; value half is zero"]


@given(st.lists(st.tuples(st.sampled_from(("SkinType", "Color", "Scent", "Zzz")),
                          st.lists(st.sampled_from(POOL_VALUES), min_size=1, max_size=3)),
                max_size=40),
       st.integers(0, 2**32 - 1))
def test_uncontextualized_table_pools_any_occurrences_bitwise(pairs, seed):
    assert_pools_bitwise(pairs, seed)


def test_uncontextualized_table_decodes_each_distinct_pair_once(count_calls):
    corpus = generate(SHARING_SPEC)
    examples, _ = build_corpus(corpus.products, corpus.vocab)
    pairs = {(ex.tokens, ex.tags) for ex in examples}
    assert len(pairs) < len(examples)
    decoded = count_calls(attribute_embeddings, "tags_to_spans")
    embedded = count_calls(attribute_embeddings, "tokenize")
    uncontextualized_table(corpus.vocab, examples, corpus.vectors)
    assert decoded == Counter(tags for _, tags in pairs)
    values = {span_text(ex.token_texts(), span) for ex in examples
              for span in tags_to_spans(ex.tags)}
    assert embedded == Counter(values) + Counter(map(corpus.vocab.phrase, corpus.vocab.ids()))


def test_uncontextualized_table_dims_and_warning(caplog):
    vocab, examples = labeled_examples()
    with caplog.at_level(logging.WARNING):
        table = uncontextualized_table(vocab, examples, VECS)
    assert table.d_r == 4  # twice the word-vector dimension
    assert table.provenance == "uncontextualized"
    assert not caplog.records

    vocab2 = AttributeVocab([("SkinType", None), ("Color", None)])
    with caplog.at_level(logging.WARNING):
        table2 = uncontextualized_table(vocab2, examples, VECS)
    assert "Color" in caplog.text
    np.testing.assert_array_equal(table2.get("Color")[2:], 0.0)


def test_uncontextualized_table_requires_vectors():
    vocab, examples = labeled_examples()
    with pytest.raises(DataError):
        uncontextualized_table(vocab, examples, {})


# -- the table type ----------------------------------------------------------


def test_table_rejects_mixed_dims():
    with pytest.raises(DataError):
        AttributeEmbeddingTable(
            {"a": np.zeros(3), "b": np.zeros(4)}, "random")


def test_table_rejects_unknown_provenance():
    with pytest.raises(DataError):
        AttributeEmbeddingTable({"a": np.zeros(3)}, "learned")


def test_table_rejects_empty():
    with pytest.raises(DataError):
        AttributeEmbeddingTable({}, "random")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_table_rejects_non_finite_components(bad):
    with pytest.raises(DataError, match="'b'"):
        AttributeEmbeddingTable({"a": np.zeros(2), "b": np.array([0.0, bad])}, "random")


def test_table_get_unknown_attribute():
    table = AttributeEmbeddingTable({"a": np.zeros(3)}, "random")
    with pytest.raises(DataError):
        table.get("b")


def test_table_as_matrix_follows_given_order():
    table = AttributeEmbeddingTable(
        {"a": np.array([1.0]), "b": np.array([2.0])}, "random")
    np.testing.assert_array_equal(table.as_matrix(["b", "a"]),
                                  [[2.0], [1.0]])


def test_table_save_load_round_trip(tmp_path):
    vocab, examples = labeled_examples()
    table = uncontextualized_table(vocab, examples, VECS)
    path = tmp_path / "table.jsonl"
    table.save(path)
    loaded = AttributeEmbeddingTable.load(path)
    assert loaded.provenance == "uncontextualized"
    np.testing.assert_array_equal(loaded.get("SkinType"),
                                  table.get("SkinType"))


def test_table_load_rejects_mixed_provenance(tmp_path):
    path = tmp_path / "table.jsonl"
    rows = [
        {"attribute": "a", "vec": [0.0], "provenance": "random"},
        {"attribute": "b", "vec": [0.0], "provenance": "contextualized"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                    encoding="utf-8")
    with pytest.raises(DataError):
        AttributeEmbeddingTable.load(path)


def test_table_load_rejects_duplicate_attribute(tmp_path):
    path = tmp_path / "table.jsonl"
    rows = [
        {"attribute": "a", "vec": [0.0]},
        {"attribute": "a", "vec": [1.0]},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                    encoding="utf-8")
    with pytest.raises(DataError):
        AttributeEmbeddingTable.load(path)


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_table_load_rejects_non_finite_components(tmp_path, bad):
    path = tmp_path / "table.jsonl"
    path.write_text(f'{{"attribute": "a", "vec": [0.0]}}\n'
                    f'{{"attribute": "b", "vec": [{bad}]}}\n', encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: non-finite")):
        AttributeEmbeddingTable.load(path)


def test_table_load_rejects_an_integer_beyond_the_float_range(tmp_path):
    path = tmp_path / "table.jsonl"
    path.write_text('{"attribute": "a", "vec": [1' + "0" * 400 + "]}\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:1: bad table row")):
        AttributeEmbeddingTable.load(path)


# JSON values that are not numbers, though numpy would convert most of them.
NOT_NUMBERS = ['"nan"', '"0.5"', "true", "null", "[0.5]"]


@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_table_load_rejects_non_number_components(tmp_path, bad):
    path = tmp_path / "table.jsonl"
    path.write_text(f'{{"attribute": "a", "vec": [0.0]}}\n'
                    f'{{"attribute": "b", "vec": [{bad}]}}\n', encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: a vector must be an array "
                                                  "of JSON numbers")):
        AttributeEmbeddingTable.load(path)


# -- contextualized ingestion ------------------------------------------------


def write_instances(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n",
                    encoding="utf-8")


def test_ingest_contextualized_mean_pools(tmp_path):
    path = tmp_path / "inst.jsonl"
    write_instances(path, [
        {"attribute": "Scent", "name_vec": [1.0, 0.0], "value_vec": [0.0, 2.0]},
        {"attribute": "Scent", "name_vec": [3.0, 0.0], "value_vec": [0.0, 4.0]},
        {"attribute": "Color", "name_vec": [5.0, 5.0], "value_vec": [6.0, 6.0]},
    ])
    table = ingest_contextualized(path)
    assert table.provenance == "contextualized"
    assert table.d_r == 4  # concat of pooled name and value halves
    np.testing.assert_allclose(table.get("Scent"), [2.0, 0.0, 0.0, 3.0])
    np.testing.assert_allclose(table.get("Color"), [5.0, 5.0, 6.0, 6.0])


def test_ingest_rejects_dim_drift(tmp_path):
    path = tmp_path / "inst.jsonl"
    write_instances(path, [
        {"attribute": "a", "name_vec": [1.0, 0.0], "value_vec": [0.0, 2.0]},
        {"attribute": "b", "name_vec": [1.0], "value_vec": [0.0]},
    ])
    with pytest.raises(DataError) as err:
        ingest_contextualized(path)
    assert ":2:" in str(err.value)  # names the offending line


def test_ingest_rejects_unequal_name_value(tmp_path):
    path = tmp_path / "inst.jsonl"
    write_instances(path, [
        {"attribute": "a", "name_vec": [1.0, 0.0], "value_vec": [0.0]},
    ])
    with pytest.raises(DataError):
        ingest_contextualized(path)


@pytest.mark.parametrize("side", ["name_vec", "value_vec"])
def test_ingest_rejects_non_finite_components(tmp_path, side):
    path = tmp_path / "inst.jsonl"
    row = {"attribute": "a", "name_vec": [1.0, 0.0], "value_vec": [0.0, 2.0]}
    write_instances(path, [row, {**row, side: [1.0, float("inf")]}])
    with pytest.raises(DataError, match=re.escape(f"{path}:2: non-finite")):
        ingest_contextualized(path)


@pytest.mark.parametrize("side", ["name_vec", "value_vec"])
@pytest.mark.parametrize("bad", NOT_NUMBERS)
def test_ingest_rejects_non_number_components(tmp_path, side, bad):
    path = tmp_path / "inst.jsonl"
    row = {"attribute": "a", "name_vec": [1.0], "value_vec": [2.0]}
    write_instances(path, [row, {**row, side: [json.loads(bad)]}])
    with pytest.raises(DataError, match=re.escape(f"{path}:2: a vector must be an array "
                                                  "of JSON numbers")):
        ingest_contextualized(path)


def test_ingest_rejects_missing_field(tmp_path):
    path = tmp_path / "inst.jsonl"
    write_instances(path, [{"attribute": "a", "name_vec": [1.0]}])
    with pytest.raises(DataError):
        ingest_contextualized(path)


def test_ingest_rejects_empty(tmp_path):
    path = tmp_path / "inst.jsonl"
    path.write_text("", encoding="utf-8")
    with pytest.raises(DataError):
        ingest_contextualized(path)


# -- random tables -----------------------------------------------------------


def test_random_table_trainable_and_bounded():
    table = random_table(["a", "b"], 8, seed=3)
    assert table.provenance == "random"
    assert table.d_r == 8
    for a in ("a", "b"):
        assert np.all(np.abs(table.get(a)) < 0.1)


def test_random_table_seeded():
    t1 = random_table(["a"], 4, seed=5)
    t2 = random_table(["a"], 4, seed=5)
    t3 = random_table(["a"], 4, seed=6)
    np.testing.assert_array_equal(t1.get("a"), t2.get("a"))
    assert not np.array_equal(t1.get("a"), t3.get("a"))


def test_random_table_refuses_a_negative_seed():
    with pytest.raises(DataError, match="seed must be >= 0, got -1"):
        random_table(["a"], 4, seed=-1)
