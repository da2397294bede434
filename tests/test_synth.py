from collections import Counter

import numpy as np
import pytest

from avex import synth
from avex.corpus import (
    attribute_phrase,
    build_corpus,
    build_corpus_from_file,
    load_split_manifest,
    split_examples,
    tokenize,
)
from avex.encoder import load_word_vectors
from avex.errors import DataError
from avex.synth import SynthAttribute, SynthSpec, generate, write_corpus
from test_acceptance import SHARING_SPEC


def spec(**kw):
    defaults = dict(seed=5, vector_dim=10, attributes=[
        SynthAttribute("Scent",
                       values=("rose", "mint", "cherry pie"),
                       templates=("<value> scented wash",
                                  "<value> and <value> soap"),
                       train=6, dev=3, test=2),
        SynthAttribute("Color",
                       values=("red", "teal"),
                       templates=("<value> towel",),
                       train=4, dev=2),
    ])
    defaults.update(kw)
    return SynthSpec(**defaults)


def test_generate_counts_and_ids():
    corpus = generate(spec())
    assert len(corpus.products) == 6 + 3 + 2 + 4 + 2
    assert len(corpus.manifest["train"]) == 10
    assert len(corpus.manifest["dev"]) == 5
    assert len(corpus.manifest["test"]) == 2
    assert corpus.manifest["train"][0] == "Scent-train-0000"
    assert corpus.vocab.ids() == ["Scent", "Color"]


def test_generate_titles_realize_catalog_values():
    corpus = generate(spec())
    for p in corpus.products:
        for attr, values in p.gold_values.items():
            for v in values:
                assert v.lower() in p.title.lower()


def test_distant_supervision_recovers_everything():
    corpus = generate(spec())
    examples, report = build_corpus(corpus.products, corpus.vocab, "title")
    # Every generated (product, attribute) pair labels fully.
    assert report.examples == len(corpus.products)
    assert report.values_matched == report.values_seen
    assert report.dropped_pairs == 0


def test_generate_is_deterministic():
    a = generate(spec())
    b = generate(spec())
    assert [p.title for p in a.products] == [p.title for p in b.products]
    for w in a.vectors:
        np.testing.assert_array_equal(a.vectors[w], b.vectors[w])
    c = generate(spec(seed=6))
    assert [p.title for p in a.products] != [p.title for p in c.products]


def test_multi_slot_values_are_distinct():
    corpus = generate(spec())
    for p in corpus.products:
        for values in p.gold_values.values():
            assert len(values) == len(set(values))


def test_vectors_cover_vocabulary_lowercased():
    corpus = generate(spec())
    words = set()
    for p in corpus.products:
        words.update(t.text.lower() for t in tokenize(p.title))
    assert words <= set(corpus.vectors)
    for vec in corpus.vectors.values():
        assert vec.shape == (10,)


def test_generate_tokenizes_each_distinct_title_and_phrase_once(count_calls):
    calls = count_calls(synth, "tokenize")
    corpus = generate(SHARING_SPEC)
    titles = {p.title for p in corpus.products}
    assert len(titles) < len(corpus.products)
    assert calls == Counter(titles | {attribute_phrase(a.id) for a in SHARING_SPEC.attributes})


def test_train_value_limit_restricts_training_pool():
    s = spec(seed=1)
    s.attributes[0].train_value_limit = 2
    corpus = generate(s)
    train_ids = set(corpus.manifest["train"])
    for p in corpus.products:
        if p.id in train_ids and "Scent" in p.gold_values:
            assert set(p.gold_values["Scent"]) <= {"rose", "mint"}
    # Dev still draws from the full pool at some point.
    dev_values = set()
    for p in corpus.products:
        if p.id in set(corpus.manifest["dev"]):
            dev_values.update(p.gold_values.get("Scent", []))
    assert "cherry pie" in dev_values


def test_template_needs_enough_values():
    s = spec()
    s.attributes[1].templates = ("<value> and <value> and <value>",)
    with pytest.raises(DataError):
        generate(s)


def test_validate_rejects_slotless_template():
    with pytest.raises(DataError):
        SynthAttribute("X", values=("a",), templates=("no slot here",)).validate()


def test_validate_rejects_bad_limit():
    with pytest.raises(DataError):
        SynthAttribute("X", values=("a",), templates=("<value>",),
                       train_value_limit=2).validate()


def test_spec_from_json_round_trip():
    obj = {
        "seed": 9,
        "vector_dim": 8,
        "attributes": [
            {"id": "Scent", "values": ["rose"], "templates": ["<value> wash"],
             "train": 2, "dev": 1},
        ],
    }
    s = SynthSpec.from_json(obj)
    assert s.seed == 9
    assert s.attributes[0].train == 2
    with pytest.raises(DataError):
        SynthSpec.from_json({"attributes": [{"id": "X"}]})


def test_write_corpus_files_feed_the_pipeline(tmp_path):
    corpus = generate(spec())
    paths = write_corpus(corpus, tmp_path / "data")
    # The written artifacts reload through the normal ingestion paths.
    from avex.corpus import AttributeVocab
    vocab = AttributeVocab.load(paths["vocab"])
    assert vocab.ids() == ["Scent", "Color"]
    examples, report = build_corpus_from_file(paths["corpus"], vocab)
    assert report.malformed_lines == []
    assert report.examples == len(corpus.products)
    manifest = load_split_manifest(paths["splits"])
    by_split = split_examples(examples, manifest)
    assert len(by_split["train"]) == 10
    vectors = load_word_vectors(paths["vectors"])
    assert set(vectors) == set(corpus.vectors)


def test_spec_from_json_takes_null_as_missing_and_keeps_zero():
    s = SynthSpec.from_json({"seed": None, "vector_dim": 0, "attributes": [
        {"id": "A", "values": ["v"], "templates": ["<value>"], "train": None,
         "train_value_limit": None}]})
    assert (s.seed, s.vector_dim) == (0, 0)
    assert (s.attributes[0].train, s.attributes[0].train_value_limit) == (0, None)
    assert SynthSpec.from_json({"attributes": []}).vector_dim == 50


def test_generate_refuses_a_negative_seed():
    with pytest.raises(DataError, match="seed must be >= 0, got -1"):
        generate(spec(seed=-1))
