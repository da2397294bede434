import hashlib
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
from test_cli import SPEC as CLI_SPEC


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


NON_ASCII_SPEC = {
    "seed": 4, "vector_dim": 6,
    "attributes": [
        {"id": "Duft", "values": ["crème brûlée", "Zitrusblüte", "сирень", "桜"],
         "templates": ["<value> Duschgel", "Seife mit <value> — groß"],
         "train": 8, "dev": 4, "test": 3},
        {"id": "Farbe", "values": ["grün", "weiß", "ñandú"],
         "templates": ["Handtuch <value>"], "train": 8, "dev": 4, "test": 3},
    ],
}
# SHA-256 of each file write_corpus writes, pinned so that moving a
# format's writer changes no byte.
WRITTEN_DIGESTS = {
    "cli-spec": (CLI_SPEC, {
        "corpus": "c961311d34e99e130e211b7ef127b3ee8ef076cc7f252b9818e1203bddd8f073",
        "vocab": "d9244cc2fbf910b0255eb86eb5a1b1296d3133294bd516eb774f9c58dce250f5",
        "splits": "98957a9d020d7a59bf5d1d9028c877e42f7fb9cf06ef03d18cfe78b176e2fa12",
        "vectors": "c99094b63b0070e110738e3a05c14031ad12dd7742b856b72db51655f88b223d"}),
    "non-ascii-spec": (NON_ASCII_SPEC, {
        "corpus": "eae9bec32c9981c9afae3dc185446ec11e06a5e821ce36448d5678c9465804ff",
        "vocab": "a800af77b3ace2e2258347285bb7dc2d4a141883ede95b3ffe4580319fbc9e9f",
        "splits": "5451e032a69f88f4e0df79836ef130584fafba3ca25ffb2c9f8bb6758e8a74eb",
        "vectors": "da26ab65537356273d482d0cc3debd97cad8bd6625e3e2d1908f8c9874702f19"}),
}


@pytest.mark.parametrize("spec_json,digests", WRITTEN_DIGESTS.values(),
                         ids=list(WRITTEN_DIGESTS))
def test_write_corpus_bytes_are_pinned(tmp_path, spec_json, digests):
    paths = write_corpus(generate(SynthSpec.from_json(spec_json)), tmp_path)
    assert {name: hashlib.sha256(path.read_bytes()).hexdigest()
            for name, path in paths.items()} == digests


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
