import json
import re
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from avex import corpus
from avex.corpus import (
    AttributeVocab,
    CoverageReport,
    LabeledExample,
    Product,
    SETTINGS,
    Token,
    accepted_spans,
    attribute_phrase,
    build_corpus,
    build_corpus_from_file,
    load_labeled,
    load_products,
    load_split_manifest,
    parse_product,
    save_labeled,
    save_products,
    source_text,
    split_examples,
    tokenize,
    value_tokens,
)
from avex.errors import DataError
from avex.synth import generate
from avex.tagging import OUTSIDE, Span, first_fit, span_text, spans_to_tags, value_strings
from oracles import reference_tokenize
from test_acceptance import SHARING_SPEC


# -- tokenizer ---------------------------------------------------------------


def test_tokenize_detaches_punctuation_with_offsets():
    text = "Dry, Sensitive skin"
    tokens = tokenize(text)
    assert [(t.text, t.start, t.end) for t in tokens] == [
        ("Dry", 0, 3), (",", 3, 4), ("Sensitive", 5, 14), ("skin", 15, 19)]
    for t in tokens:
        assert text[t.start:t.end] == t.text


def test_tokenize_multiple_leading_trailing_punct():
    tokens = tokenize('("hello!")')
    assert [t.text for t in tokens] == ["(", '"', "hello", "!", '"', ")"]
    assert tokenize('("hello!")')[2].start == 2


def test_tokenize_interior_punctuation_stays_attached():
    # Only the edges are peeled; hyphens and slashes inside stay put.
    assert [t.text for t in tokenize("anti-aging 2-in-1")] == \
        ["anti-aging", "2-in-1"]


def test_tokenize_all_punct_chunk():
    assert [t.text for t in tokenize("a // b")] == ["a", "/", "/", "b"]


@given(st.text())
def test_tokenize_offsets_index_the_source(text):
    for t in tokenize(text):
        assert text[t.start:t.end] == t.text


@given(st.text() | st.text(st.sampled_from("ab,.-()/!\"' \t\n\u00a0\u2003\x1c")))
def test_tokenize_equals_the_reference_tokenizer(text):
    assert [(t.text, t.start, t.end) for t in tokenize(text)] == reference_tokenize(text)


def test_tokenize_empty_and_whitespace():
    assert tokenize("") == []
    assert tokenize("   ") == []


# -- attribute phrases -------------------------------------------------------


@pytest.mark.parametrize("attr_id,phrase", [
    ("SkinType", "Skin Type"),
    ("Color", "Color"),
    ("FragranceNotes", "Fragrance Notes"),
    ("ItemForm2", "Item Form2"),
    ("HDMIPorts", "HDMI Ports"),
])
def test_attribute_phrase(attr_id, phrase):
    assert attribute_phrase(attr_id) == phrase


def test_vocab_uses_phrase_override():
    vocab = AttributeVocab([("SkinType", "skin type"), ("Color", None)])
    assert vocab.phrase("SkinType") == "skin type"
    assert vocab.phrase("Color") == "Color"


def test_vocab_rejects_duplicate_ids():
    with pytest.raises(DataError):
        AttributeVocab([("A", None), ("A", None)])


def test_vocab_subset_preserves_order():
    vocab = AttributeVocab([("A", None), ("B", None), ("C", None)])
    assert vocab.subset({"C", "A"}).ids() == ["A", "C"]
    with pytest.raises(DataError):
        vocab.subset({"Z"})


@given(st.lists(st.tuples(st.text(), st.none() | st.text()), max_size=4,
                unique_by=lambda e: e[0]))
def test_vocab_json_round_trip(entries):
    vocab = AttributeVocab(entries)
    again = AttributeVocab.from_json(vocab.to_json(), "rows")
    assert again.ids() == vocab.ids() == [a for a, _ in entries]
    assert [again.phrase(a) for a in again.ids()] == [vocab.phrase(a) for a in vocab.ids()]


def test_vocab_from_json_refuses_what_is_not_a_list():
    with pytest.raises(DataError, match="^rows must be a JSON list$"):
        AttributeVocab.from_json({"id": "A"}, "rows")


@pytest.mark.parametrize("text,message", [
    ('[{"id": null}, {"id": 5}, {"id": ["a"]}]', "entry 0 'id' must be str, got null"),
    ('[{"id": "A"}, {"id": 5}]', "entry 1 'id' must be str, got 5"),
    ('[{"id": "A"}, {"phrase": "b"}]', "entry 1 lacks 'id'"),
    ('[7]', "entry 0 is not a JSON object"),
])
def test_vocab_load_refuses_an_id_that_is_not_a_string(tmp_path, text, message):
    path = tmp_path / "vocab.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"attribute vocabulary {path}: {message}")):
        AttributeVocab.load(path)


# -- distant supervision -----------------------------------------------------


def pair_tags(tokens, values):
    """BIOE tags of catalog values on a token sequence: ``accepted_spans``
    then ``spans_to_tags``, the steps ``build_corpus`` takes per pair."""
    lowered = [t.text.lower() for t in tokens]
    return spans_to_tags(accepted_spans(lowered, value_tokens(values).values()), len(tokens))


def test_distant_label_simple_match():
    tokens = tokenize("Dry, Sensitive skin body wash")
    tags = pair_tags(tokens, ["Dry", "Sensitive"])
    assert tags == ["B", "O", "B", "O", "O", "O"]


def test_distant_label_case_insensitive():
    tokens = tokenize("NAVY BLUE towel")
    assert pair_tags(tokens, ["navy blue"]) == ["B", "E", "O"]


def test_distant_label_longest_match_wins():
    tokens = tokenize("navy blue towel")
    # Both "blue" and "navy blue" are in the catalog; the wider match
    # claims the tokens first.
    assert pair_tags(tokens, ["blue", "navy blue"]) == ["B", "E", "O"]


def test_distant_label_leftmost_on_equal_width():
    tokens = tokenize("rose and rose soap")
    assert pair_tags(tokens, ["rose"]) == ["B", "O", "B", "O"]


def test_distant_label_no_partial_token_match():
    tokens = tokenize("rosewood table")
    assert pair_tags(tokens, ["rose"]) == ["O", "O"]


def test_distant_label_three_token_value():
    tokens = tokenize("mango ice cream scent")
    assert pair_tags(tokens, ["mango ice cream"]) == ["B", "I", "E", "O"]


def test_distant_label_non_overlap():
    tokens = tokenize("a b c")
    # "a b" is matched first (wider); "b c" then collides and is skipped.
    assert pair_tags(tokens, ["a b", "b c"]) == ["B", "E", "O"]


def test_distant_label_value_with_punctuation():
    tokens = tokenize("2-in-1 shampoo, conditioner")
    assert pair_tags(tokens, ["shampoo"]) == ["O", "B", "O", "O"]


def test_matched_values_and_span_text():
    vocab = AttributeVocab([("Scent", None)])
    p = Product("p1", "orchid / cherry pie / mango ice cream scent", [], None,
                {"Scent": ["orchid", "cherry pie", "mango ice cream", "vanilla"]})
    examples, report = build_corpus([p], vocab)
    assert examples[0].gold_value_strings == {"orchid", "cherry pie", "mango ice cream"}
    assert (report.values_seen, report.values_matched) == (4, 3)
    assert span_text(examples[0].token_texts(), Span(2, 3)) == "cherry pie"


# -- corpus construction -----------------------------------------------------


def make_product(pid="p1", title="lavender / rose scented wash",
                 attrs=None, bullets=()):
    return Product(pid, title, list(bullets), None,
                   attrs if attrs is not None else
                   {"Scent": ["lavender", "rose"]})


def test_build_corpus_labels_and_sorts():
    vocab = AttributeVocab([("Scent", None), ("Color", None)])
    products = [
        make_product("p2", attrs={"Color": ["red"], "Scent": ["rose"]},
                     title="red rose soap"),
        make_product("p1"),
    ]
    examples, report = build_corpus(products, vocab)
    assert [(ex.product_id, ex.attribute) for ex in examples] == [
        ("p1", "Scent"), ("p2", "Color"), ("p2", "Scent")]
    assert report.products == 2
    assert report.examples == 3
    assert report.per_attribute_examples == {"Color": 1, "Scent": 2}


def test_build_corpus_drops_unmatched_pairs_by_default():
    vocab = AttributeVocab([("Scent", None)])
    products = [make_product("p1", title="unscented bar",
                             attrs={"Scent": ["lavender"]})]
    examples, report = build_corpus(products, vocab)
    assert examples == []
    assert report.dropped_pairs == 1
    assert report.negatives == 0


def test_build_corpus_negatives_opt_in():
    vocab = AttributeVocab([("Scent", None)])
    products = [make_product("p1", title="unscented bar",
                             attrs={"Scent": ["lavender"]})]
    examples, report = build_corpus(products, vocab, include_negatives=True)
    assert len(examples) == 1
    assert set(examples[0].tags) == {"O"}
    assert report.negatives == 1


@pytest.mark.parametrize("include_negatives", [False, True])
def test_build_corpus_emits_no_example_without_tokens(include_negatives):
    vocab = AttributeVocab([("Scent", None)])
    products = [make_product("p1", title="", attrs={"Scent": ["lavender"]}),
                make_product("p2", title="unscented bar", attrs={"Scent": ["lavender"]})]
    examples, report = build_corpus(products, vocab, include_negatives=include_negatives)
    assert [ex.product_id for ex in examples] == (["p2"] if include_negatives else [])
    assert all(ex.tokens for ex in examples)
    assert report.dropped_pairs == (1 if include_negatives else 2)
    assert report.negatives == (1 if include_negatives else 0)


def test_build_corpus_unknown_attribute_counted():
    vocab = AttributeVocab([("Scent", None)])
    products = [make_product("p1", attrs={"Scent": ["rose"], "Zzz": ["x"]},
                             title="rose soap")]
    _, report = build_corpus(products, vocab)
    assert report.unknown_attributes == 1


def test_source_text_title_plus_bullets():
    p = make_product(bullets=["For dry skin", "Gentle formula"])
    joined = source_text(p, "title_plus_bullets")
    assert joined == "lavender / rose scented wash . For dry skin . Gentle formula"
    with pytest.raises(DataError):
        source_text(p, "descriptions")


def test_title_plus_bullets_value_in_bullet_is_found():
    vocab = AttributeVocab([("SkinType", None)])
    p = Product("p1", "Daily Moisture Body Wash",
                ["For Dry, Sensitive skin"], None,
                {"SkinType": ["Dry", "Sensitive"]})
    examples, report = build_corpus([p], vocab, setting="title_plus_bullets")
    assert len(examples) == 1
    assert examples[0].gold_value_strings == {"Dry", "Sensitive"}
    assert report.values_matched == 2


def reference_build_corpus(products, vocab, setting, include_negatives):
    """``build_corpus`` one pair at a time: each pair tokenizes its own
    values, and its matched values are read back off the tags it wrote."""
    report = CoverageReport()
    examples = []
    for product in products:
        report.products += 1
        tokens = tuple(tokenize(source_text(product, setting)))
        texts = [t.text for t in tokens]
        for attr_id in sorted(product.gold_values):
            if attr_id not in vocab:
                report.unknown_attributes += 1
                continue
            values = {v: [t.text.lower() for t in tokenize(v)]
                      for v in product.gold_values[attr_id] if v and v.strip()}
            if not values:
                continue
            report.values_seen += len(values)
            lowered = [t.lower() for t in texts]
            spans = [Span(s, s + len(vtoks) - 1) for vtoks in values.values()
                     for s in range(len(tokens) - len(vtoks) + 1)
                     if lowered[s:s + len(vtoks)] == vtoks]
            spans.sort(key=lambda span: (span.start - span.end, span.start))
            kept = [span for span, keep in zip(spans, first_fit(spans, len(tokens))) if keep]
            tags = spans_to_tags(kept, len(tokens))
            realized = {v.lower() for v in value_strings(texts, tags)}
            hit = {v for v, vtoks in values.items() if " ".join(vtoks) in realized}
            report.values_matched += len(hit)
            if hit:
                examples.append(LabeledExample(product.id, attr_id, tokens, tuple(tags), setting))
            elif include_negatives and tokens:
                examples.append(LabeledExample(
                    product.id, attr_id, tokens, (OUTSIDE,) * len(tokens), setting))
                report.negatives += 1
            else:
                report.dropped_pairs += 1
    examples.sort(key=lambda ex: (ex.product_id, ex.attribute))
    report.examples = len(examples)
    for ex in examples:
        report.per_attribute_examples[ex.attribute] = (
            report.per_attribute_examples.get(ex.attribute, 0) + 1)
    return examples, report


# Values that repeat, differ only in case, nest or overlap, carry
# punctuation, or lowercase unusually (a word-final sigma, a dotted I).
LABEL_VALUES = ("red", "Red", "RED", "navy", "navy blue", "blue navy", "blue navy blue",
                "blue", "red.", "(red)", "2-in-1", "in", "a b", "b c", "ΟΔΟΣ", "οδος",
                "οδοσ", "İstanbul", "istanbul", "i̇stanbul", " ", "")
LABEL_WORDS = ("red", "Red", "navy", "blue", "Navy Blue", "2-in-1", "a", "b", "c",
               "ΟΔΟΣ", "Οδος", "İstanbul", "ISTANBUL", "soap", ",", ".", "(", ")", "/", "-")


@st.composite
def label_products(draw):
    """Products whose texts repeat: each may reuse an earlier product's
    title, with its bullets or other ones, and its values or other ones."""
    count = draw(st.integers(0, 6))
    products = []
    for i in range(count):
        earlier = draw(st.sampled_from(products)) if products and draw(st.booleans()) else None
        if earlier:
            title = earlier.title
        else:
            words = draw(st.lists(st.sampled_from(LABEL_WORDS), max_size=8))
            title = "".join(w + draw(st.sampled_from(("", " ", " ", " / "))) for w in words)
        if earlier and draw(st.booleans()):
            bullets = list(earlier.bullets)
        else:
            bullets = draw(st.lists(st.sampled_from(("red soap", "Navy blue.", "", "ΟΔΟΣ a b c")),
                                    max_size=2))
        if earlier and draw(st.booleans()):
            attrs = {a: list(vs) for a, vs in earlier.gold_values.items()}
        else:
            attrs = draw(st.dictionaries(st.sampled_from(("Color", "Scent", "Zzz")),
                                         st.lists(st.sampled_from(LABEL_VALUES), max_size=4),
                                         max_size=3))
        products.append(Product(f"p{count - i}", title, bullets, None, attrs))
    return products


@given(label_products(), st.sampled_from(SETTINGS), st.booleans())
@example([Product("p1", "red soap, Red towel", [], None, {"Color": ["red", "Red"]}),
          Product("p2", "RED (red) robe", [], None, {"Color": ["Red", "red", "red"]})],
         "title", False)
@example([Product("p1", "navy blue navy blue", [], None,
                  {"Color": ["navy", "navy blue", "blue navy", "blue navy blue"]}),
          Product("p2", "a b c", [], None, {"Color": ["a b", "b c"], "Zzz": ["a"]})],
         "title", False)
@example([Product("p1", "ΟΔΟΣ İstanbul", ["οδος, i̇stanbul."], None,
                  {"Scent": ["οδος", "οδοσ", "istanbul", "İstanbul"]})],
         "title_plus_bullets", False)
@example([Product("p1", "plain soap", [], None, {"Color": ["red"]}),
          Product("p2", "", [], None, {"Color": ["red"]}),
          Product("p3", "red", [], None, {"Color": ["", " "]})], "title", True)
@example([Product("p1", "plain soap", [], None, {"Color": ["red"]})], "title", False)
@example([Product("p1", "red navy blue soap", [], None, {"Color": ["red"]}),
          Product("p2", "red navy blue soap", [], None, {"Color": ["navy blue", "red", "teal"]}),
          Product("p3", "red navy blue soap", [], None, {"Color": ["teal"]})], "title", True)
@example([Product("p1", "red soap", [], None, {"Color": ["red"], "Scent": ["red"]}),
          Product("p2", "red soap", [], None, {"Scent": ["red", "soap"]})], "title", False)
@example([Product("p1", "red soap", ["navy blue."], None, {"Color": ["red", "navy blue"]}),
          Product("p2", "red soap", ["red soap"], None, {"Color": ["red", "navy blue"]}),
          Product("p3", "red soap", [], None, {"Color": ["navy blue"]})], "title", True)
@example([Product("p1", "red soap", ["navy blue."], None, {"Color": ["red", "navy blue"]}),
          Product("p2", "red soap", ["red soap"], None, {"Color": ["red", "navy blue"]}),
          Product("p3", "red soap", [], None, {"Color": ["navy blue"]})],
         "title_plus_bullets", True)
def test_build_corpus_equals_the_per_pair_reference(products, setting, include_negatives):
    vocab = AttributeVocab([("Color", None), ("Scent", None)])
    got = build_corpus(products, vocab, setting, include_negatives)
    assert got == reference_build_corpus(products, vocab, setting, include_negatives)


@pytest.mark.parametrize("setting", SETTINGS)
def test_build_corpus_tokenizes_each_distinct_text_and_value_once(count_calls, setting):
    generated = generate(SHARING_SPEC)
    products = generated.products + [
        Product("x1", "vanilla soap", ["mint"], None, {"Scent": ["vanilla"]}),
        Product("x2", "vanilla soap", ["mint"], None, {"Scent": ["mint"], "Flavor": ["mint"]}),
        Product("x3", "vanilla soap", [], None, {"Scent": ["mint"]})]
    texts = {source_text(p, setting) for p in products}
    values = {v for p in products for vs in p.gold_values.values() for v in vs}
    assert len(texts) < len(products)
    calls = count_calls(corpus, "tokenize")
    examples, _ = build_corpus(products, generated.vocab, setting, include_negatives=True)
    assert calls == Counter(texts) + Counter(values)
    product = {p.id: p for p in products}
    tokens, tags = {}, {}
    for ex in examples:
        text = source_text(product[ex.product_id], setting)
        listed = tuple(dict.fromkeys(product[ex.product_id].gold_values[ex.attribute]))
        assert tokens.setdefault(text, ex.tokens) is ex.tokens
        assert tags.setdefault((text, listed), ex.tags) is ex.tags


# -- file round trips --------------------------------------------------------


def test_load_products_reports_malformed_and_duplicates(tmp_path):
    path = tmp_path / "products.jsonl"
    rows = [
        json.dumps({"id": "a", "title": "one"}),
        "not json",
        json.dumps({"title": "missing id"}),
        json.dumps({"id": "a", "title": "duplicate"}),
        json.dumps({"id": "b", "title": "two"}),
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    products, malformed = load_products(path)
    assert [p.id for p in products] == ["a", "b"]
    assert [lineno for lineno, _ in malformed] == [2, 3, 4]


def test_load_products_names_the_position_on_the_malformed_line(tmp_path):
    path = tmp_path / "products.jsonl"
    path.write_text('{"id": "a", "title": "one"}\n{"id": \n', encoding="utf-8")
    _, malformed = load_products(path)
    assert malformed == [(2, "Expecting value: line 1 column 8 (char 7)")]


PRODUCTS = st.lists(st.builds(
    Product, id=st.text(), title=st.text(), bullets=st.lists(st.text(), max_size=3),
    description=st.none() | st.text(),
    gold_values=st.dictionaries(st.text(), st.lists(st.text(), max_size=3), max_size=3)),
    max_size=5, unique_by=lambda p: p.id)


@given(PRODUCTS)
@example([Product("ü", "crème brûlée\u2028body wash", ["桜", ""], None,
                  {"Scent": ["crème brûlée", "rose"], "Color": []})])
def test_products_round_trip(products):
    # Every field comes back, whatever its characters; a product without
    # a description is written without the key.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        save_products(path, products)
        assert load_products(path) == (products, [])
        lines = path.read_text(encoding="utf-8").split("\n")  # not at U+2028
    rows = [json.loads(line) for line in lines[:-1]]
    assert [("description" in row) for row in rows] == \
        [p.description is not None for p in products]


def test_parse_product_takes_null_as_missing():
    product = parse_product({"id": "a", "title": "t", "bullets": None,
                             "attributes": None, "description": None})
    assert (product.bullets, product.gold_values, product.description) == ([], {}, None)


@pytest.mark.parametrize("row,message", [
    ({"id": 7, "title": "t"}, "product row 'id' must be str, got 7"),
    ({"id": "a", "title": "t", "attributes": {"Scent": "rose"}},
     "product row 'attributes' must be dict[str, list[str]] | None"),
    ({"id": "a", "title": "t", "bullets": "one"}, "product row 'bullets' must be list[str]"),
])
def test_parse_product_converts_nothing(row, message):
    with pytest.raises(DataError, match=re.escape(message)):
        parse_product(row)


def test_build_corpus_from_file_missing(tmp_path):
    with pytest.raises(DataError):
        build_corpus_from_file(tmp_path / "nope.jsonl",
                               AttributeVocab([("Scent", None)]))


def test_split_manifest_round_trip(tmp_path):
    path = tmp_path / "splits.json"
    path.write_text(json.dumps(
        {"train": ["p1"], "dev": ["p2"], "test": []}), encoding="utf-8")
    manifest = load_split_manifest(path)
    vocab = AttributeVocab([("Scent", None)])
    examples, _ = build_corpus(
        [make_product("p1"), make_product("p2"), make_product("p3")], vocab)
    by_split = split_examples(examples, manifest)
    assert [ex.product_id for ex in by_split["train"]] == ["p1"]
    assert [ex.product_id for ex in by_split["dev"]] == ["p2"]
    # p3 is in no split and silently ignored.
    assert by_split["test"] == []


def test_split_manifest_rejects_overlap(tmp_path):
    path = tmp_path / "splits.json"
    path.write_text(json.dumps(
        {"train": ["p1"], "dev": ["p1"], "test": []}), encoding="utf-8")
    with pytest.raises(DataError):
        load_split_manifest(path)


def test_split_manifest_refuses_a_numeric_id(tmp_path):
    path = tmp_path / "splits.json"
    path.write_text(json.dumps({"train": ["p1", 2], "dev": [], "test": []}),
                    encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            f"split manifest {path} 'train' must be list[str], got [\"p1\", 2]")):
        load_split_manifest(path)


def test_labeled_round_trip(tmp_path):
    vocab = AttributeVocab([("Scent", None)])
    examples, _ = build_corpus([make_product()], vocab)
    path = tmp_path / "labeled.jsonl"
    save_labeled(path, examples)
    loaded = load_labeled(path)
    assert loaded == examples


@pytest.mark.parametrize("tokens,message", [
    ([["a", "0", 1]], ":1: token 0 'start' must be non-negative int, got \"0\""),
    ([["a", 0, 1.0]], ":1: token 0 'end' must be non-negative int, got 1.0"),
    ([["a", 0]], ":1: bad labeled example"),
])
def test_load_labeled_converts_no_token_offset(tmp_path, tokens, message):
    path = tmp_path / "bad.jsonl"
    row = {"id": "p", "attribute": "Scent", "tokens": tokens, "tags": ["B"]}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}{message}")):
        load_labeled(path)


def test_load_labeled_rejects_length_mismatch(tmp_path):
    path = tmp_path / "bad.jsonl"
    row = {"id": "p", "attribute": "Scent",
           "tokens": [["a", 0, 1]], "tags": ["B", "O"]}
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_labeled(path)
