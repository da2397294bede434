import json
import logging

import pytest

from avex.corpus import AttributeVocab, Product, build_corpus
from avex.errors import DataError
from avex.evaluation import (
    AttributeMetrics,
    ExtractionResult,
    aggregate,
    collect_results,
    dump_predictions,
    evaluate_model,
    extract,
    macro,
    prf1,
    stratify,
)


class FixedModel:
    """predict_tags returns canned tag sequences keyed by attribute."""

    def __init__(self, answers):
        self.answers = answers

    def predict_tags(self, token_texts, attribute):
        return self.answers.get(attribute, ["O"] * len(token_texts))

    def predict_batch(self, chains):
        return [self.predict_tags(tokens, attribute) for tokens, attribute in chains]


def metrics(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 1.0
    r = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return AttributeMetrics(tp, fp, fn, p, r, f1, tp + fn)


# -- per-set precision/recall ------------------------------------------------


def test_prf1_partial_recall():
    p, r, f1 = prf1({"dry", "sensitive"}, {"dry"})
    assert (p, r) == (1.0, 0.5)
    assert f1 == pytest.approx(2.0 / 3.0)


def test_prf1_exact_match_only():
    p, r, f1 = prf1({"dry"}, {"dry skin"})
    assert (p, r, f1) == (0.0, 0.0, 0.0)


def test_prf1_perfect():
    assert prf1({"a", "b"}, {"a", "b"}) == (1.0, 1.0, 1.0)


def test_prf1_empty_conventions():
    assert prf1({"a"}, set()) == (1.0, 0.0, 0.0)  # no predictions: P=1
    assert prf1(set(), {"a"}) == (0.0, 1.0, 0.0)  # no gold: R=1
    assert prf1(set(), set()) == (1.0, 1.0, 1.0)


def test_prf1_case_sensitive():
    p, r, _ = prf1({"Dry"}, {"dry"})
    assert (p, r) == (0.0, 0.0)


# -- macro aggregation -------------------------------------------------------


def test_macro_mean_of_f1s():
    per_attr = {"a": metrics(1, 0, 0), "b": metrics(0, 1, 1)}
    _, _, f1 = macro(per_attr)
    assert f1 == 0.5


def test_macro_single_attribute_is_identity():
    m = metrics(3, 1, 2)
    p, r, f1 = macro({"a": m})
    assert (p, r, f1) == (m.precision, m.recall, m.f1)


def test_macro_three_equal():
    per_attr = {k: metrics(3, 2, 2) for k in "abc"}
    assert macro(per_attr)[2] == pytest.approx(per_attr["a"].f1)


def test_macro_ignores_support_sizes():
    # One attribute with huge support, one tiny: each still counts once.
    per_attr = {"big": metrics(1000, 0, 0), "small": metrics(0, 1, 1)}
    assert macro(per_attr)[2] == 0.5


def test_macro_empty_rejected():
    with pytest.raises(DataError):
        macro({})


# -- aggregation over extraction results -------------------------------------


def res(eid, attr, predicted, gold):
    return ExtractionResult(eid, attr, set(predicted), set(gold))


def test_aggregate_counts_per_attribute():
    results = [
        res("e1", "Scent", {"rose"}, {"rose", "musk"}),
        res("e2", "Scent", {"mint", "oops"}, {"mint"}),
        res("e1", "Color", {"red"}, {"red"}),
    ]
    report = aggregate(results)
    scent = report.per_attribute["Scent"]
    assert (scent.tp, scent.fp, scent.fn) == (2, 1, 1)
    assert scent.support == 3
    assert report.per_attribute["Color"].f1 == 1.0
    assert report.macro_f1 == pytest.approx(
        (1.0 + scent.f1) / 2.0)


def test_aggregate_excludes_zero_support(caplog):
    results = [
        res("e1", "Scent", {"rose"}, {"rose"}),
        res("e1", "Color", {"spurious"}, set()),
    ]
    with caplog.at_level(logging.WARNING):
        report = aggregate(results)
    assert report.excluded == ["Color"]
    assert "Color" in caplog.text
    assert set(report.per_attribute) == {"Scent"}
    assert report.macro_f1 == 1.0


def test_aggregate_all_zero_support_rejected():
    with pytest.raises(DataError):
        aggregate([res("e1", "Color", {"x"}, set())])


def test_duplicate_values_deduplicate():
    # The same value extracted twice counts once; sets are the unit.
    results = [res("e1", "Scent", {"rose"}, {"rose"})]
    report = aggregate(results)
    assert report.per_attribute["Scent"].tp == 1


# -- extraction path ---------------------------------------------------------


def test_extract_joins_with_single_spaces():
    model = FixedModel({"Scent": ["B", "O", "B", "E", "O", "B", "I", "E", "O"]})
    tokens = ["orchid", "/", "cherry", "pie", "/", "mango", "ice", "cream",
              "scent"]
    assert extract(model, tokens, "Scent") == {
        "orchid", "cherry pie", "mango ice cream"}


def test_extract_all_outside_is_empty_set():
    model = FixedModel({})
    assert extract(model, ["a", "b"], "Color") == set()


def test_collect_results_sorted_and_gold():
    vocab = AttributeVocab([("Scent", None)])
    products = [
        Product("p2", "rose soap", [], None, {"Scent": ["rose"]}),
        Product("p1", "mint bar", [], None, {"Scent": ["mint"]}),
    ]
    examples, _ = build_corpus(products, vocab)
    model = FixedModel({"Scent": ["B", "O"]})
    results = collect_results(model, examples)
    assert [r.example_id for r in results] == ["p1", "p2"]
    assert results[0].gold == {"mint"}
    assert results[0].predicted == {"mint"}
    assert examples[0].gold_value_strings == {"mint"}


def test_gold_value_strings_are_worked_out_once(monkeypatch):
    # train() evaluates the dev split every epoch; its gold values are fixed.
    from avex import corpus
    vocab = AttributeVocab([("Scent", None)])
    products = [Product("p1", "rose soap", [], None, {"Scent": ["rose"]}),
                Product("p2", "mint bar", [], None, {"Scent": ["mint"]})]
    examples, _ = build_corpus(products, vocab)
    calls = []
    real = corpus.value_strings
    monkeypatch.setattr(corpus, "value_strings",
                        lambda *args: calls.append(args) or real(*args))
    model = FixedModel({"Scent": ["B", "O"]})
    first = collect_results(model, examples)
    second = collect_results(model, examples)
    assert len(calls) == len(examples)
    assert [r.gold for r in first] == [r.gold for r in second] == [{"rose"}, {"mint"}]


def test_evaluate_model_end_to_end():
    vocab = AttributeVocab([("Scent", None)])
    products = [Product("p1", "rose soap", [], None, {"Scent": ["rose"]})]
    examples, _ = build_corpus(products, vocab)
    report = evaluate_model(FixedModel({"Scent": ["B", "O"]}), examples)
    assert report.macro_f1 == 1.0


# -- stratified reports ------------------------------------------------------


def full_report():
    return aggregate([
        res("e1", "A", {"x"}, {"x"}),
        res("e1", "B", {"y"}, {"y", "z"}),
    ])


def test_stratify_partitions_at_threshold():
    report = full_report()
    strata = stratify(report, {"A": 5000, "B": 200}, threshold=1000)
    assert strata["high"]["attributes"] == ["A"]
    assert strata["low"]["attributes"] == ["B"]
    assert strata["high"]["macro"]["f1"] == 1.0
    assert report.strata is strata


def test_stratify_boundary_is_high():
    strata = stratify(full_report(), {"A": 1000, "B": 1000}, threshold=1000)
    assert strata["low"] is None
    assert sorted(strata["high"]["attributes"]) == ["A", "B"]


def test_stratify_missing_counts_are_low():
    strata = stratify(full_report(), {}, threshold=1000)
    assert strata["high"] is None
    assert sorted(strata["low"]["attributes"]) == ["A", "B"]


# -- serialization -----------------------------------------------------------


def test_report_to_json_and_table():
    report = full_report()
    js = report.to_json()
    assert js["macro"]["f1"] == report.macro_f1
    assert set(js["per_attribute"]) == {"A", "B"}
    text = report.to_table()
    assert "A" in text and "macro" in text


def test_dump_predictions(tmp_path):
    path = tmp_path / "preds.jsonl"
    dump_predictions(path, [res("e1", "Scent", {"b", "a"}, {"a"})])
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == [{"id": "e1", "attribute": "Scent",
                     "predicted": ["a", "b"], "gold": ["a"]}]
