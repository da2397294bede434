"""The three benchmark workloads and the seeded inputs they run on.

Every workload drives avex only through the entry points a user calls:
``training.train`` for training, and ``training.load_checkpoint`` with
``corpus.tokenize`` and ``evaluation.extract`` for extraction.  Calls go
through the module attribute (``training.train(...)``), never through a
name imported into this file, so the tracer's wrappers see them.

A workload has a set-up (build the corpus; for extraction also train,
save and reload a model) and a unit of work that the timed loop repeats:

- train-title-small: criterion 7's corpus (4 attributes sharing values,
  20/500/500/500 training titles of ~4 tokens), one epoch of adatag at
  d_h=50.  Tiny matrices, so time goes to per-node autodiff overhead,
  per-token LSTM steps and GC; decoder generation and Adam are a few
  percent.
- train-bullets-paper: 12 attributes x 16 training products, each a
  title plus two filler bullets (~30 tokens), one epoch (6 steps) at
  paper scale.  Long chains stretch the LSTM and the CRF forward
  recursion; every example pays an 800x1536 hypernetwork generation and
  Adam updates ~1.4M parameters.
- extract-title-paper: set-up trains a paper-scale model for one epoch
  (8 steps) on 4 attributes x 64 titles; the unit sends one request per
  test title, each extracting all 4 attributes.  No graph and no
  backward; Viterbi instead of the forward algorithm; the text is
  encoded once per attribute and decoders are rebuilt per request.

A training unit is train() + three evaluate_model passes on the test
split + one request per test product; an extraction unit is one request
per test title.  Training units restart from the same seed, so every
unit of a run must give identical losses, scores and extracted values.
"""

from __future__ import annotations

import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from avex import attribute_embeddings, corpus, evaluation, synth, training

clock = time.perf_counter

SHARED_VALUES = ("vanilla", "hazelnut", "caramel", "peach", "almond", "cocoa",
                 "maple", "cherry pie", "rock salt", "mint")

# Criterion 7's four attributes: one low-resource attribute whose values
# are shared with three high-resource ones.
SHARING_ATTRIBUTES = (
    ("Flavor", ("<value> / <value> syrup", "<value> snack bar",
                "<value> and <value> cookies")),
    ("Scent", ("<value> / <value> scent", "<value> scented wash",
               "<value> and <value> candle")),
    ("FragranceNotes", ("<value> / <value> notes", "<value> infused mist",
                        "<value> and <value> perfume")),
    ("FlavorProfile", ("<value> / <value> blend", "<value> roast coffee",
                       "<value> and <value> tea")),
)

# Twelve catalog-style attributes with their own values, for the paper
# scale workloads.
CATALOG_ATTRIBUTES = (
    ("Color", ("red", "teal", "black", "white", "navy", "ivory", "olive", "coral"),
     ("<value> cotton towel", "<value> / <value> towel set", "bath mat in <value>")),
    ("Scent", ("orchid", "vanilla", "mango", "rose", "sea salt", "lavender",
               "jasmine", "cedar"),
     ("<value> scented body wash", "<value> and <value> candle",
      "hand soap with <value> scent")),
    ("Flavor", ("hazelnut", "caramel", "peach", "almond", "cocoa", "maple",
                "cherry pie", "mint"),
     ("<value> protein bar", "<value> / <value> syrup", "coffee pods in <value>")),
    ("Material", ("bamboo", "linen", "wool", "leather", "oak", "steel",
                  "recycled plastic", "silk"),
     ("<value> storage basket", "<value> and <value> tote",
      "desk organizer made of <value>")),
    ("Size", ("small", "medium", "large", "xl", "xxl", "king size", "queen size",
              "twin"),
     ("<value> fitted sheet", "<value> dog bed", "duvet cover <value>")),
    ("Brand", ("acme", "zenith", "northwind", "contoso", "fabrikam", "globex",
               "initech", "umbrella"),
     ("<value> wireless mouse", "<value> usb charger", "phone case by <value>")),
    ("Pattern", ("striped", "floral", "plaid", "polka", "solid", "paisley",
                 "chevron", "tie dye"),
     ("<value> throw pillow", "<value> / <value> rug", "shower curtain <value> print")),
    ("SkinType", ("dry", "oily", "sensitive", "combination", "normal", "mature",
                  "acne prone", "dull"),
     ("moisturizer for <value> skin", "<value> skin face serum",
      "cleanser for <value> / <value> skin")),
    ("Capacity", ("16 oz", "32 oz", "1 liter", "2 liter", "500 ml", "750 ml",
                  "64 oz", "1 gallon"),
     ("<value> water bottle", "<value> travel mug", "glass jar <value>")),
    ("Style", ("modern", "rustic", "vintage", "boho", "minimalist", "industrial",
               "classic", "coastal"),
     ("<value> wall clock", "<value> table lamp", "picture frame <value> style")),
    ("AgeRange", ("toddler", "kids", "teen", "adult", "senior", "infant",
                  "all ages", "youth"),
     ("<value> puzzle game", "<value> rain boots", "backpack for <value>")),
    ("Finish", ("matte", "glossy", "satin", "brushed", "polished", "chrome",
                "antique brass", "frosted"),
     ("<value> door handle", "<value> faucet", "cabinet knob <value> finish")),
)

# Bullet filler: words that occur in no attribute value.
FILLER = tuple("""durable everyday gentle formula crafted with care lasting easy
clean compact gift ready premium quality lightweight design home office reliable
comfortable simple setup smooth sturdy build backed by warranty perfect choice
daily routine thoughtful details versatile fit keeps looking fresh""".split())
BULLET_WORDS = 12

PAPER_D_R = 1536
# Attributes per request, as in ``avex extract --attr A,B,C,D``.
REQUEST_ATTRIBUTES = 4
EVAL_PASSES = 3


@dataclass
class Inputs:
    """What a workload's set-up produces; the timed units only read it."""

    config: training.TrainConfig
    vocab: corpus.AttributeVocab
    train: list
    dev: list
    test: list
    table: attribute_embeddings.AttributeEmbeddingTable
    vectors: dict
    # One per test product: raw text, gold values per requested attribute.
    requests: list[tuple[str, dict[str, set[str]]]]
    train_tokens: int = 0
    model: object = None
    setup_train: dict | None = None


@dataclass
class UnitResult:
    """Timings and outputs of one unit of work.

    Timings are (start, end) pairs of ``clock()`` readings, which the
    caller turns into seconds.
    """

    wall_s: float = 0.0
    train_span: tuple | None = None
    train_tokens: int = 0
    train_nll: float | None = None
    best_dev_f1: float | None = None
    eval_spans: list = field(default_factory=list)  # evaluate_model on the test split
    request_spans: list = field(default_factory=list)
    extracted: list = field(default_factory=list)

    def outputs(self):
        """Everything that must repeat exactly between units of one run."""
        return (self.train_nll, self.best_dev_f1, self.extracted)


def _fixed_vector(text: str, dim: int, scale: float, normal=False) -> np.ndarray:
    """A vector that depends on the text alone, like a pretrained table."""
    rng = np.random.default_rng(zlib.crc32(text.encode("utf-8")))
    return rng.normal(0.0, scale, size=dim) if normal \
        else rng.uniform(-scale, scale, size=dim)


def _labeled(spec, setting, bullets_seed=None):
    """Generate, optionally add filler bullets, label and split.

    The seed picks the products; the word vectors are a fixed function of
    each word, as a pretrained table would be, so that seeds vary the
    data a model sees and not the embedding space it starts from.
    """
    generated = synth.generate(spec)
    words = set(generated.vectors)
    if bullets_seed is not None:
        rng = np.random.default_rng(bullets_seed)
        for product in generated.products:
            product.bullets = [" ".join(rng.choice(FILLER, size=BULLET_WORDS))
                               for _ in range(2)]
        words.update(FILLER)
    # Same scale as synth's own vectors.
    generated.vectors = {w: _fixed_vector(w, spec.vector_dim, 1.5) for w in sorted(words)}
    examples, _report = corpus.build_corpus(generated.products, generated.vocab, setting)
    by_split = corpus.split_examples(examples, generated.manifest)
    test_ids = set(generated.manifest["test"])
    ids = generated.vocab.ids()
    requests = []
    for product in generated.products:
        if product.id not in test_ids:
            continue
        # The product's own attribute and the next ones in vocabulary order.
        first = ids.index(next(iter(product.gold_values)))
        asked = sorted((first + i) % len(ids) for i in range(REQUEST_ATTRIBUTES))
        gold = {}
        for a in (ids[i] for i in asked):
            gold[a] = {" ".join(t.text for t in corpus.tokenize(v))
                       for v in product.gold_values.get(a, ())}
        requests.append((corpus.source_text(product, setting), gold))
    return generated, by_split, requests


def _random_contextualized(vocab):
    """Stand-ins for 1536-d BERT attribute vectors, fixed per attribute."""
    return attribute_embeddings.AttributeEmbeddingTable(
        {a: _fixed_vector(a, PAPER_D_R, 0.5, normal=True) for a in vocab.ids()},
        "contextualized")


def _inputs(config, generated, by_split, requests, table):
    train = by_split["train"]
    return Inputs(config, generated.vocab, train, by_split["dev"], by_split["test"],
                  table, generated.vectors, requests,
                  train_tokens=sum(len(ex.tokens) for ex in train))


def setup_title_small(seed: int, tiny: bool, workdir: Path) -> Inputs:
    train_counts = (4, 12, 12, 12) if tiny else (20, 500, 500, 500)
    dev, test = (4, 4) if tiny else (20, 50)
    spec = synth.SynthSpec(seed=seed, vector_dim=50, attributes=[
        synth.SynthAttribute(name, values=SHARED_VALUES, templates=templates,
                             train=n, dev=dev, test=test,
                             train_value_limit=3 if name == "Flavor" else None)
        for (name, templates), n in zip(SHARING_ATTRIBUTES, train_counts)])
    generated, by_split, requests = _labeled(spec, "title")
    table = attribute_embeddings.uncontextualized_table(
        generated.vocab, by_split["train"], generated.vectors)
    # d_r follows the table: name half + value half of 50-d vectors = 100.
    config = training.TrainConfig(
        variant="adatag", d_h=50, d_word=50, d_r=table.d_r, k=3, batch_size=32,
        max_epochs=1, patience=1, seed=0)
    return _inputs(config, generated, by_split, requests, table)


def setup_bullets_paper(seed: int, tiny: bool, workdir: Path) -> Inputs:
    per_attr = (1, 1, 1) if tiny else (16, 10, 4)
    # Two values per attribute and a raised learning rate, so that one
    # epoch of 6 steps reaches a dev F1 that is high and steady across seeds.
    spec = synth.SynthSpec(seed=seed, vector_dim=50, attributes=[
        synth.SynthAttribute(name, values=values[:2], templates=templates,
                             train=per_attr[0], dev=per_attr[1], test=per_attr[2])
        for name, values, templates in CATALOG_ATTRIBUTES])
    generated, by_split, requests = _labeled(
        spec, "title_plus_bullets", bullets_seed=[seed, 1])
    table = _random_contextualized(generated.vocab)
    config = training.TrainConfig(
        variant="adatag", d_h=16 if tiny else 200, d_word=50, d_r=PAPER_D_R, k=3,
        batch_size=32, learning_rate=3e-3, max_epochs=1, patience=1, seed=0,
        setting="title_plus_bullets")
    return _inputs(config, generated, by_split, requests, table)


def setup_extract_paper(seed: int, tiny: bool, workdir: Path) -> Inputs:
    per_attr = (2, 1, 2) if tiny else (64, 8, 50)
    spec = synth.SynthSpec(seed=seed, vector_dim=50, attributes=[
        synth.SynthAttribute(name, values=values, templates=templates,
                             train=per_attr[0], dev=per_attr[1], test=per_attr[2])
        for name, values, templates in CATALOG_ATTRIBUTES[:4]])
    generated, by_split, requests = _labeled(spec, "title")
    table = _random_contextualized(generated.vocab)
    config = training.TrainConfig(
        variant="adatag", d_h=16 if tiny else 200, d_word=50, d_r=PAPER_D_R, k=3,
        batch_size=32, max_epochs=1, patience=1, seed=0)
    inputs = _inputs(config, generated, by_split, requests, table)
    stem = workdir / "model"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        start = clock()
        report, _ = training.train(config, inputs.vocab, inputs.train, inputs.dev,
                                   attr_table=table, vectors=inputs.vectors,
                                   checkpoint_stem=stem)
        train_span = (start, clock())
        inputs.model = training.load_checkpoint(stem)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    inputs.setup_train = {
        "train_span": train_span,
        "train_tokens": len(report.epochs) * inputs.train_tokens,
        "train_nll": report.epochs[-1].train_nll,
    }
    return inputs


def _serve(model, inputs: Inputs, result: UnitResult, on_request=None):
    """One request per test product: tokenize, then extract each attribute."""
    for text, gold in inputs.requests:
        if on_request is not None:
            on_request()
        start = clock()
        token_texts = [t.text for t in corpus.tokenize(text)]
        values = {a: evaluation.extract(model, token_texts, a) for a in gold}
        result.request_spans.append((start, clock()))
        result.extracted.append({a: sorted(v) for a, v in values.items()})


def train_unit(inputs: Inputs, on_request=None, serve=True) -> UnitResult:
    result = UnitResult()
    unit_start = start = clock()
    report, model = training.train(
        inputs.config, inputs.vocab, inputs.train, inputs.dev,
        attr_table=inputs.table, vectors=inputs.vectors)
    result.train_span = (start, clock())
    result.train_tokens = len(report.epochs) * inputs.train_tokens
    result.train_nll = report.epochs[-1].train_nll
    result.best_dev_f1 = report.best_dev_f1
    for _ in range(EVAL_PASSES):
        start = clock()
        evaluation.evaluate_model(model, inputs.test)
        result.eval_spans.append((start, clock()))
    if serve:
        _serve(model, inputs, result, on_request)
    result.wall_s = clock() - unit_start
    return result


def traced_train_unit(inputs: Inputs, on_request=None) -> UnitResult:
    """The training unit without its requests, so that the per-layer
    metrics describe training and evaluation alone."""
    return train_unit(inputs, serve=False)


def extract_unit(inputs: Inputs, on_request=None) -> UnitResult:
    result = UnitResult()
    start = clock()
    _serve(inputs.model, inputs, result, on_request)
    result.wall_s = clock() - start
    return result


def eval_pass(inputs: Inputs) -> tuple:
    """evaluate_model over the test split; returns its (start, end)."""
    start = clock()
    evaluation.evaluate_model(inputs.model, inputs.test)
    return start, clock()


def exact_match_f1(inputs: Inputs, extracted) -> float:
    """Macro exact-match F1 over every (request, attribute) pair."""
    results = []
    for i, ((_text, gold), values) in enumerate(zip(inputs.requests, extracted)):
        for attr, predicted in values.items():
            results.append(evaluation.ExtractionResult(
                str(i), attr, set(predicted), gold[attr]))
    return evaluation.aggregate(results).macro_f1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    unit: object
    traced_unit: object
    f1_floor: float


WORKLOADS = {w.name: w for w in (
    Workload("train-title-small",
             "train() at d_h=50 on ~4-token titles: autodiff, LSTM-step and GC "
             "overhead dominate; decoder generation and Adam are minor",
             setup_title_small, train_unit, traced_train_unit, f1_floor=0.85),
    Workload("train-bullets-paper",
             "train() at paper scale on ~30-token title+bullets over 12 attributes: "
             "long chains, 800x1536 decoder generation per example, big Adam step",
             setup_bullets_paper, train_unit, traced_train_unit, f1_floor=0.6),
    Workload("extract-title-paper",
             "requests to a reloaded paper-scale model, 1 title x 4 attributes each: "
             "no backward, Viterbi, text re-encoded and decoders rebuilt per attribute",
             setup_extract_paper, extract_unit, extract_unit, f1_floor=0.2),
)}

