"""Acceptance gate: ten end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each test prints exactly one PASS/FAIL line for its criterion.
The slow criteria (6 and 7) train real models and dominate the runtime.
"""

import dataclasses
import math
import time

import numpy as np
from numpy.random import default_rng

from avex import autodiff as ad
from avex.adaptive_decoder import (
    HyperNetwork,
    TransitionMoe,
    chain_nll,
    gate,
    generate_linear,
    log_partition,
    mix_transition,
    path_score,
    viterbi,
)
from avex.attribute_embeddings import random_table, uncontextualized_table
from avex.corpus import AttributeVocab, LabeledExample, build_corpus, \
    split_examples, tokenize
from avex.evaluation import AttributeMetrics, evaluate_model, macro, prf1
from avex.models import build_variant, derive_word_itos, parameter_group
from avex.synth import SynthAttribute, SynthSpec, generate
from avex.tagging import NUM_TAGS, spans_to_tags, tags_to_spans, Span
from avex.training import (
    TrainConfig,
    load_checkpoint,
    param_count_from_config,
    train,
)
from oracles import all_paths, brute_log_partition, brute_viterbi


def _verdict(num, title, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[{status}] criterion {num:>2}: {title}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_crf_oracle_equivalence():
    failures = []
    rng = default_rng(101)
    start = time.perf_counter()
    worst_logz = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        P = rng.normal(size=(NUM_TAGS, n))
        T = rng.normal(size=(NUM_TAGS, NUM_TAGS))
        worst_logz = max(worst_logz,
                         abs(float(log_partition(P, T).data)
                             - brute_log_partition(P, T)))
        z, score = viterbi(P, T)
        bz, bscore = brute_viterbi(P, T)
        if score != bscore:
            failures.append(f"viterbi score {score!r} != brute {bscore!r}")
            break
        if path_score(P, T, z) != bscore:
            failures.append("viterbi path does not achieve the brute maximum")
            break
        if z != bz:
            failures.append(f"viterbi path {z} != brute path {bz}")
            break
    elapsed = time.perf_counter() - start
    if worst_logz > 1e-9:
        failures.append(f"log-partition error {worst_logz:.3e} > 1e-9")
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, limit 10s")
    _verdict(1, "forward and Viterbi match brute-force enumeration "
                f"(500 cases, {elapsed:.1f}s)", failures)


def test_criterion_02_gradient_fidelity():
    failures = []
    vocab = AttributeVocab([("Fabric", None)])
    tokens = tuple(tokenize("soft alpaca wool blend"))[:3]
    example = LabeledExample("p1", "Fabric", tokens, ("O", "B", "E"), "title")
    worst = 0.0
    for seed in range(20):
        config = TrainConfig(variant="adatag", d_h=4, d_word=5, k=2, seed=seed)
        table = random_table(vocab.ids(), 6, seed)
        model = build_variant(config, vocab,
                              derive_word_itos("adatag", [example]),
                              attr_table=table)
        params = {name: t for name, t in model.params.items()
                  if parameter_group(name) in ("encoder", "hyper", "moe")}
        chains = model.prepare_examples([example])
        report = ad.grad_check(lambda: model.loss(chains), params, step=1e-5)
        worst = max(worst, report.max_rel_error)
    if worst > 1e-4:
        failures.append(f"max relative error {worst:.3e} > 1e-4")
    _verdict(2, "full-model gradients match central differences "
                f"(20 seeds, worst {worst:.2e})", failures)


def test_criterion_03_probability_normalization():
    failures = []
    rng = default_rng(33)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        P = rng.normal(size=(NUM_TAGS, n))
        T = rng.normal(size=(NUM_TAGS, NUM_TAGS))
        total = sum(math.exp(-float(chain_nll(P, T, list(z)).data))
                    for z in all_paths(NUM_TAGS, n))
        worst = max(worst, abs(total - 1.0))
    if worst > 1e-9:
        failures.append(f"sum of path probabilities off by {worst:.3e}")
    _verdict(3, "path probabilities sum to one "
                f"(100 instances, worst |err| {worst:.2e})", failures)


def test_criterion_04_reference_sequence_round_trip():
    failures = []
    tokens = ["orchid", "/", "cherry", "pie", "/", "mango", "ice", "cream",
              "scent"]
    spans = {Span(0, 0), Span(2, 3), Span(5, 7)}
    tags = spans_to_tags(spans, len(tokens))
    if tags != ["B", "O", "B", "E", "O", "B", "I", "E", "O"]:
        failures.append(f"encoded tags {tags}")
    decoded = tags_to_spans(tags)
    values = {" ".join(tokens[s.start:s.end + 1]) for s in decoded}
    if values != {"orchid", "cherry pie", "mango ice cream"}:
        failures.append(f"decoded values {values}")
    _verdict(4, "reference sequence tags and detokenizes exactly", failures)


def test_criterion_05_hypernetwork_and_gate_algebra():
    failures = []
    rng = default_rng(7)
    d_r = 6

    def moe_with(k):
        return TransitionMoe(
            ad.Tensor(rng.normal(size=(k, d_r))),
            ad.Tensor(rng.normal(size=(k,))),
            ad.Tensor(rng.normal(size=(k, NUM_TAGS, NUM_TAGS))))

    moe3 = moe_with(3)
    worst_gate = max(abs(float(ad.tensor_sum(gate(moe3, rng.normal(size=d_r))).data) - 1.0)
                     for _ in range(50))
    if worst_gate > 1e-12:
        failures.append(f"gate sum off by {worst_gate:.3e}")

    moe1 = moe_with(1)
    for _ in range(50):
        T = mix_transition(moe1, gate(moe1, rng.normal(size=d_r)))
        if not np.array_equal(T.data, moe1.experts.data[0]):
            failures.append("k=1 mixture is not the lone expert bitwise")
            break

    hyper = HyperNetwork(
        ad.Tensor(rng.normal(size=(NUM_TAGS * 5, d_r))),
        ad.Tensor(rng.normal(size=(NUM_TAGS * 5,))),
        ad.Tensor(rng.normal(size=(NUM_TAGS, d_r))),
        ad.Tensor(rng.normal(size=(NUM_TAGS,))))
    W, b = generate_linear(hyper, np.zeros(d_r))
    if not np.array_equal(W.data, hyper.b_w.data.reshape(NUM_TAGS, 5)):
        failures.append("r=0 emission weights differ from reshaped bias")
    if not np.array_equal(b.data, hyper.b_b.data):
        failures.append("r=0 emission bias differs from bias term")
    _verdict(5, "gate normalization, single-expert and zero-embedding "
                "identities hold", failures)


OVERFIT_SPEC = SynthSpec(seed=11, vector_dim=50, attributes=[
    SynthAttribute(
        "Scent",
        values=("orchid", "vanilla", "jasmine", "mango", "lavender",
                "rose", "coconut", "cherry pie"),
        templates=("<value> / <value> scent", "<value> scented wash",
                   "<value> and <value> fragrance"),
        train=50, dev=20),
    SynthAttribute(
        "Color",
        values=("red", "orange", "green", "black", "white", "purple",
                "teal", "navy blue"),
        templates=("<value> / <value> towel", "<value> cotton towel",
                   "<value> and <value> robe"),
        train=50, dev=20),
])


def _overfit_corpus():
    corpus = generate(OVERFIT_SPEC)
    examples, _ = build_corpus(corpus.products, corpus.vocab, "title")
    by_split = split_examples(examples, corpus.manifest)
    table = uncontextualized_table(corpus.vocab, by_split["train"],
                                   corpus.vectors)
    return corpus, by_split, table


def test_criterion_06_overfit_synthetic_corpus():
    failures = []
    corpus, by_split, table = _overfit_corpus()
    config = TrainConfig(variant="adatag", d_h=50, max_epochs=30, seed=7)
    start = time.perf_counter()
    report, _model = train(config, corpus.vocab, by_split["train"],
                           by_split["dev"], attr_table=table,
                           vectors=corpus.vectors)
    elapsed = time.perf_counter() - start
    if report.best_dev_f1 < 0.95:
        failures.append(f"best dev macro-F1 {report.best_dev_f1:.4f} < 0.95")
    if report.best_epoch > 30:
        failures.append(f"best epoch {report.best_epoch} > 30")
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.0f}s, limit 300s")
    _verdict(6, f"overfits the 2x50-example corpus (dev macro-F1 "
                f"{report.best_dev_f1:.3f} at epoch {report.best_epoch}, "
                f"{elapsed:.0f}s)", failures)


SHARED_VALUES = ("vanilla", "hazelnut", "caramel", "peach", "almond", "cocoa",
                 "maple", "cherry pie", "rock salt", "mint")


SHARING_SPEC = SynthSpec(seed=23, vector_dim=50, attributes=[
    SynthAttribute(
        "Flavor", values=SHARED_VALUES,
        templates=("<value> / <value> syrup", "<value> snack bar",
                   "<value> and <value> cookies"),
        train=20, dev=25, train_value_limit=3),
    SynthAttribute(
        "Scent", values=SHARED_VALUES,
        templates=("<value> / <value> scent", "<value> scented wash",
                   "<value> and <value> candle"),
        train=500, dev=20),
    SynthAttribute(
        "FragranceNotes", values=SHARED_VALUES,
        templates=("<value> / <value> notes", "<value> infused mist",
                   "<value> and <value> perfume"),
        train=500, dev=20),
    SynthAttribute(
        "FlavorProfile", values=SHARED_VALUES,
        templates=("<value> / <value> blend", "<value> roast coffee",
                   "<value> and <value> tea"),
        train=500, dev=20),
])


def _sharing_corpus():
    corpus = generate(SHARING_SPEC)
    examples, _ = build_corpus(corpus.products, corpus.vocab, "title")
    by_split = split_examples(examples, corpus.manifest)
    table = uncontextualized_table(corpus.vocab, by_split["train"],
                                   corpus.vectors)
    return corpus, by_split, table


def test_criterion_07_low_resource_knowledge_sharing():
    failures = []
    corpus, by_split, table = _sharing_corpus()
    low_dev = [ex for ex in by_split["dev"] if ex.attribute == "Flavor"]
    joint_f1s, solo_f1s = [], []
    for seed in range(5):
        base = TrainConfig(variant="adatag", d_h=50, max_epochs=15, seed=seed)
        _, model = train(base, corpus.vocab, by_split["train"],
                         by_split["dev"], attr_table=table,
                         vectors=corpus.vectors)
        joint_f1s.append(
            evaluate_model(model, low_dev).per_attribute["Flavor"].f1)
        solo = dataclasses.replace(base, variant="per_attribute",
                                   attributes=("Flavor",))
        _, solo_model = train(solo, corpus.vocab, by_split["train"],
                              by_split["dev"], vectors=corpus.vectors)
        solo_f1s.append(
            evaluate_model(solo_model, low_dev).per_attribute["Flavor"].f1)
    joint_med = float(np.median(joint_f1s))
    solo_med = float(np.median(solo_f1s))
    if joint_med < solo_med:
        failures.append(f"joint median {joint_med:.4f} < per-attribute "
                        f"median {solo_med:.4f}")
    _verdict(7, "joint training lifts the 20-example attribute (median F1 "
                f"{joint_med:.3f} joint vs {solo_med:.3f} solo)", failures)


def test_criterion_08_parameter_accounting():
    failures = []
    adatag = param_count_from_config(TrainConfig(variant="adatag"))
    if adatag.tensors["hyper/W_hyper_w"] != 4 * 200 * 1536:
        failures.append(
            f"hyper weight count {adatag.tensors['hyper/W_hyper_w']}")
    if adatag.tensors["hyper/W_hyper_w"] != 1_228_800:
        failures.append("hyper weight count is not 1,228,800")
    expanded = param_count_from_config(
        TrainConfig(variant="n_tag_sets"), n_attributes=12)
    if expanded.tensors["decoder/T"] != (3 * 12 + 1) ** 2:
        failures.append(f"joint transition count {expanded.tensors['decoder/T']}")
    notes = " ".join(expanded.notes)
    if "1,296" not in notes:
        failures.append("9N^2 comparison missing from the notes")
    _verdict(8, "hypernetwork and joint-tagset parameter counts check out "
                f"(1,228,800 and {expanded.tensors['decoder/T']})", failures)


def test_criterion_09_metric_hand_cases():
    failures = []
    cases = [
        (({"dry", "sensitive"}, {"dry"}), (1.0, 0.5, 2 / 3)),
        (({"dry"}, {"dry skin"}), (0.0, 0.0, 0.0)),
        (({"dry"}, {"dry"}), (1.0, 1.0, 1.0)),
        ((set(), {"x"}), (0.0, 1.0, 0.0)),
        (({"x"}, set()), (1.0, 0.0, 0.0)),
        ((set(), set()), (1.0, 1.0, 1.0)),
    ]
    for (gold, predicted), expected in cases:
        got = prf1(gold, predicted)
        if got != expected:
            failures.append(f"prf1({gold}, {predicted}) = {got}, "
                            f"expected {expected}")

    def with_f1(f1):
        return AttributeMetrics(0, 0, 0, f1, f1, f1, 1)

    if macro({"a": with_f1(1.0), "b": with_f1(0.0)})[2] != 0.5:
        failures.append("macro-F1 over {1.0, 0.0} is not 0.5")
    if abs(macro({k: with_f1(0.6) for k in "abc"})[2] - 0.6) > 1e-15:
        failures.append("macro-F1 over three equal scores drifted")
    _verdict(9, "precision/recall/F1 hand cases reproduce exactly", failures)


def test_criterion_10_determinism_and_persistence(tmp_path):
    failures = []
    spec = SynthSpec(seed=11, vector_dim=12, attributes=[
        SynthAttribute("Scent", values=("orchid", "vanilla", "mango", "rose"),
                       templates=("<value> / <value> scent",),
                       train=12, dev=6),
        SynthAttribute("Color", values=("red", "teal", "black", "white"),
                       templates=("<value> / <value> towel",),
                       train=12, dev=6),
    ])
    corpus = generate(spec)
    examples, _ = build_corpus(corpus.products, corpus.vocab, "title")
    by_split = split_examples(examples, corpus.manifest)
    table = uncontextualized_table(corpus.vocab, by_split["train"],
                                   corpus.vectors)
    config = TrainConfig(variant="adatag", d_h=8, d_word=12, k=2,
                         batch_size=2, max_epochs=5, seed=3)

    stems = [tmp_path / "run_a" / "model", tmp_path / "run_b" / "model"]
    reports = []
    for stem in stems:
        stem.parent.mkdir()
        report, _model = train(config, corpus.vocab, by_split["train"],
                               by_split["dev"], attr_table=table,
                               vectors=corpus.vectors, checkpoint_stem=stem)
        reports.append(report)
    if stems[0].with_suffix(".bin").read_bytes() \
            != stems[1].with_suffix(".bin").read_bytes():
        failures.append("same-seed payloads differ")
    if stems[0].with_suffix(".json").read_bytes() \
            != stems[1].with_suffix(".json").read_bytes():
        failures.append("same-seed manifests differ")

    loaded = load_checkpoint(stems[0])
    round_trip_f1 = evaluate_model(loaded, by_split["dev"]).macro_f1
    if round_trip_f1 != reports[0].best_dev_f1:
        failures.append(f"round-trip dev macro-F1 {round_trip_f1!r} != "
                        f"{reports[0].best_dev_f1!r}")
    _verdict(10, "same seed gives bit-identical checkpoints; reload "
                 f"preserves dev macro-F1 ({round_trip_f1:.3f})", failures)
