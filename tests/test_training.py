import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from avex import files
from avex.autodiff import Tensor
from avex.corpus import (
    AttributeVocab,
    LabeledExample,
    Product,
    Token,
    build_corpus,
    split_examples,
)
from avex.attribute_embeddings import AttributeEmbeddingTable, uncontextualized_table
from avex.errors import DataError, NumericError
from avex.evaluation import evaluate_model
from avex.models import VARIANTS, build_variant, derive_word_itos
from avex.synth import SynthAttribute, SynthSpec, generate
from avex.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_BLOCK,
    ADAM_EPS,
    Adam,
    TrainConfig,
    load_checkpoint,
    param_count,
    param_count_from_config,
    parse_config_file,
    save_checkpoint,
    train,
)


def trainable(model):
    return {n: t for n, t in model.params.items() if t.requires_grad}


def micro_synth(seed=11):
    """Two small attributes; value lexicons are disjoint by design."""
    spec = SynthSpec(seed=seed, vector_dim=12, attributes=[
        SynthAttribute("Scent",
                       values=("orchid", "vanilla", "mango", "rose"),
                       templates=("<value> / <value> scent",),
                       train=12, dev=6),
        SynthAttribute("Color",
                       values=("red", "teal", "black", "white"),
                       templates=("<value> / <value> towel",),
                       train=12, dev=6),
    ])
    corpus = generate(spec)
    examples, _ = build_corpus(corpus.products, corpus.vocab, "title")
    by_split = split_examples(examples, corpus.manifest)
    return corpus, by_split


def micro_config(**kw):
    defaults = dict(variant="adatag", d_h=8, d_word=12, k=2,
                    batch_size=2, max_epochs=20, seed=3)
    defaults.update(kw)
    return TrainConfig(**defaults)


def run_micro_train(**kw):
    corpus, by_split = micro_synth()
    table = uncontextualized_table(corpus.vocab, by_split["train"],
                                   corpus.vectors)
    config = micro_config(**kw)
    report, model = train(config, corpus.vocab,
                          by_split["train"], by_split["dev"],
                          attr_table=table if config.variant == "adatag" else None,
                          vectors=corpus.vectors)
    return corpus, by_split, table, report, model


def toy_example(pid="p1"):
    return LabeledExample(pid, "Scent", (Token("x", 0, 1),), ("O",), "title")


# -- configuration -----------------------------------------------------------


def test_config_defaults():
    cfg = TrainConfig()
    assert (cfg.d_h, cfg.d_word, cfg.d_r, cfg.k) == (200, 50, 1536, 3)
    assert (cfg.batch_size, cfg.learning_rate, cfg.patience) == (32, 1e-3, 3)
    assert cfg.variant == "adatag"
    cfg.validate()


@pytest.mark.parametrize("kw", [
    {"variant": "transformer"},
    {"d_h": 7},
    {"d_h": 0},
    {"k": 0},
    {"k": 9},
    {"learning_rate": 0.0},
    {"patience": 0},
    {"setting": "description"},
    {"learning_rate": float("nan")},
    {"learning_rate": float("inf")},
    {"seed": -1},
])
def test_config_validate_rejects(kw):
    with pytest.raises(DataError):
        TrainConfig(**kw).validate()


def test_config_file_with_negative_seed_is_data_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = -1\n", encoding="utf-8")
    with pytest.raises(DataError, match="seed must be >= 0, got -1"):
        TrainConfig.from_values(parse_config_file(path))


def _config_from_file(tmp_path, mapping):
    """The config of a file holding ``key = value`` for each item of ``mapping``."""
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in mapping.items()), encoding="utf-8")
    return TrainConfig.from_values(parse_config_file(path))


def test_config_from_mapping_coerces_strings(tmp_path):
    cfg = _config_from_file(tmp_path, {
        "variant": "bilstm_multicrf", "d_h": "16", "learning_rate": "0.01",
        "attributes": "Scent, Color"})
    assert cfg.d_h == 16
    assert cfg.learning_rate == 0.01
    assert cfg.attributes == ["Scent", "Color"]


def test_config_from_mapping_rejects_unknown_key():
    with pytest.raises(DataError):
        TrainConfig.from_values({"dh": 16})


def test_config_from_mapping_rejects_bad_number(tmp_path):
    with pytest.raises(DataError):
        _config_from_file(tmp_path, {"d_h": "sixteen"})


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf", float("nan")])
def test_config_from_mapping_rejects_non_finite_learning_rate(tmp_path, raw):
    with pytest.raises(DataError, match="learning_rate must be positive and finite"):
        _config_from_file(tmp_path, {"learning_rate": raw})


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "variant = adatag\n"
        "d_h = 16   # trailing comment\n"
        "\n"
        "learning_rate = 0.001\n", encoding="utf-8")
    assert parse_config_file(path) == {
        "variant": "adatag", "d_h": 16, "learning_rate": 0.001}


@pytest.mark.parametrize("text, message", [
    ("d_h = 8\ndh = 8\n", "{path}:2: unknown config key 'dh'"),
    ("d_h = 8\n\nk = 2\nd_word = 1.5\n", "{path}:4: config key 'd_word': cannot parse '1.5'"),
    ("seed = 1\nd_h = 3\nd_h = 8\n", "{path}:3: config key 'd_h' given twice"),
], ids=["unknown key", "bad number", "key given twice"])
def test_config_file_error_names_the_line(tmp_path, text, message):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError) as exc:
        parse_config_file(path)
    assert str(exc.value) == message.format(path=path)


def test_parse_config_file_rejects_bad_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just words\n", encoding="utf-8")
    with pytest.raises(DataError):
        parse_config_file(path)


def test_parse_config_file_missing(tmp_path):
    with pytest.raises(DataError):
        parse_config_file(tmp_path / "none.cfg")


# -- optimizer ---------------------------------------------------------------


def test_adam_first_step_is_signed_lr():
    t = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    t.grad = np.array([0.3, -0.7, 0.0])
    opt = Adam([t], lr=0.01)
    opt.step()
    # With bias correction the first update is lr * g / (|g| + eps).
    np.testing.assert_allclose(t.data, [0.99, -1.99, 0.5], atol=1e-9)


def test_adam_step_is_bitwise_the_textbook_formula():
    from avex.training import ADAM_BETA1 as b1, ADAM_BETA2 as b2, ADAM_EPS as eps
    from avex.training import ADAM_BLOCK
    rng = np.random.default_rng(12)
    # The last two are updated in several blocks of rows.
    shapes = [(8, 16), (5,), (2, 2), (3, ADAM_BLOCK // 2 + 1), (2 * ADAM_BLOCK + 3,)]
    # Parameters start at zero, so the first update is the parameter itself
    # and no rounding of the update is absorbed into a larger value.
    tensors = [Tensor(np.zeros(s), requires_grad=True) for s in shapes]
    expected = [t.data.copy() for t in tensors]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = Adam(tensors, lr=0.01)
    for step in range(1, 6):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-4, 4, size=s)
                 for s in shapes]
        for t, g in zip(tensors, grads):
            t.grad = g.copy()
        versions = [t.version for t in tensors]
        opt.step()
        b1t, b2t = 1.0 - b1 ** step, 1.0 - b2 ** step
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g ** 2)
            expected[i] -= 0.01 * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + eps)
            np.testing.assert_array_equal(tensors[i].grad, g)  # read, not written
        assert [t.version for t in tensors] == [n + 1 for n in versions]
    for t, e in zip(tensors, expected):
        np.testing.assert_array_equal(t.data, e)


# A small tensor has fewer than ADAM_BLOCK elements and is updated in a
# packed run with its small neighbours; a large one is updated on its own.
ADAM_SHAPES = {"small": [(1,), (3,), (2, 5), (4, 1, 3)],
               "large": [(ADAM_BLOCK,), (3, ADAM_BLOCK // 2 + 1)]}


@settings(max_examples=25, deadline=None)
@given(kinds=st.lists(st.tuples(st.sampled_from(sorted(ADAM_SHAPES)), st.integers(0, 3)),
                      min_size=1, max_size=7),
       live=st.lists(st.lists(st.booleans(), min_size=7, max_size=7), min_size=4,
                     max_size=4))
# Two runs of small tensors around a large one; over the steps a gradient
# is missing at the start, in the middle and at the end of a run, and on
# the large tensor.
@example(kinds=[("small", 0), ("small", 1), ("small", 2), ("large", 1), ("small", 3),
                ("small", 2), ("small", 0)],
         live=[[False, True, True, True, True, True, False],
               [True, True, False, True, False, True, True],
               [True, True, True, True, True, True, True],
               [False, False, True, False, True, False, True]])
def test_packed_adam_is_bitwise_the_per_tensor_update(kinds, live):
    shapes = [ADAM_SHAPES[kind][i % len(ADAM_SHAPES[kind])] for kind, i in kinds]
    rng = np.random.default_rng(len(shapes))
    # Parameters start at zero, so that no rounding of an update is
    # absorbed into a larger value.
    tensors = [Tensor(np.zeros(s), requires_grad=True) for s in shapes]
    expected = [np.zeros(s) for s in shapes]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    opt = Adam(tensors, lr=0.01)
    for step, on in enumerate(live, start=1):
        grads = [rng.normal(size=s) * 10.0 ** rng.integers(-4, 4, size=s) if has else None
                 for s, has in zip(shapes, on)]
        for t, g in zip(tensors, grads):
            t.grad = None if g is None else g.copy()
        versions = [t.version for t in tensors]
        opt.step()
        b1t, b2t = 1.0 - ADAM_BETA1 ** step, 1.0 - ADAM_BETA2 ** step
        for i, g in enumerate(grads):
            if g is None:  # untouched; its moments show in its next update
                assert tensors[i].version == versions[i]
                np.testing.assert_array_equal(tensors[i].data, expected[i])
                continue
            m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * g
            v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * (g ** 2)
            expected[i] -= 0.01 * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + ADAM_EPS)
            np.testing.assert_array_equal(tensors[i].grad, g)  # read, not written
            assert tensors[i].version == versions[i] + 1
            np.testing.assert_array_equal(tensors[i].data, expected[i])


def test_adam_skips_missing_grads():
    t = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([t], lr=0.1)
    opt.step()
    np.testing.assert_array_equal(t.data, [1.0])


def test_adam_zero_grad():
    t = Tensor(np.array([1.0]), requires_grad=True)
    t.grad = np.array([5.0])
    opt = Adam([t], lr=0.1)
    opt.zero_grad()
    assert t.grad is None


def test_adam_converges_on_quadratic():
    t = Tensor(np.array([3.0]), requires_grad=True)
    opt = Adam([t], lr=0.1)
    for _ in range(400):
        t.grad = 2.0 * t.data  # d/dt t^2
        opt.step()
    assert abs(t.data[0]) < 1e-3


def test_single_adam_step_decreases_nll():
    corpus, by_split = micro_synth()
    table = uncontextualized_table(corpus.vocab, by_split["train"],
                                   corpus.vectors)
    for seed in range(20):
        cfg = micro_config(seed=seed)
        itos = derive_word_itos(cfg.variant, by_split["train"])
        model = build_variant(cfg, corpus.vocab, itos, attr_table=table,
                              vectors=corpus.vectors)
        batch = model.prepare_examples(by_split["train"][:8])
        opt = Adam(trainable(model).values(), lr=1e-4)
        before = model.loss(batch)
        value = before.item()
        before.backward()
        opt.step()
        after = model.loss(batch).item()
        assert after < value, f"seed {seed}: {value} -> {after}"


# -- batch loss --------------------------------------------------------------


def test_batch_loss_is_mean():
    model, batch, _ = _adatag_batch()
    singles = [model.loss([ex]).item() for ex in batch]
    assert model.loss(batch).item() == pytest.approx(np.mean(singles), rel=1e-12)


def test_batch_loss_empty_batch():
    model, _, _ = _adatag_batch()
    with pytest.raises(DataError, match="empty batch"):
        model.loss([])


def _adatag_batch():
    corpus, by_split = micro_synth()
    table = uncontextualized_table(corpus.vocab, by_split["train"], corpus.vectors)
    cfg = micro_config()
    itos = derive_word_itos(cfg.variant, by_split["train"])
    model = build_variant(cfg, corpus.vocab, itos, attr_table=table,
                          vectors=corpus.vectors)
    train = by_split["train"]
    return model, model.prepare_examples(train[:6] + train[-6:]), by_split["dev"]


def _count_decoder_builds(monkeypatch) -> list:
    from avex import models
    calls = []
    real = models.build_decoder
    monkeypatch.setattr(models, "build_decoder",
                        lambda hyper, moe, r: calls.append(r) or real(hyper, moe, r))
    return calls


def test_batch_loss_generates_each_decoder_once(monkeypatch):
    model, batch, _ = _adatag_batch()
    calls = _count_decoder_builds(monkeypatch)
    attributes = {ex.attribute for ex in batch}
    assert len(attributes) > 1 and len(batch) > len(attributes)
    model.loss(batch).backward()
    # One generation per batch, for the batch's distinct attributes.
    assert len(calls) == 1
    assert calls[0].data.shape == (len(attributes), model.hyper.d_r)
    model.loss(batch)
    assert len(calls) == 2
    model.loss([batch[0]])
    assert len(calls) == 3
    assert calls[2].data.shape == (1, model.hyper.d_r)


def test_collect_results_generates_each_decoder_once(monkeypatch):
    from avex.evaluation import collect_results
    model, _, dev = _adatag_batch()
    calls = _count_decoder_builds(monkeypatch)
    results = collect_results(model, dev)
    # Without gradients one generation builds every attribute's decoder.
    assert len(calls) == 1 < len(results)
    assert calls[0].data.shape == (len(model.attr_vocab.ids()), model.hyper.d_r)
    reused = [model.predict_tags(ex.token_texts(), ex.attribute) for ex in dev[:3]]
    assert len(calls) == 1  # parameters unchanged: nothing rebuilt
    assert all(len(tags) == len(ex.tokens) for tags, ex in zip(reused, dev))
    model.hyper.b_b.data = model.hyper.b_b.data + 1.0
    collect_results(model, dev)
    assert len(calls) == 2


def test_batch_gradient_is_sum_of_example_gradients():
    model, batch, _ = _adatag_batch()
    params = trainable(model)

    def grads():
        out = {name: t.grad.copy() for name, t in params.items()}
        for t in params.values():
            t.grad = None
        return out

    (model.loss(batch) * len(batch)).backward()
    together = grads()
    summed = {name: np.zeros_like(t.data) for name, t in params.items()}
    for ex in batch:
        model.loss([ex]).backward()
        for name, g in grads().items():
            summed[name] += g
    for name in params:
        np.testing.assert_allclose(together[name], summed[name], rtol=1e-12,
                                   atol=1e-12, err_msg=name)


def test_batch_gradients_equal_zero_filled_accumulation(monkeypatch):
    # The reference adds every gradient into a zero-filled array.  Storing
    # the first gradient instead must not change a bit, which needs the
    # stored array to keep that layout: on chains of 8 or more tokens
    # numpy sums a C-ordered and an F-ordered emission gradient in
    # different orders.
    from avex import autodiff
    model, batch, _ = _adatag_batch()
    batch = [c._replace(texts=c.texts * 4, targets=c.targets * 4) for c in batch]
    params = trainable(model)

    def grads():
        for t in params.values():
            t.grad = None
        model.loss(batch).backward()
        return {name: t.grad.copy() for name, t in params.items()}

    def zero_filled(t, g):
        if t.requires_grad:
            if t.grad is None:
                t.grad, t._owns_grad = np.zeros_like(t.data), True
            t.grad += g

    stored = grads()
    monkeypatch.setattr(autodiff, "_accum", zero_filled)
    reference = grads()
    for name in params:
        np.testing.assert_array_equal(stored[name], reference[name], err_msg=name)


def test_batch_loss_uniform_chain_value():
    # Untagged 2-token chain with all-zero parameters scores ln 16.
    import math
    from avex.adaptive_decoder import chain_nll
    P = np.zeros((4, 2))
    T = np.zeros((4, 4))
    assert chain_nll(P, T, [2, 2]).item() == pytest.approx(math.log(16.0))


# -- the training loop -------------------------------------------------------


def test_train_reaches_high_dev_f1_and_stops():
    _, _, _, report, model = run_micro_train()
    assert report.best_dev_f1 >= 0.9
    # Plateau after the best epoch runs exactly `patience` epochs long.
    if report.stopped_epoch < 20:
        assert report.stopped_epoch == report.best_epoch + 3


def test_train_is_deterministic():
    *_, report_a, model_a = run_micro_train()
    *_, report_b, model_b = run_micro_train()
    assert [e.train_nll for e in report_a.epochs] == \
        [e.train_nll for e in report_b.epochs]
    assert [e.dev_f1 for e in report_a.epochs] == \
        [e.dev_f1 for e in report_b.epochs]
    for (na, ta), (nb, tb) in zip(model_a.params.items(),
                                  model_b.params.items()):
        assert na == nb
        np.testing.assert_array_equal(ta.data, tb.data)


def test_train_seed_changes_trajectory():
    *_, report_a, _ = run_micro_train(seed=3)
    *_, report_b, _ = run_micro_train(seed=4)
    assert [e.train_nll for e in report_a.epochs] != \
        [e.train_nll for e in report_b.epochs]


def test_frozen_attribute_embeddings_do_not_move():
    corpus, by_split, table, report, model = run_micro_train()
    np.testing.assert_array_equal(
        model.params["att_emb/W_att"].data,
        table.as_matrix(corpus.vocab.ids()))


def test_train_restores_best_epoch_params():
    _, by_split, _, report, model = run_micro_train()
    final = evaluate_model(model, by_split["dev"])
    assert final.macro_f1 == report.best_dev_f1


def _scripted_dev_f1(monkeypatch, f1s):
    """Make the epoch loop see dev macro-F1 ``f1s`` in turn; returns the
    trainable parameters' values at each dev evaluation."""
    from avex import training
    seen = []

    def evaluate(model, examples):
        seen.append({n: t.data.copy() for n, t in trainable(model).items()})
        return dataclasses.replace(evaluate_model(model, examples),
                                   macro_f1=f1s[len(seen) - 1])

    monkeypatch.setattr(training, "evaluate_model", evaluate)
    return seen


def test_worse_final_epoch_restores_the_earlier_best(monkeypatch):
    seen = _scripted_dev_f1(monkeypatch, [0.2, 0.9, 0.5])
    *_, report, model = run_micro_train(max_epochs=3, patience=5)
    assert (report.best_epoch, report.best_dev_f1, report.stopped_epoch) == (2, 0.9, 3)
    for name, t in trainable(model).items():
        np.testing.assert_array_equal(t.data, seen[1][name])
    assert any(not np.array_equal(t.data, seen[2][name])
               for name, t in trainable(model).items())


def test_best_last_epoch_keeps_its_parameters(monkeypatch):
    seen = _scripted_dev_f1(monkeypatch, [0.2, 0.5, 0.9])
    *_, report, model = run_micro_train(max_epochs=3, patience=5)
    assert report.best_epoch == 3
    for name, t in trainable(model).items():
        np.testing.assert_array_equal(t.data, seen[2][name])


# (dev F1 per epoch, patience, best epoch, stopped epoch), worked out by
# hand: the best epoch is the first with the highest F1, and training stops
# once `patience` epochs have passed since it.  One F1 per allowed epoch.
EARLY_STOPPING_CASES = {
    "tie-keeps-the-first": ([0.5, 0.7, 0.7, 0.7, 0.7], 2, 2, 4),
    "tie-at-the-last-epoch": ([0.4, 0.6, 0.6], 5, 2, 3),
    "plateau-of-patience-stops": ([0.3, 0.8, 0.5, 0.5, 0.5, 0.9], 3, 2, 5),
    "plateau-one-shorter-runs-on": ([0.3, 0.8, 0.5, 0.5, 0.9, 0.6], 3, 5, 6),
    "best-last-epoch": ([0.1, 0.2, 0.3], 1, 3, 3),
    "patience-beyond-max-epochs": ([0.9, 0.1, 0.1, 0.1], 10, 1, 4),
}


@pytest.mark.parametrize("f1s, patience, best, stopped",
                         EARLY_STOPPING_CASES.values(), ids=EARLY_STOPPING_CASES)
def test_early_stopping_reads_the_dev_f1_sequence(monkeypatch, f1s, patience, best, stopped):
    seen = _scripted_dev_f1(monkeypatch, f1s)
    *_, report, model = run_micro_train(max_epochs=len(f1s), patience=patience,
                                        batch_size=6)
    assert (report.best_epoch, report.best_dev_f1, report.stopped_epoch) \
        == (best, f1s[best - 1], stopped)
    assert len(report.epochs) == len(seen) == stopped
    assert [e.dev_f1 for e in report.epochs] == f1s[:stopped]
    for name, t in trainable(model).items():
        np.testing.assert_array_equal(t.data, seen[best - 1][name])


def test_one_epoch_leaves_versions_at_the_adam_step_count():
    # No snapshot taken and none restored: every assignment is an Adam step.
    _, by_split, _, report, model = run_micro_train(max_epochs=1)
    steps = -(-len(by_split["train"]) // micro_config().batch_size)
    assert report.best_epoch == 1
    assert {t.version for t in trainable(model).values()} == {steps}


def test_train_releases_the_last_gradients():
    *_, model = run_micro_train(max_epochs=2)
    assert all(t.grad is None for t in trainable(model).values())


def test_train_adatag_adopts_table_dim():
    corpus, by_split, table, report, model = run_micro_train()
    assert report.config["d_r"] == table.d_r
    assert model.params["hyper/W_hyper_w"].data.shape[1] == table.d_r


def test_train_attribute_filter():
    corpus, by_split = micro_synth()
    table = uncontextualized_table(corpus.vocab, by_split["train"],
                                   corpus.vectors)
    cfg = micro_config(attributes=("Scent",), max_epochs=2)
    report, model = train(cfg, corpus.vocab, by_split["train"],
                          by_split["dev"], attr_table=table,
                          vectors=corpus.vectors)
    assert model.attr_vocab.ids() == ["Scent"]
    with pytest.raises(DataError):
        model.predict_tags(["x"], "Color")


def test_train_empty_split_rejected():
    corpus, by_split = micro_synth()
    table = uncontextualized_table(corpus.vocab, by_split["train"],
                                   corpus.vectors)
    with pytest.raises(DataError):
        train(micro_config(), corpus.vocab, [], by_split["dev"],
              attr_table=table)


def test_train_per_attribute_variant_reports_each():
    corpus, by_split = micro_synth()
    cfg = micro_config(variant="per_attribute", max_epochs=3)
    report, model = train(cfg, corpus.vocab, by_split["train"],
                          by_split["dev"], vectors=corpus.vectors)
    assert set(report.per_attribute) == {"Scent", "Color"}
    for stats in report.per_attribute.values():
        assert stats["stopped_epoch"] >= 1


def test_per_attribute_runs_one_dev_pass_per_epoch_and_attribute(monkeypatch):
    from avex import training
    corpus, by_split = micro_synth()
    passes = []
    monkeypatch.setattr(training, "evaluate_model",
                        lambda model, examples: passes.append(
                            {ex.attribute for ex in examples}) or evaluate_model(model, examples))
    cfg = micro_config(variant="per_attribute", max_epochs=3)
    report, model = train(cfg, corpus.vocab, by_split["train"],
                          by_split["dev"], vectors=corpus.vectors)
    entries = report.per_attribute
    assert passes == [{a} for a in entries for _ in entries[a]["epochs"]]
    # The top level is the mean of the entries, as a dev pass over every
    # attribute of the restored model measures it, to the bit.
    assert report.best_dev_f1 == evaluate_model(model, by_split["dev"]).macro_f1


def test_n_tag_sets_report_counts_the_spans_the_merge_drops():
    # p1's Color value "rose red" overlaps its Scent value "rose"; Scent
    # comes first in the vocabulary, so the joint tags keep "rose" only.
    vocab = AttributeVocab([("Scent", None), ("Color", None)])
    products = [
        Product("p1", "rose red towel", [], None, {"Scent": ["rose"], "Color": ["rose red"]}),
        Product("p2", "teal mango towel", [], None, {"Scent": ["mango"], "Color": ["teal"]}),
    ]
    examples, _ = build_corpus(products, vocab)
    reports = {}
    for variant in ("n_tag_sets", "bilstm_multicrf"):
        config = TrainConfig(variant=variant, d_h=4, d_word=3, max_epochs=1, seed=0)
        reports[variant] = train(config, vocab, examples, examples)[0].to_json()
    assert reports["n_tag_sets"]["dropped_spans"] == 1
    assert "dropped_spans" not in reports["bilstm_multicrf"]


def test_non_finite_loss_raises_numeric_error():
    # The message names each chain of the batch by its id: an example's
    # product and attribute, or a joint chain's product.
    corpus, by_split = micro_synth()
    examples = [toy_example("p1")]

    class NanModel:
        def loss(self, batch):
            return Tensor(np.asarray(float("nan")))

        @property
        def params(self):
            raise AttributeError

    from avex.training import _fit
    for variant, chain_id in (("bilstm_multicrf", "p1/Scent"), ("n_tag_sets", "p1")):
        chains = build_variant(micro_config(variant=variant), corpus.vocab,
                               derive_word_itos(variant, examples)).prepare_examples(examples)
        with pytest.raises(NumericError) as err:
            _fit(NanModel(), Adam([], lr=1e-3), chains, by_split["dev"], micro_config(),
                 np.random.default_rng(0))
        assert str(err.value) == ("non-finite training loss at epoch 1, batch starting "
                                  f"at 0 (examples: {chain_id})")


# -- checkpoints -------------------------------------------------------------


def test_checkpoint_round_trip_preserves_f32_tensors(tmp_path):
    _, by_split, _, report, model = run_micro_train()
    stem = tmp_path / "model"
    save_checkpoint(stem, model)
    loaded = load_checkpoint(stem)
    for (name, t), (name2, t2) in zip(model.params.items(),
                                      loaded.params.items()):
        assert name == name2
        np.testing.assert_array_equal(
            t.data.astype("<f4").astype(np.float64), t2.data)


def test_checkpoint_round_trip_preserves_dev_f1(tmp_path):
    _, by_split, _, report, model = run_micro_train()
    stem = tmp_path / "model"
    save_checkpoint(stem, model)
    loaded = load_checkpoint(stem)
    before = evaluate_model(model, by_split["dev"]).macro_f1
    after = evaluate_model(loaded, by_split["dev"]).macro_f1
    assert after == before


def test_checkpoint_identical_across_same_seed_runs(tmp_path):
    *_, model_a = run_micro_train()
    *_, model_b = run_micro_train()
    save_checkpoint(tmp_path / "a", model_a)
    save_checkpoint(tmp_path / "b", model_b)
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
    manifest_a = (tmp_path / "a.json").read_text().replace('"a.bin"', '"X"')
    manifest_b = (tmp_path / "b.json").read_text().replace('"b.bin"', '"X"')
    assert manifest_a == manifest_b


def test_checkpoint_save_load_idempotent(tmp_path):
    # Saving an already-rounded model must reproduce the payload bytes.
    *_, model = run_micro_train()
    save_checkpoint(tmp_path / "one", model)
    loaded = load_checkpoint(tmp_path / "one")
    save_checkpoint(tmp_path / "two", loaded)
    assert (tmp_path / "one.bin").read_bytes() == \
        (tmp_path / "two.bin").read_bytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_checkpoint_save_load_save_is_identical(tmp_path, variant):
    # The manifest and the payload a loaded model writes are the ones it
    # was loaded from.
    *_, model = run_micro_train(variant=variant, max_epochs=1)
    first, second = tmp_path / "a" / "model", tmp_path / "b" / "model"
    first.parent.mkdir()
    second.parent.mkdir()
    save_checkpoint(first, model)
    save_checkpoint(second, load_checkpoint(first))
    for suffix in (".json", ".bin"):
        assert first.with_suffix(suffix).read_bytes() == \
            second.with_suffix(suffix).read_bytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_load_draws_nothing(tmp_path, monkeypatch, variant):
    # The payload assigns every tensor, so the load makes no generator, not
    # even for adatag_random_emb's attribute table, and counting from flags
    # makes none either.
    *_, model = run_micro_train(variant=variant, max_epochs=1)
    save_checkpoint(tmp_path / "model", model)

    def no_draw(*_args):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    loaded = load_checkpoint(tmp_path / "model")
    param_count_from_config(model.config)
    assert loaded.params.keys() == model.params.keys()
    for name, t in model.params.items():
        np.testing.assert_array_equal(loaded.params[name].data,
                                      t.data.astype("<f4").astype(np.float64), name)
    assert loaded.attr_provenance == model.attr_provenance
    with pytest.raises(AssertionError, match="generator"):
        build_variant(model.config, model.attr_vocab, model.word_vocabs())


def test_checkpoints_of_dotted_stems_keep_apart(tmp_path):
    # m.seed1 and m.seed2 are two checkpoints, not one m.json written twice;
    # a stem ending .json names the manifest.
    models = [run_micro_train(seed=seed, max_epochs=1)[-1] for seed in (1, 2)]
    for stem, model in (("m.seed1", models[0]), ("m.seed2", models[1]),
                        ("n.json", models[0])):
        save_checkpoint(tmp_path / stem, model)
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["m.seed1.bin", "m.seed1.json", "m.seed2.bin", "m.seed2.json", "n.bin", "n.json"]
    for stem, model in (("m.seed1", models[0]), ("m.seed2.json", models[1]),
                        ("n", models[0])):
        np.testing.assert_array_equal(
            load_checkpoint(tmp_path / stem).params["encoder/lstm_fwd/W"].data,
            model.params["encoder/lstm_fwd/W"].data.astype(np.float32))


def test_generated_decoder_without_provenance_is_not_saved(tmp_path):
    # A model built without a table (as a load or a count builds it) has
    # no provenance to write, and its manifest would not load.
    corpus, by_split = micro_synth()
    model = build_variant(micro_config(), corpus.vocab,
                          derive_word_itos("adatag", by_split["train"]))
    with pytest.raises(DataError, match="without the provenance of its attribute table"):
        save_checkpoint(tmp_path / "model", model)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e39])
def test_a_tensor_not_finite_in_f32_is_not_saved(tmp_path, value):
    # No token reads the <pad> row, so a value there leaves the loss
    # finite; a checkpoint holding it would not load.  1e39 is inf in f32.
    *_, model = run_micro_train(max_epochs=1)
    save_checkpoint(tmp_path / "model", model)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    t = model.params["encoder/W_word"]
    data = t.data.copy()
    data[0, 1] = value
    t.data = data
    for stem in ("model", "other"):
        with pytest.raises(NumericError) as err:
            save_checkpoint(tmp_path / stem, model)
        assert str(err.value) == "checkpoint tensor encoder/W_word holds non-finite values"
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("variant", VARIANTS)
def test_provenance_of_the_other_kind_of_variant_is_refused(tmp_path, variant):
    # Only a generated decoder's table has a provenance: null is refused for
    # adatag and adatag_random_emb, and a provenance for the other variants.
    *_, model = run_micro_train(variant=variant, max_epochs=1)
    save_checkpoint(tmp_path / "model", model)
    manifest = json.loads((tmp_path / "model.json").read_text())
    manifest["attribute_provenance"] = \
        "random" if manifest["attribute_provenance"] is None else None
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="attribute_provenance"):
        load_checkpoint(tmp_path / "model")


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.text(), st.none() | st.text()), min_size=1, max_size=3,
                unique_by=lambda e: e[0]))
def test_manifest_attribute_vocab_is_the_vocabulary_file(entries):
    # A checkpoint states its vocabulary in the rows of a vocabulary file,
    # and loads it back with the same ids and phrases.
    vocab = AttributeVocab(entries)
    model = build_variant(micro_config(variant="bilstm_multicrf", d_h=2, d_word=2),
                          vocab, {"shared": ["<pad>", "<unk>"]})
    with tempfile.TemporaryDirectory() as tmp:
        vocab.save(Path(tmp) / "vocab.json")
        manifest = files.read_json(save_checkpoint(Path(tmp) / "model", model), "manifest")
        assert manifest["attribute_vocab"] == \
            files.read_json(Path(tmp) / "vocab.json", "vocabulary")
        assert load_checkpoint(Path(tmp) / "model").attr_vocab.to_json() == vocab.to_json()


@pytest.mark.parametrize("attributes", (["Color", "Scent", "Color"], [], None))
def test_manifest_attributes_name_the_vocabulary_as_a_set(tmp_path, attributes):
    # train() keeps the vocabulary's order and drops repeats, and ignores
    # an empty list; another set of attributes is refused.
    model = build_variant(micro_config(variant="bilstm_multicrf", d_h=2, d_word=2),
                          AttributeVocab([("Scent", None), ("Color", None)]),
                          {"shared": ["<pad>", "<unk>"]})
    path = save_checkpoint(tmp_path / "model", model)
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for attrs, loads in ((attributes, True), (["Scent"], False), (["Scent", "Nope"], False)):
        manifest["config"]["attributes"] = attrs
        path.write_text(json.dumps(manifest), encoding="utf-8")
        if loads:
            assert load_checkpoint(path).attr_vocab.ids() == ["Scent", "Color"]
        else:
            with pytest.raises(DataError, match="config attributes .* do not name"):
                load_checkpoint(path)


def test_checkpoint_save_failure_keeps_earlier_pair(tmp_path, monkeypatch):
    *_, model = run_micro_train()
    stem = tmp_path / "model"
    save_checkpoint(stem, model)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    real_write = files.write

    def manifest_fails(path, binary=False):
        if path.suffix == ".json":  # the payload is already staged
            raise DataError("disk full")
        return real_write(path, binary)

    monkeypatch.setattr(files, "write", manifest_fails)
    for _name, t in model.params.items():
        t.data = t.data + 1.0
    with pytest.raises(DataError, match="disk full"):
        save_checkpoint(stem, model)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    load_checkpoint(stem)


def test_checkpoint_truncated_payload_rejected(tmp_path):
    *_, model = run_micro_train()
    stem = tmp_path / "model"
    save_checkpoint(stem, model)
    payload = (tmp_path / "model.bin").read_bytes()
    (tmp_path / "model.bin").write_bytes(payload[:-8])
    with pytest.raises(DataError) as err:
        load_checkpoint(stem)
    assert "truncated" in str(err.value)


def test_checkpoint_config_mismatch_rejected(tmp_path):
    *_, model = run_micro_train()
    stem = tmp_path / "model"
    save_checkpoint(stem, model)
    manifest = json.loads((tmp_path / "model.json").read_text())
    manifest["config"]["d_h"] = 16  # model was trained with d_h = 8
    (tmp_path / "model.json").write_text(json.dumps(manifest, sort_keys=True))
    with pytest.raises(DataError) as err:
        load_checkpoint(stem)
    assert "shape" in str(err.value)


@pytest.mark.parametrize("rate", [-1, -1.0])
def test_a_negative_manifest_learning_rate_is_refused_by_validate(tmp_path, rate):
    # An integer and a float of a float field are both numbers to the
    # manifest check; the configuration's own check refuses the sign.
    *_, model = run_micro_train(max_epochs=1)
    stem = tmp_path / "model"
    save_checkpoint(stem, model)
    manifest = json.loads((tmp_path / "model.json").read_text())
    manifest["config"]["learning_rate"] = rate
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError, match=f"learning_rate must be positive and finite, "
                                        f"got {rate}$"):
        load_checkpoint(stem)


def test_checkpoint_version_gate(tmp_path):
    *_, model = run_micro_train()
    stem = tmp_path / "model"
    save_checkpoint(stem, model)
    manifest = json.loads((tmp_path / "model.json").read_text())
    manifest["format_version"] = 99
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(DataError):
        load_checkpoint(stem)


def test_checkpoint_missing_files(tmp_path):
    with pytest.raises(DataError):
        load_checkpoint(tmp_path / "ghost")


# -- parameter accounting ----------------------------------------------------


def test_param_count_hypernetwork_at_default_scale():
    report = param_count_from_config(TrainConfig())  # d_h=200, d_r=1536
    assert report.tensors["hyper/W_hyper_w"] == 4 * 200 * 1536 == 1_228_800
    assert report.tensors["hyper/b_hyper_w"] == 800
    assert report.tensors["moe/W_moe"] == 3 * 1536
    assert report.tensors["moe/experts"] == 3 * 16 == 48


def test_param_count_expanded_tagset():
    report = param_count_from_config(
        TrainConfig(variant="n_tag_sets"), n_attributes=12)
    assert report.tensors["decoder/T"] == 37 * 37 == 1369
    note = " ".join(report.notes)
    assert "1,369" in note and "1,296" in note


def test_param_count_notes_without_vocab_size():
    report = param_count_from_config(TrainConfig())
    assert any("W_word" in n for n in report.notes)
    report2 = param_count_from_config(TrainConfig(), word_vocab_size=100,
                                      n_attributes=12)
    assert report2.tensors["encoder/W_word"] == 100 * 50
    assert report2.tensors["att_emb/W_att"] == 12 * 1536


def test_param_count_live_model_matches_config():
    corpus, by_split, table, _, model = run_micro_train()
    live = param_count(model.params)
    itos = model.word_vocabs()["shared"]
    symbolic = param_count_from_config(
        dataclasses.replace(micro_config(), d_r=table.d_r),
        n_attributes=2, word_vocab_size=len(itos))
    assert live.total == symbolic.total
    assert sum(live.groups.values()) == live.total
    # Frozen attribute embeddings count in total but not trainable.
    w_att = live.tensors["att_emb/W_att"]
    assert live.trainable_total == live.total - w_att


def test_param_count_report_to_table():
    report = param_count_from_config(TrainConfig(), n_attributes=12,
                                     word_vocab_size=100)
    text = report.to_table()
    # Groups, not individual tensors: hyper = 1,228,800 + 800 + 6,144 + 4.
    assert "hyper" in text and "1,235,748" in text
    assert "total" in text


def test_param_count_frozen_attribute_table_not_trainable():
    report = param_count_from_config(TrainConfig(), n_attributes=12,
                                     word_vocab_size=100)
    assert report.trainable_total == report.total - 12 * 1536


@pytest.mark.parametrize("variant", VARIANTS)
def test_param_count_from_config_matches_built_model(variant):
    ids = ["Scent", "Color", "Size"]
    words = ["<pad>", "<unk>", "rose", "red", "teal", "large", "mango"]
    config = TrainConfig(variant=variant, d_h=6, d_word=4, d_r=5, k=2)
    scopes = ids if variant == "per_attribute" else ["shared"]
    table = AttributeEmbeddingTable(
        {a: np.arange(5.0) + i for i, a in enumerate(ids)}, "uncontextualized")
    built = param_count(build_variant(
        config, AttributeVocab([(a, None) for a in ids]),
        dict.fromkeys(scopes, words), attr_table=table).params)
    derived = param_count_from_config(config, n_attributes=len(ids),
                                      word_vocab_size=len(words))

    def placeholders(mapping):
        out = {}
        for key, count in mapping.items():
            for i, a in enumerate(ids, 1):
                key = key.replace(a, f"<attribute {i}>")
            out[key] = count
        return out

    assert list(derived.tensors.items()) == list(placeholders(built.tensors).items())
    assert derived.groups == placeholders(built.groups)
    assert derived.total == built.total
    assert derived.trainable_total == built.trainable_total
    vocabulary_note = any("vocabulary" in n for n in derived.notes)
    assert vocabulary_note == (variant == "per_attribute")


@pytest.mark.parametrize("variant", VARIANTS)
def test_param_count_lists_size_dependent_tensors(variant):
    config = TrainConfig(variant=variant, d_h=6, d_word=4, d_r=5, k=2)
    full = param_count_from_config(config, n_attributes=2, word_vocab_size=9)
    partial = param_count_from_config(config)
    notes = " ".join(partial.notes)
    # Everything counted without the sizes is counted identically with them.
    assert set(partial.tensors) <= set(full.tensors)
    assert all(full.tensors[k] == v for k, v in partial.tensors.items())
    assert partial.total == sum(partial.tensors.values())
    for name in full.tensors:
        dependent = "<attribute" in name or "W_word" in name or name in (
            "att_emb/W_att", "decoder/W", "decoder/b", "decoder/T")
        assert (name in partial.tensors) != dependent
    assert "W_word" in notes and "|V|" in notes
    assert "number of attributes N" in notes


def test_param_count_rejects_nonpositive_sizes():
    with pytest.raises(DataError):
        param_count_from_config(TrainConfig(), n_attributes=0)
    with pytest.raises(DataError):
        param_count_from_config(TrainConfig(), word_vocab_size=0)

