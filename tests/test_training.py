import dataclasses
import json

import numpy as np
import pytest

from avex import files
from avex.autodiff import Tensor
from avex.corpus import (
    AttributeVocab,
    LabeledExample,
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
    Adam,
    TrainConfig,
    batch_loss,
    load_checkpoint,
    param_count,
    param_count_from_config,
    parse_config_file,
    save_checkpoint,
    train,
)


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
    report, model = train(micro_config(**kw), corpus.vocab,
                          by_split["train"], by_split["dev"],
                          attr_table=table, vectors=corpus.vectors)
    return corpus, by_split, table, report, model


class ConstantLossModel:
    """Stub exposing just enough surface for the batch helpers."""

    def __init__(self, values):
        self.values = list(values)
        self._i = 0

    def loss(self, example):
        v = self.values[self._i % len(self.values)]
        self._i += 1
        return Tensor(np.asarray(float(v)))

    def prepare_examples(self, examples):
        return list(examples)


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
])
def test_config_validate_rejects(kw):
    with pytest.raises(DataError):
        TrainConfig(**kw).validate()


def test_config_from_mapping_coerces_strings():
    cfg = TrainConfig.from_mapping({
        "variant": "bilstm_multicrf", "d_h": "16", "learning_rate": "0.01",
        "attributes": "Scent, Color"})
    assert cfg.d_h == 16
    assert cfg.learning_rate == 0.01
    assert cfg.attributes == ("Scent", "Color")


def test_config_from_mapping_rejects_unknown_key():
    with pytest.raises(DataError):
        TrainConfig.from_mapping({"dh": 16})


def test_config_from_mapping_rejects_bad_number():
    with pytest.raises(DataError):
        TrainConfig.from_mapping({"d_h": "sixteen"})


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "variant = adatag\n"
        "d_h = 16   # trailing comment\n"
        "\n"
        "learning_rate = 0.001\n", encoding="utf-8")
    assert parse_config_file(path) == {
        "variant": "adatag", "d_h": "16", "learning_rate": "0.001"}


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
    batch = by_split["train"][:8]
    for seed in range(20):
        cfg = micro_config(seed=seed)
        itos = derive_word_itos(cfg.variant, by_split["train"])
        model = build_variant(cfg, corpus.vocab, itos, attr_table=table,
                              vectors=corpus.vectors)
        opt = Adam(model.params.trainable().values(), lr=1e-4)
        before = batch_loss(model, batch)
        value = before.item()
        before.backward()
        opt.step()
        after = batch_loss(model, batch).item()
        assert after < value, f"seed {seed}: {value} -> {after}"


# -- batch loss --------------------------------------------------------------


def test_batch_loss_is_mean():
    model = ConstantLossModel([1.0, 2.0, 6.0])
    loss = batch_loss(model, [toy_example(), toy_example(), toy_example()])
    assert loss.item() == pytest.approx(3.0)


def test_batch_loss_empty_batch():
    with pytest.raises(DataError):
        batch_loss(ConstantLossModel([1.0]), [])


def _adatag_batch():
    corpus, by_split = micro_synth()
    table = uncontextualized_table(corpus.vocab, by_split["train"], corpus.vectors)
    cfg = micro_config()
    itos = derive_word_itos(cfg.variant, by_split["train"])
    model = build_variant(cfg, corpus.vocab, itos, attr_table=table,
                          vectors=corpus.vectors)
    train = by_split["train"]
    return model, train[:6] + train[-6:], by_split["dev"]


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
    batch_loss(model, batch).backward()
    assert len(calls) == len(attributes)
    batch_loss(model, batch)
    assert len(calls) == 2 * len(attributes)
    model.loss(batch[0])  # outside a batch, each call generates its own
    assert len(calls) == 2 * len(attributes) + 1


def test_collect_results_generates_each_decoder_once(monkeypatch):
    from avex.evaluation import collect_results
    model, _, dev = _adatag_batch()
    calls = _count_decoder_builds(monkeypatch)
    results = collect_results(model, dev)
    assert len(calls) == len({ex.attribute for ex in dev}) < len(results)
    unshared = [model.predict_tags(ex.token_texts(), ex.attribute) for ex in dev[:3]]
    assert len(calls) == len({ex.attribute for ex in dev}) + 3
    assert all(len(tags) == len(ex.tokens) for tags, ex in zip(unshared, dev))


def test_batch_gradient_is_sum_of_example_gradients():
    model, batch, _ = _adatag_batch()
    params = model.params.trainable()

    def grads():
        out = {name: t.grad.copy() for name, t in params.items()}
        for t in params.values():
            t.grad = None
        return out

    (batch_loss(model, batch) * len(batch)).backward()
    together = grads()
    summed = {name: np.zeros_like(t.data) for name, t in params.items()}
    for ex in batch:
        model.loss(ex).backward()
        for name, g in grads().items():
            summed[name] += g
    for name in params:
        np.testing.assert_allclose(together[name], summed[name], rtol=1e-12,
                                   atol=1e-12, err_msg=name)


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


def test_non_finite_loss_raises_numeric_error():
    corpus, by_split = micro_synth()

    class NanModel(ConstantLossModel):
        def loss(self, example):
            return Tensor(np.asarray(float("nan")))

        @property
        def params(self):
            raise AttributeError

    from avex.training import _fit
    model = NanModel([])
    opt = Adam([], lr=1e-3)
    with pytest.raises(NumericError) as err:
        _fit(model, opt, [toy_example("p1"), toy_example("p2")],
             by_split["dev"], micro_config(), np.random.default_rng(0))
    msg = str(err.value)
    assert "epoch 1" in msg
    assert "p1" in msg or "p2" in msg


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
    experts = sum(v for k, v in report.tensors.items()
                  if k.startswith("moe/expert_"))
    assert experts == 3 * 16 == 48


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

