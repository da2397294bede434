import dataclasses
import functools
import gc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avex import evaluation
from avex.autodiff import Tensor, grad_check, no_grad
from avex.corpus import AttributeVocab, Product, build_corpus
from avex.errors import DataError, NumericError
from avex.models import (
    VARIANTS,
    ModelParams,
    build_variant,
    derive_word_itos,
)
from avex.attribute_embeddings import AttributeEmbeddingTable
from avex.tagging import NUM_TAGS
from avex.training import TrainConfig


def tiny_corpus():
    vocab = AttributeVocab([("Scent", None), ("Color", None)])
    products = [
        Product("p1", "lavender / rose scented wash", [], None,
                {"Scent": ["lavender", "rose"], "Color": ["white"]}),
        Product("p2", "white cotton towel", [], None,
                {"Color": ["white"]}),
    ]
    examples, _ = build_corpus(products, vocab)
    return vocab, examples


def tiny_config(variant="adatag", **kw):
    defaults = dict(variant=variant, d_h=6, d_word=4, d_r=5, k=2,
                    max_epochs=2, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def embedding_table(vocab, d_r=5):
    return AttributeEmbeddingTable(
        {a: np.linspace(0.0, 1.0, d_r) + i
         for i, a in enumerate(vocab.ids())},
        "uncontextualized")


def build(variant, **kw):
    vocab, examples = tiny_corpus()
    config = tiny_config(variant, **kw)
    itos = derive_word_itos(variant, examples)
    table = embedding_table(vocab) if variant == "adatag" else None
    model = build_variant(config, vocab, itos, attr_table=table)
    return model, vocab, examples


# -- parameter registry ------------------------------------------------------


def test_model_params_rejects_duplicates():
    params = ModelParams()
    params.add("a/x", np.zeros(2), "g")
    with pytest.raises(ValueError):
        params.add("a/x", np.zeros(2), "g")


def test_model_params_groups_and_trainability():
    params = ModelParams()
    params.add("a/x", np.zeros(2), "g1")
    params.add("b/y", np.zeros(2), "g2", trainable=False)
    assert params.groups() == ["g1", "g2"]
    assert set(params.trainable()) == {"a/x"}
    assert set(params.in_group("g2")) == {"b/y"}
    assert params.group_of("b/y") == "g2"


# -- vocabulary derivation ---------------------------------------------------


def test_derive_word_itos_shared():
    _, examples = tiny_corpus()
    itos = derive_word_itos("adatag", examples)
    assert set(itos) == {"shared"}
    assert itos["shared"][:2] == ["<pad>", "<unk>"]
    assert "lavender" in itos["shared"]
    assert itos["shared"][2:] == sorted(itos["shared"][2:])


def test_derive_word_itos_per_attribute():
    _, examples = tiny_corpus()
    itos = derive_word_itos("per_attribute", examples)
    assert set(itos) == {"Scent", "Color"}
    assert "towel" in itos["Color"]
    assert "towel" not in itos["Scent"]


# -- variant wiring ----------------------------------------------------------


def test_unsupported_variant_lists_choices():
    vocab, examples = tiny_corpus()
    with pytest.raises(DataError) as err:
        build_variant(tiny_config("bert"), vocab,
                      derive_word_itos("adatag", examples))
    assert "adatag" in str(err.value)


def test_adatag_requires_embedding_table():
    vocab, examples = tiny_corpus()
    with pytest.raises(DataError):
        build_variant(tiny_config("adatag"), vocab,
                      derive_word_itos("adatag", examples))


def test_adatag_group_partition():
    model, _, _ = build("adatag")
    assert set(model.params.groups()) == {"encoder", "att_emb", "hyper", "moe"}
    hyper = model.params.in_group("hyper")
    assert set(hyper) == {"hyper/W_hyper_w", "hyper/b_hyper_w",
                          "hyper/W_hyper_b", "hyper/b_hyper_b"}
    moe = model.params.in_group("moe")
    assert set(moe) == {"moe/W_moe", "moe/b_moe", "moe/experts"}


def test_adatag_hyper_shapes():
    model, _, _ = build("adatag")
    d_h, d_r = 6, 5
    assert model.params["hyper/W_hyper_w"].data.shape == (NUM_TAGS * d_h, d_r)
    assert model.params["hyper/W_hyper_b"].data.shape == (NUM_TAGS, d_r)
    assert model.params["moe/W_moe"].data.shape == (2, d_r)
    assert model.params["moe/experts"].data.shape == (2, NUM_TAGS, NUM_TAGS)


def test_adatag_frozen_embeddings_not_trainable():
    model, _, _ = build("adatag")
    assert not model.params["att_emb/W_att"].requires_grad
    assert "att_emb/W_att" not in model.params.trainable()


def test_adatag_attribute_vector_rows():
    model, vocab, _ = build("adatag")
    table = embedding_table(vocab)
    for i, a in enumerate(vocab.ids()):
        np.testing.assert_array_equal(model.w_att.data[i], table.get(a))
    with pytest.raises(DataError):
        model.predict_tags(["white"], "Nope")


def test_adatag_random_emb_is_trainable():
    model, _, _ = build("adatag_random_emb")
    assert model.params["att_emb/W_att"].requires_grad
    assert model.params["att_emb/W_att"].data.shape == (2, 5)
    assert not model.attribute_info()["frozen"]


def test_adatag_loss_and_predict_shapes():
    model, vocab, examples = build("adatag")
    loss = model.loss([examples[0]])
    assert loss.data.shape == ()
    assert np.isfinite(loss.item())
    tags = model.predict_tags(["white", "towel"], "Color")
    assert len(tags) == 2
    assert set(tags) <= {"B", "I", "O", "E"}


@pytest.mark.parametrize("call", ("predict_batch", "loss", "extract"))
def test_chain_without_tokens_is_data_error(call):
    model, vocab, examples = build("adatag")
    empty = dataclasses.replace(examples[0], tokens=(), tags=())
    # each call with the position and attribute of its empty chain
    run, position, attribute = {
        "predict_batch": (lambda: model.predict_batch([(["white"], "Color"), ([], "Scent")]),
                          1, "Scent"),
        "loss": (lambda: model.loss([examples[0], empty]), 1, empty.attribute),
        "extract": (lambda: evaluation.extract(model, [], "Color"), 0, "Color"),
    }[call]
    with pytest.raises(DataError, match=rf"chain {position} \('{attribute}'\) has no tokens"):
        run()


def test_multicrf_per_attribute_decoders():
    model, vocab, _ = build("bilstm_multicrf")
    decoder_names = set(model.params.in_group("decoder"))
    assert decoder_names == {
        "decoder/Scent/W", "decoder/Scent/b", "decoder/Scent/T",
        "decoder/Color/W", "decoder/Color/b", "decoder/Color/T"}
    assert model.params["decoder/Scent/T"].data.shape == (NUM_TAGS, NUM_TAGS)
    with pytest.raises(DataError):
        model.predict_tags(["x"], "Nope")


def test_n_tag_sets_joint_decoder_size():
    model, vocab, _ = build("n_tag_sets")
    m = 3 * len(vocab.ids()) + 1
    assert model.params["decoder/T"].data.shape == (m, m)
    assert model.params["decoder/W"].data.shape == (m, 6)


def test_n_tag_sets_merges_products():
    model, vocab, examples = build("n_tag_sets")
    merged = model.prepare_examples(examples)
    # p1 has Scent and Color examples; they fold into one sequence.
    assert [m.product_id for m in merged] == ["p1", "p2"]
    tags = model.predict_tags(["white", "towel"], "Color")
    assert len(tags) == 2
    assert set(tags) <= {"B", "I", "O", "E"}


def test_n_tag_sets_rejects_inconsistent_tokens():
    model, vocab, examples = build("n_tag_sets")
    from avex.corpus import LabeledExample, Token
    bad = LabeledExample("p1", "Color", (Token("different", 0, 9),), ("O",),
                         "title")
    with pytest.raises(DataError):
        model.prepare_examples(list(examples) + [bad])


def test_shared_emb_variant_groups():
    model, vocab, _ = build("bilstm_crf_shared_emb")
    assert set(model.params.groups()) == {"embedding", "encoder", "decoder"}
    # One LSTM pair per attribute, all sharing the single embedding matrix.
    assert "encoder/Scent/lstm_fwd/W" in model.params
    assert "encoder/Color/lstm_bwd/b" in model.params
    assert "embedding/W_word" in model.params


def test_per_attribute_variant_disjoint_groups():
    model, vocab, _ = build("per_attribute")
    assert set(model.params.groups()) == {"Scent", "Color"}
    scent = model.params.in_group("Scent")
    assert "per_attr/Scent/encoder/W_word" in scent
    assert "per_attr/Scent/decoder/T" in scent
    assert all(n.startswith("per_attr/Scent/") for n in scent)


def test_per_attribute_requires_vocab_for_each():
    vocab, examples = tiny_corpus()
    itos = {"Scent": ["<pad>", "<unk>", "rose"]}  # Color missing
    with pytest.raises(DataError):
        build_variant(tiny_config("per_attribute"), vocab, itos)


def test_odd_hidden_size_rejected():
    vocab, examples = tiny_corpus()
    itos = derive_word_itos("adatag", examples)
    with pytest.raises(DataError):
        build_variant(tiny_config("bilstm_multicrf", d_h=5), vocab, itos)


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_trains_one_example(variant):
    model, vocab, examples = build(variant)
    prepared = model.prepare_examples(examples)
    loss = model.loss([prepared[0]])
    loss.backward()
    grads = [t.grad for _, t in model.params.items() if t.requires_grad]
    assert any(g is not None and np.any(g != 0) for g in grads)


def test_same_seed_same_init():
    a, _, _ = build("adatag")
    b, _, _ = build("adatag")
    for (name_a, ta), (name_b, tb) in zip(a.params.items(), b.params.items()):
        assert name_a == name_b
        np.testing.assert_array_equal(ta.data, tb.data)


# -- reuse of encoder states and decoders under no_grad ----------------------


def _count_calls(monkeypatch, name) -> list:
    from avex import models
    calls = []
    real = getattr(models, name)
    monkeypatch.setattr(models, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _shift_emission_bias(model, shift):
    """Rebind the hypernetwork's emission bias (tags B, I, O, E)."""
    b = model.hyper.b_b
    b.data = b.data + np.array(shift)


@pytest.mark.parametrize("write", ["rebind", "adam_step"])
def test_parameter_write_between_extracts_changes_result(write):
    from avex.evaluation import extract
    from avex.training import Adam
    model, _, _ = build("adatag")
    text = ["lavender", "rose", "scented", "wash"]
    _shift_emission_bias(model, [100.0, 0.0, 0.0, 0.0])
    assert len(extract(model, text, "Scent")) == 4  # every token tagged B
    if write == "rebind":
        _shift_emission_bias(model, [0.0, 0.0, 200.0, 0.0])
    else:
        b = model.hyper.b_b
        b.grad = np.array([1.0, 1.0, -1.0, 1.0])
        Adam([b], lr=200.0).step()  # O +200, every other tag -200
    assert extract(model, text, "Scent") == set()


@pytest.mark.parametrize("variant", VARIANTS)
def test_encoder_states_shared_only_between_attributes_of_one_encoder(
        variant, monkeypatch):
    model, vocab, _ = build(variant)
    calls = _count_calls(monkeypatch, "encode_text")
    text = ["white", "cotton", "towel"]
    for _ in range(2):
        for a in vocab.ids():
            model.predict_tags(text, a)
    per_text = len(vocab.ids()) if variant in ("bilstm_crf_shared_emb",
                                               "per_attribute") else 1
    assert len(calls) == per_text
    model.predict_tags(["white"], "Color")  # another text: encoded again
    assert len(calls) == per_text + 1
    for table in model.word_tables.values():
        table.matrix.data = table.matrix.data * 1.0  # a write, same values
    model.predict_tags(["white"], "Color")
    assert len(calls) == per_text + 2


@pytest.mark.parametrize("variant", VARIANTS)
def test_one_chain_is_scored_without_an_emissions_node(variant, monkeypatch):
    model, vocab, _ = build(variant)
    calls = _count_calls(monkeypatch, "emissions")
    text = ["white", "cotton", "towel"]
    alone = [model.predict_tags(text, a) for a in vocab.ids()]
    assert not calls
    chains = [(text, a) for a in vocab.ids()]
    assert model.predict_batch(chains) == alone
    assert len(calls) == 1
    # Each chain's emission columns and transition table are the bits of
    # that chain's columns and table in a batch.
    with no_grad():
        P, T, lengths, slots = model._scores(chains)
    starts = np.cumsum([0] + lengths)
    for i, chain in enumerate(chains):
        columns, table = model._one_chain(*chain)
        assert columns.tobytes() == P.data[:, starts[i]:starts[i + 1]].tobytes()
        assert table.tobytes() == T.data[slots[i]].tobytes()


NOT_FINITE = "best_paths: chain 0 has emission or transition scores that are not finite"


# Corrupted weights make numpy warn in the emission product before the
# model refuses the chain.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_scores_refuse_only_their_chain():
    # bilstm_multicrf: Color's CRF can be corrupted alone.  Its transition
    # table is checked once per kept decoders, its emission columns once
    # per kept block of the text.
    model, _, _ = build("bilstm_multicrf")
    text = ["white", "cotton", "towel"]
    color, scent = (model.predict_tags(text, a) for a in ("Color", "Scent"))
    with np.errstate(over="ignore"):
        overflowed = model.params["decoder/Color/W"].data * 1e308 * 1e308
    inf_table = model.params["decoder/Color/T"].data.copy()
    inf_table[1, 2] = np.inf
    for name, bad in (("decoder/Color/T", inf_table), ("decoder/Color/W", overflowed)):
        tensor = model.params[name]
        good = tensor.data
        tensor.data = bad
        for _ in range(2):  # the verdicts are kept with the scores
            with pytest.raises(NumericError, match=NOT_FINITE):
                model.predict_tags(text, "Color")
            assert model.predict_tags(text, "Scent") == scent
        tensor.data = good
        assert model.predict_tags(text, "Color") == color


def test_non_finite_hypernetwork_refuses_every_attribute():
    model, vocab, _ = build("adatag")
    text = ["white", "cotton", "towel"]
    w = model.hyper.w_w
    bad = w.data.copy()
    bad[0, 0] = np.nan  # tag B's first emission weight, for every attribute
    w.data = bad
    for a in vocab.ids():
        with pytest.raises(NumericError, match=NOT_FINITE):
            model.predict_tags(text, a)


@pytest.mark.parametrize("variant", VARIANTS)
def test_largest_checkpoint_values_decode_without_a_warning(variant):
    # A loaded checkpoint holds finite float32 values, and even at
    # ±float32 max no score overflows float64: decoding warns of nothing.
    model, vocab, _ = build(variant)
    rng = np.random.default_rng(7)
    largest = float(np.finfo(np.float32).max)
    for _, t in model.params.items():
        t.data = np.where(rng.random(t.data.shape) < 0.5, -largest, largest)
    chains = [(["white", "cotton", "towel"], a) for a in vocab.ids()] + [(["rose"], "Scent")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tags = [model.predict_tags(*chain) for chain in chains]
        assert model.predict_batch(chains) == tags


def _four_attribute_model(variant):
    ids = ("Scent", "Color", "Material", "Size")
    vocab = AttributeVocab([(a, None) for a in ids])
    products = [Product("p1", "large white cotton rose towel", [], None,
                        dict(zip(ids, (["rose"], ["white"], ["cotton"], ["large"]))))]
    examples, _ = build_corpus(products, vocab)
    table = embedding_table(vocab) if variant == "adatag" else None
    return build_variant(tiny_config(variant), vocab, derive_word_itos(variant, examples),
                         attr_table=table), vocab


def test_one_emission_product_per_text_and_encoder(monkeypatch):
    model, vocab = _four_attribute_model("adatag")
    calls = _count_calls(monkeypatch, "emission_scores")
    for text, made in ((["large", "white", "cotton", "towel"], 1), (["rose", "towel"], 2)):
        for a in vocab.ids():
            model.predict_tags(text, a)
        assert len(calls) == made
    _shift_emission_bias(model, [100.0, 0.0, 0.0, 0.0])  # every token tagged B
    assert all(model.predict_tags(["rose", "towel"], a) == ["B", "B"] for a in vocab.ids())
    assert len(calls) == 3
    # One encoder per attribute: one product each, kept across repeats.
    model, vocab = _four_attribute_model("per_attribute")
    calls = _count_calls(monkeypatch, "emission_scores")
    for _ in range(2):
        for a in vocab.ids():
            model.predict_tags(["large", "white", "cotton", "towel"], a)
        assert len(calls) == 4


def _split_of_many_texts(vocab):
    """Both attributes of products whose titles run from 1 to 9 tokens."""
    words = ["white", "rose", "cotton", "towel", "lavender", "wash", "teal", "soap",
             "mango"]
    products = [Product(f"p{i}", " ".join(words[:n]), [], None,
                        {"Scent": ["rose"], "Color": ["white"]})
                for i, n in enumerate((3, 1, 9, 2, 5, 4, 7))]
    examples, _ = build_corpus(products, vocab)
    return examples


def test_repeated_eval_passes_encode_again(monkeypatch):
    from avex.evaluation import collect_results
    model, vocab, _ = build("adatag")
    split = _split_of_many_texts(vocab)
    calls = _count_calls(monkeypatch, "encode_batch")
    first = collect_results(model, split)
    assert len(calls) == 1  # the whole split is one batch
    assert collect_results(model, split) == first
    assert len(calls) == 2  # many texts: their states are not kept


@pytest.mark.parametrize("variant", ["adatag", "n_tag_sets"])
def test_results_do_not_depend_on_the_token_budget(variant):
    from avex import evaluation
    model, vocab, _ = build(variant)
    split = _split_of_many_texts(vocab)
    ordered = sorted(split, key=lambda e: (e.product_id, e.attribute))
    total = sum(len(ex.tokens) for ex in split)
    expected = evaluation.collect_results(model, split)
    real = model.predict_batch
    batches = []

    def spy(chains):
        batches.append([len(tokens) for tokens, _ in chains])
        return real(chains)

    @settings(max_examples=40, deadline=None)
    @given(budget=st.integers(1, total + 3))
    def check(budget):
        batches.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluation, "INFERENCE_TOKENS", budget)
            mp.setattr(model, "predict_batch", spy)
            assert evaluation.collect_results(model, split) == expected
        # In order, each batch within the budget unless it is one example
        # longer than it, and a batch ends only where the next example
        # would not fit.
        assert [n for sizes in batches for n in sizes] == \
            [len(ex.tokens) for ex in ordered]
        for sizes, after in zip(batches, batches[1:] + [None]):
            assert sum(sizes) <= budget or len(sizes) == 1
            assert after is None or sum(sizes) + after[0] > budget
        assert len(batches) == 1 or budget < total

    check()


def test_generated_decoders_built_once_per_parameter_state(monkeypatch):
    model, vocab, _ = build("adatag")
    calls = _count_calls(monkeypatch, "build_decoder")
    for text in (["white"], ["rose", "wash"], ["white"]):
        for a in vocab.ids():
            model.predict_tags(text, a)
    # One generation covers every attribute of the model.
    assert len(calls) == 1
    assert calls[0][2].data.shape == (len(vocab.ids()), 5)
    model.moe.experts.data = model.moe.experts.data + 0.0
    model.predict_tags(["white"], "Color")
    assert len(calls) == 2


def test_grad_check_after_predict_tags():
    # Gradients on: nothing kept by predict_tags may be read, or the loss
    # would stop depending on the encoder and decoder parameters.
    model, vocab, examples = build("adatag")
    ex = examples[0]
    for a in vocab.ids():
        model.predict_tags(ex.token_texts(), a)
    params = model.params.trainable()
    report = grad_check(lambda: model.loss([ex]), params, tolerance=1e-6)
    assert report.passed, report.max_rel_error
    for name in ("encoder/lstm_fwd/W", "hyper/W_hyper_w"):
        assert np.any(params[name].grad != 0), name


def test_model_with_kept_states_is_freed():
    model, vocab, _ = build("adatag")
    for a in vocab.ids():
        model.predict_tags(["white", "towel"], a)
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


WORDS = ("white", "cotton", "towel", "lavender", "rose", "scented", "wash", "teal")
STEP = st.one_of(
    st.tuples(st.just("predict"), st.lists(st.sampled_from(WORDS), min_size=1,
                                          max_size=4),
              st.sampled_from(("Scent", "Color"))),
    st.tuples(st.just("write"), st.integers(0, 10 ** 6),
              st.floats(-3.0, 3.0, allow_nan=False)))


@settings(max_examples=40, deadline=None)
@given(variant=st.sampled_from(VARIANTS), steps=st.lists(STEP, max_size=10))
def test_interleaved_predictions_equal_a_fresh_model(variant, steps):
    def write(model, index, delta):
        _name, t = model.params.items()[index % len(model.params.items())]
        t.data = t.data + delta

    model, _, _ = build(variant)
    writes = []
    for kind, *args in steps:
        if kind == "write":
            write(model, *args)
            writes.append(args)
            continue
        fresh, _, _ = build(variant)
        for w in writes:
            write(fresh, *w)
        assert model.predict_tags(*args) == fresh.predict_tags(*args)


def test_batch_encodes_each_text_of_a_product_once(monkeypatch):
    # Three attributes of one product share the encoder states of its one
    # text; the batch gradient equals the sum of per-example gradients.
    vocab = AttributeVocab([("Scent", None), ("Color", None), ("Size", None)])
    products = [Product("p1", "large white rose towel", [], None,
                        {"Scent": ["rose"], "Color": ["white"], "Size": ["large"]})]
    examples, _ = build_corpus(products, vocab)
    assert len(examples) == 3 and len({tuple(ex.token_texts()) for ex in examples}) == 1
    config = tiny_config("adatag_random_emb")
    model = build_variant(config, vocab, derive_word_itos(config.variant, examples))
    batched = _count_calls(monkeypatch, "encode_batch")
    params = model.params.trainable()

    def grads(loss):
        for t in params.values():
            t.grad = None
        loss.backward()
        return {name: np.zeros_like(t.data) if t.grad is None else t.grad.copy()
                for name, t in params.items()}

    together = grads(model.loss(examples) * len(examples))
    assert len(batched) == 1 and len(batched[0][0]) == 1  # one call, one text
    summed = {name: np.zeros_like(t.data) for name, t in params.items()}
    for ex in examples:
        for name, g in grads(model.loss([ex])).items():
            summed[name] += g
    for name in params:
        np.testing.assert_allclose(together[name], summed[name], rtol=1e-12,
                                   atol=1e-12 * np.abs(summed[name]).max(), err_msg=name)


@pytest.mark.parametrize("variant", VARIANTS)
def test_chains_of_different_encoders_interleaved_in_one_batch(variant):
    # Scent, Color, Scent: where encoders are per attribute, the third
    # chain's rows come after the second chain's in the batch but sit
    # right after the first chain's in its own encoder's states.
    vocab = AttributeVocab([("Scent", None), ("Color", None)])
    products = [
        Product("p1", "lavender / rose scented wash", [], None, {"Scent": ["rose"]}),
        Product("p2", "white cotton bath towel", [], None, {"Color": ["white"]}),
        Product("p3", "mint soap", [], None, {"Scent": ["mint"]}),
    ]
    examples, _ = build_corpus(products, vocab)
    assert [ex.attribute for ex in examples] == ["Scent", "Color", "Scent"]
    config = tiny_config(variant)
    table = embedding_table(vocab) if variant == "adatag" else None
    model = build_variant(config, vocab, derive_word_itos(variant, examples),
                          attr_table=table)
    chains = [(ex.token_texts(), ex.attribute) for ex in examples]
    assert model.predict_batch(chains) == [model.predict_tags(*c) for c in chains]
    prepared = model.prepare_examples(examples)
    assert len(prepared) == 3
    singles = [model.loss([ex]).item() for ex in prepared]
    assert model.loss(prepared).item() == pytest.approx(np.mean(singles), rel=1e-12)


@functools.lru_cache(maxsize=None)
def repeated_texts_case(variant):
    """A model, its (text, attribute) chains and its prepared examples,
    over a corpus whose first text is labelled for both attributes."""
    vocab = AttributeVocab([("Scent", None), ("Color", None)])
    products = [
        Product("p1", "lavender / rose scented white wash", [], None,
                {"Scent": ["lavender", "rose"], "Color": ["white"]}),
        Product("p2", "white cotton towel", [], None, {"Color": ["white"]}),
        Product("p3", "rose soap", [], None, {"Scent": ["rose"]}),
    ]
    examples, _ = build_corpus(products, vocab)
    table = embedding_table(vocab) if variant == "adatag" else None
    model = build_variant(tiny_config(variant), vocab,
                          derive_word_itos(variant, examples), attr_table=table)
    texts = dict.fromkeys(tuple(ex.token_texts()) for ex in examples)
    chains = [(list(text), a) for text in texts for a in vocab.ids()]
    return model, chains, model.prepare_examples(examples)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batches_with_repeated_texts_score_as_their_chains_alone(variant, data):
    # Drawn with replacement, a batch repeats texts within an encoder and,
    # where attributes have encoders of their own, across encoders.
    model, chains, examples = repeated_texts_case(variant)
    picked = data.draw(st.lists(st.sampled_from(chains), min_size=1, max_size=6))
    assert model.predict_batch(picked) == [model.predict_tags(*c) for c in picked]
    batch = data.draw(st.lists(st.sampled_from(examples), min_size=1, max_size=6))
    singles = [model.loss([ex]).item() for ex in batch]
    assert model.loss(batch).item() == pytest.approx(np.mean(singles), rel=1e-12, abs=0)


def test_predict_batch_decodes_once_and_scores_no_path(monkeypatch):
    from avex import adaptive_decoder
    model, _, examples = build("adatag")
    decodes = _count_calls(monkeypatch, "best_paths")

    def no_path_score(*args):
        raise AssertionError("path_score called while predicting")

    monkeypatch.setattr(adaptive_decoder, "path_score", no_path_score)
    tags = model.predict_batch([(ex.token_texts(), ex.attribute) for ex in examples])
    assert len(decodes) == 1
    assert [len(t) for t in tags] == [len(ex.tokens) for ex in examples]
