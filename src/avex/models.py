"""One model class for all six variants.

The variants differ only in how each attribute gets its word table, its
BiLSTM and its CRF decoder.  The constructor registers the variant's
parameters and fills in a resolver, attribute -> (word table, forward
cell, backward cell, decoder):

  - "adatag": one shared encoder; each attribute's decoder is generated
    from its frozen embedding (a hypernetwork for the emissions, a gated
    mixture of expert matrices for the transitions), once per
    ``decoder_scope`` and otherwise on every call.
    "adatag_random_emb" swaps in a trainable random embedding table.
  - "bilstm_multicrf": the shared encoder and one explicit CRF per
    attribute.
  - "n_tag_sets": the shared encoder and one CRF over the joint 3N+1
    tagset, resolved for every attribute.
  - "bilstm_crf_shared_emb": a shared word table, and a BiLSTM and a CRF
    per attribute.
  - "per_attribute": a word table, a BiLSTM and a CRF per attribute,
    each trained on its own.

A tagset adaptor connects chains to tags.  For the BIOE variants an
example's tags are its targets and a Viterbi path maps straight to BIOE
tags.  For "n_tag_sets" the training set is first merged into one joint
sequence per product, and a path is projected onto the requested
attribute.  Everything else is shared: ``loss`` and ``predict_tags``
resolve, encode and score emissions the same way and end in
``chain_nll`` or ``viterbi``.  A model also exposes ``params``, the
registry that the optimizer and the checkpoint writer read, and
``prepare_examples``, the adaptor's view of the training set.

A training batch and an evaluation pass each run inside one
``decoder_scope``, so every example of an attribute shares one generated
decoder: its graph nodes, and the hypernetwork product behind them, are
built once per attribute rather than once per example.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .adaptive_decoder import (
    DecoderInstance,
    HyperNetwork,
    TransitionMoe,
    build_decoder,
    chain_nll,
    emissions,
    viterbi,
)
from .attribute_embeddings import AttributeEmbeddingTable, random_table
from .autodiff import Tensor, no_grad, row
from .corpus import AttributeVocab, Token
from .encoder import PAD, UNK, LstmCell, WordEmbeddingTable, encode_matrix
from .errors import DataError
from .tagging import (
    NUM_TAGS,
    expand_tagset,
    tag_indices,
    tags_from_indices,
    tags_to_spans,
)

VARIANTS = (
    "adatag",
    "adatag_random_emb",
    "bilstm_multicrf",
    "n_tag_sets",
    "per_attribute",
    "bilstm_crf_shared_emb",
)

SHARED_SCOPE = "shared"

# (model, attribute) -> generated decoder, while a decoder_scope is open.
_scoped_decoders: dict | None = None


@contextmanager
def decoder_scope():
    """Generate each attribute's decoder at most once inside the block.

    Everything scored in the block shares those decoders' graph nodes, so
    a scope must end before the parameters change: one batch's loss and
    backward, or one evaluation pass.  A nested scope joins the outer one.
    """
    global _scoped_decoders
    if _scoped_decoders is not None:
        yield
        return
    _scoped_decoders = {}
    try:
        yield
    finally:
        _scoped_decoders = None


class ModelParams:
    """Named parameter registry with group labels and trainability flags."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self._groups: dict[str, str] = {}

    def add(self, name: str, value, group: str, trainable: bool = True) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = value if isinstance(value, Tensor) else Tensor(value, requires_grad=trainable)
        t.requires_grad = trainable
        self._tensors[name] = t
        self._groups[name] = group
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name):
        return name in self._tensors

    def items(self):
        return list(self._tensors.items())

    def names(self):
        return list(self._tensors)

    def group_of(self, name: str) -> str:
        return self._groups[name]

    def groups(self) -> list[str]:
        seen = []
        for name in self._tensors:
            g = self._groups[name]
            if g not in seen:
                seen.append(g)
        return seen

    def trainable(self) -> dict[str, Tensor]:
        return {n: t for n, t in self._tensors.items() if t.requires_grad}

    def in_group(self, group: str) -> dict[str, Tensor]:
        return {n: t for n, t in self._tensors.items() if self._groups[n] == group}


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


def _make_cell(params: ModelParams, prefix: str, group: str,
               input_size: int, hidden: int, rng) -> LstmCell:
    fan = input_size + hidden
    def w(name):
        return params.add(f"{prefix}/{name}", _uniform(rng, (hidden, fan), fan), group)
    def b(name):
        return params.add(f"{prefix}/{name}", _uniform(rng, (hidden,), fan), group)
    return LstmCell(w("w_i"), w("w_f"), w("w_o"), w("w_g"),
                    b("b_i"), b("b_f"), b("b_o"), b("b_g"))


@dataclass(frozen=True)
class MergedExample:
    """All attributes of one product as a single joint-tagset sequence."""

    product_id: str
    tokens: tuple[Token, ...]
    tag_ids: tuple[int, ...]

    def token_texts(self):
        return [t.text for t in self.tokens]


class BioeTags:
    """Per-attribute BIOE chains: examples and paths map one to one."""

    num_tags = NUM_TAGS

    def prepare(self, examples):
        return list(examples)

    def chain(self, example):
        """The attribute to resolve and the target tag indices."""
        return example.attribute, tag_indices(example.tags)

    def tags(self, path, attribute) -> list[str]:
        return tags_from_indices(path)


class JointTags:
    """The joint 3N+1 tagset: one chain labels every attribute of a product."""

    def __init__(self, attribute_ids):
        self.tagset = expand_tagset(attribute_ids)
        self.num_tags = len(self.tagset)

    def prepare(self, examples) -> list[MergedExample]:
        """Merge per-attribute examples of each product into one sequence.

        Cross-attribute span conflicts are resolved in attribute-vocabulary
        order (earlier attribute keeps the tokens).
        """
        by_product: dict[str, dict] = {}
        for ex in examples:
            slot = by_product.setdefault(ex.product_id, {"tokens": ex.tokens, "spans": {}})
            if [t.text for t in slot["tokens"]] != list(ex.token_texts()):
                raise DataError(
                    f"product {ex.product_id!r} has inconsistent token sequences")
            spans = slot["spans"].setdefault(ex.attribute, set())
            spans.update(tags_to_spans(ex.tags))
        merged = []
        for pid in sorted(by_product):
            slot = by_product[pid]
            tag_ids, _dropped = self.tagset.merge(slot["spans"], len(slot["tokens"]))
            merged.append(MergedExample(pid, slot["tokens"], tuple(tag_ids)))
        return merged

    def chain(self, example: MergedExample):
        # Every attribute resolves to the one joint decoder.
        return self.tagset.attributes[0], list(example.tag_ids)

    def tags(self, path, attribute) -> list[str]:
        return self.tagset.project(path, attribute)


class Model:
    """BiLSTM-CRF tagger; the variant decides which parts attributes share."""

    def __init__(self, config, vocab: AttributeVocab, word_itos,
                 attr_table: AttributeEmbeddingTable | None, vectors, rng):
        self.config = config
        self.attr_vocab = vocab
        self.params = ModelParams()
        self.word_tables: dict[str, WordEmbeddingTable] = {}
        self.adaptor = JointTags(vocab.ids()) if config.variant == "n_tag_sets" \
            else BioeTags()
        self._attr_info = None
        ids = vocab.ids()
        add = self.params.add

        def word_table(scope, prefix, group):
            table = WordEmbeddingTable.from_itos(
                word_itos[scope], vectors, config.d_word, rng)
            add(f"{prefix}/W_word", table.matrix, group)
            self.word_tables[scope] = table
            return table

        def cells(prefix, group):
            return tuple(_make_cell(self.params, f"{prefix}/lstm_{d}", group,
                                    config.d_word, config.d_h // 2, rng)
                         for d in ("fwd", "bwd"))

        def crf(prefix, group):
            m, d_h = self.adaptor.num_tags, config.d_h
            return DecoderInstance(add(f"{prefix}/W", _uniform(rng, (m, d_h), d_h), group),
                                   add(f"{prefix}/b", _uniform(rng, (m,), d_h), group),
                                   add(f"{prefix}/T", _uniform(rng, (m, m), m), group))

        # attribute -> (word table, forward cell, backward cell, decoder);
        # a None decoder is generated from the attribute embedding.
        self._resolver: dict[str, tuple] = {}
        if config.variant == "per_attribute":
            for a in ids:
                if a not in word_itos:
                    raise DataError(f"no word vocabulary for attribute {a!r}")
                table = word_table(a, f"per_attr/{a}/encoder", a)
                self._resolver[a] = (table, *cells(f"per_attr/{a}/encoder", a),
                                   crf(f"per_attr/{a}/decoder", a))
        elif config.variant == "bilstm_crf_shared_emb":
            table = word_table(SHARED_SCOPE, "embedding", "embedding")
            for a in ids:
                self._resolver[a] = (table, *cells(f"encoder/{a}", "encoder"),
                                   crf(f"decoder/{a}", "decoder"))
        else:
            encoder = (word_table(SHARED_SCOPE, "encoder", "encoder"),
                       *cells("encoder", "encoder"))
            if config.variant == "bilstm_multicrf":
                decoders = {a: crf(f"decoder/{a}", "decoder") for a in ids}
            elif config.variant == "n_tag_sets":
                decoders = dict.fromkeys(ids, crf("decoder", "decoder"))
            else:
                self._make_generator(attr_table, rng)
                decoders = dict.fromkeys(ids)
            self._resolver = {a: (*encoder, decoders[a]) for a in ids}

    def _make_generator(self, attr_table: AttributeEmbeddingTable, rng):
        """Attribute table, hypernetwork and transition mixture of adatag."""
        ids = self.attr_vocab.ids()
        d_r = attr_table.d_r
        self._attr_info = {"ids": ids, "d_r": d_r,
                           "provenance": attr_table.provenance,
                           "frozen": attr_table.frozen}
        self._attr_index = {a: i for i, a in enumerate(ids)}
        add = self.params.add
        self.w_att = add("att_emb/W_att", attr_table.as_matrix(ids), "att_emb",
                         trainable=not attr_table.frozen)
        flat = NUM_TAGS * self.config.d_h
        self.hyper = HyperNetwork(
            add("hyper/W_hyper_w", _uniform(rng, (flat, d_r), d_r), "hyper"),
            add("hyper/b_hyper_w", _uniform(rng, (flat,), d_r), "hyper"),
            add("hyper/W_hyper_b", _uniform(rng, (NUM_TAGS, d_r), d_r), "hyper"),
            add("hyper/b_hyper_b", _uniform(rng, (NUM_TAGS,), d_r), "hyper"),
        )
        experts = tuple(
            add(f"moe/expert_{i}", _uniform(rng, (NUM_TAGS, NUM_TAGS), NUM_TAGS), "moe")
            for i in range(self.config.k))
        self.moe = TransitionMoe(
            add("moe/W_moe", _uniform(rng, (self.config.k, d_r), d_r), "moe"),
            add("moe/b_moe", _uniform(rng, (self.config.k,), d_r), "moe"),
            experts,
        )

    def word_vocabs(self):
        return {scope: list(t.itos) for scope, t in self.word_tables.items()}

    def attribute_info(self):
        return self._attr_info

    def prepare_examples(self, examples):
        return self.adaptor.prepare(examples)

    def attribute_vector(self, attribute: str) -> Tensor:
        try:
            idx = self._attr_index[attribute]
        except KeyError:
            raise DataError(f"unknown attribute {attribute!r}")
        return row(self.w_att, idx)

    def _scores(self, token_texts, attribute):
        """Emission matrix and transition table of one attribute's chain."""
        try:
            table, fwd, bwd, dec = self._resolver[attribute]
        except KeyError:
            raise DataError(f"unknown attribute {attribute!r}")
        if dec is None:
            key = (self, attribute)
            scope = {} if _scoped_decoders is None else _scoped_decoders
            if key not in scope:
                scope[key] = build_decoder(self.hyper, self.moe,
                                           self.attribute_vector(attribute))
            dec = scope[key]
        H = encode_matrix(token_texts, table, fwd, bwd)
        return emissions(H, dec.W, dec.b), dec.T

    def loss(self, example) -> Tensor:
        attribute, target = self.adaptor.chain(example)
        P, T = self._scores(example.token_texts(), attribute)
        return chain_nll(P, T, target)

    def predict_tags(self, token_texts, attribute) -> list[str]:
        with no_grad():
            P, T = self._scores(token_texts, attribute)
            path, _ = viterbi(P, T)
        return self.adaptor.tags(path, attribute)


def derive_word_itos(variant: str, examples) -> dict[str, list[str]]:
    """Deterministic word vocabularies from the training split."""
    if variant == "per_attribute":
        per_attr: dict[str, set] = {}
        for ex in examples:
            per_attr.setdefault(ex.attribute, set()).update(ex.token_texts())
        return {a: [PAD, UNK] + sorted(toks) for a, toks in per_attr.items()}
    tokens = set()
    for ex in examples:
        tokens.update(ex.token_texts())
    return {SHARED_SCOPE: [PAD, UNK] + sorted(tokens)}


def build_variant(config, vocab: AttributeVocab, word_itos: dict,
                  attr_table: AttributeEmbeddingTable | None = None,
                  vectors: dict | None = None,
                  rng: np.random.Generator | None = None) -> Model:
    """Instantiate a model variant with freshly initialized parameters."""
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if config.variant == "adatag_random_emb":
        attr_table = random_table(vocab.ids(), config.d_r, config.seed)
    elif config.variant == "adatag" and attr_table is None:
        raise DataError("variant 'adatag' requires an attribute embedding table")
    return Model(config, vocab, word_itos, attr_table, vectors, rng)
