"""One model class for all six variants.

The variants differ only in how each attribute gets its word table, its
BiLSTM and its CRF decoder.  The constructor registers the variant's
parameters and fills in a route, attribute -> (encoder, decoder slot),
where an encoder is a word table with a forward and a backward cell:

  - "adatag": one shared encoder; each attribute's decoder is generated
    from its frozen embedding (a hypernetwork for the emissions, a gated
    mixture of expert matrices for the transitions).
    "adatag_random_emb" swaps in a trainable random embedding table.
  - "bilstm_multicrf": the shared encoder and one explicit CRF per
    attribute.
  - "n_tag_sets": the shared encoder and one CRF over the joint 3N+1
    tagset, shared by every attribute.
  - "bilstm_crf_shared_emb": a shared word table, and a BiLSTM and a CRF
    per attribute.
  - "per_attribute": a word table, a BiLSTM and a CRF per attribute,
    each trained on its own.

A tagset adaptor connects chains to tags.  For the BIOE variants an
example's tags are its targets and a Viterbi path maps straight to BIOE
tags.  For "n_tag_sets" the training set is first merged into one joint
sequence per product, and a path is projected onto the requested
attribute.  Everything else is shared: ``loss`` (training) and
``predict_batch`` (evaluation) score a batch of chains with the
same forward and end in one ``chain_nll`` node or in one ``best_paths``
recursion over all its chains.  A model also exposes ``params``, the
registry that the optimizer and the checkpoint writer read, and
``prepare_examples``, the adaptor's view of the training set.

The caller picks the path.  ``loss`` and ``predict_batch`` take a batch:
its forward groups the chains by the route's encoder and decoder.  Each
encoder runs once over the distinct texts of its chains, as one packed
node per direction, so the attributes of one product share encoder
states; the batch's decoders are generated (or stacked) in one go; one
emissions node scores every chain.  Under ``no_grad`` the model builds
every decoder at once and keeps them until a parameter they read is
written (``Tensor.version``).  ``predict_tags`` serves one chain (one
attribute of one text, as ``evaluation.extract`` and ``avex extract``
ask) and takes none of the batch layout: per encoder the model keeps the
emission scores of the last text, one product of its states (one walk of
the LSTM step kernel over both directions, with no node) with every
decoder routed to that encoder, with whether each decoder's scores are
finite, so the attributes of one text encode and score it once and each
is decoded from its columns.
Nothing is kept while gradients are on: ``grad_check`` perturbs
parameters in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adaptive_decoder import (
    DecoderInstance,
    HyperNetwork,
    TransitionMoe,
    _not_finite,
    _one_path,
    best_paths,
    build_decoder,
    chain_nll,
    emission_scores,
    emissions,
)
from .attribute_embeddings import AttributeEmbeddingTable, random_table
from .autodiff import Tensor, concat, grad_enabled, no_grad, reuse, row, stack
from .corpus import AttributeVocab, Token
from .encoder import PAD, UNK, LstmCell, WordEmbeddingTable, encode_batch, encode_text
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
    return LstmCell(
        params.add(f"{prefix}/W", _uniform(rng, (4 * hidden, fan), fan), group),
        params.add(f"{prefix}/b", _uniform(rng, (4 * hidden,), fan), group))


@dataclass(frozen=True)
class MergedExample:
    """All attributes of one product as a single joint-tagset sequence."""

    product_id: str
    tokens: tuple[Token, ...]
    tag_ids: tuple[int, ...]
    dropped_spans: int  # spans the merge dropped for overlapping others

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
        order (earlier attribute keeps the tokens); each merged example
        counts the spans it lost.
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
            tag_ids, dropped = self.tagset.merge(slot["spans"], len(slot["tokens"]))
            merged.append(MergedExample(pid, slot["tokens"], tuple(tag_ids), dropped))
        return merged

    def chain(self, example: MergedExample):
        # Every attribute routes to the one joint decoder.
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
        self._cache: dict = {}  # key -> (stamp, value), see autodiff.reuse
        ids = vocab.ids()
        add = self.params.add

        def word_table(scope, prefix, group):
            if scope not in word_itos:
                raise DataError(f"no word vocabulary for {scope!r}")
            table = WordEmbeddingTable.from_itos(
                word_itos[scope], vectors, config.d_word, rng)
            add(f"{prefix}/W_word", table.matrix, group)
            self.word_tables[scope] = table
            return table

        def encoder(table, prefix, group):
            fwd, bwd = (_make_cell(self.params, f"{prefix}/lstm_{d}", group,
                                   config.d_word, config.d_h // 2, rng)
                        for d in ("fwd", "bwd"))
            self._encoders.append(((table, fwd, bwd),
                                   (table.matrix, *fwd.tensors(), *bwd.tensors())))
            return len(self._encoders) - 1

        def crf(prefix, group):
            m, d_h = self.adaptor.num_tags, config.d_h
            self._decoders.append(DecoderInstance(
                add(f"{prefix}/W", _uniform(rng, (m, d_h), d_h), group),
                add(f"{prefix}/b", _uniform(rng, (m,), d_h), group),
                add(f"{prefix}/T", _uniform(rng, (m, m), m), group)))
            return len(self._decoders) - 1

        # attribute -> (its encoder in _encoders, its decoder's slot: a row
        # of w_att for a generated decoder, else a place in _decoders)
        self._route: dict[str, tuple[int, int]] = {}
        self._encoders: list[tuple] = []  # ((table, fwd, bwd), the tensors read)
        self._decoders: list[DecoderInstance] = []
        if config.variant == "per_attribute":
            for a in ids:
                prefix = f"per_attr/{a}/encoder"
                self._route[a] = (encoder(word_table(a, prefix, a), prefix, a),
                                  crf(f"per_attr/{a}/decoder", a))
        elif config.variant == "bilstm_crf_shared_emb":
            table = word_table(SHARED_SCOPE, "embedding", "embedding")
            for a in ids:
                self._route[a] = (encoder(table, f"encoder/{a}", "encoder"),
                                  crf(f"decoder/{a}", "decoder"))
        else:
            shared = encoder(word_table(SHARED_SCOPE, "encoder", "encoder"),
                             "encoder", "encoder")
            if config.variant == "bilstm_multicrf":
                slots = [crf(f"decoder/{a}", "decoder") for a in ids]
            elif config.variant == "n_tag_sets":
                slots = [crf("decoder", "decoder")] * len(ids)
            else:
                self._make_generator(attr_table, rng)
                slots = range(len(ids))
            self._route = {a: (shared, slot) for a, slot in zip(ids, slots)}
        if self._attr_info is None:
            self._decoder_reads = tuple(t for d in self._decoders for t in (d.W, d.b, d.T))
        self._slots = sorted({slot for _, slot in self._route.values()})  # kept decoders
        # Per encoder, the decoders from the lowest to the highest that its
        # attributes use, and the tensors its kept emission block reads.
        self._blocks = []
        for enc, (_, reads) in enumerate(self._encoders):
            used = [slot for e, slot in self._route.values() if e == enc]
            self._blocks.append((min(used), max(used) + 1, reads + self._decoder_reads))

    def _make_generator(self, attr_table: AttributeEmbeddingTable, rng):
        """Attribute table, hypernetwork and transition mixture of adatag."""
        ids = self.attr_vocab.ids()
        d_r = attr_table.d_r
        self._attr_info = {"ids": ids, "d_r": d_r,
                           "provenance": attr_table.provenance,
                           "frozen": attr_table.frozen}
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
        k = self.config.k
        experts = add("moe/experts", _uniform(rng, (k, NUM_TAGS, NUM_TAGS), NUM_TAGS), "moe")
        self.moe = TransitionMoe(
            add("moe/W_moe", _uniform(rng, (k, d_r), d_r), "moe"),
            add("moe/b_moe", _uniform(rng, (k,), d_r), "moe"),
            experts,
        )
        self._decoder_reads = (self.w_att, *self.hyper.tensors(), *self.moe.tensors())

    def word_vocabs(self):
        return {scope: list(t.itos) for scope, t in self.word_tables.items()}

    def attribute_info(self):
        return self._attr_info

    def prepare_examples(self, examples):
        return self.adaptor.prepare(examples)

    def _stacked_decoders(self, slots) -> DecoderInstance:
        """The decoders in ``slots``, stacked along a new first axis."""
        if self._attr_info is not None:
            return build_decoder(self.hyper, self.moe, row(self.w_att, slots))
        decs = [self._decoders[i] for i in slots]
        return DecoderInstance(*(stack([getattr(d, part) for d in decs])
                                 for part in ("W", "b", "T")))

    def _resolve(self, i, tokens, attribute) -> tuple[int, int]:
        """Chain ``i``'s encoder and decoder slot, from its attribute."""
        try:
            route = self._route[attribute]
        except KeyError:
            raise DataError(f"unknown attribute {attribute!r}") from None
        if not tokens:
            raise DataError(f"chain {i} ({attribute!r}) has no tokens")
        return route

    def _kept_decoders(self) -> tuple[DecoderInstance, list[bool]]:
        """Every decoder of the model, stacked, with whether each one's
        transition table is finite; kept under no_grad."""
        def build():
            dec = self._stacked_decoders(self._slots)
            return dec, np.isfinite(dec.T.data).all(axis=(-2, -1)).tolist()
        return reuse(self._cache, "decoders", self._decoder_reads, build)

    def _scores(self, chains):
        """Emission columns (m, N) and stacked transition tables of
        (token_texts, attribute) chains, with each chain's length and table.

        Chains group by the route's encoder and decoder.  Each encoder
        runs once over the distinct texts of its chains, and the batch's
        decoders are generated together, in the order they first appear;
        with gradients off every decoder of the model is built, and kept.
        States are not kept: each call encodes its texts (only
        ``_one_chain`` keeps scores of a text).  The encoders' states are stacked in
        the order the encoders first appear, and one map gives each
        (encoder, text) its first row.
        """
        keys, lengths, slots = [], [], []
        for i, (tokens, attribute) in enumerate(chains):
            enc, slot = self._resolve(i, tokens, attribute)
            keys.append((enc, tuple(tokens)))
            lengths.append(len(tokens))
            slots.append(slot)
        first = dict.fromkeys(keys)  # (encoder, text) -> its first row
        states, total = [], 0
        for enc in dict.fromkeys(enc for enc, _ in keys):
            distinct = tuple(text for e, text in first if e == enc)
            for text in distinct:
                first[enc, text], total = total, total + len(text)
            (table, fwd, bwd), _ = self._encoders[enc]
            states.append(encode_batch(distinct, table, fwd, bwd))
        if grad_enabled():
            used = list(dict.fromkeys(slots))
            slots = [used.index(s) for s in slots]
            dec = self._stacked_decoders(used)
        else:
            dec, _ = self._kept_decoders()
        # Each column's row of the encoder states (in order when every
        # chain has a text of its own and one encoder) and decoder.
        rows = None
        if total != sum(lengths) or len(states) > 1:
            rows = [r for key, n in zip(keys, lengths)
                    for r in range(first[key], first[key] + n)]
        columns = [slot for slot, n in zip(slots, lengths) for _ in range(n)]
        P = emissions(states[0] if len(states) == 1 else concat(states),
                      dec.W, dec.b, rows, columns)
        return P, dec.T, lengths, slots

    def _one_chain(self, tokens, attribute):
        """Emission columns (m, n) and transition table (m, m) of one chain,
        as arrays: no graph and no batch layout.

        Per encoder the scores of the last text are kept: one
        ``emission_scores`` product of its states against every decoder
        routed to that encoder, laid end to end as (n, A·m), the product
        ``emissions`` makes for a batch of those attributes, with whether
        each decoder's columns are finite.  The block is kept until the
        text changes or a parameter that the encoder or the decoders read
        is assigned; like the kept decoders, it does not see writes into a
        tensor's ``.data``.  A chain's columns are a view of the block.
        Scores that are not finite raise ``best_paths``' NumericError.
        """
        enc, slot = self._resolve(0, tokens, attribute)
        lo, _, reads = self._blocks[enc]
        text = tuple(tokens)
        block, finite = reuse(self._cache, enc, reads,
                              lambda: self._text_scores(enc, text), text)
        dec, finite_T = self._kept_decoders()
        j, m = slot - lo, self.adaptor.num_tags
        if not (finite[j] and finite_T[slot]):
            raise _not_finite(0)
        return block[:, j * m:(j + 1) * m].T, dec.T.data[slot]

    def _text_scores(self, enc, text):
        """The emission block (n, A·m) of one text under encoder ``enc``'s
        decoders, and whether each decoder's columns are finite."""
        (table, fwd, bwd), _ = self._encoders[enc]
        lo, hi, _ = self._blocks[enc]
        dec, _ = self._kept_decoders()
        W, b = dec.W.data[lo:hi], dec.b.data[lo:hi]
        H = encode_text(text, table, fwd, bwd)
        block = emission_scores(H, W.reshape(-1, W.shape[-1]), b.reshape(-1))
        return block, np.isfinite(block).reshape(len(text), hi - lo, -1).all(axis=(0, 2)).tolist()

    def loss(self, batch) -> Tensor:
        """Mean NLL of a batch of examples, scored as one graph."""
        chains, targets = [], []
        for example in batch:
            attribute, target = self.adaptor.chain(example)
            chains.append((example.token_texts(), attribute))
            targets.extend(target)
        P, T, lengths, decoders = self._scores(chains)
        return chain_nll(P, T, targets, lengths, decoders)

    def predict_batch(self, chains) -> list[list[str]]:
        """Tags of a batch of (token_texts, attribute) chains, as evaluation
        asks: one forward under no_grad, then one ``best_paths`` recursion
        over all the chains."""
        with no_grad():
            paths = best_paths(*self._scores(chains))
        return [self.adaptor.tags(path, attribute)
                for path, (_, attribute) in zip(paths, chains)]

    def predict_tags(self, token_texts, attribute) -> list[str]:
        """Tags of one chain, a served request: its columns of the kept
        scores of its text (``_one_chain``), decoded over the BIOE tags by
        ``_one_path`` and over the joint tags of "n_tag_sets" by
        ``best_paths``."""
        with no_grad():
            P, T = self._one_chain(token_texts, attribute)
        path = _one_path(P, T) if len(T) <= NUM_TAGS else best_paths(P, T)[0]
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
