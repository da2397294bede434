"""One model class for all six variants.

The variants differ only in how each attribute gets its word table, its
BiLSTM and its CRF decoder.  The constructor registers the variant's
parameters and fills in a route, attribute -> (encoder, decoder slot),
where an encoder is a word table with a forward and a backward cell:

  - "adatag": one shared encoder; each attribute's decoder is generated
    from its frozen embedding (a hypernetwork for the emissions, a gated
    mixture of expert matrices for the transitions).
    "adatag_random_emb" swaps in a random embedding table and trains it.
  - "bilstm_multicrf": the shared encoder and one explicit CRF per
    attribute.
  - "n_tag_sets": the shared encoder and one CRF over the joint 3N+1
    tagset, shared by every attribute.
  - "bilstm_crf_shared_emb": a shared word table, and a BiLSTM and a CRF
    per attribute.
  - "per_attribute": a word table, a BiLSTM and a CRF per attribute,
    each trained on its own.

``build_variant`` builds every model, to train, to load or to count; a
generated-decoder model built without an attribute table has zero rows.

A tagset adaptor connects examples and paths to tags.  Its ``prepare``
(``Model.prepare_examples``) turns labeled examples into the training
``Chain``s of every variant, once: for the BIOE variants one per example,
whose path maps straight to BIOE tags; for "n_tag_sets" one per product,
routed to the one joint decoder, whose path is projected onto the
requested attribute.  ``JointTags`` owns the joint tagset and gives its
tag ids by arithmetic, with no joint tag names.  Everything else is
shared: ``loss`` (training, on chains) and ``predict_batch`` (evaluation,
on (token_texts, attribute) pairs) score a batch with the same forward
and end in one ``chain_nll`` node or in one ``best_paths`` recursion over
all its chains.  A model also exposes ``params``, its tensors by name,
which the optimizer and the checkpoint writer read; a tensor's group
follows from its name (``parameter_group``).

The caller picks the path.  ``loss`` and ``predict_batch`` take a batch:
its forward groups the chains by the route's encoder and decoder.  Each
encoder runs once over the distinct texts of its chains, as one packed
node per direction, so the attributes of one product share encoder
states; the batch's decoders are generated (or stacked) in one go; one
emissions node scores every chain.  ``predict_tags`` serves one chain
(one attribute of one text, as ``evaluation.extract`` and ``avex
extract`` ask) and takes none of the batch layout: per encoder the model
keeps, for the last text, one product of its states (one walk of the
LSTM step kernel over both directions, with no node) with every decoder
of the model, their transition tables, and one verdict per decoder on
whether its columns and table are finite, so the attributes of one text
encode and score it once and each is decoded from its columns.  Under ``no_grad`` the decoders, built all at once, and these
entries are kept until any tensor of ``params`` is assigned
(``Tensor.version``).  Nothing is kept while gradients are on:
``grad_check`` perturbs parameters in place.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from itertools import compress
from typing import NamedTuple

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
from .corpus import AttributeVocab
from .encoder import PAD, UNK, LstmCell, WordEmbeddingTable, encode_batch, encode_text
from .errors import DataError
from .tagging import (
    NUM_TAGS,
    OUTSIDE,
    first_fit,
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


def word_scope(variant: str, attribute: str) -> str:
    """The word vocabulary that ``attribute``'s encoder reads."""
    return attribute if variant == "per_attribute" else SHARED_SCOPE


PER_ATTRIBUTE = "per_attr/"  # the name prefix of per_attribute's tensors


def parameter_group(name: str) -> str:
    """The group of the tensor ``name``: under ``per_attr/`` the attribute
    (everything before the last ``/encoder/`` or ``/decoder/``, since an
    attribute id may hold a ``/``), else the first path component."""
    if name.startswith(PER_ATTRIBUTE):
        rest = name[len(PER_ATTRIBUTE):]
        return rest[:max(rest.rfind("/encoder/"), rest.rfind("/decoder/"))]
    return name.split("/", 1)[0]


def add_param(params: dict, name: str, value, trainable: bool = True) -> Tensor:
    """Register ``value``, a Tensor or an array, under a new ``name``."""
    if name in params:
        raise ValueError(f"duplicate parameter name {name!r}")
    t = params[name] = value if isinstance(value, Tensor) else Tensor(value)
    t.requires_grad = trainable
    return t


class _Undrawn:
    """In place of the random generator of a model whose every tensor is
    assigned after it is built (a loaded checkpoint): draws nothing and
    gives zeros."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)


UNDRAWN = _Undrawn()


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


class Chain(NamedTuple):
    """One training chain, as ``prepare_examples`` makes it."""

    texts: tuple[str, ...]
    attribute: str  # whose route scores the chain
    targets: tuple[int, ...]  # tag ids, one per text
    id: str  # what errors name the chain by
    dropped_spans: int = 0  # spans a joint merge dropped for overlapping others


class BioeTags:
    """Per-attribute BIOE chains: examples and paths map one to one."""

    num_tags = NUM_TAGS

    def prepare(self, examples) -> list[Chain]:
        """One chain per example, in input order."""
        return [Chain(tuple(ex.token_texts()), ex.attribute, tuple(tag_indices(ex.tags)),
                      f"{ex.product_id}/{ex.attribute}") for ex in examples]

    def tags(self, path, attribute) -> list[str]:
        return tags_from_indices(path)


class JointTags:
    """The joint 3N+1 tagset: one chain labels every attribute of a product.

    Attribute j, in vocabulary order, has the joint tags B = 3j, I = 3j+1
    and E = 3j+2, and O = 3N: the row order of the joint decoder.
    """

    def __init__(self, attribute_ids):
        self.first = {a: 3 * j for j, a in enumerate(attribute_ids)}  # attribute -> B id
        self.outside = 3 * len(self.first)
        self.num_tags = self.outside + 1

    def prepare(self, examples) -> list[Chain]:
        """One chain per product, in product-id order: its examples merged
        into one joint sequence, routed to the one joint decoder through
        the vocabulary's first attribute.

        Cross-attribute span conflicts are resolved in attribute-vocabulary
        order (earlier attribute keeps the tokens); each chain counts the
        spans it lost.
        """
        by_product: dict[str, dict] = {}
        for ex in examples:
            slot = by_product.setdefault(ex.product_id,
                                         {"texts": ex.token_texts(), "spans": {}})
            if slot["texts"] != ex.token_texts():
                raise DataError(
                    f"product {ex.product_id!r} has inconsistent token sequences")
            spans = slot["spans"].setdefault(ex.attribute, set())
            spans.update(tags_to_spans(ex.tags))
        route = next(iter(self.first), None)
        chains = []
        for pid in sorted(by_product):
            slot = by_product[pid]
            tag_ids, dropped = self.merge(slot["spans"], len(slot["texts"]))
            chains.append(Chain(tuple(slot["texts"]), route, tuple(tag_ids), pid, dropped))
        return chains

    def merge(self, spans_by_attribute, length: int):
        """Combine per-attribute spans into one joint sequence.

        Attributes are laid down in vocabulary order; a span that overlaps
        positions already claimed by an earlier attribute is dropped.
        Returns (joint tag ids, number of dropped spans).
        """
        owned = [(first, span) for a, first in self.first.items()
                 for span in sorted(spans_by_attribute.get(a, ()))]
        keep = first_fit([span for _, span in owned], length)
        tag_ids = [self.outside] * length
        for first, span in compress(owned, keep):
            for i in range(span.start, span.end + 1):
                tag_ids[i] = first + (0 if i == span.start else 2 if i == span.end else 1)
        return tag_ids, keep.count(False)

    def project(self, tag_ids, attribute: str) -> list[str]:
        """One attribute's BIOE tags from joint tag ids; others become O."""
        try:
            first = self.first[attribute]
        except KeyError:
            raise ValueError(f"unknown attribute {attribute!r}") from None
        return ["BIE"[i - first] if first <= i < first + 3 else OUTSIDE for i in tag_ids]

    def tags(self, path, attribute) -> list[str]:
        return self.project(path, attribute)


class Model:
    """BiLSTM-CRF tagger; the variant decides which parts attributes share."""

    def __init__(self, config, vocab: AttributeVocab, word_itos,
                 attr_table: AttributeEmbeddingTable | None, vectors, rng):
        self.config = config
        self.attr_vocab = vocab
        self.params: dict[str, Tensor] = {}  # by name, in payload order
        self.word_tables: dict[str, WordEmbeddingTable] = {}
        # Where a generated decoder's attribute table came from (None for
        # the other variants); a checkpoint load sets it from its manifest.
        self.attr_provenance = None
        self.adaptor = JointTags(vocab.ids()) if config.variant == "n_tag_sets" \
            else BioeTags()
        self._cache: dict = {}  # key -> (stamp, value), see autodiff.reuse
        ids = vocab.ids()
        add = partial(add_param, self.params)

        def word_table(scope, prefix):
            if scope not in word_itos:
                raise DataError(f"no word vocabulary for {scope!r}")
            table = self.word_tables[scope] = WordEmbeddingTable.from_itos(
                word_itos[scope], vectors, config.d_word, rng)
            add(f"{prefix}/W_word", table.matrix)
            return table

        def encoder(table, prefix):
            h = config.d_h // 2
            fan = config.d_word + h
            fwd, bwd = (LstmCell(add(f"{prefix}/lstm_{d}/W", _uniform(rng, (4 * h, fan), fan)),
                                 add(f"{prefix}/lstm_{d}/b", _uniform(rng, (4 * h,), fan)))
                        for d in ("fwd", "bwd"))
            self._encoders.append((table, fwd, bwd))
            return len(self._encoders) - 1

        def crf(prefix):
            m, d_h = self.adaptor.num_tags, config.d_h
            self._decoders.append(DecoderInstance(
                add(f"{prefix}/W", _uniform(rng, (m, d_h), d_h)),
                add(f"{prefix}/b", _uniform(rng, (m,), d_h)),
                add(f"{prefix}/T", _uniform(rng, (m, m), m))))
            return len(self._decoders) - 1

        # attribute -> (its encoder in _encoders, its decoder's slot: a row
        # of w_att for a generated decoder, else a place in _decoders)
        self._route: dict[str, tuple[int, int]] = {}
        self._encoders: list[tuple] = []  # (table, fwd, bwd)
        self._decoders: list[DecoderInstance] = []
        if config.variant == "per_attribute":
            for a in ids:
                prefix = f"{PER_ATTRIBUTE}{a}/encoder"
                self._route[a] = (encoder(word_table(a, prefix), prefix),
                                  crf(f"{PER_ATTRIBUTE}{a}/decoder"))
        elif config.variant == "bilstm_crf_shared_emb":
            table = word_table(SHARED_SCOPE, "embedding")
            for a in ids:
                self._route[a] = (encoder(table, f"encoder/{a}"), crf(f"decoder/{a}"))
        else:
            shared = encoder(word_table(SHARED_SCOPE, "encoder"), "encoder")
            if config.variant == "bilstm_multicrf":
                slots = [crf(f"decoder/{a}") for a in ids]
            elif config.variant == "n_tag_sets":
                slots = [crf("decoder")] * len(ids)
            else:
                self._make_generator(add, attr_table, rng)
                slots = range(len(ids))
            self._route = {a: (shared, slot) for a, slot in zip(ids, slots)}
        # What every kept result is stamped with (see ``autodiff.reuse``).
        self._tensors = tuple(self.params.values())

    def _make_generator(self, add, attr_table: AttributeEmbeddingTable | None, rng):
        """Attribute table, hypernetwork and transition mixture of adatag.
        Only "adatag_random_emb" trains the table."""
        ids = self.attr_vocab.ids()
        d_r = self.config.d_r
        if attr_table is not None:
            self.attr_provenance = attr_table.provenance
        rows = np.zeros((len(ids), d_r)) if attr_table is None else attr_table.as_matrix(ids)
        self.w_att = add("att_emb/W_att", rows,
                         trainable=self.config.variant == "adatag_random_emb")
        flat = NUM_TAGS * self.config.d_h
        self.hyper = HyperNetwork(
            add("hyper/W_hyper_w", _uniform(rng, (flat, d_r), d_r)),
            add("hyper/b_hyper_w", _uniform(rng, (flat,), d_r)),
            add("hyper/W_hyper_b", _uniform(rng, (NUM_TAGS, d_r), d_r)),
            add("hyper/b_hyper_b", _uniform(rng, (NUM_TAGS,), d_r)),
        )
        k = self.config.k
        experts = add("moe/experts", _uniform(rng, (k, NUM_TAGS, NUM_TAGS), NUM_TAGS))
        self.moe = TransitionMoe(
            add("moe/W_moe", _uniform(rng, (k, d_r), d_r)),
            add("moe/b_moe", _uniform(rng, (k,), d_r)),
            experts,
        )

    def word_vocabs(self):
        return {scope: list(t.itos) for scope, t in self.word_tables.items()}

    def prepare_examples(self, examples):
        return self.adaptor.prepare(examples)

    def _stacked_decoders(self, slots) -> DecoderInstance:
        """The decoders in ``slots``, stacked along a new first axis."""
        if not self._decoders:
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

    def _kept_decoders(self) -> DecoderInstance:
        """Every decoder of the model, stacked in slot order, so the stack
        is indexed by the route's decoder slot; kept under no_grad until any
        parameter is assigned."""
        slots = sorted({slot for _, slot in self._route.values()})
        return reuse(self._cache, "decoders", self._tensors,
                     lambda: self._stacked_decoders(slots))

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
            table, fwd, bwd = self._encoders[enc]
            states.append(encode_batch(distinct, table, fwd, bwd))
        if grad_enabled():
            used = list(dict.fromkeys(slots))
            slots = [used.index(s) for s in slots]
            dec = self._stacked_decoders(used)
        else:
            dec = self._kept_decoders()
        # Each column's row of the encoder states (its chain's first row
        # plus its place in the chain) and decoder.
        n = np.asarray(lengths)
        shift = np.array([first[key] for key in keys]) - (np.cumsum(n) - n)
        P = emissions(states[0] if len(states) == 1 else concat(states), dec.W, dec.b,
                      np.arange(n.sum()) + np.repeat(shift, n), np.repeat(slots, n))
        return P, dec.T, lengths, slots

    def _one_chain(self, tokens, attribute):
        """Emission columns (m, n) and transition table (m, m) of one chain,
        as arrays: no graph and no batch layout.

        Per encoder one entry is kept for the last text: one
        ``emission_scores`` product of its states against every decoder of
        the model, laid end to end as (n, A·m), the product ``emissions``
        makes for a batch, with the transition tables and whether each
        decoder's columns and table are finite.  It is kept until the text
        changes or any parameter is assigned; like the kept decoders, it
        does not see writes into a tensor's ``.data``.  Scores that are not
        finite raise ``best_paths``' NumericError.
        """
        enc, slot = self._resolve(0, tokens, attribute)
        text = tuple(tokens)
        block, tables, finite = reuse(self._cache, enc, self._tensors,
                                      lambda: self._text_scores(enc, text), text)
        m = self.adaptor.num_tags
        if not finite[slot]:
            raise _not_finite(0)
        return block[:, slot * m:(slot + 1) * m].T, tables[slot]

    def _text_scores(self, enc, text):
        """The emission block (n, A·m) of one text under encoder ``enc``
        and every decoder of the model, their transition tables (the kept
        decoders'), and whether each decoder's columns and table are
        finite."""
        table, fwd, bwd = self._encoders[enc]
        dec = self._kept_decoders()
        W, b, T = dec.W.data, dec.b.data, dec.T.data
        H = encode_text(text, table, fwd, bwd)
        block = emission_scores(H, W.reshape(-1, W.shape[-1]), b.reshape(-1))
        finite = np.isfinite(block).reshape(len(text), len(T), -1).all(axis=(0, 2)) \
            & np.isfinite(T).all(axis=(1, 2))
        return block, T, finite.tolist()

    def loss(self, chains) -> Tensor:
        """Mean NLL of a batch of ``prepare_examples`` chains, scored as one
        graph by the forward of ``predict_batch``."""
        if not chains:
            raise DataError("empty batch")
        P, T, lengths, decoders = self._scores([(c.texts, c.attribute) for c in chains])
        return chain_nll(P, T, [z for c in chains for z in c.targets], lengths, decoders)

    def predict_batch(self, chains) -> list[list[str]]:
        """Tags of a batch of (token_texts, attribute) chains, as evaluation
        asks: one forward under no_grad, then one ``best_paths`` recursion
        over all the chains."""
        if not chains:
            return []
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
    words: dict[str, set] = {}
    for ex in examples:
        words.setdefault(word_scope(variant, ex.attribute), set()).update(ex.token_texts())
    return {scope: [PAD, UNK] + sorted(toks) for scope, toks in words.items()}


def model_config(config, attr_table: AttributeEmbeddingTable | None = None):
    """The configuration a model is built with: adatag takes d_r from its
    attribute table."""
    if attr_table is not None and config.variant == "adatag":
        return replace(config, d_r=attr_table.d_r)
    return config


def build_variant(config, vocab: AttributeVocab, word_itos: dict,
                  attr_table: AttributeEmbeddingTable | None = None,
                  vectors: dict | None = None,
                  rng: np.random.Generator | None = None) -> Model:
    """Instantiate a model variant with freshly initialized parameters, or,
    with ``rng=UNDRAWN``, zeros and no draw (not even of
    "adatag_random_emb"'s table); its ``config`` is
    ``model_config(config, attr_table)``."""
    config = model_config(config.validate(), attr_table)
    if rng is None:
        rng = np.random.default_rng(config.seed)
    if config.variant == "adatag_random_emb" and rng is not UNDRAWN:
        attr_table = random_table(vocab.ids(), config.d_r, config.seed)
    return Model(config, vocab, word_itos, attr_table, vectors, rng)
