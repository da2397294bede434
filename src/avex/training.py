"""Training loop, optimizer, checkpoints, and parameter accounting.

Every variant trains on the chains of ``Model.prepare_examples``, made
once per fit, and batches average per-chain NLLs.  A batch is scored as
one graph (``Model.loss``): one packed LSTM node per direction, one
generation of the batch's decoders, one emissions node and one CRF node,
with every chain still its own, so no padding enters the loss.  Early
stopping watches dev macro-F1: the best epoch is the first with the
highest, training stops ``patience`` epochs after it, and the best
epoch's parameters are what ends up in the checkpoint.  All arithmetic
is float64; only serialization rounds to float32.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import files
from .attribute_embeddings import PROVENANCES, AttributeEmbeddingTable
from .corpus import SETTINGS, AttributeVocab
from .errors import DataError, NumericError
from .evaluation import decode_order, evaluate_model
from .models import (PAD, UNK, UNDRAWN, VARIANTS, build_variant, derive_word_itos,
                     parameter_group, word_scope)

CHECKPOINT_FORMAT_VERSION = 3

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_BLOCK = 1 << 15  # elements updated at a time


@dataclass
class TrainConfig:
    """Run configuration; field names double as config-file keys."""

    variant: str = "adatag"
    d_h: int = 200
    d_word: int = 50
    d_r: int = 1536
    k: int = 3
    batch_size: int = 32
    learning_rate: float = 1e-3
    patience: int = 3
    max_epochs: int = 100
    seed: int = 0
    setting: str = "title"
    attributes: list[str] | None = None

    def validate(self):
        if self.variant not in VARIANTS:
            raise DataError(
                f"unsupported variant {self.variant!r}; choose one of {VARIANTS}")
        for name in ("d_h", "d_word", "d_r", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if self.d_h % 2:
            raise DataError(f"d_h must be even, got {self.d_h}")
        if not 1 <= self.k <= 8:
            raise DataError(f"k must be in 1..8, got {self.k}")
        if not 0 < self.learning_rate < math.inf:  # also refuses nan
            raise DataError(f"learning_rate must be positive and finite, "
                            f"got {self.learning_rate}")
        if self.setting not in SETTINGS:
            raise DataError(f"unknown setting {self.setting!r}")
        return self

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_values(cls, values, where="config") -> "TrainConfig":
        """The validated config of ``values``, typed and keyed by field name."""
        for key in values:
            if key not in CONFIG_FIELDS:
                raise DataError(f"{where}: unknown key {key!r}")
        return cls(**values).validate()


def split_names(text) -> list[str] | None:
    """'Scent, Color' -> ['Scent', 'Color']; None if it names nothing."""
    return [a.strip() for a in text.split(",") if a.strip()] or None


# How a config file or a flag gives each field, by the field's annotation.
_PARSERS = {"int": int, "float": float, "str": str.strip, "list[str] | None": split_names}
CONFIG_FIELDS = {f.name: _PARSERS[f.type] for f in dataclasses.fields(TrainConfig)}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines, each value parsed by its key's parser;
    '#' starts a comment.  An unknown or repeated key, or a value that
    does not parse, is a DataError that names the line."""
    out = {}
    for lineno, line in files.read_lines(path, "config file"):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in CONFIG_FIELDS:
            raise DataError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in out:
            raise DataError(f"{path}:{lineno}: config key {key!r} given twice")
        try:
            out[key] = CONFIG_FIELDS[key](value)
        except ValueError:
            raise DataError(f"{path}:{lineno}: config key {key!r}: "
                            f"cannot parse {value!r}") from None
    return out


class Adam:
    """Standard Adam with bias correction.

    Each run of consecutive tensors smaller than ``ADAM_BLOCK`` elements
    that all have gradients is updated as one flat slice: their moments
    are slices of one flat array each, their gradients are copied into a
    staging buffer, the step is computed there, and each tensor subtracts
    its part.  A larger tensor keeps its own moments and is updated in
    place, a block of rows at a time, so that its temporaries stay small.
    Every element gets the textbook update in its order of operations, so
    the packing does not change the result.  A tensor without a gradient
    is left as it is, moments included.
    """

    def __init__(self, tensors, lr: float):
        self.tensors = list(tensors)
        self.lr = lr
        self.t = 0
        staged = sum(t.data.size for t in self.tensors if t.data.size < ADAM_BLOCK)
        self._m, self._v = np.zeros(staged), np.zeros(staged)
        self._grad, self._step = np.empty(staged), np.empty(staged)
        # Per tensor (part, grad, step, m, v): a small tensor's slice of the
        # flat arrays and views of the staging buffers in its shape, or a
        # large tensor's own moments.
        self._layout = []
        at = 0
        for t in self.tensors:
            n = t.data.size
            if n < ADAM_BLOCK:
                part = slice(at, at + n)
                self._layout.append((part, self._grad[part].reshape(t.data.shape),
                                     self._step[part].reshape(t.data.shape), None, None))
                at += n
            else:
                self._layout.append((None, None, None,
                                     np.zeros_like(t.data), np.zeros_like(t.data)))

    def zero_grad(self):
        for t in self.tensors:
            t.grad = None

    def _moments(self, m, v, grad, a, b, b1t, b2t):
        """The textbook update of the moments m and v, in place; returns
        the step to subtract, in ``a``.  ``b`` is scratch and may be
        ``grad``, which is read before ``b`` is written."""
        np.multiply(m, ADAM_BETA1, out=m)
        m += np.multiply(grad, 1.0 - ADAM_BETA1, out=a)
        np.multiply(v, ADAM_BETA2, out=v)
        v += np.multiply(np.square(grad, out=a), 1.0 - ADAM_BETA2, out=a)
        np.sqrt(np.divide(v, b2t, out=b), out=b)
        b += ADAM_EPS
        np.multiply(np.divide(m, b1t, out=a), self.lr, out=a)
        return np.divide(a, b, out=a)

    def step(self):
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        run = []  # consecutive small tensors with gradients, staged
        for t, (part, grad, step, m_all, v_all) in zip(self.tensors, self._layout):
            if t.grad is not None and part is not None:
                np.copyto(grad, t.grad)
                run.append((t, part, step))
                continue
            self._update_run(run, b1t, b2t)
            run = []
            if t.grad is None:
                continue
            rows = max(1, ADAM_BLOCK // (t.data.size // len(t.data)))
            for i in range(0, len(t.data), rows):
                block = slice(i, i + rows)
                data = t.data[block]
                a, b = np.empty_like(data), np.empty_like(data)
                data -= self._moments(m_all[block], v_all[block], t.grad[block],
                                      a, b, b1t, b2t)
            t.version += 1  # written in place, block by block
        self._update_run(run, b1t, b2t)

    def _update_run(self, run, b1t, b2t):
        """One flat update of a run of consecutive staged tensors."""
        if not run:
            return
        flat = slice(run[0][1].start, run[-1][1].stop)
        grad = self._grad[flat]
        self._moments(self._m[flat], self._v[flat], grad, self._step[flat], grad, b1t, b2t)
        for t, _, step in run:
            t.data -= step  # in place; the assignment bumps its version


@dataclass
class EpochStats:
    epoch: int
    train_nll: float
    dev_f1: float


@dataclass
class TrainReport:
    variant: str
    config: dict
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    best_dev_f1: float = 0.0
    stopped_epoch: int = 0
    checkpoint_path: str | None = None
    per_attribute: dict | None = None
    dropped_spans: int | None = None  # n_tag_sets: spans the joint tags lost

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        for key in ("per_attribute", "dropped_spans"):
            if out[key] is None:
                del out[key]
        return out


def _summary(history) -> dict:
    """A fit's best epoch, the first with the highest dev F1, that F1, and
    the epoch it stopped after, read off its epoch records."""
    best = max(history, key=lambda e: e.dev_f1)  # max keeps the first of ties
    return {"best_epoch": best.epoch, "best_dev_f1": best.dev_f1,
            "stopped_epoch": history[-1].epoch}


def _fit(model, optimizer, train_set, dev_examples, config, rng, label=""):
    """Generic epoch loop over ``prepare_examples`` chains, with early
    stopping on dev macro-F1.

    Returns the per-epoch stats.  It stops once ``patience`` epochs have
    passed since the best one (see ``_summary``), and leaves the model
    holding that epoch's parameters.
    """
    trainable = optimizer.tensors
    history = []
    best_state = None
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_set))
        total = 0.0
        for start in range(0, len(train_set), config.batch_size):
            batch = [train_set[i] for i in order[start:start + config.batch_size]]
            optimizer.zero_grad()
            loss = model.loss(batch)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting at {start}{label} "
                    f"(examples: {', '.join(c.id for c in batch)})")
            loss.backward()
            optimizer.step()
            total += value * len(batch)
        dev_f1 = evaluate_model(model, dev_examples).macro_f1
        history.append(EpochStats(epoch, total / len(train_set), dev_f1))
        best = _summary(history)["best_epoch"]
        if best == epoch:
            # After the last allowed epoch the parameters in place are
            # the best: no copy to take, and none to restore.
            best_state = None if epoch == config.max_epochs \
                else [t.data.copy() for t in trainable]
        elif epoch - best >= config.patience:
            break
    # The last batch's gradients, as large as the parameters, have no reader.
    optimizer.zero_grad()
    if best_state is not None:
        for t, saved in zip(trainable, best_state):
            t.data = saved
    return history


def train(config: TrainConfig, vocab: AttributeVocab, train_examples, dev_examples,
          attr_table: AttributeEmbeddingTable | None = None,
          vectors: dict | None = None,
          checkpoint_stem=None):
    """Train one variant and return (TrainReport, model)."""
    config.validate()
    if config.attributes:
        vocab = vocab.subset(config.attributes)
        keep = set(config.attributes)
        train_examples = [ex for ex in train_examples if ex.attribute in keep]
        dev_examples = [ex for ex in dev_examples if ex.attribute in keep]
    if not train_examples:
        raise DataError("training split is empty")
    if not dev_examples:
        raise DataError("dev split is empty")
    if config.variant == "adatag" and attr_table is None:
        raise DataError("variant 'adatag' requires an attribute embedding table")
    if config.variant != "adatag" and attr_table is not None:
        raise DataError(f"variant {config.variant!r} reads no attribute embedding table")

    rng = np.random.default_rng(config.seed)
    word_itos = derive_word_itos(config.variant, train_examples)
    model = build_variant(config, vocab, word_itos, attr_table, vectors, rng)
    config = model.config

    # One fit per attribute for per_attribute, one for the whole model else:
    # (attribute, its parameters, training examples, dev examples).
    if config.variant == "per_attribute":
        fits = []
        for a in vocab.ids():
            sub_train = [ex for ex in train_examples if ex.attribute == a]
            sub_dev = [ex for ex in dev_examples if ex.attribute == a]
            if not sub_train or not sub_dev:
                raise DataError(f"attribute {a!r} lacks train or dev examples")
            fits.append((a, [t for name, t in model.params.items()
                              if parameter_group(name) == a], sub_train, sub_dev))
    else:
        fits = [(None, [t for t in model.params.values() if t.requires_grad],
                 train_examples, dev_examples)]
    histories, dropped = {}, 0
    for a, tensors, examples, dev in fits:
        chains = model.prepare_examples(examples)
        dropped += sum(c.dropped_spans for c in chains)
        optimizer = Adam(tensors, config.learning_rate)
        histories[a] = _fit(model, optimizer, chains, dev, config, rng,
                            label="" if a is None else f" ({a})")

    if config.variant == "per_attribute":
        entries = {a: {"epochs": [dataclasses.asdict(e) for e in history],
                       **_summary(history)} for a, history in histories.items()}
        # Top level: the latest best and stopping epochs, and the final
        # model's dev macro-F1.  Each attribute holds its best epoch's
        # parameters, so that is the mean of the entries' best dev F1,
        # summed in the order a dev pass over every attribute meets them.
        met = dict.fromkeys(ex.attribute for ex in decode_order(dev_examples))
        report = TrainReport(
            config.variant, config.to_json(), per_attribute=entries,
            best_epoch=max(e["best_epoch"] for e in entries.values()),
            best_dev_f1=sum(entries[a]["best_dev_f1"] for a in met) / len(entries),
            stopped_epoch=max(e["stopped_epoch"] for e in entries.values()))
    else:
        history = histories[None]
        report = TrainReport(config.variant, config.to_json(), history, **_summary(history))
        if config.variant == "n_tag_sets":
            report.dropped_spans = dropped

    if checkpoint_stem is not None:
        report.checkpoint_path = str(save_checkpoint(checkpoint_stem, model))
    return report, model


# -- checkpoints -------------------------------------------------------------


def _vocab_hashes(attribute_ids, word_vocabs) -> dict:
    """SHA-256 of each vocabulary, so that a reordered one does not load."""
    def digest(items):
        return hashlib.sha256(json.dumps(list(items), ensure_ascii=False)
                              .encode("utf-8")).hexdigest()
    return {"attributes": digest(attribute_ids),
            "words": {scope: digest(itos) for scope, itos in word_vocabs.items()}}


def checkpoint_paths(stem) -> tuple[Path, Path]:
    """The manifest and payload paths of the checkpoint at ``stem``:
    ``.json`` and ``.bin`` appended to its name, so ``m.seed1`` is
    ``m.seed1.json`` and ``m.seed1.bin``; a stem ending ``.json`` names
    the manifest itself."""
    stem = Path(stem)
    if stem.suffix == ".json":
        stem = stem.with_suffix("")
    return stem.with_name(stem.name + ".json"), stem.with_name(stem.name + ".bin")


def _f32(name, values) -> np.ndarray:
    """The tensor ``name``'s values in f32, as a checkpoint holds them: only
    if each is finite there (a float64 past the f32 range is not)."""
    with np.errstate(over="ignore"):
        values = np.asarray(values, dtype="<f4")
    if not np.isfinite(values).all():
        raise NumericError(f"checkpoint tensor {name} holds non-finite values")
    return values


def save_checkpoint(stem, model) -> Path:
    """Write the manifest and the f32 payload of ``checkpoint_paths(stem)``.

    The manifest holds what ``build_variant`` takes and each tensor's name
    and shape, in payload order.  Neither file replaces an earlier
    checkpoint at ``stem`` until both are written, and nothing is written
    that ``load_checkpoint`` refuses: a tensor that is not finite in f32.
    """
    manifest_path, payload_path = checkpoint_paths(stem)
    if "att_emb/W_att" in model.params and model.attr_provenance is None:
        raise DataError(f"cannot save variant {model.config.variant!r} without the "
                        "provenance of its attribute table")
    blobs = [_f32(name, t.data).tobytes() for name, t in model.params.items()]
    word_vocabs = model.word_vocabs()
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": model.config.to_json(),
        "attribute_vocab": model.attr_vocab.to_json(),
        "attribute_provenance": model.attr_provenance,
        "word_vocabs": word_vocabs,
        "vocab_hashes": _vocab_hashes(model.attr_vocab.ids(), word_vocabs),
        "payload_file": payload_path.name,
        "payload_bytes": sum(map(len, blobs)),
        "tensors": [{"name": name, "shape": list(t.data.shape)}
                    for name, t in model.params.items()],
    }
    with files.transaction():
        with files.write(payload_path, binary=True) as fh:
            for blob in blobs:
                fh.write(blob)
        files.write_json(manifest_path, manifest, sort_keys=True)
    return manifest_path


def _check_manifest(manifest, where):
    """The keys and types ``load_checkpoint`` reads, before it reads them."""
    files.check(manifest, where, config=dict, attribute_vocab=list,
                attribute_provenance=str | None, word_vocabs=dict[str, list[str]],
                vocab_hashes=dict, payload_file=str, payload_bytes=int, tensors=list)
    files.check(manifest["config"], f"{where}: config", **files.json_types(TrainConfig))
    files.check(manifest["vocab_hashes"], f"{where}: vocab_hashes",
                attributes=str, words=dict[str, str])
    for i, entry in enumerate(manifest["tensors"]):
        files.check(entry, f"{where}: tensors[{i}]", name=str, shape=list[int])
    name = manifest["payload_file"]
    if name in ("", "..") or Path(name).name != name:
        raise DataError(f"{where}: payload_file {name!r} is not a plain file name")
    for scope, itos in manifest["word_vocabs"].items():
        if itos[:2] != [PAD, UNK]:
            raise DataError(f"{where}: word vocabulary {scope!r} does not begin {PAD}, {UNK}")


def load_checkpoint(stem):
    """Rebuild a model from the manifest/payload pair at ``stem``
    (see ``checkpoint_paths``)."""
    manifest_path, _ = checkpoint_paths(stem)
    manifest = files.read_json(manifest_path, "checkpoint manifest")
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"checkpoint format version {version!r} unsupported "
            f"(expected {CHECKPOINT_FORMAT_VERSION})")
    where = f"checkpoint manifest {manifest_path}"
    _check_manifest(manifest, where)
    config = TrainConfig.from_values(manifest["config"], f"{where}: config")
    vocab = AttributeVocab.from_json(manifest["attribute_vocab"], f"{where}: attribute_vocab")
    # train() keeps the vocabulary's attributes that config.attributes names.
    if config.attributes and set(config.attributes) != set(vocab.ids()):
        raise DataError(f"{where}: config attributes {config.attributes} do not name "
                        f"the attribute_vocab {vocab.ids()}")
    word_itos = manifest["word_vocabs"]
    if manifest["vocab_hashes"] != _vocab_hashes(vocab.ids(), word_itos):
        raise DataError(f"{where}: the attribute or word vocabularies do not match "
                        "their hashes")
    model = build_variant(config, vocab, word_itos, rng=UNDRAWN)  # the payload fills it
    # Only a generated decoder's attribute table has a provenance.
    allowed = PROVENANCES if "att_emb/W_att" in model.params else (None,)
    provenance = manifest.get("attribute_provenance")
    if provenance not in allowed:
        raise DataError(f"{where}: attribute_provenance of variant {config.variant!r} "
                        f"must be one of {allowed}, got {provenance!r}")
    model.attr_provenance = provenance

    payload_path = manifest_path.with_name(manifest["payload_file"])
    payload = files.read_binary(payload_path, "checkpoint payload")
    if len(payload) != manifest["payload_bytes"]:
        raise DataError(
            f"checkpoint payload {payload_path} is {len(payload)} bytes, "
            f"manifest expects {manifest['payload_bytes']} (truncated?)")
    expected = model.params.keys()
    listed = {entry["name"] for entry in manifest["tensors"]}
    if listed != expected:
        raise DataError(f"checkpoint tensors do not match model: "
                        f"missing {sorted(expected - listed)}, "
                        f"extra {sorted(listed - expected)}")
    offset = 0
    for entry in manifest["tensors"]:
        name = entry["name"]
        shape = tuple(entry["shape"])
        t = model.params[name]
        if t.data.shape != shape:
            raise DataError(
                f"tensor {name} has shape {shape} in checkpoint but the "
                f"configured model expects {t.data.shape}")
        count = int(np.prod(shape)) if shape else 1
        if offset + 4 * count > len(payload):
            raise DataError(f"checkpoint payload too short for tensor {name}")
        values = np.frombuffer(payload, dtype="<f4", count=count, offset=offset)
        offset += 4 * count
        t.data = _f32(name, values).astype(np.float64).reshape(shape)
    return model


# -- parameter accounting ----------------------------------------------------


@dataclass
class ParamCountReport:
    tensors: dict[str, int]
    groups: dict[str, int]
    total: int
    trainable_total: int
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return dataclasses.asdict(self)

    def to_table(self) -> str:
        lines = []
        for group, count in self.groups.items():
            lines.append(f"{group:<12} {count:>12,}")
        lines.append(f"{'total':<12} {self.total:>12,}")
        lines.append(f"{'trainable':<12} {self.trainable_total:>12,}")
        lines.extend(self.notes)
        return "\n".join(lines)


def param_count(params, exclude=()) -> ParamCountReport:
    """Element counts per tensor and per group from a live model."""
    tensors = {name: int(t.data.size) for name, t in params.items() if name not in exclude}
    groups = {}
    for name, n in tensors.items():
        groups[parameter_group(name)] = groups.get(parameter_group(name), 0) + n
    return ParamCountReport(tensors, groups, sum(tensors.values()),
                            sum(n for name, n in tensors.items() if params[name].requires_grad))


def _brace(names) -> str:
    """'a/x', 'a/y', 'b' -> 'a/{x,y}, b' (order kept)."""
    leaves: dict[str, list[str]] = {}
    for name in names:
        parent, _, leaf = name.rpartition("/")
        leaves.setdefault(parent, []).append(leaf)
    return ", ".join(f"{p}/{ls[0]}" if len(ls) == 1 else f"{p}/{{{','.join(ls)}}}"
                     for p, ls in leaves.items())


def param_count_from_config(config: TrainConfig, n_attributes: int | None = None,
                            word_vocab_size: int | None = None) -> ParamCountReport:
    """Counts of a model that ``build_variant`` builds, as it builds a
    trained or loaded one, from inputs of the given sizes.

    The attributes are named ``<attribute 1>`` .. ``<attribute N>`` and
    every word vocabulary has |V| words.  A size that is not given is
    probed instead of guessed: the model is built again with that size
    changed, and the tensors whose name or shape moves are listed in the
    notes and left out of the counts.
    """
    config.validate()
    for what, size in (("n_attributes", n_attributes),
                       ("word_vocab_size", word_vocab_size)):
        if size is not None and size < 1:
            raise DataError(f"{what} must be >= 1, got {size}")

    def build(ids, n_words):
        words = [f"<word {i}>" for i in range(n_words)]
        return build_variant(config, AttributeVocab([(a, None) for a in ids]),
                             {word_scope(config.variant, a): words for a in ids},
                             rng=UNDRAWN)

    ids = (["<attribute>"] if n_attributes is None
           else [f"<attribute {i}>" for i in range(1, n_attributes + 1)])
    n_words = word_vocab_size or 2
    model = build(ids, n_words)
    probes = []
    if n_attributes is None:
        probes.append(("the number of attributes N",
                       build(["<attribute 1>", "<attribute 2>"], n_words)))
    if word_vocab_size is None:
        probes.append(("the word vocabulary size |V|", build(ids, n_words + 1)))
    notes = []
    unknown = set()
    for what, probe in probes:
        moved = [name for name, t in model.params.items()
                 if name not in probe.params
                 or probe.params[name].data.shape != t.data.shape]
        if moved:
            notes.append(f"{_brace(moved)}: not counted (depends on {what})")
            unknown.update(moved)
    if config.variant == "n_tag_sets" and n_attributes is not None:
        m = model.params["decoder/T"].data.shape[0]
        notes.append(f"transition matrix is (3N+1)^2 = {m * m:,}; "
                     f"the 9N^2 approximation gives {9 * n_attributes ** 2:,}")
    if config.variant == "per_attribute":
        notes.append("per_attribute: counts depend on each attribute's vocabulary "
                     "(here every one has |V| words); count a checkpoint instead")
    report = param_count(model.params, exclude=unknown)
    report.notes = notes
    return report
