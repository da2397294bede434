"""Training loop, optimizer, checkpoints, and parameter accounting.

Batches average per-example NLLs.  Each example is scored as its own
chain, so no padding enters the loss, and the examples of a batch share
one decoder scope, so each attribute's decoder is generated once per
batch.  Early stopping watches dev macro-F1 with a patience counter, and
the best epoch's parameters are what ends up in the checkpoint.  All
arithmetic is float64; only serialization rounds to float32.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import GenericAlias

import numpy as np

from . import files
from .attribute_embeddings import AttributeEmbeddingTable
from .autodiff import Tensor, concat, reshape
from .corpus import AttributeVocab
from .errors import DataError, NumericError
from .evaluation import evaluate_model, macro
from .models import (SHARED_SCOPE, VARIANTS, build_variant, decoder_scope,
                     derive_word_itos)

CHECKPOINT_FORMAT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
    attributes: tuple[str, ...] | None = None

    def validate(self):
        if self.variant not in VARIANTS:
            raise DataError(
                f"unsupported variant {self.variant!r}; choose one of {VARIANTS}")
        for name in ("d_h", "d_word", "d_r", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise DataError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_h % 2:
            raise DataError(f"d_h must be even, got {self.d_h}")
        if not 1 <= self.k <= 8:
            raise DataError(f"k must be in 1..8, got {self.k}")
        if self.learning_rate <= 0:
            raise DataError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.setting not in ("title", "title_plus_bullets"):
            raise DataError(f"unknown setting {self.setting!r}")
        return self

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        if out["attributes"] is not None:
            out["attributes"] = list(out["attributes"])
        return out

    @classmethod
    def from_mapping(cls, mapping) -> "TrainConfig":
        known = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key not in known:
                raise DataError(f"unknown config key {key!r}")
            kwargs[key] = _coerce(key, raw, known[key].type)
        return cls(**kwargs).validate()


# What each annotated field type accepts after coercion; bool is not an int.
_ACCEPTS = {"int": int, "float": (int, float), "str": str}


def _coerce(key, raw, typ):
    if key == "attributes":
        if raw is None or raw == "":
            return None
        if isinstance(raw, str):
            return tuple(a.strip() for a in raw.split(",") if a.strip()) or None
        if not isinstance(raw, (list, tuple)) or not all(isinstance(a, str) for a in raw):
            raise DataError(f"config key 'attributes' must be a list of strings, "
                            f"got {raw!r:.60}")
        return tuple(raw)
    if isinstance(raw, str):
        raw = raw.strip()
        try:
            if typ == "int":
                raw = int(raw)
            elif typ == "float":
                raw = float(raw)
        except ValueError:
            raise DataError(f"config key {key!r}: cannot parse {raw!r}")
    if isinstance(raw, bool) or not isinstance(raw, _ACCEPTS[typ]):
        raise DataError(f"config key {key!r} must be {typ}, got {raw!r:.60}")
    return raw


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, line in files.read_lines(path, "config file"):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise DataError(f"{path}:{lineno}: expected 'key = value'")
        key, value = text.split("=", 1)
        out[key.strip()] = value.strip()
    return out


class Adam:
    """Standard Adam with bias correction; state per parameter tensor."""

    def __init__(self, tensors, lr: float,
                 beta1: float = ADAM_BETA1, beta2: float = ADAM_BETA2,
                 eps: float = ADAM_EPS):
        self.tensors = list(tensors)
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = [np.zeros_like(t.data) for t in self.tensors]
        self._v = [np.zeros_like(t.data) for t in self.tensors]

    def zero_grad(self):
        for t in self.tensors:
            t.grad = None

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for i, t in enumerate(self.tensors):
            if t.grad is None:
                continue
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * t.grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * (t.grad ** 2)
            m_hat = self._m[i] / b1t
            v_hat = self._v[i] / b2t
            t.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def batch_loss(model, batch) -> Tensor:
    """Mean NLL over a batch; each attribute's decoder is generated once."""
    if not batch:
        raise DataError("empty batch")
    with decoder_scope():
        losses = [reshape(model.loss(ex), (1,)) for ex in batch]
    return concat(losses).mean()


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

    def to_json(self) -> dict:
        out = {
            "variant": self.variant,
            "config": self.config,
            "epochs": [dataclasses.asdict(e) for e in self.epochs],
            "best_epoch": self.best_epoch,
            "best_dev_f1": self.best_dev_f1,
            "stopped_epoch": self.stopped_epoch,
            "checkpoint_path": self.checkpoint_path,
        }
        if self.per_attribute is not None:
            out["per_attribute"] = self.per_attribute
        return out


def _example_ids(batch):
    ids = []
    for ex in batch:
        ids.append(f"{ex.product_id}/{ex.attribute}" if hasattr(ex, "attribute")
                   else ex.product_id)
    return ids


def _fit(model, optimizer, train_set, dev_examples, config, rng, label=""):
    """Generic epoch loop with early stopping on dev macro-F1.

    Returns (per-epoch stats, best epoch, best dev F1, stopped epoch);
    the model is left holding its best parameters.
    """
    trainable = optimizer.tensors
    history = []
    best_f1 = -1.0
    best_epoch = 0
    best_state = None
    since_best = 0
    stopped = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_set))
        total = 0.0
        for start in range(0, len(train_set), config.batch_size):
            batch = [train_set[i] for i in order[start:start + config.batch_size]]
            optimizer.zero_grad()
            loss = batch_loss(model, batch)
            value = loss.item()
            if not math.isfinite(value):
                raise NumericError(
                    f"non-finite training loss at epoch {epoch}, "
                    f"batch starting at {start}{label} "
                    f"(examples: {', '.join(_example_ids(batch))})")
            loss.backward()
            optimizer.step()
            total += value * len(batch)
        dev_report = evaluate_model(model, dev_examples)
        f1 = dev_report.macro_f1
        history.append(EpochStats(epoch, total / len(train_set), f1))
        stopped = epoch
        if f1 > best_f1:
            best_f1 = f1
            best_epoch = epoch
            best_state = [t.data.copy() for t in trainable]
            since_best = 0
        else:
            since_best += 1
            if since_best >= config.patience:
                break
    if best_state is not None:
        for t, saved in zip(trainable, best_state):
            t.data = saved
    return history, best_epoch, best_f1, stopped


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
    if attr_table is not None and config.variant == "adatag":
        config = dataclasses.replace(config, d_r=attr_table.d_r)

    rng = np.random.default_rng(config.seed)
    word_itos = derive_word_itos(config.variant, train_examples)
    model = build_variant(config, vocab, word_itos, attr_table, vectors, rng)

    report = TrainReport(config.variant, config.to_json())
    if config.variant == "per_attribute":
        per_attr = {}
        stopped_max = 0
        for a in vocab.ids():
            sub_train = [ex for ex in train_examples if ex.attribute == a]
            sub_dev = [ex for ex in dev_examples if ex.attribute == a]
            if not sub_train or not sub_dev:
                raise DataError(f"attribute {a!r} lacks train or dev examples")
            optimizer = Adam(model.params.in_group(a).values(), config.learning_rate)
            history, best_epoch, best_f1, stopped = _fit(
                model, optimizer, sub_train, sub_dev, config, rng, label=f" ({a})")
            per_attr[a] = {
                "epochs": [dataclasses.asdict(e) for e in history],
                "best_epoch": best_epoch,
                "best_dev_f1": best_f1,
                "stopped_epoch": stopped,
            }
            stopped_max = max(stopped_max, stopped)
        final = evaluate_model(model, dev_examples)
        report.per_attribute = per_attr
        report.best_dev_f1 = final.macro_f1
        report.best_epoch = max(v["best_epoch"] for v in per_attr.values())
        report.stopped_epoch = stopped_max
    else:
        train_set = model.prepare_examples(train_examples)
        optimizer = Adam(model.params.trainable().values(), config.learning_rate)
        history, best_epoch, best_f1, stopped = _fit(
            model, optimizer, train_set, dev_examples, config, rng)
        report.epochs = history
        report.best_epoch = best_epoch
        report.best_dev_f1 = best_f1
        report.stopped_epoch = stopped

    if checkpoint_stem is not None:
        report.checkpoint_path = str(save_checkpoint(checkpoint_stem, model))
    return report, model


# -- checkpoints -------------------------------------------------------------


def _vocab_hash(items) -> str:
    payload = json.dumps(list(items), ensure_ascii=False).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def save_checkpoint(stem, model) -> Path:
    """Write ``<stem>.json`` (manifest) and ``<stem>.bin`` (f32 payload).

    Neither replaces an earlier checkpoint at ``stem`` until both are written.
    """
    stem = Path(stem)
    manifest_path = stem.with_suffix(".json")
    payload_path = stem.with_suffix(".bin")
    tensors = []
    offset = 0
    blobs = []
    for name, t in model.params.items():
        blob = np.ascontiguousarray(t.data, dtype="<f4").tobytes()
        tensors.append({
            "name": name,
            "shape": list(t.data.shape),
            "byte_offset": offset,
            "group": model.params.group_of(name),
            "trainable": bool(t.requires_grad),
        })
        blobs.append(blob)
        offset += len(blob)
    word_vocabs = model.word_vocabs()
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "variant": model.config.variant,
        "config": model.config.to_json(),
        "attribute_vocab": [
            {"id": a, "phrase": model.attr_vocab.phrase(a)}
            for a in model.attr_vocab.ids()
        ],
        "word_vocabs": word_vocabs,
        "vocab_hashes": {
            "attributes": _vocab_hash(model.attr_vocab.ids()),
            "words": {scope: _vocab_hash(itos) for scope, itos in word_vocabs.items()},
        },
        "attribute_embeddings": model.attribute_info(),
        "payload_file": payload_path.name,
        "payload_bytes": offset,
        "tensors": tensors,
    }
    with files.transaction():
        with files.write(payload_path, binary=True) as fh:
            for blob in blobs:
                fh.write(blob)
        files.write_json(manifest_path, manifest, sort_keys=True)
    return manifest_path


def _is(value, typ) -> bool:
    """isinstance, where an int is a size and list[T] checks each item."""
    if typ is int:  # bool is an int subclass, and no size is negative
        return type(value) is int and value >= 0
    if isinstance(typ, GenericAlias):
        return isinstance(value, list) and all(_is(v, typ.__args__[0]) for v in value)
    return isinstance(value, typ)


def _check_fields(obj, where, **fields):
    """Raise DataError unless ``obj`` maps each key to a value of its type."""
    if not isinstance(obj, dict):
        raise DataError(f"checkpoint manifest: {where} must be an object")
    for key, typ in fields.items():
        if key not in obj:
            raise DataError(f"checkpoint manifest: {where} lacks {key!r}")
        if not _is(obj[key], typ):
            raise DataError(f"checkpoint manifest: {where} {key!r} must be "
                            f"{typ if isinstance(typ, GenericAlias) else typ.__name__}, "
                            f"got {obj[key]!r:.60}")


def _check_manifest(manifest):
    """The keys and types ``load_checkpoint`` reads, before it reads them."""
    _check_fields(manifest, "manifest", config=dict, attribute_vocab=list,
                  word_vocabs=dict, payload_file=str, payload_bytes=int, tensors=list)
    for i, entry in enumerate(manifest["attribute_vocab"]):
        _check_fields(entry, f"attribute_vocab[{i}]", id=str)
    words = manifest["word_vocabs"]
    _check_fields(words, "word_vocabs", **dict.fromkeys(words, list[str]))
    for i, entry in enumerate(manifest["tensors"]):
        _check_fields(entry, f"tensors[{i}]", name=str, shape=list[int], byte_offset=int)
    if manifest.get("attribute_embeddings") is not None:
        _check_fields(manifest["attribute_embeddings"], "attribute_embeddings",
                      ids=list[str], d_r=int, provenance=str, frozen=bool)


def _placeholder_model(config, vocab, word_itos, attr_info=None):
    """A model of the configured shapes whose weights are yet to be filled in.

    ``attr_info`` has the layout of ``Model.attribute_info()``; for adatag
    it sizes an all-zero attribute table.
    """
    attr_table = None
    if attr_info is not None and config.variant == "adatag":
        attr_table = AttributeEmbeddingTable(
            {a: np.zeros(attr_info["d_r"]) for a in attr_info["ids"]},
            attr_info["provenance"], attr_info["frozen"])
    return build_variant(config, vocab, word_itos, attr_table)


def load_checkpoint(stem):
    """Rebuild a model from a manifest/payload pair."""
    stem = Path(stem)
    manifest_path = stem if stem.suffix == ".json" else stem.with_suffix(".json")
    manifest = files.read_json(manifest_path, "checkpoint manifest")
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"checkpoint format version {version!r} unsupported "
            f"(expected {CHECKPOINT_FORMAT_VERSION})")
    _check_manifest(manifest)
    config = TrainConfig.from_mapping(manifest["config"])
    vocab = AttributeVocab(
        [(row["id"], row.get("phrase")) for row in manifest["attribute_vocab"]])
    word_itos = {scope: list(itos) for scope, itos in manifest["word_vocabs"].items()}
    model = _placeholder_model(config, vocab, word_itos,
                               manifest.get("attribute_embeddings"))

    payload_path = manifest_path.with_name(manifest["payload_file"])
    payload = files.read_binary(payload_path, "checkpoint payload")
    if len(payload) != manifest["payload_bytes"]:
        raise DataError(
            f"checkpoint payload {payload_path} is {len(payload)} bytes, "
            f"manifest expects {manifest['payload_bytes']} (truncated?)")
    expected = {name: t for name, t in model.params.items()}
    listed = {entry["name"] for entry in manifest["tensors"]}
    if listed != set(expected):
        missing = sorted(set(expected) - listed)
        extra = sorted(listed - set(expected))
        raise DataError(
            f"checkpoint tensors do not match model: missing {missing}, extra {extra}")
    for entry in manifest["tensors"]:
        name = entry["name"]
        shape = tuple(entry["shape"])
        t = expected[name]
        if t.data.shape != shape:
            raise DataError(
                f"tensor {name} has shape {shape} in checkpoint but the "
                f"configured model expects {t.data.shape}")
        count = int(np.prod(shape)) if shape else 1
        start = entry["byte_offset"]
        end = start + 4 * count
        if end > len(payload):
            raise DataError(f"checkpoint payload too short for tensor {name}")
        values = np.frombuffer(payload, dtype="<f4", count=count, offset=start)
        t.data = values.astype(np.float64).reshape(shape)
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
        return {
            "tensors": self.tensors,
            "groups": self.groups,
            "total": self.total,
            "trainable_total": self.trainable_total,
            "notes": list(self.notes),
        }

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
    tensors = {}
    groups = {}
    total = 0
    trainable = 0
    for name, t in params.items():
        if name in exclude:
            continue
        n = int(t.data.size)
        tensors[name] = n
        groups[params.group_of(name)] = groups.get(params.group_of(name), 0) + n
        total += n
        if t.requires_grad:
            trainable += n
    return ParamCountReport(tensors, groups, total, trainable)


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
    """Counts of a model built from placeholder inputs of the given sizes.

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
        scopes = ids if config.variant == "per_attribute" else [SHARED_SCOPE]
        words = [f"<word {i}>" for i in range(n_words)]
        info = {"ids": ids, "d_r": config.d_r, "provenance": "uncontextualized",
                "frozen": True}
        return _placeholder_model(config, AttributeVocab([(a, None) for a in ids]),
                                  dict.fromkeys(scopes, words), info)

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
