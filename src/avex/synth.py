"""Template-driven synthetic corpora for end-to-end exercises.

Titles come from templates with ``<value>`` slots ("<value> scented
body wash"); the filled values double as the product's catalog values,
so distant supervision recovers them exactly.  The generator also emits
a matching split manifest and a random static-vector file covering the
generated vocabulary, which makes the full pipeline runnable offline.
Titles repeat: each distinct one is tokenized once per call for the
vector vocabulary, and labeling gives the products that repeat it one
shared token tuple and tag tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import files
from .corpus import (SPLITS, AttributeVocab, Product, attribute_phrase, save_products,
                     tokenize)
from .encoder import save_word_vectors
from .errors import DataError

VALUE_SLOT = "<value>"


@dataclass
class SynthAttribute:
    """Recipe for one attribute's synthetic examples.

    ``train_value_limit`` restricts training examples to a prefix of the
    value list, which leaves the remaining values unseen at train time
    (useful for probing generalization from other attributes).
    """

    id: str
    values: list[str]
    templates: list[str]
    train: int = 0
    dev: int = 0
    test: int = 0
    train_value_limit: int | None = None

    def validate(self):
        if not self.values:
            raise DataError(f"attribute {self.id!r} has no values")
        if not self.templates:
            raise DataError(f"attribute {self.id!r} has no templates")
        for tpl in self.templates:
            if VALUE_SLOT not in tpl:
                raise DataError(
                    f"template {tpl!r} for {self.id!r} lacks a {VALUE_SLOT} slot")
        if self.train_value_limit is not None and not (
                type(self.train_value_limit) is int
                and 1 <= self.train_value_limit <= len(self.values)):
            raise DataError(
                f"train_value_limit for {self.id!r} must be in 1..{len(self.values)}")
        return self


@dataclass
class SynthSpec:
    attributes: list[SynthAttribute]
    seed: int = 0
    vector_dim: int = 50

    @classmethod
    def from_json(cls, obj, where="synth spec") -> SynthSpec:
        """A spec from its JSON object; a missing or null key takes its default."""
        spec = files.record(cls, obj, where)
        spec.attributes = [files.record(SynthAttribute, a, f"{where}: attributes[{i}]")
                           for i, a in enumerate(spec.attributes)]
        return spec

    @classmethod
    def load(cls, path) -> SynthSpec:
        return cls.from_json(files.read_json(path, "synth spec"), f"synth spec {path}")


@dataclass
class SynthCorpus:
    products: list[Product]
    vocab: AttributeVocab
    manifest: dict[str, list[str]]
    vectors: dict[str, np.ndarray]


def generate(spec: SynthSpec) -> SynthCorpus:
    """Deterministic corpus for a spec: same seed, same corpus."""
    if spec.seed < 0:
        raise DataError(f"seed must be >= 0, got {spec.seed}")
    if spec.vector_dim < 1:
        raise DataError(f"vector_dim must be >= 1, got {spec.vector_dim}")
    rng = np.random.default_rng(spec.seed)
    products = []
    manifest = {split: [] for split in SPLITS}
    titles = set()
    for attr in spec.attributes:
        attr.validate()
        for split in SPLITS:
            count = getattr(attr, split)
            pool = list(attr.values)
            if split == "train" and attr.train_value_limit is not None:
                pool = pool[: attr.train_value_limit]
            for i in range(count):
                template = attr.templates[int(rng.integers(len(attr.templates)))]
                slots = template.count(VALUE_SLOT)
                if slots > len(pool):
                    raise DataError(
                        f"template {template!r} needs {slots} values but "
                        f"{attr.id!r} offers only {len(pool)}")
                chosen = [pool[j] for j in
                          rng.choice(len(pool), size=slots, replace=False)]
                title = template
                for value in chosen:
                    title = title.replace(VALUE_SLOT, value, 1)
                pid = f"{attr.id}-{split}-{i:04d}"
                products.append(Product(pid, title, [], None, {attr.id: chosen}))
                manifest[split].append(pid)
                titles.add(title)
    vocab = AttributeVocab([(a.id, None) for a in spec.attributes])
    texts = titles | {attribute_phrase(a.id) for a in spec.attributes}
    words = {t.text for text in texts for t in tokenize(text)}
    # Scale chosen so vector norms land near those of published 50-d word
    # vectors; small-magnitude inputs make the encoder learn noticeably slower.
    vectors = {
        w.lower(): rng.uniform(-1.5, 1.5, size=spec.vector_dim)
        for w in sorted(words)
    }
    return SynthCorpus(products, vocab, manifest, vectors)


def write_corpus(corpus: SynthCorpus, out_dir) -> dict[str, Path]:
    """Write corpus.jsonl, vocab.json, splits.json, and vectors.txt."""
    out = Path(out_dir)
    files.make_dir(out)
    paths = {"corpus": out / "corpus.jsonl", "vocab": out / "vocab.json",
             "splits": out / "splits.json", "vectors": out / "vectors.txt"}
    save_products(paths["corpus"], corpus.products)
    corpus.vocab.save(paths["vocab"])
    files.write_json(paths["splits"], corpus.manifest, indent=2)
    save_word_vectors(paths["vectors"], corpus.vectors)
    return paths
