"""Attribute embedding tables and how they are produced.

Each attribute gets one vector r that conditions the decoder generators.
Three provenances are supported: "uncontextualized" pools static word
vectors of the attribute's name phrase and of its labeled values.  Per
call, the spans of each distinct (tokens, tags) pair are read once, so
the repeated products that share their token and tag tuples are decoded
once, and each distinct value string is embedded once;
"contextualized" ingests externally computed per-instance name/value
vectors and mean-pools them; "random" draws a table uniformly at random.
A table is data: whether a model trains its rows is up to the variant
(only "adatag_random_emb" does).
"""

from __future__ import annotations

import json
import logging
from itertools import chain

import numpy as np

from . import files
from .corpus import tokenize
from .encoder import lookup_word
from .errors import DataError
from .tagging import span_text, tags_to_spans

log = logging.getLogger(__name__)

PROVENANCES = ("uncontextualized", "contextualized", "random")


def _json_vector(value, where, row) -> np.ndarray:
    """A JSON array of finite numbers as a float vector; a string, bool,
    null or nested array in it is refused rather than converted, and so
    is an integer past the float range, in a ``row`` that ``where`` names."""
    if not isinstance(value, list) or any(type(x) not in (int, float) for x in value):
        raise DataError(f"{where}: a vector must be an array of JSON numbers, "
                        f"got {json.dumps(value):.60}")
    try:
        vec = np.array(value, dtype=np.float64)
    except OverflowError as e:
        raise DataError(f"{where}: bad {row}: {e}") from None
    if not np.isfinite(vec).all():
        raise DataError(f"{where}: non-finite vector component")
    return vec


class AttributeEmbeddingTable:
    """Embedding vector per attribute id, with uniform dimension."""

    def __init__(self, vectors: dict[str, np.ndarray], provenance: str):
        if provenance not in PROVENANCES:
            raise DataError(
                f"unknown provenance {provenance!r}; expected one of {PROVENANCES}")
        if not vectors:
            raise DataError("attribute embedding table is empty")
        dims = {v.shape for v in vectors.values()}
        if len(dims) != 1 or len(next(iter(dims))) != 1:
            raise DataError(f"inconsistent embedding dimensions: {sorted(dims)}")
        self.vectors = {a: np.asarray(v, dtype=np.float64) for a, v in vectors.items()}
        bad = sorted(a for a, v in self.vectors.items() if not np.isfinite(v).all())
        if bad:
            raise DataError(f"embeddings of {bad} have non-finite components")
        self.provenance = provenance

    @property
    def d_r(self) -> int:
        return next(iter(self.vectors.values())).shape[0]

    def ids(self) -> list[str]:
        return sorted(self.vectors)

    def get(self, attr_id: str) -> np.ndarray:
        try:
            return self.vectors[attr_id]
        except KeyError:
            raise DataError(f"no embedding for attribute {attr_id!r}")

    def as_matrix(self, attr_ids) -> np.ndarray:
        return np.stack([self.get(a) for a in attr_ids])

    def save(self, path):
        files.write_jsonl(path, ({"attribute": a, "vec": self.vectors[a].tolist(),
                                  "provenance": self.provenance} for a in self.ids()))

    @classmethod
    def load(cls, path) -> "AttributeEmbeddingTable":
        """Read a pooled-table JSONL file: {"attribute", "vec"} per line."""
        vectors = {}
        provenances = set()
        for where, row in files.read_jsonl(path, "embedding table"):
            files.check(row, where, attribute=str, vec=list, provenance=str | None)
            vec = _json_vector(row["vec"], where, "table row")
            if row["attribute"] in vectors:
                raise DataError(f"{where}: duplicate attribute {row['attribute']!r}")
            vectors[row["attribute"]] = vec
            if row.get("provenance") is not None:
                provenances.add(row["provenance"])
        if len(provenances) > 1:
            raise DataError(f"{path} mixes provenances {sorted(provenances)} in one table")
        return cls(vectors, provenances.pop() if provenances else "contextualized")


def collect_instances(examples, attr_ids) -> dict[str, list[str]]:
    """Per attribute of ``attr_ids``, the value string of every labeled
    span, in example order and left to right within an example.  Each
    distinct (tokens, tags) pair is decoded once."""
    found = {a: [] for a in attr_ids}
    decoded = {}  # (tokens, tags) -> the pair's value strings
    for ex in examples:
        if ex.attribute in found:
            pair = ex.tokens, ex.tags
            if pair not in decoded:
                decoded[pair] = [span_text(ex.token_texts(), span)
                                 for span in sorted(tags_to_spans(ex.tags))]
            found[ex.attribute] += decoded[pair]
    return found


def static_phrase_embedding(phrase: str, vectors: dict, dim: int) -> np.ndarray:
    """Mean of the static vectors of a phrase's tokens; OOV tokens skipped."""
    hits = [vec for vec in (lookup_word(vectors, t.text) for t in tokenize(phrase))
            if vec is not None]
    if not hits:
        return np.zeros(dim)
    return np.mean(hits, axis=0)


def uncontextualized_table(vocab, examples, vectors) -> AttributeEmbeddingTable:
    """Pool a full table from static word vectors and labeled data.

    Each attribute's name half embeds its phrase; its value half averages
    the phrase embeddings of every labeled value occurrence.  Each
    distinct value string is embedded once, and an occurrence reads its
    row, so the mean sees the same matrix as one row per occurrence
    would give.  With no occurrences the value half is zero, with a
    warning.
    """
    if not vectors:
        raise DataError("uncontextualized embeddings require static word vectors")
    dim = next(iter(vectors.values())).shape[0]
    instances = collect_instances(examples, vocab.ids())
    row = {v: i for i, v in enumerate(dict.fromkeys(chain.from_iterable(instances.values())))}
    rows = np.array([static_phrase_embedding(v, vectors, dim) for v in row])
    table = {}
    for attr_id, values in instances.items():
        if values:
            value_part = np.mean(rows[[row[v] for v in values]], axis=0)
        else:
            log.warning("attribute %s has no labeled values; value half is zero", attr_id)
            value_part = np.zeros(dim)
        table[attr_id] = np.concatenate(
            [static_phrase_embedding(vocab.phrase(attr_id), vectors, dim), value_part])
    return AttributeEmbeddingTable(table, "uncontextualized")


def ingest_contextualized(path) -> AttributeEmbeddingTable:
    """Pool per-instance contextual name/value vectors into a table.

    Input rows: {"attribute": id, "name_vec": [...], "value_vec": [...]}.
    Per attribute, both sides are mean-pooled and concatenated.
    """
    rows: dict[str, list[np.ndarray]] = {}  # each instance's name and value vectors
    dim = None
    for where, row in files.read_jsonl(path, "instance file"):
        files.check(row, where, attribute=str, name_vec=list, value_vec=list)
        name_vec = _json_vector(row["name_vec"], where, "instance row")
        value_vec = _json_vector(row["value_vec"], where, "instance row")
        if name_vec.shape != value_vec.shape:
            raise DataError(f"{where}: name/value vectors must be equal-sized")
        if dim is None:
            dim = name_vec.shape[0]
        elif name_vec.shape[0] != dim:
            raise DataError(f"{where}: vector dim {name_vec.shape[0]} differs "
                            f"from earlier rows ({dim})")
        rows.setdefault(row["attribute"], []).append(
            np.concatenate([name_vec, value_vec]))
    if not rows:
        raise DataError(f"instance file {path} is empty")
    table = {a: sum(vecs) / len(vecs) for a, vecs in rows.items()}
    return AttributeEmbeddingTable(table, "contextualized")


def random_table(attr_ids, d_r: int, seed: int) -> AttributeEmbeddingTable:
    """Random table, uniform in (-0.1, 0.1)."""
    if d_r < 1:
        raise DataError(f"d_r must be positive, got {d_r}")
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    vectors = {a: rng.uniform(-0.1, 0.1, size=d_r) for a in attr_ids}
    return AttributeEmbeddingTable(vectors, "random")
