"""Product ingestion, tokenization, and distant-supervision labeling.

Profiles arrive as JSONL, one product per line:

    {"id": ..., "title": ..., "bullets": [...], "description": ...,
     "attributes": {attr_id: [value, ...]}}

Catalog values are projected onto the text by exact token-sequence
matching (case-insensitive), which yields BIOE tag sequences without any
manual annotation.  ``build_corpus`` tokenizes each distinct value string
and each distinct source text once per call, however many products
repeat them, labels each distinct (text, values) pair once, and counts a
pair's matched values off the spans it keeps; repeated products share
one token tuple and one tag tuple.  Descriptions are parsed but never
labeled.
"""

from __future__ import annotations

import re
import string
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import compress
from typing import NamedTuple

from . import files
from .errors import DataError
from .tagging import (OUTSIDE, Span, first_fit, span_text, spans_to_tags, tag_indices,
                      value_strings)

SETTINGS = ("title", "title_plus_bullets")
FIELD_SEPARATOR = "."

# One ASCII punctuation mark, or a run of non-space characters that starts
# and ends with a character that is not one.
_TOKEN = re.compile(r"[{0}]|[^\s{0}](?:\S*[^\s{0}])?".format(re.escape(string.punctuation)))
_CAMEL_1 = re.compile(r"(?<=[a-z0-9])(?=[A-Z])")
_CAMEL_2 = re.compile(r"(?<=[A-Z])(?=[A-Z][a-z])")


class Token(NamedTuple):
    """Surface form plus half-open character offsets into the source text."""

    text: str
    start: int
    end: int


@dataclass
class Product:
    id: str
    title: str
    bullets: list[str] = field(default_factory=list)
    description: str | None = None
    gold_values: dict[str, list[str]] = field(default_factory=dict)


@dataclass(frozen=True)
class LabeledExample:
    """One (sentence, attribute) training instance."""

    product_id: str
    attribute: str
    tokens: tuple[Token, ...]
    tags: tuple[str, ...]
    source_field: str

    def token_texts(self) -> list[str]:
        return [t.text for t in self.tokens]

    @cached_property
    def gold_value_strings(self) -> frozenset[str]:
        """The normalized value strings its tags mark, worked out once."""
        return frozenset(value_strings(self.token_texts(), self.tags))


class AttributeVocab:
    """Ordered attribute inventory; ids map to display phrases."""

    def __init__(self, entries):
        self._phrases = {}  # id -> display phrase, in entry order
        for attr_id, phrase in entries:
            if attr_id in self._phrases:
                raise DataError(f"duplicate attribute id {attr_id!r}")
            self._phrases[attr_id] = phrase or attribute_phrase(attr_id)

    def ids(self) -> list[str]:
        return list(self._phrases)

    def phrase(self, attr_id: str) -> str:
        try:
            return self._phrases[attr_id]
        except KeyError:
            raise DataError(f"unknown attribute id {attr_id!r}")

    def __contains__(self, attr_id):
        return attr_id in self._phrases

    def __len__(self):
        return len(self._phrases)

    def subset(self, keep) -> "AttributeVocab":
        keep = set(keep)
        unknown = keep - set(self._phrases)
        if unknown:
            raise DataError(f"unknown attribute id(s): {sorted(unknown)}")
        return AttributeVocab([e for e in self._phrases.items() if e[0] in keep])

    def to_json(self) -> list[dict]:
        return [{"id": a, "phrase": p} for a, p in self._phrases.items()]

    @classmethod
    def from_json(cls, rows, where) -> "AttributeVocab":
        """The vocabulary of ``{"id", "phrase"}`` rows, the phrase optional."""
        if not isinstance(rows, list):
            raise DataError(f"{where} must be a JSON list")
        for i, row in enumerate(rows):
            files.check(row, f"{where}: entry {i}", id=str, phrase=str | None)
        try:
            return cls([(row["id"], row.get("phrase")) for row in rows])
        except DataError as e:
            raise DataError(f"{where}: {e}") from None

    @classmethod
    def load(cls, path) -> "AttributeVocab":
        return cls.from_json(files.read_json(path, "attribute vocabulary"),
                             f"attribute vocabulary {path}")

    def save(self, path):
        files.write_json(path, self.to_json(), indent=2)


def attribute_phrase(attr_id: str) -> str:
    """Split a camel-case attribute id into a readable phrase."""
    s = _CAMEL_2.sub(" ", _CAMEL_1.sub(" ", attr_id))
    return " ".join(s.split())


def tokenize(text: str) -> list[Token]:
    """Whitespace split, then detach leading/trailing ASCII punctuation.

    Offsets index the original string, so source[start:end] == token.
    """
    return [Token(m.group(), m.start(), m.end()) for m in _TOKEN.finditer(text)]


def value_tokens(values) -> dict[str, list[str]]:
    """Each distinct catalog value's lowercased token texts."""
    return {v: [t.text.lower() for t in tokenize(v)] for v in values}


def accepted_spans(lowered, values) -> list[Span]:
    """The value matches that distant labeling keeps in a lowercased
    token sequence, given each value's ``value_tokens`` entry: longer
    matches win, ties go left to right, and no two kept spans overlap."""
    n = len(lowered)
    spans = []
    for vtoks in values:
        width = len(vtoks)
        for s in range(n - width + 1 if width else 0):
            if lowered[s:s + width] == vtoks:
                spans.append(Span(s, s + width - 1))
    spans.sort(key=lambda span: (span.start - span.end, span.start))
    return list(compress(spans, first_fit(spans, n)))


@dataclass
class CoverageReport:
    """What distant supervision managed to label."""

    products: int = 0
    malformed_lines: list = field(default_factory=list)
    examples: int = 0
    negatives: int = 0
    dropped_pairs: int = 0
    values_seen: int = 0
    values_matched: int = 0
    unknown_attributes: int = 0
    per_attribute_examples: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = asdict(self)
        out["per_attribute_examples"] = dict(sorted(self.per_attribute_examples.items()))
        return out


def source_text(product: Product, setting: str) -> str:
    if setting == "title":
        return product.title
    if setting == "title_plus_bullets":
        parts = [product.title] + list(product.bullets)
        return f" {FIELD_SEPARATOR} ".join(p for p in parts if p)
    raise DataError(f"unknown setting {setting!r}; expected one of {SETTINGS}")


def build_corpus(products, vocab: AttributeVocab, setting: str = "title",
                 include_negatives: bool = False):
    """Label a product stream against an attribute vocabulary.

    Emits one LabeledExample per (product, attribute) pair with at least
    one matched value; zero-match pairs become all-O negatives only when
    requested and the text has a token, and are dropped otherwise.
    Each distinct source text is tokenized once and each distinct (text,
    values) pair labeled once; their examples share the tuples.
    Returns (examples sorted by (product id, attribute id), CoverageReport).
    """
    if setting not in SETTINGS:
        raise DataError(f"unknown setting {setting!r}; expected one of {SETTINGS}")
    products = list(products)
    known = value_tokens({v for p in products for vs in p.gold_values.values() for v in vs})
    read = {}  # source text -> its tokens, token texts and lowered texts
    labels = {}  # (source text, values) -> (values matched, tags)
    report = CoverageReport()
    examples = []
    for product in products:
        report.products += 1
        text = source_text(product, setting)
        if text not in read:
            tokens = tuple(tokenize(text))
            texts = [t.text for t in tokens]
            read[text] = tokens, texts, [t.lower() for t in texts]
        tokens, texts, lowered = read[text]
        for attr_id in sorted(product.gold_values):
            if attr_id not in vocab:
                report.unknown_attributes += 1
                continue
            values = tuple(v for v in dict.fromkeys(product.gold_values[attr_id])
                           if v and v.strip())
            if not values:
                continue
            report.values_seen += len(values)
            if (text, values) not in labels:
                spans = accepted_spans(lowered, [known[v] for v in values])
                realized = {span_text(texts, span).lower() for span in spans}
                hits = sum(" ".join(known[v]) in realized for v in values)
                labels[text, values] = hits, (tuple(spans_to_tags(spans, len(tokens))) if hits
                                              else (OUTSIDE,) * len(tokens))
            hits, tags = labels[text, values]
            report.values_matched += hits
            if hits or (include_negatives and tokens):
                examples.append(LabeledExample(product.id, attr_id, tokens, tags, setting))
                report.negatives += not hits
            else:
                report.dropped_pairs += 1
    examples.sort(key=lambda ex: (ex.product_id, ex.attribute))
    report.examples = len(examples)
    for ex in examples:
        report.per_attribute_examples[ex.attribute] = (
            report.per_attribute_examples.get(ex.attribute, 0) + 1)
    return examples, report


def parse_product(obj) -> Product:
    files.check(obj, "product row", id=str, title=str, bullets=list[str] | None,
                attributes=dict[str, list[str]] | None, description=str | None)
    return Product(obj["id"], obj["title"], obj.get("bullets") or [],
                   obj.get("description"), obj.get("attributes") or {})


def load_products(path):
    """Read a product JSONL file, skipping and reporting malformed lines."""
    products = {}  # by id, in file order
    malformed = []
    for lineno, line in files.read_lines(path, "corpus"):
        try:
            product = parse_product(files.parse_json(line))
        except DataError as e:
            malformed.append((lineno, str(e)))
            continue
        if product.id in products:
            malformed.append((lineno, f"duplicate product id {product.id!r}"))
            continue
        products[product.id] = product
    return list(products.values()), malformed


def save_products(path, products):
    """Write one row per product, as ``parse_product`` reads it; a
    description is written only when there is one."""
    files.write_jsonl(path, ({
        "id": p.id, "title": p.title, "bullets": p.bullets, "attributes": p.gold_values,
        **({} if p.description is None else {"description": p.description}),
    } for p in products), ensure_ascii=False)


def build_corpus_from_file(path, vocab, setting="title", include_negatives=False):
    products, malformed = load_products(path)
    examples, report = build_corpus(products, vocab, setting, include_negatives)
    report.malformed_lines = malformed
    return examples, report


# -- split manifests ---------------------------------------------------------

SPLITS = ("train", "dev", "test")


def load_split_manifest(path) -> dict[str, list[str]]:
    raw = files.check(files.read_json(path, "split manifest"), f"split manifest {path}",
                      **dict.fromkeys(SPLITS, list[str]))
    all_ids = [i for k in SPLITS for i in raw[k]]
    if len(set(all_ids)) != len(all_ids):
        raise DataError(f"split manifest {path} assigns some id to multiple splits")
    return {k: raw[k] for k in SPLITS}


def split_examples(examples, manifest) -> dict[str, list[LabeledExample]]:
    """Partition labeled examples by their product id's split."""
    where = {}
    for split in SPLITS:
        for pid in manifest[split]:
            where[pid] = split
    out = {split: [] for split in SPLITS}
    for ex in examples:
        split = where.get(ex.product_id)
        if split is not None:
            out[split].append(ex)
    return out


# -- labeled-example files ---------------------------------------------------


def save_labeled(path, examples):
    files.write_jsonl(path, ({"id": ex.product_id, "attribute": ex.attribute,
                              "source_field": ex.source_field,
                              "tokens": ex.tokens,  # each Token an array [text, start, end]
                              "tags": ex.tags} for ex in examples), ensure_ascii=False)


def load_labeled(path) -> list[LabeledExample]:
    examples = []
    for where, row in files.read_jsonl(path, "labeled file"):
        files.check(row, where, id=str, attribute=str, tokens=list[list], tags=list[str],
                    source_field=str | None)
        try:
            tokens = tuple(Token(*t) for t in row["tokens"])
            tag_indices(row["tags"])
        except (ValueError, TypeError) as e:  # not [text, start, end], or not a tag
            raise DataError(f"{where}: bad labeled example: {e}")
        for i, token in enumerate(tokens):
            files.check(token._asdict(), f"{where}: token {i}", **files.json_types(Token))
        if not tokens:
            raise DataError(f"{where}: bad labeled example: no tokens")
        if len(tokens) != len(row["tags"]):
            raise DataError(f"{where}: token/tag length mismatch")
        source = row.get("source_field")
        examples.append(LabeledExample(
            row["id"], row["attribute"], tokens, tuple(row["tags"]),
            "title" if source is None else source))
    return examples
