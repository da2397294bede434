"""Exact-match evaluation at the (example, attribute, value) level.

A prediction counts only if its normalized string (token texts joined
by single spaces, case preserved) equals a gold value string for the
same example and attribute.  Values are deduplicated per example.
Per-attribute precision/recall/F1 aggregate over all examples; the
macro scores are unweighted means over attributes with gold support.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from . import files
from .errors import DataError
from .tagging import value_strings

log = logging.getLogger(__name__)

# Tokens per inference batch.  Larger batches spend less time in the
# per-step Python of the LSTM and Viterbi loops, but a no-grad encoder pass
# holds ~6.8 KB per token per direction at d_h=200, and the dev pass sets
# the peak RSS of paper-scale training (README: "At inference").
INFERENCE_TOKENS = 1024


@dataclass
class ExtractionResult:
    """Predicted and gold value sets for one (example, attribute) pair."""

    example_id: str
    attribute: str
    predicted: set[str]
    gold: frozenset[str]


@dataclass
class AttributeMetrics:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    per_attribute: dict[str, AttributeMetrics]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    excluded: list[str] = field(default_factory=list)
    strata: dict | None = None

    def to_json(self) -> dict:
        out = {
            "per_attribute": {
                a: {"precision": m.precision, "recall": m.recall, "f1": m.f1,
                    "support": m.support, "tp": m.tp, "fp": m.fp, "fn": m.fn}
                for a, m in sorted(self.per_attribute.items())
            },
            "macro": {"precision": self.macro_precision, "recall": self.macro_recall,
                      "f1": self.macro_f1},
            "excluded": list(self.excluded),
        }
        if self.strata is not None:
            out["strata"] = self.strata
        return out

    def to_table(self) -> str:
        rows = [("attribute", "prec", "rec", "f1", "support")]
        for a, m in sorted(self.per_attribute.items()):
            rows.append((a, f"{m.precision:.4f}", f"{m.recall:.4f}",
                         f"{m.f1:.4f}", str(m.support)))
        rows.append(("macro", f"{self.macro_precision:.4f}",
                     f"{self.macro_recall:.4f}", f"{self.macro_f1:.4f}", ""))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                 for r in rows]
        if self.excluded:
            lines.append(f"excluded (no gold support): {', '.join(self.excluded)}")
        if self.strata is not None:
            for name in ("high", "low"):
                part = self.strata.get(name)
                if part is None:
                    lines.append(f"{name}-resource macro F1: n/a")
                else:
                    lines.append(
                        f"{name}-resource macro F1: {part['macro']['f1']:.4f} "
                        f"({len(part['attributes'])} attributes)")
        return "\n".join(lines)


def prf1(gold: set, predicted: set) -> tuple[float, float, float]:
    """Exact-match precision/recall/F1 between two value sets."""
    tp = len(gold & predicted)
    return _scores(tp, len(predicted) - tp, len(gold) - tp)


def _scores(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def extract(model, token_texts, attribute) -> set[str]:
    """Decode one sequence and return its normalized value strings.

    One attribute per call, a served request (``Model.predict_tags``): it
    is decoded from the emission scores the model keeps of the last text
    per encoder, so calls for the attributes of one text, as ``avex
    extract --attr A,B,C`` makes, encode and score it once."""
    return value_strings(token_texts, model.predict_tags(token_texts, attribute))


def decode_order(examples) -> list:
    """The examples in the order ``collect_results`` decodes them: by
    product, a product's attributes back to back."""
    return sorted(examples, key=lambda e: (e.product_id, e.attribute))


def collect_results(model, examples) -> list[ExtractionResult]:
    """Decode every example in ``decode_order``, in batches that end where
    the next example would pass ``INFERENCE_TOKENS`` tokens (an example
    longer than that is decoded alone)."""
    batches, used = [], 0
    for ex in decode_order(examples):
        if not batches or used + len(ex.tokens) > INFERENCE_TOKENS:
            batches.append([])
            used = 0
        batches[-1].append(ex)
        used += len(ex.tokens)
    results = []
    for batch in batches:
        tags = model.predict_batch([(ex.token_texts(), ex.attribute) for ex in batch])
        results.extend(
            ExtractionResult(ex.product_id, ex.attribute, value_strings(ex.token_texts(), t),
                             ex.gold_value_strings)
            for ex, t in zip(batch, tags))
    return results


def aggregate(results) -> MetricsReport:
    """Per-attribute counts, then unweighted macro over supported attributes."""
    counts: dict[str, list[int]] = {}
    for res in results:
        tp = len(res.gold & res.predicted)
        fp = len(res.predicted) - tp
        fn = len(res.gold) - tp
        c = counts.setdefault(res.attribute, [0, 0, 0])
        c[0] += tp
        c[1] += fp
        c[2] += fn
    per_attribute = {}
    excluded = []
    for a, (tp, fp, fn) in counts.items():
        support = tp + fn
        if support == 0:
            excluded.append(a)
            log.warning("attribute %s has no gold values; excluded from macro", a)
            continue
        precision, recall, f1 = _scores(tp, fp, fn)
        per_attribute[a] = AttributeMetrics(tp, fp, fn, precision, recall, f1, support)
    if not per_attribute:
        raise DataError("no attribute has gold support; nothing to evaluate")
    macro_p, macro_r, macro_f1 = macro(per_attribute)
    return MetricsReport(per_attribute, macro_p, macro_r, macro_f1, sorted(excluded))


def macro(per_attribute: dict[str, AttributeMetrics]) -> tuple[float, float, float]:
    """Unweighted means of the per-attribute scores."""
    n = len(per_attribute)
    if n == 0:
        raise DataError("macro average over zero attributes")
    return (
        sum(m.precision for m in per_attribute.values()) / n,
        sum(m.recall for m in per_attribute.values()) / n,
        sum(m.f1 for m in per_attribute.values()) / n,
    )


def evaluate_model(model, examples) -> MetricsReport:
    return aggregate(collect_results(model, examples))


def stratify(report: MetricsReport, train_counts: dict, threshold: int = 1000) -> dict:
    """Split attributes by training support at the threshold (>= is high).

    Attributes missing from ``train_counts`` count as zero.  An empty
    stratum is reported as None.
    """
    strata = {}
    for name, keep in (("high", lambda c: c >= threshold),
                       ("low", lambda c: c < threshold)):
        subset = {a: m for a, m in report.per_attribute.items()
                  if keep(train_counts.get(a, 0))}
        if not subset:
            strata[name] = None
            continue
        p, r, f1 = macro(subset)
        strata[name] = {
            "attributes": sorted(subset),
            "macro": {"precision": p, "recall": r, "f1": f1},
        }
    report.strata = strata
    return strata


def dump_predictions(path, results):
    """Per-example JSONL dump for error analysis."""
    files.write_jsonl(path, ({"id": res.example_id, "attribute": res.attribute,
                              "predicted": sorted(res.predicted), "gold": sorted(res.gold)}
                             for res in results), ensure_ascii=False)
