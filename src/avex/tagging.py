"""BIOE tag scheme: span/tag conversions, value strings and the joint tagset.

Values are marked with B (begin), I (inside), E (end); everything else
is O.  A single-token value is a lone B.  Spans are inclusive token
index ranges.  This is the only module that writes tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

TAGS = ("B", "I", "O", "E")
TAG_TO_INDEX = {t: i for i, t in enumerate(TAGS)}
NUM_TAGS = len(TAGS)
OUTSIDE = "O"


@dataclass(frozen=True, order=True)
class Span:
    """Inclusive token index range [start, end]."""

    start: int
    end: int


def tag_indices(tags) -> list[int]:
    """Map tag strings to indices into TAGS."""
    try:
        return [TAG_TO_INDEX[t] for t in tags]
    except KeyError as e:
        raise ValueError(f"unknown tag {e.args[0]!r}; expected one of {TAGS}")


def tags_from_indices(indices) -> list[str]:
    out = []
    for z in indices:
        if not 0 <= z < NUM_TAGS:
            raise ValueError(f"tag index {z} out of range 0..{NUM_TAGS - 1}")
        out.append(TAGS[z])
    return out


def first_fit(spans, length: int) -> list[bool]:
    """Which spans to keep, in order: each one unless it overlaps a span
    already kept.  Every span must lie inside ``length`` tokens."""
    taken = [False] * length
    keep = []
    for span in spans:
        start, stop = span.start, span.end + 1
        if not 0 <= start < stop <= length:
            raise ValueError(f"span {span} out of range for length {length}")
        fits = not any(taken[start:stop])
        if fits:
            taken[start:stop] = [True] * (stop - start)
        keep.append(fits)
    return keep


def spans_to_tags(spans, length: int) -> list[str]:
    """Encode disjoint spans over a sequence of ``length`` tokens.

    Spans must lie inside the sequence and must not overlap.
    """
    spans = list(spans)
    if not all(first_fit(spans, length)):
        raise ValueError(f"overlapping spans in {spans}")
    tags = [OUTSIDE] * length
    for span in spans:
        tags[span.start] = "B"
        if span.end > span.start:
            tags[span.start + 1:span.end] = ["I"] * (span.end - span.start - 1)
            tags[span.end] = "E"
    return tags


def tags_to_spans(tags) -> set[Span]:
    """Decode spans leniently, repairing ill-formed sequences.

    A span opens at each B, extends through consecutive I's and absorbs
    an immediately following E; a dangling I run closes at its last I.
    I or E without an open span is ignored.
    """
    spans = set()
    i = 0
    n = len(tags)
    while i < n:
        if tags[i] != "B":
            i += 1
            continue
        j = i
        while j + 1 < n and tags[j + 1] == "I":
            j += 1
        if j + 1 < n and tags[j + 1] == "E":
            j += 1
        spans.add(Span(i, j))
        i = j + 1
    return spans


def span_text(token_texts, span: Span) -> str:
    """Canonical value string: token texts joined by single spaces."""
    return " ".join(token_texts[span.start:span.end + 1])


def value_strings(token_texts, tags) -> set[str]:
    """The value strings of the spans a tag sequence decodes to."""
    return {span_text(token_texts, s) for s in tags_to_spans(tags)}


def is_valid(tags) -> bool:
    """Strict well-formedness: every value is a lone B or B I* E."""
    state = "out"
    for t in tags:
        if t == "B":
            if state == "in_i":
                return False
            state = "after_b"
        elif t == "I":
            if state == "out":
                return False
            state = "in_i"
        elif t == "E":
            if state == "out":
                return False
            state = "out"
        elif t == "O":
            if state == "in_i":
                return False
            state = "out"
        else:
            return False
    return state != "in_i"


class ExpandedTagset:
    """Joint tagset with one B/I/E triple per attribute plus a shared O.

    Tag order is [B-a, I-a, E-a for each attribute in order] + [O], so a
    single chain model can label all attributes of a sentence at once.
    """

    def __init__(self, attribute_ids):
        self.attributes = tuple(attribute_ids)
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError("duplicate attribute ids in expanded tagset")
        tags = []
        for a in self.attributes:
            tags.extend([f"B-{a}", f"I-{a}", f"E-{a}"])
        tags.append(OUTSIDE)
        self.tags = tuple(tags)
        self._index = {t: i for i, t in enumerate(self.tags)}

    def __len__(self):
        return len(self.tags)

    def index(self, tag: str) -> int:
        try:
            return self._index[tag]
        except KeyError:
            raise ValueError(f"tag {tag!r} not in expanded tagset")

    def project(self, tag_ids, attribute: str) -> list[str]:
        """One attribute's BIOE tags from joint tag indices; others become O."""
        try:
            first = 3 * self.attributes.index(attribute)
        except ValueError:
            raise ValueError(f"unknown attribute {attribute!r}")
        return [self.tags[i][0] if first <= i < first + 3 else OUTSIDE
                for i in tag_ids]

    def merge(self, spans_by_attribute, length: int):
        """Combine per-attribute spans into one joint sequence.

        Attributes are laid down in tagset order; a span that overlaps
        positions already claimed by an earlier attribute is dropped.
        Returns (joint tag indices, number of dropped spans).
        """
        owned = [(a, span) for a in self.attributes
                 for span in sorted(spans_by_attribute.get(a, ()))]
        kept = list(compress(owned, first_fit([span for _, span in owned], length)))
        tags = spans_to_tags([span for _, span in kept], length)
        tag_ids = [self.index(OUTSIDE)] * length
        for a, span in kept:
            for i in range(span.start, span.end + 1):
                tag_ids[i] = self.index(f"{tags[i]}-{a}")
        return tag_ids, len(owned) - len(kept)
