"""BIOE tag scheme: span/tag conversions and value strings.

Values are marked with B (begin), I (inside), E (end); everything else
is O.  A single-token value is a lone B.  Spans are inclusive token
index ranges.  This is the only module that writes BIOE tags; the joint
tagset of "n_tag_sets" lives with its adaptor in ``models``.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    Spans must lie inside the sequence and must not overlap: each is
    checked against the tags already written, as it is written.
    """
    tags = [OUTSIDE] * length
    for span in spans:
        start, stop = span.start, span.end + 1
        if not 0 <= start < stop <= length:
            raise ValueError(f"span {span} out of range for length {length}")
        if tags[start:stop].count(OUTSIDE) < stop - start:
            raise ValueError(f"span {span} overlaps an earlier span")
        tags[start] = "B"
        if stop - start > 1:
            tags[start + 1:stop - 1] = ["I"] * (stop - start - 2)
            tags[stop - 1] = "E"
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
