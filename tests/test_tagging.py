import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from avex import tagging
from avex.models import JointTags
from avex.tagging import Span, first_fit, is_valid, spans_to_tags, tags_to_spans

SCENT_TOKENS = ["orchid", "/", "cherry", "pie", "/", "mango", "ice", "cream",
                "scent"]
SCENT_SPANS = {Span(0, 0), Span(2, 3), Span(5, 7)}
SCENT_TAGS = ["B", "O", "B", "E", "O", "B", "I", "E", "O"]


def test_tag_vocabulary():
    assert tagging.TAGS == ("B", "I", "O", "E")
    assert tagging.NUM_TAGS == 4
    assert tagging.TAG_TO_INDEX["O"] == 2


def test_spans_to_tags_reference_sequence():
    assert spans_to_tags(SCENT_SPANS, 9) == SCENT_TAGS


def test_tags_to_spans_reference_sequence():
    assert tags_to_spans(SCENT_TAGS) == SCENT_SPANS


def test_round_trip_all_span_shapes():
    spans = {Span(0, 0), Span(2, 4), Span(6, 7)}
    tags = spans_to_tags(spans, 8)
    assert tags == ["B", "O", "B", "I", "E", "O", "B", "E"]
    assert tags_to_spans(tags) == spans


def test_single_token_value_is_lone_b():
    assert spans_to_tags({Span(3, 3)}, 5) == ["O", "O", "O", "B", "O"]
    assert tags_to_spans(["O", "O", "O", "B", "O"]) == {Span(3, 3)}


@given(layout=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), max_size=8),
       tail=st.integers(0, 3))
def test_spans_tags_round_trip(layout, tail):
    # Each (gap, width) places one span ``gap`` tokens after the last.
    spans, end = set(), 0
    for gap, width in layout:
        spans.add(Span(end + gap, end + gap + width - 1))
        end += gap + width
    tags = spans_to_tags(spans, end + tail)
    assert is_valid(tags)
    assert tags_to_spans(tags) == spans


def test_spans_to_tags_rejects_overlap():
    with pytest.raises(ValueError):
        spans_to_tags({Span(0, 2), Span(2, 3)}, 6)


def test_spans_to_tags_rejects_out_of_range():
    with pytest.raises(ValueError):
        spans_to_tags({Span(0, 5)}, 4)
    with pytest.raises(ValueError):
        spans_to_tags({Span(-1, 1)}, 4)


@given(spans=st.lists(st.builds(lambda start, width: Span(start, start + width - 1),
                                st.integers(-1, 7), st.integers(0, 3)), max_size=4),
       length=st.just(8) | st.integers(0, 8))
# Later spans that start before an earlier one and run into it or cover it.
@example(spans=[Span(2, 3), Span(0, 2)], length=5)
@example(spans=[Span(1, 1), Span(0, 3)], length=5)
def test_spans_to_tags_refuses_what_first_fit_would_not_keep(spans, length):
    # Spans in and out of range (start past end included), overlapping or
    # not: the one-pass check refuses exactly the lists that first_fit does
    # not keep whole, and otherwise writes each span's B, I and E.
    try:
        whole = all(first_fit(spans, length))
    except ValueError:  # some span out of range
        whole = False
    if not whole:
        with pytest.raises(ValueError):
            spans_to_tags(spans, length)
        return
    want = ["O"] * length
    for span in spans:
        for i in range(span.start, span.end + 1):
            want[i] = "B" if i == span.start else "E" if i == span.end else "I"
    assert spans_to_tags(spans, length) == want


# -- lenient decoding of malformed sequences ---------------------------------


def test_decode_b_i_without_e_closes_at_last_i():
    assert tags_to_spans(["B", "I", "O"]) == {Span(0, 1)}


def test_decode_orphan_i_e_is_dropped():
    assert tags_to_spans(["I", "E", "O"]) == set()


def test_decode_trailing_b_i():
    assert tags_to_spans(["O", "B", "I"]) == {Span(1, 2)}


def test_decode_b_b_splits():
    assert tags_to_spans(["B", "B", "E"]) == {Span(0, 0), Span(1, 2)}


def test_decode_ignores_orphan_e():
    assert tags_to_spans(["O", "E", "B"]) == {Span(2, 2)}


# -- validity checking -------------------------------------------------------


@pytest.mark.parametrize("tags", [
    ["O"],
    ["B"],
    ["B", "E"],
    ["B", "I", "E"],
    ["B", "O", "B", "E", "O", "B", "I", "E", "O"],
    ["B", "B"],           # lone B then lone B
    ["B", "E", "B", "E"],
])
def test_is_valid_accepts(tags):
    assert is_valid(tags)


@pytest.mark.parametrize("tags", [
    ["I"],
    ["E"],
    ["B", "I"],           # unterminated multi-token span
    ["B", "I", "O"],
    ["O", "I", "E"],
    ["E", "B"],
    ["B", "E", "I"],
])
def test_is_valid_rejects(tags):
    assert not is_valid(tags)


def test_is_valid_edge_cases():
    assert is_valid([])  # no tokens, vacuously well formed
    assert not is_valid(["B", "X"])


# -- joint tagset of the single-model multi-attribute baseline --------------


def test_expand_tagset_size():
    assert JointTags([f"a{i}" for i in range(12)]).num_tags == 3 * 12 + 1


def test_expand_tagset_layout():
    # Attribute j has B = 3j, I = 3j+1, E = 3j+2; O is 3N.
    joint = JointTags(["Scent", "Color"])
    merged, dropped = joint.merge({"Scent": {Span(0, 1)}, "Color": {Span(2, 2)}}, 4)
    assert (tuple(merged), dropped) == ((0, 2, 3, 6), 0)
    assert joint.num_tags == 7


# Arbitrary ids plus every "x-y" joint of two of them, so that ids are
# prefixes and suffixes of one another ("b", "a-b", "b-a"), in any order.
ATTRIBUTE_IDS = st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3,
                         unique=True).map(
    lambda base: list(dict.fromkeys(base + [f"{x}-{y}" for x in base for y in base]))
).flatmap(st.permutations)


@given(data=st.data(), ids=ATTRIBUTE_IDS)
def test_project_keeps_exactly_one_attributes_tags(data, ids):
    joint = JointTags(ids)
    # Each position is owned by one attribute (with a B/I/E tag) or by O.
    owned = data.draw(st.lists(st.one_of(
        st.none(), st.tuples(st.sampled_from(ids), st.sampled_from("BIE"))),
        max_size=12))
    tag_ids = [3 * len(ids) if o is None else 3 * ids.index(o[0]) + "BIE".index(o[1])
               for o in owned]
    for a in ids:
        assert joint.project(tag_ids, a) == [
            o[1] if o is not None and o[0] == a else "O" for o in owned]


@given(data=st.data(), ids=ATTRIBUTE_IDS)
def test_merge_then_project_recovers_kept_spans(data, ids):
    joint = JointTags(ids)
    length = 8
    spans = {a: set(data.draw(st.lists(
        st.tuples(st.integers(0, length - 1), st.integers(0, 2)).map(
            lambda p: Span(p[0], min(p[0] + p[1], length - 1))),
        max_size=3)))
        for a in ids}
    # Keep only each attribute's own non-overlapping spans.
    spans = {a: {s for s in ss if not any(
        o != s and o.start <= s.end and s.start <= o.end for o in ss)}
        for a, ss in spans.items()}
    tag_ids, dropped = joint.merge(spans, length)
    kept = {a: tags_to_spans(joint.project(tag_ids, a)) for a in ids}
    assert all(kept[a] <= spans[a] for a in ids)
    assert sum(map(len, kept.values())) + dropped == sum(map(len, spans.values()))


def test_expand_merge_disjoint_attributes():
    joint = JointTags(["Scent", "Color"])
    merged, dropped = joint.merge(
        {"Scent": {Span(0, 1)}, "Color": {Span(2, 2)}}, length=4)
    assert dropped == 0
    assert joint.project(merged, "Scent") == ["B", "E", "O", "O"]
    assert joint.project(merged, "Color") == ["O", "O", "B", "O"]


def test_expand_merge_conflict_keeps_earlier_attribute():
    joint = JointTags(["Scent", "Color"])
    merged, dropped = joint.merge(
        {"Scent": {Span(0, 0)}, "Color": {Span(0, 0)}}, length=2)
    assert joint.project(merged, "Scent") == ["B", "O"]
    assert joint.project(merged, "Color") == ["O", "O"]
    assert dropped == 1


def test_merge_rejects_out_of_range_span_after_a_conflict():
    # Color's span would be dropped for overlapping Scent's, yet it still
    # lies outside the sequence: that is an error, not a dropped span.
    joint = JointTags(["Scent", "Color"])
    with pytest.raises(ValueError, match="out of range"):
        joint.merge({"Scent": {Span(0, 1)}, "Color": {Span(1, 4)}}, length=3)
