import pytest
from hypothesis import given
from hypothesis import strategies as st

from avex import tagging
from avex.tagging import ExpandedTagset, Span, is_valid, spans_to_tags, tags_to_spans

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


# -- expanded tagset for the single-model multi-attribute baseline -----------


def test_expand_tagset_size():
    ts = ExpandedTagset([f"a{i}" for i in range(12)])
    assert len(ts.tags) == 3 * 12 + 1


def test_expand_tagset_layout():
    ts = ExpandedTagset(["Scent", "Color"])
    assert ts.tags == ("B-Scent", "I-Scent", "E-Scent",
                       "B-Color", "I-Color", "E-Color", "O")
    assert ts.tags[-1] == "O"


def test_project_does_not_match_attribute_suffixes():
    ts = ExpandedTagset(["a-b", "b"])
    joint = [ts.index(t) for t in ("B-a-b", "E-a-b", "O")]
    assert ts.project(joint, "b") == ["O", "O", "O"]
    assert ts.project(joint, "a-b") == ["B", "E", "O"]


# Arbitrary ids plus every "x-y" joint of two of them, so that ids are
# prefixes and suffixes of one another ("b", "a-b", "b-a"), in any order.
ATTRIBUTE_IDS = st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3,
                         unique=True).map(
    lambda base: list(dict.fromkeys(base + [f"{x}-{y}" for x in base for y in base]))
).flatmap(st.permutations)


@given(data=st.data(), ids=ATTRIBUTE_IDS)
def test_project_keeps_exactly_one_attributes_tags(data, ids):
    ts = ExpandedTagset(ids)
    # Each position is owned by one attribute (with a B/I/E tag) or by O.
    owned = data.draw(st.lists(st.one_of(
        st.none(), st.tuples(st.sampled_from(ids), st.sampled_from("BIE"))),
        max_size=12))
    joint = [ts.index("O") if o is None else ts.index(f"{o[1]}-{o[0]}")
             for o in owned]
    for a in ids:
        assert ts.project(joint, a) == [
            o[1] if o is not None and o[0] == a else "O" for o in owned]


@given(data=st.data(), ids=ATTRIBUTE_IDS)
def test_merge_then_project_recovers_kept_spans(data, ids):
    ts = ExpandedTagset(ids)
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
    joint, dropped = ts.merge(spans, length)
    kept = {a: tags_to_spans(ts.project(joint, a)) for a in ids}
    assert all(kept[a] <= spans[a] for a in ids)
    assert sum(map(len, kept.values())) + dropped == sum(map(len, spans.values()))


def test_expand_merge_disjoint_attributes():
    ts = ExpandedTagset(["Scent", "Color"])
    merged, dropped = ts.merge(
        {"Scent": {Span(0, 1)}, "Color": {Span(2, 2)}}, length=4)
    assert dropped == 0
    assert ts.project(merged, "Scent") == ["B", "E", "O", "O"]
    assert ts.project(merged, "Color") == ["O", "O", "B", "O"]


def test_expand_merge_conflict_keeps_earlier_attribute():
    ts = ExpandedTagset(["Scent", "Color"])
    merged, dropped = ts.merge(
        {"Scent": {Span(0, 0)}, "Color": {Span(0, 0)}}, length=2)
    assert ts.project(merged, "Scent") == ["B", "O"]
    assert ts.project(merged, "Color") == ["O", "O"]
    assert dropped == 1


def test_merge_rejects_out_of_range_span_after_a_conflict():
    # Color's span would be dropped for overlapping Scent's, yet it still
    # lies outside the sequence: that is an error, not a dropped span.
    ts = ExpandedTagset(["Scent", "Color"])
    with pytest.raises(ValueError, match="out of range"):
        ts.merge({"Scent": {Span(0, 1)}, "Color": {Span(1, 4)}}, length=3)

