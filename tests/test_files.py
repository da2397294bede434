from __future__ import annotations

import copy
import os
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from avex import files
from avex.errors import DataError


def test_write_gives_umask_permissions(tmp_path):
    old = os.umask(0o022)
    try:
        with files.write(tmp_path / "a.txt") as fh:
            fh.write("a")
    finally:
        os.umask(old)
    assert (tmp_path / "a.txt").stat().st_mode & 0o777 == 0o644


def test_transaction_renames_nothing_until_it_succeeds(tmp_path):
    (tmp_path / "old.txt").write_text("old", encoding="utf-8")
    with pytest.raises(DataError):
        with files.transaction():
            with files.write(tmp_path / "old.txt") as fh:
                fh.write("new")
            with files.transaction():  # joins the outer one
                files.write_json(tmp_path / "new.json", [1])
            assert sorted(p.name for p in tmp_path.iterdir() if not p.name.startswith(".")) \
                == ["old.txt"]
            raise DataError("late failure")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
    assert (tmp_path / "old.txt").read_text(encoding="utf-8") == "old"

    with files.transaction():
        with files.write(tmp_path / "old.txt") as fh:
            fh.write("new")
        files.write_json(tmp_path / "new.json", [1])
    assert (tmp_path / "old.txt").read_text(encoding="utf-8") == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.json", "old.txt"]


def test_non_utf8_line_is_a_data_error(tmp_path):
    path = tmp_path / "lines.txt"
    path.write_bytes(b"one\n\ntwo\n" + b"x" * 100_000 + b"\xff\n")
    lines = files.read_lines(path, "line file")
    assert next(lines) == (1, "one")
    with pytest.raises(DataError, match="cannot read line file"):
        list(lines)


# Any JSON value: what a reader may find under a key.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=8)
FIELD_SPECS = [dict(a=int), dict(a=str, b=list[str]), dict(a=int | None, b=bool),
               dict(a=dict[str, list[int]] | None), dict(a=list, b=dict, c=float)]


@given(st.dictionaries(st.sampled_from("abc"), JSON) | JSON, st.sampled_from(FIELD_SPECS))
def test_check_returns_its_input_unconverted_or_raises_a_data_error(obj, fields):
    before = copy.deepcopy(obj)
    try:
        out = files.check(obj, "record", **fields)
    except DataError as e:
        assert str(e).startswith("record ")
        return
    assert out is obj and out == before
    if fields.get("a") is int:  # a size
        assert type(obj["a"]) is int and obj["a"] >= 0


@pytest.mark.parametrize("typ", [int, list[int], dict[str, int], int | None])
def test_a_bool_is_never_an_int(typ):
    for value in (True, False, [True], {"x": False}):
        with pytest.raises(DataError, match="'a' must be"):
            files.check({"a": value}, "record", a=typ)


def test_an_optional_key_may_be_missing_or_null_and_nothing_else():
    for obj in ({}, {"a": None}, {"a": 0}):
        assert files.check(obj, "record", a=int | None) is obj
    with pytest.raises(DataError, match="record lacks 'a'"):
        files.check({}, "record", a=int)
    with pytest.raises(DataError, match="record 'a' must be non-negative int, got null"):
        files.check({"a": None}, "record", a=int)
    with pytest.raises(DataError,
                       match=re.escape("'a' must be non-negative int | None, got -1")):
        files.check({"a": -1}, "record", a=int | None)
    with pytest.raises(DataError, match="record is not a JSON object"):
        files.check([{"a": 0}], "record", a=int)


def test_a_float_field_takes_any_json_number():
    for value in (-1, -1.0, 0, 2.5, 10**30):
        files.check({"a": value}, "record", a=float)
    for value in (True, "1", None, [1.0]):
        with pytest.raises(DataError, match="record 'a' must be float, got"):
            files.check({"a": value}, "record", a=float)


def test_read_jsonl_names_the_line_that_is_not_json(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n[2]\n{"a": \n', encoding="utf-8")
    rows = files.read_jsonl(path, "row file")
    assert next(rows) == (f"{path}:1", {"a": 1})
    assert next(rows) == (f"{path}:3", [2])
    with pytest.raises(DataError) as err:
        next(rows)
    assert str(err.value) == f"{path}:4: not JSON: Expecting value: line 1 column 7 (char 6)"


@dataclass
class Inner:
    name: str


@dataclass
class Outer:
    inner: list[Inner]
    size: int
    rate: float = 0.5
    tags: list[str] = field(default_factory=list)
    limit: int | None = None


class Triple(NamedTuple):
    text: str
    start: int
    end: int = 0


def test_json_types_are_read_off_the_annotations():
    assert files.json_types(Outer) == dict(
        inner=list[dict], size=int, rate=float, tags=list[str], limit=int | None)
    assert files.json_types(Triple) == dict(text=str, start=int, end=int)


def test_record_takes_a_default_for_a_missing_or_null_field():
    assert files.record(Outer, {"inner": [], "size": 2, "rate": None, "x": 1}, "r") \
        == Outer([], 2)
    assert files.record(Triple, {"text": "a", "start": 1}, "r") == Triple("a", 1, 0)
    assert files.record(Outer, {"inner": [{}], "size": 0, "rate": 1, "tags": ["t"]}, "r") \
        == Outer([{}], 0, 1, ["t"])
    for obj, message in [({"size": 1}, "r lacks 'inner'"),
                         ({"inner": [], "size": 1.0}, "r 'size' must be non-negative int"),
                         ({"inner": [7], "size": 1}, "r 'inner' must be list[dict]"),
                         ({"inner": [], "size": 1, "rate": "1"},
                          "r 'rate' must be float | None")]:
        with pytest.raises(DataError, match=re.escape(message)):
            files.record(Outer, obj, "r")

