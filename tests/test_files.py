import os

import pytest

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
    assert next(lines) == (1, "one\n")
    with pytest.raises(DataError, match="cannot read line file"):
        list(lines)
