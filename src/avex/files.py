"""Every file avex reads or writes goes through this module.

A file that cannot be read (missing, not UTF-8, not JSON) or written is
a DataError, and so is a JSON record of the wrong shape (``check``); a
record class states its JSON shape in its annotations (``json_types``).
Output is staged beside its target and renamed into place.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import re
import secrets
import sys
import typing
from contextlib import contextmanager, suppress
from functools import cache, reduce
from operator import or_
from pathlib import Path
from types import GenericAlias, UnionType

from .errors import DataError

_staged = None  # (temporary, target) pairs of the open transaction, or None


@contextmanager
def _failing_as(message, *errors):
    """Re-raise ``errors`` as DataError; ValueError covers not UTF-8 and not JSON."""
    try:
        yield
    except errors as e:
        raise DataError(f"{message}: {getattr(e, 'strerror', None) or e}") from e


def read_binary(path, what) -> bytes:
    with _failing_as(f"cannot read {what} {path}", OSError), open(path, "rb") as fh:
        return fh.read()


def read_json(path, what):
    with _failing_as(f"cannot read {what} {path}", OSError, ValueError), \
            open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _is(value, typ) -> bool:
    """isinstance, where an int is a size, a float any JSON number, list[T]
    and dict[str, T] check each item, and T | None also accepts null."""
    if typ is int:  # bool is an int subclass, and no size is negative
        return type(value) is int and value >= 0
    if typ is float:
        return type(value) in (int, float)
    if isinstance(typ, UnionType):
        return any(_is(value, t) for t in typ.__args__)
    if isinstance(typ, GenericAlias):
        items = value.values() if isinstance(value, dict) else value
        return isinstance(value, typ.__origin__) and all(
            _is(v, typ.__args__[-1]) for v in items)
    return isinstance(value, typ)


def check(obj, where, /, **fields):
    """Return ``obj``, unconverted, if it is a JSON object that maps each key
    to a value of its type, else raise a DataError that names ``where``
    and the key.  A key typed ``T | None`` may be missing or null."""
    if not isinstance(obj, dict):
        raise DataError(f"{where} is not a JSON object")
    for key, typ in fields.items():
        if key not in obj and not _is(None, typ):
            raise DataError(f"{where} lacks {key!r}")
        if not _is(obj.get(key), typ):
            name = re.sub(r"\bint\b", "non-negative int",
                          typ.__name__ if isinstance(typ, type) else str(typ))
            raise DataError(f"{where} {key!r} must be {name}, "
                            f"got {json.dumps(obj[key]):.60}")
    return obj


def _json_type(typ):
    """The JSON type an annotation reads: a record class is an object."""
    if isinstance(typ, (UnionType, GenericAlias)):
        args = tuple(map(_json_type, typ.__args__))
        return reduce(or_, args) if isinstance(typ, UnionType) else typ.__origin__[args]
    return dict if dataclasses.is_dataclass(typ) else typ


@cache
def json_types(cls) -> dict:
    """``check``'s types for an object of record class ``cls``, read off
    its annotations."""
    return {key: _json_type(typ) for key, typ in typing.get_type_hints(cls).items()}


def record(cls, obj, where):
    """``cls`` of a JSON object that ``check`` accepts by ``json_types(cls)``,
    where a field with a default may also be missing or null, and takes it."""
    fields = inspect.signature(cls).parameters
    types = {key: typ | None if fields[key].default is not fields[key].empty else typ
             for key, typ in json_types(cls).items()}
    check(obj, where, **types)
    return cls(**{key: obj[key] for key in types if obj.get(key) is not None})


def read_lines(path, what):
    """Yield ``(lineno, line)`` for each non-blank line of a UTF-8 file,
    without its newline (so that a parser's position falls on the line)."""
    with _failing_as(f"cannot read {what} {path}", OSError, ValueError), \
            open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                yield lineno, line.rstrip("\n")


def parse_json(text):
    """The JSON value of ``text``; text that is not JSON is a DataError."""
    try:
        return json.loads(text)
    except ValueError as e:
        raise DataError(e) from e


def read_jsonl(path, what):
    """Yield ``(where, row)`` per non-blank line of a JSON-lines file, where
    ``where`` is ``<path>:<line>``."""
    for lineno, line in read_lines(path, what):
        with _failing_as(f"{path}:{lineno}: not JSON", DataError):
            row = parse_json(line)
        yield f"{path}:{lineno}", row


@contextmanager
def write(path, binary=False):
    """A file handle whose contents replace ``path`` once the block succeeds.

    The data is fsynced in a new file beside ``path`` (with the umask's
    permissions) and renamed over it when the enclosing transaction, or
    this call's own, commits.  If the block raises, ``path`` is untouched.
    """
    path = Path(path)
    if path.is_dir():
        raise DataError(f"cannot write {path}: it is a directory")
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    with transaction(), _failing_as(f"cannot write {path}", OSError):
        fh = open(tmp, "xb" if binary else "x", encoding=None if binary else "utf-8")
        try:
            with fh:
                yield fh
                fh.flush()
                os.fsync(fh.fileno())
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
        _staged.append((tmp, path))


def write_json(path, obj, **dump_args):
    """Write ``obj`` as JSON followed by a newline."""
    write_jsonl(path, [obj], **dump_args)


def write_jsonl(path, rows, **dump_args):
    """Write each of ``rows`` as JSON on a line of its own."""
    with write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row, **dump_args) + "\n")


@contextmanager
def transaction():
    """Rename every file written in the scope, in order, once it exits cleanly.

    If the scope raises, the files are removed and no target changes.  A
    transaction opened inside another joins it.
    """
    global _staged
    if _staged is not None:
        yield
        return
    _staged = []
    try:
        yield
        for tmp, path in _staged:
            with _failing_as(f"cannot write {path}", OSError):
                os.replace(tmp, path)
        _staged.clear()
    finally:  # after a failed rename, those renamed before it are already gone
        for tmp, _path in _staged:
            with suppress(OSError):
                os.unlink(tmp)
        _staged = None


def make_dir(path):
    """Create directory ``path`` and its parents; no transaction undoes this."""
    with _failing_as(f"cannot create directory {path}", OSError):
        Path(path).mkdir(parents=True, exist_ok=True)


def silence_stdout():
    """Point stdout's descriptor at the null device once its reader has gone,
    so that Python's flush at exit does not fail a second time."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
