"""The package stands alone: nothing in ``src/avex`` imports the benchmark
harness or the tests.  Within it, the tag codec ``avex.tagging`` is a leaf,
and only ``avex.files`` opens a file or parses JSON."""

import ast
from pathlib import Path

import avex

FORBIDDEN = {"benchmark", "workloads", "tests", "oracles"}


def forbidden_imports(source: str) -> list[str]:
    """Modules of FORBIDDEN that ``source`` imports, by statement or by an
    ``import_module``/``__import__`` call with a literal name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
        elif isinstance(node, ast.Call) and node.args \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str) \
                and getattr(node.func, "attr", getattr(node.func, "id", None)) \
                in ("import_module", "__import__"):
            names.append(node.args[0].value)
    return [name for name in names if name.split(".")[0] in FORBIDDEN]


def test_forbidden_imports_are_found():
    source = """
import json, benchmark.run
from workloads import WORKLOADS
from tests.oracles import brute_force
import importlib
importlib.import_module("oracles")
__import__("benchmark")
from . import files
"""
    assert forbidden_imports(source) == [
        "benchmark.run", "workloads", "tests.oracles", "oracles", "benchmark"]


def test_src_imports_no_benchmark_or_tests():
    paths = sorted(Path(avex.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    found = {path.name: bad for path in paths
             if (bad := forbidden_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def avex_imports(source: str) -> list[str]:
    """The ``avex`` modules that ``source`` imports, relatively or by name."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.split(".")[0] == "avex"]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                names += [node.module] if node.module else [a.name for a in node.names]
            elif node.module.split(".")[0] == "avex":
                names.append(node.module)
    return names


def test_avex_imports_are_found():
    source = """
import json, avex.corpus
from avex import files
from . import errors
from .models import JointTags
from dataclasses import dataclass
"""
    assert avex_imports(source) == ["avex.corpus", "avex", "errors", "models"]


def test_tagging_is_a_leaf():
    # The BIOE codec that corpus, models and evaluation build on imports
    # none of them.
    source = (Path(avex.__file__).parent / "tagging.py").read_text(encoding="utf-8")
    assert avex_imports(source) == []


# The built-in open, and the Path methods that open a file themselves.
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def file_calls(source: str) -> list[str]:
    """The FILE_CALLS that ``source`` makes, as a name or as a method."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in FILE_CALLS:
                names.append(name)
    return names


def test_file_calls_are_found():
    source = """
with open(path) as fh, Path(p).open("rb") as g:
    text = path.read_text(encoding="utf-8")
Path(p).write_bytes(b"")
files.write_json(path, obj)
"""
    assert sorted(file_calls(source)) == ["open", "open", "read_text", "write_bytes"]


def test_only_files_opens_a_file():
    # "Every file avex reads or writes goes through this module."
    paths = sorted(Path(avex.__file__).parent.glob("*.py"))
    found = {path.name: calls for path in paths
             if (calls := file_calls(path.read_text(encoding="utf-8")))}
    assert set(found) == {"files.py"}


def json_parses(source: str) -> list[str]:
    """The ``json.load``/``json.loads`` calls that ``source`` makes, or the
    names it imports them under."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("load", "loads") \
                and getattr(node.value, "id", None) == "json":
            names.append(f"json.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            names += [a.name for a in node.names if a.name in ("load", "loads")]
    return names


def test_json_parses_are_found():
    source = """
import json
from json import loads as parse
rows = [json.loads(line) for line in lines]
doc = json.load(fh)
text = json.dumps(doc)
"""
    assert sorted(json_parses(source)) == ["json.load", "json.loads", "loads"]


def test_only_files_parses_json():
    # One reader for JSON input: its "not JSON" message and its checks
    # live in one place.
    paths = sorted(Path(avex.__file__).parent.glob("*.py"))
    found = {path.name: calls for path in paths
             if (calls := json_parses(path.read_text(encoding="utf-8")))}
    assert set(found) == {"files.py"}
