"""The package stands alone: nothing in ``src/avex`` imports the benchmark
harness or the tests.  Within it, the tag codec ``avex.tagging`` is a leaf."""

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
