"""Put this checkout's ``src`` on the import path, behind any explicit
``PYTHONPATH``: ``PYTHONPATH=<other tree>/src python -m pytest`` tests
that tree's ``avex``.  The report header names the ``avex`` imported."""

import os
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

_explicit = {os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p}
sys.path.insert(max((i + 1 for i, p in enumerate(sys.path) if p in _explicit), default=0),
                str(SRC))


def pytest_report_header(config):
    import avex

    return f"avex: {Path(avex.__file__).parent}"


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps the one-argument function
    ``module.name`` for the test and returns a Counter of its arguments."""
    def wrap(module, name) -> Counter:
        calls = Counter()
        real = getattr(module, name)

        def counted(arg):
            calls[arg] += 1
            return real(arg)

        monkeypatch.setattr(module, name, counted)
        return calls

    return wrap
