"""The tests import the avex of an explicit PYTHONPATH, else this checkout's."""

import os
import subprocess
import sys
from pathlib import Path

from conftest import SRC


def test_avex_comes_from_pythonpath_else_this_checkout():
    import avex

    listed = [Path(p).resolve() for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
              if p and (Path(p) / "avex" / "__init__.py").is_file()]
    assert Path(avex.__file__).resolve().parent.parent == (listed or [SRC])[0]


def test_explicit_pythonpath_wins_over_this_checkout(tmp_path):
    other = tmp_path / "src"
    (other / "avex").mkdir(parents=True)
    (other / "avex" / "__init__.py").write_text("")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", __file__,
         "-k", "comes_from_pythonpath"],
        cwd=SRC.parent, env={**os.environ, "PYTHONPATH": str(other)},
        capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert f"avex: {other / 'avex'}" in run.stdout
