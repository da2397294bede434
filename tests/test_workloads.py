"""The benchmark's workloads, set up small (``tiny``) and run in process.

A change to avex that would make a benchmark run fail, or its units
disagree (a run then reads ``incorrect``), fails here first.  This file
only imports ``benchmark/workloads.py``; the benchmark's own self-tests,
which start benchmark processes, are ``benchmark/selftest.py``.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_a_tiny_workload_repeats_its_unit(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(3, True, tmp_path / "work")
    first, second = workload.unit(inputs), workload.unit(inputs)
    assert first.extracted and first.outputs() == second.outputs()
    # Extraction trains in its set-up, a training workload in its unit.
    nll = first.train_nll if inputs.setup_train is None else inputs.setup_train["train_nll"]
    assert math.isfinite(nll)
