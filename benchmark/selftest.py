"""Self-tests for the benchmark itself.

    python3 -m pytest benchmark/selftest.py -q

Kept out of the repository's default test collection on purpose: these
start benchmark processes, and the tier-1 suite should not depend on
benchmark timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: puts src/ on sys.path
import layers
import workloads
import hostspeed
from hostspeed import HostSpeed
from tracing import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run_cli(args, cwd, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script)] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_workload_completes_a_tiny_run(name, trace, tmp_path):
    proc = _run_cli(["--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", trace, "--tiny"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = layers.PER_LAYER if trace == "1" else layers.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in expected]
    assert (tmp_path / ".bench_out" / f"{name}-seed3-trace{trace}.json").exists()


def test_self_time_arithmetic_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 1],
        ["a", 11.0, 12.5, -1, 1],
    ]
    times = self_times(spans)
    assert times["root"] == {"calls": 1, "total": 10.0, "self": 3.0}
    assert times["a"] == {"calls": 2, "total": 4.5, "self": 3.5}
    assert times["c"]["self"] == 1.0 and times["b"]["self"] == 4.0


def test_tracer_nests_spans_and_counts_distinct_inputs_per_scope():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Owner:
        @staticmethod
        def outer(x):
            return Owner.inner(x) + 1

        @staticmethod
        def inner(x):
            return x * 2

    tracer.wrap(Owner, "outer", "outer")
    tracer.wrap(Owner, "inner", "inner", key=lambda x: x)
    tracer.wrap(Owner, "gone", "gone")
    try:
        assert Owner.outer(3) == 7
        Owner.inner(3)
        tracer.new_scope()
        Owner.inner(3)
    finally:
        tracer.uninstall()
    assert Owner.inner(3) == 6 and not hasattr(Owner.inner, "__wrapped__")
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner", "inner"]
    assert tracer.spans[1][3] == 0  # inner's parent is outer
    assert tracer.distinct("inner") == 2  # 3 calls, 2 scopes
    assert tracer.missing == ["gone"]


def test_a_layer_that_no_longer_fires_reads_zero():
    metrics = layers.layer_metrics(Tracer(), Tracer(), 0.0, 1.0)
    assert [m for m in metrics] == [m[0] for m in layers.PER_LAYER]
    assert metrics["encoder.encode_matrix.calls"]["value"] == 0
    assert metrics["encoder.encode_matrix.distinct_ratio"]["value"] == 0.0


def test_an_exception_makes_the_command_exit_nonzero(monkeypatch, tmp_path, capsys):
    from avex import training

    def broken(*_args, **_kwargs):
        raise RuntimeError("injected")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(training, "train", broken)
    code = run.main(["--workload", "train-title-small", "--seed", "1",
                     "--seconds", "1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_unrepeatable_outputs_make_the_command_exit_nonzero(monkeypatch, tmp_path, capsys):
    from avex import evaluation

    calls = iter(range(10**6))
    original = evaluation.extract

    def drifting(model, token_texts, attribute):
        return original(model, token_texts, attribute) | {f"x{next(calls)}"}

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(evaluation, "extract", drifting)
    code = run.main(["--workload", "extract-title-paper", "--seed", "1",
                     "--seconds", "1", "--trace", "1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and not result["correct"]


def test_quality_checks_fail_below_the_floor_or_on_a_nan_loss():
    checks = []
    run._quality_checks(workloads.WORKLOADS["train-title-small"], False, 1.0, 0.5, checks)
    assert dict((n, ok) for n, ok, _ in checks) == {"train_nll_finite": True,
                                                   "macro_f1_floor": False}
    checks = []
    run._quality_checks(workloads.WORKLOADS["train-title-small"], False,
                        float("nan"), 1.0, checks)
    assert not checks[0][1]


def test_request_rate_is_the_median_over_windows():
    # Three windows of two requests: 2 / 0.2, 2 / 0.2 and a slow 2 / 2.0.
    latencies = [0.1, 0.1, 0.1, 0.1, 1.0, 1.0, 0.1]
    assert run._windowed_rate(latencies, 2) == pytest.approx(10.0)
    assert run._windowed_rate([0.5], 16) == pytest.approx(2.0)


def test_host_speed_scales_an_interval_to_the_reference_speed():
    # Probes at 0, 1 and 2 s, each 1 ms long, read the kernel at twice
    # its reference time: the host runs at half the reference speed.
    host = HostSpeed(clock=None)
    host.starts, host.spent = [0.0, 1.0, 2.0], [0.001] * 3
    host.probes = [2 * hostspeed.REF_S] * 3
    assert host.seconds(0.5, 1.5) == pytest.approx(0.999 / 2)
    # A probe far from the interval does not count.
    host.starts.append(10.0)
    host.spent.append(0.001)
    host.probes.append(100 * hostspeed.REF_S)
    assert host.seconds(0.5, 1.5) == pytest.approx(0.999 / 2)


def test_the_command_runs_blas_on_one_thread():
    assert run.os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run_cli(["--workload", "train-title-small", "--seed", "1",
                     "--seconds", "1", "--trace", "0"], tmp_path,
                    script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
