"""avex benchmark: one workload per process, metrics as one JSON line.

    python3 benchmark/run.py --workload train-title-small --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --seed 1 --seconds 20        # every workload, traced and not

With ``--trace 0`` the run measures the end-to-end metrics with no
instrumentation of avex: it sets the workload up several times
(``setup_s`` is the median), then repeats the workload's unit of work
until ``--seconds`` is used up.  Timings are reported in seconds at a
fixed reference host speed (``hostspeed.py``), and in wall-clock seconds
in the results file.  With ``--trace 1`` it runs one unit without
and one with span wrappers around every layer, checks that both give
the same losses and extracted values, and reports the per-layer metrics
and the tracing overhead.

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every correctness check passed.  A results file with the
machine record, the checks and the raw samples goes to ``.bench_out/``
(spans too, for traced runs).  Without ``--workload`` every workload
runs in its own child process and a combined results file is written.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

# One BLAS thread: on a machine with few cores, shared with other work, a
# second thread that spins waiting for the first spreads every timing of
# the paper-scale workloads twice as wide.  Set before numpy loads BLAS;
# child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

OUT_DIR = Path(".bench_out")
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 20
# extract_requests_per_s is the median rate over windows of this many
# consecutive requests, so that a burst of host noise moves one window
# rather than the whole figure.
REQUEST_WINDOW = 16


# -- machine record -----------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(load_at_start) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "loadavg_at_start": list(load_at_start),
    }


# -- one workload ---------------------------------------------------------------


class Ops:
    """Counts operations; every exception is a failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None


def _median(values):
    return statistics.median(values) if values else float("nan")


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else float("nan")


def _windowed_rate(latencies, window):
    """Median of requests / request time over consecutive windows."""
    n = max(1, len(latencies) // window)
    size = len(latencies) // n
    return _median([size / sum(latencies[i * size:(i + 1) * size]) for i in range(n)])


def _setups(workload, seed, tiny, workdir, ops, clock):
    """Set up several times; returns (spans, last inputs, set-up trainings)."""
    spans, trains, inputs = [], [], None
    while len(spans) < SETUP_MAX_REPEATS:
        gc.collect()
        start = clock()
        inputs = ops.call(workload.setup, seed, tiny, workdir)
        if inputs is None:
            break
        spans.append((start, clock()))
        if inputs.setup_train is not None:
            trains.append(inputs.setup_train)
        if len(spans) >= SETUP_MIN_REPEATS and \
                sum(end - begin for begin, end in spans) >= SETUP_MIN_SECONDS:
            break
    return spans, inputs, trains


def _timings(inputs, units, setup_spans, setup_trains, eval_spans, seconds):
    """The end-to-end timings, with ``seconds(start, end)`` as the clock."""
    requests = [seconds(*span) for u in units for span in u.request_spans]
    latencies_ms = [1e3 * x for x in requests]
    if inputs.model is not None:
        # Training happens in set-up here: its throughput is set-up's.
        trainings = [(t["train_tokens"], t["train_span"]) for t in setup_trains]
    else:
        trainings = [(u.train_tokens, u.train_span) for u in units]
    return {
        "setup_s": _median([seconds(*span) for span in setup_spans]),
        "train_tokens_per_s": _median([n / seconds(*span) for n, span in trainings]),
        "eval_examples_per_s": _median([len(inputs.test) / seconds(*span)
                                        for span in eval_spans]),
        "extract_ms_p50": _percentile(latencies_ms, 50),
        "extract_ms_p90": _percentile(latencies_ms, 90),
        "extract_requests_per_s": _windowed_rate(requests, REQUEST_WINDOW),
        "extract_ms_p99": _percentile(latencies_ms, 99),
    }


def measure(workload, seed, seconds, tiny, workdir, ops, checks):
    """The untraced run: end-to-end metrics and their raw samples."""
    import workloads as wl
    from hostspeed import HostSpeed

    clock = wl.clock
    host = HostSpeed(clock)
    host.start()
    try:
        setup_spans, inputs, setup_trains = _setups(workload, seed, tiny, workdir, ops,
                                                    clock)
        units, eval_spans = [], []
        loop_start = clock()
        while inputs is not None:
            # Each unit starts from a collected heap, so that garbage left by
            # the previous one does not bill its cyclic GC passes to this one.
            gc.collect()
            unit = ops.call(workload.unit, inputs)
            if unit is None:
                break
            ops.attempted += len(unit.request_spans)
            units.append(unit)
            if inputs.model is not None:
                span = ops.call(wl.eval_pass, inputs)
                if span is None:
                    break
                eval_spans.append(span)
            else:
                eval_spans.extend(unit.eval_spans)
            if clock() - loop_start >= seconds:
                break
    finally:
        host.stop()
    if not units:
        return {}, {}

    first = units[0]
    same = all(u.outputs() == first.outputs() for u in units)
    checks.append(("units_repeat", same, f"{len(units)} units gave identical outputs"))
    if inputs.model is not None:
        nlls = {t["train_nll"] for t in setup_trains}
        checks.append(("setups_repeat", len(nlls) == 1, f"setup train_nll values {nlls}"))
        train_nll = setup_trains[0]["train_nll"]
        macro_f1 = wl.exact_match_f1(inputs, first.extracted)
    else:
        train_nll = first.train_nll
        macro_f1 = first.best_dev_f1
    _quality_checks(workload, tiny, train_nll, macro_f1, checks)
    timing_args = (inputs, units, setup_spans, setup_trains, eval_spans)
    timings = _timings(*timing_args, host.seconds)
    values = {
        "setup_s": timings["setup_s"],
        "train_tokens_per_s": timings["train_tokens_per_s"],
        "train_nll": train_nll,
        "macro_f1": macro_f1,
        "eval_examples_per_s": timings["eval_examples_per_s"],
        "extract_ms_p50": timings["extract_ms_p50"],
        "extract_ms_p90": timings["extract_ms_p90"],
        "extract_requests_per_s": timings["extract_requests_per_s"],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setups": len(setup_spans),
        "units": len(units),
        "unit_wall_s": [u.wall_s for u in units],
        "eval_passes": len(eval_spans),
        "requests": sum(len(u.request_spans) for u in units),
        "extract_ms_p99": timings["extract_ms_p99"],
        # The same timings in wall-clock seconds, not at the reference speed.
        "wall_clock": _timings(*timing_args, lambda start, end: end - start),
        "host_speed": host.summary(),
    }
    return values, samples


def _quality_checks(workload, tiny, train_nll, macro_f1, checks):
    checks.append(("train_nll_finite", train_nll is not None and math.isfinite(train_nll),
                   f"train_nll {train_nll}"))
    floor = 0.0 if tiny else workload.f1_floor
    checks.append(("macro_f1_floor", macro_f1 is not None and macro_f1 >= floor,
                   f"macro_f1 {macro_f1} (floor {floor})"))


def trace(workload, seed, tiny, workdir, ops, checks, spans_path):
    """One unit untraced, then set-up and one unit traced: per-layer metrics.

    The tracing overhead compares the two units in seconds at the
    reference host speed, as the end-to-end timings are.
    """
    import layers
    import workloads as wl
    from hostspeed import HostSpeed
    from tracing import Tracer

    clock = wl.clock
    host = HostSpeed(clock)
    host.start()
    try:
        inputs = ops.call(workload.setup, seed, tiny, workdir)
        gc.collect()
        start = clock()
        reference = inputs and ops.call(workload.traced_unit, inputs)
        reference_span = (start, clock())
        if reference is None:
            return {}
        del inputs
        setup_tracer, unit_tracer = Tracer(clock), Tracer(clock)
        layers.instrument(setup_tracer)
        try:
            traced_inputs = ops.call(workload.setup, seed, tiny, workdir)
        finally:
            setup_tracer.uninstall()
        if traced_inputs is None:
            return {}
        gc.collect()
        layers.instrument(unit_tracer)
        try:
            start = clock()
            traced = ops.call(workload.traced_unit, traced_inputs,
                              on_request=unit_tracer.new_scope)
            traced_span = (start, clock())
        finally:
            unit_tracer.uninstall()
        if traced is None:
            return {}
    finally:
        host.stop()
    ops.attempted += len(reference.request_spans) + len(traced.request_spans)
    checks.append(("trace_changes_nothing", traced.outputs() == reference.outputs(),
                   "traced and untraced units gave the same losses and values"))
    train_nll = reference.train_nll if reference.train_nll is not None \
        else traced_inputs.setup_train["train_nll"]
    macro_f1 = reference.best_dev_f1 if reference.best_dev_f1 is not None \
        else wl.exact_match_f1(traced_inputs, reference.extracted)
    _quality_checks(workload, tiny, train_nll, macro_f1, checks)
    if unit_tracer.missing:
        print(f"spans that no longer fire: {', '.join(unit_tracer.missing)}",
              file=sys.stderr)
    with open(spans_path, "w", encoding="utf-8") as fh:
        setup_tracer.write_spans(fh, "setup")
        unit_tracer.write_spans(fh, "unit")
    reference_s = host.seconds(*reference_span)
    return layers.layer_metrics(setup_tracer, unit_tracer,
                                host.seconds(*traced_span) - reference_s, reference_s)


def run_one(args) -> int:
    import layers
    import workloads as wl

    load = os.getloadavg()
    workload = wl.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    ops, checks = Ops(), []
    try:
        if args.trace:
            metrics = trace(workload, args.seed, args.tiny, workdir, ops, checks,
                            stem.with_suffix(".spans.jsonl"))
            samples = {}
        else:
            values, samples = measure(workload, args.seed, args.seconds, args.tiny,
                                      workdir, ops, checks)
            unit_of = {name: unit for name, unit, _better, _bound in layers.END_TO_END}
            metrics = {name: {"value": v, "unit": unit_of[name]} for name, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    checks.append(("no_failures", ops.failed == 0, f"{ops.failed} of {ops.attempted} failed"))
    expected = [m[0] for m in (layers.PER_LAYER if args.trace else layers.END_TO_END)]
    checks.append(("all_metrics", list(metrics) == expected, "every metric measured"))
    correct = all(ok for _name, ok, _detail in checks)
    for name, ok, detail in checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "machine": machine_record(load),
        "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
        "error_rate": ops.failed / max(ops.attempted, 1),
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
        "metrics": metrics, "samples": samples,
    }
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps({"correct": correct, "attempted": max(ops.attempted, 1),
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    import workloads as wl

    load = os.getloadavg()
    results, code = {}, 0
    for name in wl.WORKLOADS:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(traced)] + (["--tiny"] if args.tiny else [])
            print(f"== {name} trace={traced}", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                results.setdefault(name, {})[f"trace{traced}"] = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                results.setdefault(name, {})[f"trace{traced}"] = None
            code = code or proc.returncode or (0 if lines else 1)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"results-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "seconds": args.seconds, "tiny": args.tiny,
                   "machine": machine_record(load), "results": results}, fh, indent=1)
        fh.write("\n")
    print(f"results written to {path}")
    return code


def parse_args(argv=None):
    import workloads as wl

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input to seconds of work (self-tests only)")
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        import avex  # noqa: F401
    except ImportError as e:
        print(f"cannot import avex from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
