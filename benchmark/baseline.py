"""Record a baseline: two batches of dev seeds, a held-out seed, traced runs.

    python3 benchmark/baseline.py --commit c0c77c3 --seconds 20

For every workload, each batch runs ``run.py --trace 0`` once per dev
seed, one process after another, and keeps every end-to-end metric's
values, median, quartiles and spread = (q3 - q1) / median, with the
quartiles of ``statistics.quantiles(values, n=4)``.  Then the held-out
seed runs untraced and traced, and the first dev seed traced.  The file
goes to ``benchmark/baselines/<commit>.json``; the command exits
non-zero if any run did.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed with exit code {proc.returncode}")
    print(f"{workload} seed {seed} trace {trace}: ok", flush=True)
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values):
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import run as bench  # first: puts src/ on sys.path
    import layers
    import workloads as wl

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--commit", required=True, help="commit the baseline describes")
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--dev-seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--held-out-seed", type=int, default=1009)
    p.add_argument("--batches", type=int, default=2)
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.dev_seeds.split(",")]

    batches = {name: [] for name in wl.WORKLOADS}
    for _batch in range(args.batches):
        for name in wl.WORKLOADS:
            batches[name].append([run(name, s, args.seconds, 0) for s in seeds])
    results = {}
    for name in wl.WORKLOADS:
        results[name] = {
            "end_to_end": {
                metric: {"unit": unit, "batches": [
                    summary([r[metric] for r in batch]) for batch in batches[name]]}
                for metric, unit, _better, _bound in layers.END_TO_END},
            "held_out": run(name, args.held_out_seed, args.seconds, 0),
            "per_layer_seed1": run(name, seeds[0], args.seconds, 1),
            "per_layer_held_out": run(name, args.held_out_seed, args.seconds, 1),
        }

    record = {
        "commit": args.commit,
        "command": f"python3 benchmark/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds} --trace <0|1>",
        "dev_seeds": seeds,
        "held_out_seed": args.held_out_seed,
        "batches": f"{args.batches} batches of runs over the dev seeds, one after the other",
        "spread": "(q3 - q1) / median over the dev seeds, "
                  "quartiles from statistics.quantiles(n=4)",
        "machine": bench.machine_record(bench.os.getloadavg()),
        "workloads": results,
    }
    path = HERE / "baselines" / f"{args.commit}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, result in results.items():
        for metric, entry in result["end_to_end"].items():
            spreads = " ".join(f"{b['spread']:.3f}" for b in entry["batches"])
            medians = " ".join(f"{b['median']:.5g}" for b in entry["batches"])
            print(f"{name:<20} {metric:<24} spread {spreads}  median {medians}")
    print(f"baseline written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
