"""Steadiness check: untraced runs of every workload, one seed per run.

    python3 bench/proof.py [--seeds 10] [--first-seed 0] [--workload NAME ...] [--out FILE]

Runs ``bench/run.py --trace 0`` once per seed and workload, with the
``run_seconds`` of BENCHMARK.json, each in a fresh process.  For every
end-to-end metric it reports the median and the spread of the values:
(q3 - q1) / median, with ``statistics.quantiles(values, n=4)``, next to the
metric's bound.  Writes the record to ``--out`` (default
bench/results/proof.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run
import workloads


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", nargs="+", default=list(workloads.WORKLOADS), choices=workloads.WORKLOADS)
    parser.add_argument("--out", default=str(run.BENCH / "results" / "proof.json"))
    args = parser.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    load_start = os.getloadavg()
    report = {}
    for workload in args.workload:
        results = []
        for seed in seeds:
            argv = [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(argv, cwd=run.ROOT, capture_output=True, check=True).stdout
            results.append(json.loads(out.decode().splitlines()[-1]))
        metrics = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"values": values, "median": median, "spread": (q3 - q1) / median, "bound": bound}
            print(f"{workload:16s} {name:22s} median {median:12.6g}  spread {metrics[name]['spread']:.3f}"
                  f"  bound {bound}", file=sys.stderr)
        report[workload] = {"seeds": seeds, "correct": [r["correct"] for r in results],
                            "attempted": [r["attempted"] for r in results],
                            "failed": [r["failed"] for r in results], "metrics": metrics}
    record = {"provenance": run.provenance(load_start), "run_seconds": spec["run_seconds"], "workloads": report}
    with open(args.out, "w") as f:
        f.write(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
