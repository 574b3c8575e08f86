"""Write bench/reference.json: output digests for the default seeds.

    python3 bench/make_reference.py

Run it only on code whose outputs are the reference (it was generated
from the code the benchmark was defined on).  Every serial command of the
first ITERATIONS[workload] iterations of seeds 0-9 runs as in a benchmark
run; an output that fails its exit-code or content check stops the script
instead of being recorded.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEEDS = range(10)
ITERATIONS = {"regulator_sweep": 4, "pell_sweep": 16, "sieve_survey": 8, "field_queries": 4}
DIGEST_CHARS = 32


def main() -> int:
    digests: dict[str, str] = {}
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / "stderr.log", "ab") as log, run.Runner(log) as runner:
        for workload, count in ITERATIONS.items():
            checker = run.Checker({})
            for seed in SEEDS:
                plan = workloads.plan(workload, seed)
                for iteration in range(count):
                    commands = next(plan)
                    if workload == "field_queries":
                        proc, reply = runner.child({"mode": "run", "commands": commands, "keep_text": True})
                        outputs = [(res["rc"], res["text"].encode()) for res in reply["ops"]]
                    else:
                        outputs = []
                        for argv in commands:
                            proc = runner.cli(argv)
                            outputs.append((proc.rc, proc.out))
                    for argv, (rc, out) in zip(commands, outputs):
                        op = checker.op(iteration, "serial", argv, rc, out, 0.0)
                        if op["error"]:
                            raise SystemExit(f"{op['argv']}: {op['error']}")
                        digests[op["argv"]] = op["sha256"][:DIGEST_CHARS]
            print(f"{workload}: {len(digests)} digests so far", file=sys.stderr)
    doc = {"seeds": list(SEEDS), "iterations": ITERATIONS, "sha256": dict(sorted(digests.items()))}
    run.REFERENCE.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
