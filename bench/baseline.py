"""Time the command list of the ROADMAP Baseline table with the harness.

    python3 bench/baseline.py [--repeats 3]

Each command runs as a fresh process (wall time includes interpreter
start and output), ``--repeats`` times in a row; the record gives every
wall time, the median, peak RSS and the output's size and sha256.  The
Tier-1 suite runs once.  Writes bench/results/baseline.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys

import run

COMMANDS = (
    ["cf", "13"],
    ["unit", "1000003"],
    ["--format", "csv", "survey", "bound", "--mu", "2", "--limit", "10000"],
    ["--jobs", "2", "--format", "csv", "survey", "bound", "--mu", "2", "--limit", "10000"],
    ["--format", "csv", "density", "2", "0", "7", "3", "--k-max", "100000"],
    ["coverage", "2"],
    ["survey", "e-mu", "--mu", "2", "--limit", "100000"],
    ["--format", "csv", "survey", "pell", "--limit", "100000"],
)
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    cases = []
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / "stderr.log", "ab") as log, run.Runner(log) as runner:
        load_start = os.getloadavg()
        import_walls = [x["wall_s"] for x in runner.import_times(1 + run.SETUP_START)[1:]]
        for argv in COMMANDS:
            procs = [runner.cli(argv) for _ in range(args.repeats)]
            cases.append({
                "command": " ".join(argv),
                "walls_s": [p.wall_s for p in procs],
                "slowdowns": [p.slowdown for p in procs],
                "median_s": statistics.median(p.wall_s for p in procs),
                "peak_rss_mb": max(p.rss_mb for p in procs),
                "bytes": len(procs[0].out),
                "sha256": hashlib.sha256(procs[0].out).hexdigest(),
                "same_output": len({p.out for p in procs}) == 1,
                "exit_codes": sorted({p.rc for p in procs}),
            })
            print(f"{cases[-1]['median_s']:8.3f} s  {cases[-1]['command']}", file=sys.stderr)
        tier1 = runner.process([sys.executable, *TIER1])
        cases.append({"command": "Tier-1 suite", "walls_s": [tier1.wall_s], "median_s": tier1.wall_s,
                      "summary": tier1.out.decode().strip().splitlines()[-1], "exit_codes": [tier1.rc]})
        record = {
            "provenance": run.provenance(load_start),
            "repeats": args.repeats,
            "import_quadunit_cli_s": {"walls_s": import_walls, "median_s": statistics.median(import_walls)},
            "cases": cases,
        }
    path = run.BENCH / "results" / "baseline.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({c["command"]: round(c["median_s"], 3) for c in cases}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
