"""quadunit benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 bench/run.py --workload regulator_sweep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 0

Run from the repository root (the program is imported from ``src/``).  One
client runs each workload as a closed loop: every command starts when the
previous one has ended, as a fresh ``python -m quadunit.cli`` process
(field queries: one fresh interpreter per batch), so every command pays
the cold start a CLI user pays.  Each command runs once serially and once
with ``--jobs 2``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, with provenance, goes to ``bench/out/``.  End-to-end times are in
reference seconds (see PROBE_REF_S), the record also gives them as
measured.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

# import timings: a warm-up (it writes the bytecode cache), then a few at
# the start and a few before every iteration, so they sample the whole run
SETUP_START = 3
SETUP_PER_ITERATION = 2
PROCESS_TIMEOUT_S = 150
# The time-based end-to-end metrics are in reference seconds: seconds on a
# machine where the speed probe (workloads.probe_work) takes this long.
# The probe runs just before and just after every process, and the
# process's wall time is scaled by PROBE_REF_S / (mean of the two probes).
PROBE_REF_S = 0.025

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "parallel_items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "arith.squarefree_kernel.calls", "arith.squarefree_kernel.self_s", "arith.squarefree_kernel_per_s",
    "arith.residues.self_s", "arith.primes_up_to.self_s",
    "quadfield.field_context.hit_ratio", "quadfield.sign_plus_sqrt.calls", "quadfield.decimal_approx.self_s",
    "contfrac.walk_steps_per_s", "contfrac.regulator.calls", "contfrac.regulator.steps",
    "contfrac.regulator.self_s", "contfrac.expand_omega.calls", "contfrac.expand_omega.hit_ratio",
    "contfrac.expand_omega.self_s", "contfrac.fundamental_unit.self_s", "contfrac.unit_compare.calls",
    "contfrac.unit_compare.exact_fallback_ratio", "contfrac.unit_compare.regulator_walks",
    "contfrac.quotient_norm_residual.calls", "contfrac.quotient_norm_residual.self_s",
    "ideals.norm_ideal_candidates.calls", "ideals.norm_ideal_candidates.self_s",
    "ideals.is_reduced_ideal.self_s", "ideals.alpha_of_ideal.self_s",
    "progressions.build_progression.calls", "progressions.build_progression.self_s",
    "progressions.build_progression.candidates", "progressions.sieve.self_s", "progressions.sieve.values",
    "progressions.quadratic_roots_mod_p2.calls", "progressions.sieve_values_per_s",
    "survey.theorem_bound_sweep.self_s", "survey.negative_pell.self_s", "survey.E_mu.self_s",
    "survey.f_mu.self_s", "survey.bound.cost_skew",
    "cli.main.self_s", "cli.output_bytes", "cli.jobs2_efficiency", "cli.import_s",
    "trace.overhead_ratio",
)


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("ratio", "skew", "efficiency")):
        return "ratio"
    return "count"


def quantile(values, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Proc:
    wall_s: float
    rc: int
    out: bytes
    rss_mb: float
    slowdown: float  # mean probe time around the process / PROBE_REF_S


class Runner:
    """Runs quadunit processes one at a time, through bench/launcher.py.

    Use as a context manager; leaving it stops the launcher.
    """

    def __init__(self, log):
        # A clean environment: no PYTHON* settings (PYTHONDONTWRITEBYTECODE
        # would make every command compile the package from source) and no
        # factor budget.
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("PYTHON") and k != "QUADUNIT_FACTOR_BUDGET"}
        env["PYTHONPATH"] = str(SRC)
        OUT.mkdir(exist_ok=True)
        self.radicands = workloads.probe_radicands()
        self.stdin_path = OUT / "stdin.tmp"
        self.stdout_path = OUT / "stdout.tmp"
        self.launcher = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], cwd=ROOT, env=env,
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.launcher.stdin.close()
        self.launcher.wait()

    def probe(self) -> float:
        t0 = time.perf_counter()
        workloads.probe_work(self.radicands)
        return time.perf_counter() - t0

    def process(self, argv, stdin: bytes | None = None) -> Proc:
        if stdin is not None:
            self.stdin_path.write_bytes(stdin)
        request = {"argv": argv, "stdin": None if stdin is None else str(self.stdin_path),
                   "stdout": str(self.stdout_path), "timeout": PROCESS_TIMEOUT_S}
        before = self.probe()
        self.launcher.stdin.write(json.dumps(request).encode() + b"\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("bench/launcher.py stopped")
        slowdown = (before + self.probe()) / (2 * PROBE_REF_S)
        reply = json.loads(line)
        return Proc(reply["wall_s"], reply["rc"], self.stdout_path.read_bytes(), reply["rss_mb"], slowdown)

    def cli(self, argv) -> Proc:
        return self.process([sys.executable, "-m", "quadunit.cli", *argv])

    def child(self, request: dict) -> tuple[Proc, dict | None]:
        """Run bench/inproc.py on one request; the reply is None on failure."""
        proc = self.process([sys.executable, str(BENCH / "inproc.py")], json.dumps(request).encode())
        try:
            reply = json.loads(proc.out) if proc.rc == 0 else None
        except ValueError:
            reply = None
        return proc, reply

    def import_times(self, count: int) -> list[dict]:
        """``count`` fresh interpreters running ``import quadunit.cli``."""
        times = []
        for _ in range(count):
            proc = self.process([sys.executable, "-c", "import quadunit.cli"])
            if proc.rc != 0:
                raise RuntimeError("import quadunit.cli failed")
            times.append({"wall_s": proc.wall_s, "slowdown": proc.slowdown})
        return times


class Checker:
    """Turns each operation's output into pass/fail (see bench/README.md)."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.serial: dict[str, str] = {}
        self.cf_pell: list[int] | None = None

    def negative_pell_cf(self, n: int) -> list[int]:
        if self.cf_pell is None:
            sys.path.insert(0, str(SRC))
            from quadunit.survey import negative_pell

            self.cf_pell = negative_pell(workloads.PELL_LIMIT + workloads.PELL_BAND, route="cf")
        return [d for d in self.cf_pell if d <= n]

    def error(self, argv, mode: str, rc: int, output: bytes, digest: str) -> str | None:
        key = " ".join(argv)
        if rc != 0:
            return f"exit code {rc}"
        if mode == "serial":
            self.serial[key] = digest
            expected = self.reference.get(key)
            if expected is not None and not digest.startswith(expected):
                return "sha256 differs from the reference digest"
        elif self.serial.get(key) != digest:
            return f"{mode} output differs from the serial output"
        problem = workloads.check_output(argv, output)
        if problem is None and "pell" in argv:
            rows = [int(x) for x in output.split()[1:]]
            if rows != self.negative_pell_cf(workloads.option(argv, "--limit")):
                problem = "rows differ from negative_pell(N, route='cf')"
        return problem

    def op(self, iteration, mode, argv, rc, output, latency_s) -> dict:
        digest = hashlib.sha256(output).hexdigest()
        return {"iteration": iteration, "mode": mode, "argv": " ".join(argv), "latency_s": latency_s,
                "sha256": digest, "error": self.error(argv, mode, rc, output, digest)}


def run_iteration(workload, iteration, commands, runner, checker):
    """Run one iteration serially and with --jobs 2: (steps, ops).

    A step is one process; steps carry the wall time and work items the
    throughput metrics use, ops the per-operation latency and verdict.
    """
    steps, ops = [], []
    if workload == "field_queries":
        for mode, batch in (("serial", commands), ("jobs2", [workloads.jobs2(c) for c in commands])):
            proc, reply = runner.child({"mode": "run", "commands": batch, "keep_text": True})
            steps.append({"iteration": iteration, "mode": mode, "wall_s": proc.wall_s, "items": len(batch),
                          "rss_mb": proc.rss_mb, "slowdown": proc.slowdown})
            results = reply["ops"] if reply else [{"rc": proc.rc or -1, "text": "", "latency_s": 0.0}] * len(batch)
            for argv, res in zip(commands, results):
                ops.append(checker.op(iteration, mode, argv, res["rc"], res["text"].encode(), res["latency_s"]))
                ops[-1]["slowdown"] = proc.slowdown
        return steps, ops
    for argv in commands:
        for mode, full in (("serial", argv), ("jobs2", workloads.jobs2(argv))):
            proc = runner.cli(full)
            steps.append({"iteration": iteration, "mode": mode, "wall_s": proc.wall_s,
                          "items": workloads.items(argv, proc.out), "rss_mb": proc.rss_mb, "slowdown": proc.slowdown})
            ops.append(checker.op(iteration, mode, argv, proc.rc, proc.out, proc.wall_s))
            ops[-1]["slowdown"] = proc.slowdown
    return steps, ops


def seconds_of(x: dict, key: str, reference: bool) -> float:
    """x[key] in seconds: as measured, or in reference seconds."""
    return x[key] / x["slowdown"] if reference else x[key]


def throughput(steps, mode: str, reference: bool) -> tuple[float, int]:
    """Median over iterations of items / wall seconds, and the sample count."""
    per_iteration: dict[int, list[float]] = {}
    for s in steps:
        if s["mode"] == mode:
            acc = per_iteration.setdefault(s["iteration"], [0, 0.0])
            acc[0] += s["items"]
            acc[1] += seconds_of(s, "wall_s", reference)
    rates = [items / wall for items, wall in per_iteration.values()]
    return statistics.median(rates), len(rates)


def timings(steps, ops, setup, reference: bool) -> dict:
    """The time-based end-to-end metrics."""
    latencies = [seconds_of(op, "latency_s", reference) for op in ops if op["mode"] == "serial"]
    return {
        "setup_s": statistics.median(seconds_of(x, "wall_s", reference) for x in setup),
        "items_per_s": throughput(steps, "serial", reference)[0],
        "parallel_items_per_s": throughput(steps, "jobs2", reference)[0],
        "latency_p50_ms": 1e3 * quantile(latencies, 0.5),
        "latency_p90_ms": 1e3 * quantile(latencies, 0.9),
    }


def measure(workload, seed, seconds, runner, checker, setup):
    """Closed loop over whole iterations until ``seconds`` have passed."""
    steps, ops, inputs = [], [], []
    start = time.perf_counter()
    for iteration, commands in enumerate(workloads.plan(workload, seed)):
        if iteration and time.perf_counter() - start >= seconds:
            break
        setup += runner.import_times(SETUP_PER_ITERATION)
        inputs.append([" ".join(c) for c in commands])
        s, o = run_iteration(workload, iteration, commands, runner, checker)
        steps += s
        ops += o
    n_latencies = sum(op["mode"] == "serial" for op in ops)
    metrics = timings(steps, ops, setup, reference=True)
    metrics["peak_rss_mb"] = max(step["rss_mb"] for step in steps)
    samples = {"setup_s": len(setup), "items_per_s": throughput(steps, "serial", True)[1],
               "parallel_items_per_s": throughput(steps, "jobs2", True)[1],
               "latency_p50_ms": n_latencies, "latency_p90_ms": n_latencies, "peak_rss_mb": len(steps)}
    detail = {"measured_metrics": timings(steps, ops, setup, reference=False), "iterations": inputs, "steps": steps}
    return metrics, samples, ops, detail


def trace_pass(workload, seed, iteration, commands, runner, checker, spans_path, micro):
    """Per-layer metrics for one iteration's serial commands.

    The commands run untraced as processes (serial and --jobs 2), then in
    process untraced and traced, each in a fresh interpreter; the traced
    outputs must equal the untraced ones byte for byte.
    """
    steps, ops = run_iteration(workload, iteration, commands, runner, checker)
    serial_wall = sum(s["wall_s"] for s in steps if s["mode"] == "serial")
    jobs2_wall = sum(s["wall_s"] for s in steps if s["mode"] == "jobs2")
    expected = [op["sha256"] for op in ops if op["mode"] == "serial"]
    walls, metrics, bases = {}, {}, {}
    for mode, request in (("inproc", {"mode": "run", "commands": commands}),
                          ("traced", {"mode": "run", "commands": commands, "trace": True, "spans": str(spans_path)})):
        proc, reply = runner.child(request)
        results = reply["ops"] if reply else [{"rc": proc.rc or -1, "sha256": ""}] * len(commands)
        for argv, res, digest in zip(commands, results, expected):
            error = f"exit code {res['rc']}" if res["rc"] != 0 else (
                None if res["sha256"] == digest else f"{mode} output differs from the untraced process output")
            ops.append({"iteration": iteration, "mode": mode, "argv": " ".join(argv),
                        "latency_s": res.get("latency_s", 0.0), "sha256": res["sha256"], "error": error})
        walls[mode] = reply["wall_s"] if reply else math.nan
        if reply and mode == "traced":
            metrics.update(reply["metrics"])
            bases = reply["bases"]
    if micro:
        proc, reply = runner.child({"mode": "micro", "seed": seed})
        if reply is None:
            raise RuntimeError("micro benchmarks failed")
        metrics.update(reply["metrics"])
    metrics["cli.jobs2_efficiency"] = serial_wall / (2 * jobs2_wall)
    metrics["trace.overhead_ratio"] = walls["traced"] / walls["inproc"]
    return metrics, ops, {"steps": steps, "bases": bases}


def trace(workload, seed, seconds, runner, checker, setup):
    """Trace passes over successive iterations until ``seconds`` have passed.

    The micro benchmarks run in the first pass only.
    """
    passes, ops, details = [], [], []
    start = time.perf_counter()
    for iteration, commands in enumerate(workloads.plan(workload, seed)):
        if iteration and time.perf_counter() - start >= seconds:
            break
        setup += runner.import_times(SETUP_PER_ITERATION)
        spans = OUT / f"spans-{workload}-seed{seed}-{iteration}.bin"
        metrics, o, detail = trace_pass(workload, seed, iteration, commands, runner, checker, spans, iteration == 0)
        passes.append(metrics)
        ops += o
        details.append({"commands": [" ".join(c) for c in commands], "spans": spans.name, **detail})
    # median_low: a value one pass really measured (counts stay whole numbers)
    metrics = {name: statistics.median_low(p[name] for p in passes if name in p) for name in passes[0]}
    return metrics, {name: len(passes) for name in metrics}, ops, {"passes": details}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.decode().strip() or None


def source_sha() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "quadunit").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(loadavg_start) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "loadavg_end": os.getloadavg(),
    }


def run_workload(workload, seed, seconds, traced, runner, checker) -> dict:
    """One run: the result object plus the record written to bench/out/."""
    load_start = os.getloadavg()
    setup = runner.import_times(1 + SETUP_START)[1:]
    if traced:
        metrics, samples, ops, detail = trace(workload, seed, seconds, runner, checker, setup)
        metrics["cli.import_s"] = statistics.median(x["wall_s"] for x in setup)
        samples["cli.import_s"] = len(setup)
        if set(metrics) != set(PER_LAYER):
            raise RuntimeError(f"per-layer metrics differ from PER_LAYER: {set(metrics) ^ set(PER_LAYER)}")
        units = {name: unit_of(name) for name in PER_LAYER}
    else:
        metrics, samples, ops, detail = measure(workload, seed, seconds, runner, checker, setup)
        units = END_TO_END
    failed = [op for op in ops if op["error"]]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "provenance": provenance(load_start),
        "metrics": {name: {"value": metrics[name], "unit": units[name], "samples": samples[name]}
                    for name in units},
        "error_rate": {"value": len(failed) / len(ops), "unit": "ratio", "samples": len(ops)},
        "failures": failed[:20],
        "setup": setup,
        **detail,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(record, indent=1))
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "record": record,
    }


def print_summary(workload, result) -> None:
    record = result["record"]
    rows = list(record["metrics"].items()) + [("error_rate", record["error_rate"])]
    for name, m in rows:
        print(f"# {workload:16s} {name:45s} {m['value']:14.6g} {m['unit']:6s} n={m['samples']}")


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())["sha256"] if REFERENCE.exists() else {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quadunit" / "cli.py").is_file():
        print(f"bench: no program at {SRC / 'quadunit'}; run from a quadunit checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    with open(OUT / "stderr.log", "ab") as log:
        for workload in names:
            with Runner(log) as runner:
                results[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                                 runner, Checker(load_reference()))
    for workload, result in results.items():
        print_summary(workload, result)
    if len(results) == 1:
        final = {k: v for k, v in results[names[0]].items() if k != "record"}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
