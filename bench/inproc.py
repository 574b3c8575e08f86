"""Child process of the benchmark: runs quadunit in one fresh interpreter.

Reads one JSON request from stdin and prints one JSON reply on stdout.

    {"mode": "run", "commands": [[argv...], ...], "trace": false,
     "keep_text": false, "spans": null}
        Calls ``quadunit.cli.main(argv)`` once per command and reports each
        command's exit code, output digest and latency.  With ``trace`` the
        calls run under :class:`tracer.Tracer` and the reply carries the
        per-layer metrics; ``spans`` names a file for the raw spans.

    {"mode": "micro", "seed": n}
        Single-layer micro benchmarks on seeded inputs.

Each request needs a fresh interpreter: the module-level LRU caches and
the ``primes_up_to`` cache would otherwise carry over from earlier work.
``--factor-budget`` is refused, because ``cli.main`` writes it into
``os.environ``, where it would leak into every later command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
import traceback

import tracer
import workloads


def run_commands(commands, keep_text=False):
    """Run each argv through ``cli.main``; (ops, wall seconds)."""
    from quadunit import cli

    ops = []
    t0 = time.perf_counter()
    for argv in commands:
        if "--factor-budget" in argv:
            raise ValueError("--factor-budget leaks into os.environ; not allowed in process")
        buf = io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # one failing command must not stop the batch
            traceback.print_exc()
            rc = -1
        latency = time.perf_counter() - t
        data = buf.getvalue().encode()
        op = {"rc": rc, "latency_s": latency, "bytes": len(data),
              "sha256": hashlib.sha256(data).hexdigest()}
        if keep_text:
            op["text"] = data.decode()
        ops.append(op)
    return ops, time.perf_counter() - t0


def layer_metrics(summary, captured, caches, output_bytes):
    """Per-layer metrics of a traced run, plus the base of each ratio."""
    calls, self_s, edges = summary["calls"], summary["self_s"], summary["edges"]

    def ratio(num, den):
        return num / den if den else 0.0

    def lookups(info):
        return info.hits + info.misses

    steps = {}
    for d in captured["contfrac.regulator"]:
        if d not in steps:
            steps[d] = workloads.period_length(d)
    fc, eo = caches["field_context"], caches["expand_omega"]
    metrics = {
        "arith.squarefree_kernel.calls": calls["arith.squarefree_kernel"],
        "arith.squarefree_kernel.self_s": self_s["arith.squarefree_kernel"],
        "arith.residues.self_s": sum(self_s[f"arith.{n}"] for n in ("jacobi", "sqrt_mod_prime", "mod_inverse")),
        "arith.primes_up_to.self_s": self_s["arith.primes_up_to"],
        "quadfield.field_context.hit_ratio": ratio(fc.hits, lookups(fc)),
        "quadfield.sign_plus_sqrt.calls": calls["quadfield.sign_plus_sqrt"],
        "quadfield.decimal_approx.self_s": self_s["quadfield.decimal_approx"],
        "contfrac.regulator.calls": calls["contfrac.regulator"],
        "contfrac.regulator.steps": sum(steps[d] for d in captured["contfrac.regulator"]),
        "contfrac.regulator.self_s": self_s["contfrac.regulator"],
        "contfrac.expand_omega.calls": calls["contfrac.expand_omega"],
        "contfrac.expand_omega.hit_ratio": ratio(eo.hits, lookups(eo)),
        "contfrac.expand_omega.self_s": self_s["contfrac.expand_omega"],
        "contfrac.fundamental_unit.self_s": self_s["contfrac.fundamental_unit"],
        "contfrac.unit_compare.calls": calls["contfrac.unit_compare"],
        "contfrac.unit_compare.exact_fallback_ratio": ratio(
            edges[("contfrac.unit_compare", "quadfield.qi_compare")], calls["contfrac.unit_compare"]),
        "contfrac.unit_compare.regulator_walks": edges[("contfrac.unit_compare", "contfrac.regulator")],
        "contfrac.quotient_norm_residual.calls": calls["contfrac.quotient_norm_residual"],
        "contfrac.quotient_norm_residual.self_s": self_s["contfrac.quotient_norm_residual"],
        "ideals.norm_ideal_candidates.calls": calls["ideals.norm_ideal_candidates"],
        "ideals.norm_ideal_candidates.self_s": self_s["ideals.norm_ideal_candidates"],
        "ideals.is_reduced_ideal.self_s": self_s["ideals.is_reduced_ideal"],
        "ideals.alpha_of_ideal.self_s": self_s["ideals.alpha_of_ideal"],
        "progressions.build_progression.calls": calls["progressions.build_progression"],
        "progressions.build_progression.self_s": self_s["progressions.build_progression"],
        "progressions.build_progression.candidates": edges[("progressions.build_progression", "arith.squarefree_kernel")],
        "progressions.sieve.self_s": self_s["progressions.squarefree_flags_quadratic"] + self_s["progressions.square_parts_quadratic"],
        "progressions.sieve.values": sum(captured["progressions.squarefree_flags_quadratic"]) + sum(captured["progressions.square_parts_quadratic"]),
        "progressions.quadratic_roots_mod_p2.calls": calls["progressions.quadratic_roots_mod_p2"],
        "survey.theorem_bound_sweep.self_s": self_s["survey.theorem_bound_sweep"],
        "survey.negative_pell.self_s": self_s["survey.negative_pell"],
        "survey.E_mu.self_s": self_s["survey.E_mu"],
        "survey.f_mu.self_s": self_s["survey.f_mu"],
        "cli.main.self_s": sum(v for k, v in self_s.items() if k.startswith("cli.")),
        "cli.output_bytes": output_bytes,
    }
    bases = {
        "quadfield.field_context.lookups": lookups(fc),
        "contfrac.expand_omega.lookups": lookups(eo),
        "contfrac.unit_compare.calls": calls["contfrac.unit_compare"],
    }
    return metrics, bases


def traced_run(commands, spans_path=None):
    from quadunit import contfrac, quadfield

    tr = tracer.Tracer()
    tr.install()
    try:
        ops, wall = run_commands(commands)
    finally:
        tr.uninstall()
    if spans_path:
        tr.write(spans_path)
    caches = {"field_context": quadfield.field_context.cache_info(),
              "expand_omega": contfrac.expand_omega.cache_info()}
    metrics, bases = layer_metrics(tr.summary(), tr.captured, caches, sum(op["bytes"] for op in ops))
    bases["spans"] = len(tr.span_name)
    return ops, wall, metrics, bases


def _rate(work, fn, repeats=3):
    """Median of work/second over ``repeats`` timed calls of fn()."""
    rates = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        rates.append(work / (time.perf_counter() - t))
    return statistics.median(rates)


def micro(seed: int) -> dict:
    from quadunit.arith import primes_up_to, squarefree_kernel
    from quadunit.contfrac import CFExpansion
    from quadunit.progressions import IndexPair, build_progression, squarefree_flags_quadratic
    from quadunit.quadfield import FieldContext
    from quadunit.survey import theorem_bound_sweep

    spec = workloads.micro_inputs(seed)
    contexts = [FieldContext(d) for d in spec["radicands"]]
    steps = sum(CFExpansion(ctx).l for ctx in contexts)
    kernel_inputs = spec["kernel_inputs"]
    primes_up_to(math.isqrt(max(kernel_inputs)) + 1)
    A, B, C = build_progression(IndexPair(*spec["pair"])).coefficients()
    count = spec["sieve_count"]
    squarefree_flags_quadratic(A, B, C, count)  # fills the prime cache
    mu, t_max = spec["bound"]
    half = t_max // 2
    t = time.perf_counter()
    theorem_bound_sweep(mu, half)
    lower = time.perf_counter() - t
    t = time.perf_counter()
    theorem_bound_sweep(mu, t_max, t_min=half + 1)
    upper = time.perf_counter() - t
    return {
        "contfrac.walk_steps_per_s": _rate(steps, lambda: [CFExpansion(ctx) for ctx in contexts]),
        "arith.squarefree_kernel_per_s": _rate(len(kernel_inputs), lambda: [squarefree_kernel(n) for n in kernel_inputs]),
        "progressions.sieve_values_per_s": _rate(count, lambda: squarefree_flags_quadratic(A, B, C, count)),
        "survey.bound.cost_skew": upper / lower,
    }


def main() -> int:
    request = json.load(sys.stdin)
    if request["mode"] == "micro":
        reply = {"metrics": micro(request["seed"])}
    elif request.get("trace"):
        ops, wall, metrics, bases = traced_run(request["commands"], request.get("spans"))
        reply = {"ops": ops, "wall_s": wall, "metrics": metrics, "bases": bases}
    else:
        ops, wall = run_commands(request["commands"], keep_text=request.get("keep_text", False))
        reply = {"ops": ops, "wall_s": wall}
    json.dump(reply, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
