"""Command-line entry point and the parallel sweep driver.

Output is byte-deterministic for a fixed configuration: single-instance
queries emit one JSON document, sweeps emit JSON Lines or CSV with a fixed
row order, and nothing timestamped ever enters a data row.  Exit status is
0 on success, 1 when a budget is exhausted, 2 on usage errors and 3 on an
internal fault (any other exception, reported as one ``internal error:``
line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .arith import ENV_TRIAL_BOUND, BudgetError
from .contfrac import expand_omega, fundamental_unit, quotient_norm_residual, regulator
from .ideals import alpha_of_ideal, is_reduced_ideal, mu_below_omega, norm_ideal_candidates
from .progressions import (
    IndexPair,
    build_progression,
    coverage_report,
    empirical_density,
    hensel_quadratic,
    index_pairs,
    predicted_density,
    solve_n0,
    squarefree_flags,
)
from .quadfield import decimal_approx, field_context, format_quadint
from .survey import (
    E_mu,
    _bound_rows,
    assemble_bound_report,
    f_mu,
    negative_pell,
    rank_correlation,
    theorem_bound_sweep,
)


# Bound-sweep chunks per worker: enough that the costlier high-trace
# chunks spread evenly over the pool.
SHARDS_PER_JOB = 8


@dataclass
class RunConfig:
    subcommand: str
    args: argparse.Namespace
    fmt: str
    output: str | None
    jobs: int
    precision: int
    cutoff: int
    factor_budget: int | None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadunit",
        description="Exact continued fractions, units, reduced ideals and "
        "quadratic progressions for real quadratic fields.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", help="write data rows to this path instead of stdout")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for sweeps (at most the CPU count)")
    parser.add_argument("--precision", type=int, default=256, help="report precision bits (>= 64)")
    parser.add_argument("--cutoff", type=int, default=10**5, help="odd-prime cutoff for density products")
    parser.add_argument("--factor-budget", type=int, default=None,
                        help=f"trial-division bound (also via ${ENV_TRIAL_BOUND})")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cf", help="continued fraction of w[d]")
    p.add_argument("d", type=int)

    p = sub.add_parser("unit", help="fundamental unit of Q(sqrt(d))")
    p.add_argument("d", type=int)

    p = sub.add_parser("ideals", help="canonical norm-mu ideals of Q(sqrt(d))")
    p.add_argument("d", type=int)
    p.add_argument("mu", type=int)

    p = sub.add_parser("progression", help="canonical progression of an index pair")
    p.add_argument("mu", type=int)
    p.add_argument("j", type=int, choices=(0, 1))
    p.add_argument("y", type=int)
    p.add_argument("x", type=int)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--scan-limit", type=int, default=100_000)

    p = sub.add_parser("pairs", help="index pairs (y, x) with x^2 = mu (mod y)")
    p.add_argument("mu", type=int)
    p.add_argument("j", type=int, choices=(0, 1))
    p.add_argument("y_max", type=int)

    p = sub.add_parser("density", help="predicted vs empirical square-free density")
    p.add_argument("mu", type=int)
    p.add_argument("j", type=int, choices=(0, 1))
    p.add_argument("y", type=int)
    p.add_argument("x", type=int)
    p.add_argument("--k-max", type=int, default=10_000)

    p = sub.add_parser("coverage", help="witness radicands vs progression membership")
    p.add_argument("mu", type=int)
    p.add_argument("--t-max", type=int, default=200)
    p.add_argument("--y-max", type=int, default=300)
    p.add_argument("--k-max", type=int, default=10**6)

    p = sub.add_parser("hensel", help="solvability of a quadratic congruence mod p^m")
    p.add_argument("a2", type=int)
    p.add_argument("a1", type=int)
    p.add_argument("a0", type=int)
    p.add_argument("p", type=int)
    p.add_argument("m", type=int)

    p = sub.add_parser("survey", help="cross-field surveys")
    p.add_argument("kind", choices=("e-mu", "f-mu", "pell", "bound"))
    p.add_argument("--mu", type=int, default=2)
    p.add_argument("--limit", type=int, default=100)
    p.add_argument("--probe-constant", type=float, default=0.0)

    sub.add_parser("verify", help="run the acceptance suite (pytest)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.precision < 64:
        parser.error("--precision must be >= 64")
    jobs = max(1, min(ns.jobs, os.cpu_count() or 1))
    cfg = RunConfig(ns.subcommand, ns, ns.format, ns.output, jobs,
                    ns.precision, ns.cutoff, ns.factor_budget)
    saved_budget = os.environ.get(ENV_TRIAL_BOUND)
    if cfg.factor_budget is not None:
        os.environ[ENV_TRIAL_BOUND] = str(cfg.factor_budget)
    try:
        return run(cfg)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        # --factor-budget holds for this call only
        if saved_budget is None:
            os.environ.pop(ENV_TRIAL_BOUND, None)
        else:
            os.environ[ENV_TRIAL_BOUND] = saved_budget


def run(cfg: RunConfig) -> int:
    handler = _HANDLERS[cfg.subcommand]
    return handler(cfg)


def _emit(cfg: RunConfig, doc=None, rows=None, header=None) -> int:
    """Serialize one document or a row stream, deterministically."""
    out = io.StringIO()
    if rows is not None:
        if cfg.fmt == "csv":
            writer = csv.writer(out, lineterminator="\n")
            if header:
                writer.writerow(header)
            for row in rows:
                writer.writerow(row if not isinstance(row, dict) else list(row.values()))
        else:
            for row in rows:
                if not isinstance(row, dict) and header:
                    row = dict(zip(header, row))
                out.write(json.dumps(row, separators=(",", ":")) + "\n")
    else:
        out.write(json.dumps(doc, separators=(",", ":")) + "\n")
    text = out.getvalue()
    if cfg.output:
        try:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"usage error: cannot write {cfg.output}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cf(cfg: RunConfig) -> int:
    ctx = field_context(cfg.args.d)
    exp = expand_omega(ctx)
    eps = fundamental_unit(ctx)
    residuals_ok = all(quotient_norm_residual(exp, n).holds for n in range(exp.l))
    return _emit(cfg, doc={
        "d": ctx.d,
        "a0": exp.a0,
        "period": exp.l,
        "quotients": list(exp.periodic),
        "epsilon": {"a": eps.a, "b": eps.b},
        "norm_epsilon": eps.norm(),
        "epsilon_text": format_quadint(eps),
        "residual_bound_ok": residuals_ok,
    })


def _cmd_unit(cfg: RunConfig) -> int:
    ctx = field_context(cfg.args.d)
    eps = fundamental_unit(ctx)
    return _emit(cfg, doc={
        "d": ctx.d,
        "epsilon": {"a": eps.a, "b": eps.b},
        "epsilon_text": format_quadint(eps),
        "epsilon_decimal": decimal_approx(eps, cfg.precision),
        "norm": eps.norm(),
        "regulator": regulator(ctx),
    })


def _cmd_ideals(cfg: RunConfig) -> int:
    ctx = field_context(cfg.args.d)
    mu = cfg.args.mu
    rows = []
    for basis in norm_ideal_candidates(ctx, mu):
        alpha = alpha_of_ideal(basis)
        rows.append({
            "a": basis.a,
            "b": basis.b,
            "c": basis.c,
            "alpha": {"P": alpha.P, "Q": alpha.Q},
            "reduced": is_reduced_ideal(basis),
            "hypothesis_met": mu_below_omega(ctx, mu),
        })
    return _emit(cfg, rows=rows)


def _cmd_progression(cfg: RunConfig) -> int:
    ns = cfg.args
    pair = IndexPair(ns.mu, ns.j, ns.y, ns.x)
    n0, modulus = solve_n0(pair)
    prog = build_progression(pair, ns.scan_limit)
    flags = squarefree_flags(prog, ns.k_max) if ns.k_max > 0 else bytearray()
    return _emit(cfg, doc={
        "mu": ns.mu, "j": ns.j, "y": ns.y, "x": ns.x,
        "n0": n0, "modulus": modulus,
        "t": prog.t, "s": prog.s,
        "exceptions": list(prog.exceptions),
        "elements": [prog.element(k) for k in range(ns.k_max)],
        "squarefree_flags": [bool(b) for b in flags],
    })


def _cmd_pairs(cfg: RunConfig) -> int:
    ns = cfg.args
    rows = [{"y": p.y, "x": p.x} for p in index_pairs(ns.mu, ns.j, ns.y_max)]
    return _emit(cfg, rows=rows, header=("y", "x"))


def _cmd_density(cfg: RunConfig) -> int:
    ns = cfg.args
    pair = IndexPair(ns.mu, ns.j, ns.y, ns.x)
    prog = build_progression(pair)
    pred = predicted_density(pair, cfg.cutoff)
    emp = empirical_density(prog, ns.k_max)
    row = (f"mu={ns.mu};j={ns.j};y={ns.y};x={ns.x}",
           f"{pred.value:.6f}", f"{float(emp):.6f}", ns.k_max, cfg.cutoff)
    return _emit(cfg, rows=[row], header=("pair", "predicted", "empirical", "k_max", "cutoff"))


def _cmd_coverage(cfg: RunConfig) -> int:
    ns = cfg.args
    report = coverage_report(ns.mu, ns.t_max, ns.y_max, ns.k_max)
    rows = [{
        "d": r.d, "first_trace": r.first_trace, "status": r.status,
        "j": r.j, "y": r.y, "x": r.x, "k": r.k,
    } for r in report.rows]
    if cfg.fmt == "csv":
        rows = [(r["d"], r["first_trace"], r["status"], r["j"], r["y"], r["x"], r["k"])
                for r in rows]
        return _emit(cfg, rows=rows, header=("d", "first_trace", "status", "j", "y", "x", "k"))
    return _emit(cfg, rows=rows)


def _cmd_hensel(cfg: RunConfig) -> int:
    ns = cfg.args
    solvable = hensel_quadratic(ns.a2, ns.a1, ns.a0, ns.p, ns.m)
    return _emit(cfg, doc={
        "a2": ns.a2, "a1": ns.a1, "a0": ns.a0, "p": ns.p, "m": ns.m,
        "solvable": solvable,
    })


def _bound_chunk(args) -> list:
    mu, lo, hi, budget = args
    return _bound_rows(mu, lo, hi, budget)


def _cmd_survey(cfg: RunConfig) -> int:
    ns = cfg.args
    if ns.kind == "e-mu":
        rep = E_mu(ns.mu, ns.limit)
        rows = [(e.trace, e.signed_norm, e.d, e.sqrt_coeff, f"{e.value:.9f}") for e in rep.entries]
        return _emit(cfg, rows=rows, header=("trace", "signed_norm", "d", "sqrt_coeff", "value"))
    if ns.kind == "f-mu":
        rep = f_mu(ns.mu, ns.limit)
        return _emit(cfg, doc={
            "mu": rep.mu, "N": rep.n_bound, "count": rep.count,
            "ratio": rep.ratio, "liminf_bound": rep.liminf_bound,
        })
    if ns.kind == "pell":
        rows = [(d,) for d in negative_pell(ns.limit, route="progression")]
        return _emit(cfg, rows=rows, header=("d",))
    # bound sweep, optionally sharded over trace ranges (merge order is fixed:
    # chunks ascend, rows inside each chunk ascend, so parallel == serial).
    # The cost of a trace grows with T, so each worker gets several small
    # contiguous chunks from pool.map rather than one large one.
    if cfg.jobs > 1:
        chunks = _shard(2, ns.limit, cfg.jobs * SHARDS_PER_JOB)
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            parts = list(pool.map(_bound_chunk, [(ns.mu, lo, hi, cfg.factor_budget) for lo, hi in chunks]))
        rows = [r for part in parts for r in part]
        report = assemble_bound_report(ns.mu, ns.limit, ns.probe_constant, rows)
    else:
        report = theorem_bound_sweep(ns.mu, ns.limit, ns.probe_constant, cfg.factor_budget)
    data_rows = [(r.trace, r.d, r.D, f"{r.log_eps:.9f}", f"{r.residual:.9f}") for r in report.rows]
    if cfg.fmt == "csv":
        return _emit(cfg, rows=data_rows, header=("trace", "d", "D", "log_eps", "residual"))
    return _emit(cfg, doc={
        "mu": report.mu,
        "t_max": report.t_max,
        "count": len(report.rows),
        "min_residual": report.min_residual,
        "percentiles": [list(p) for p in report.percentiles],
        "violations_below_probe": report.violation_count,
        "probe_constant": report.probe_constant,
        "decile_means": list(report.decile_means),
        "decile_rank_correlation": rank_correlation(report.decile_means),
        "rows": [list(r) for r in data_rows],
    })


def _shard(lo: int, hi: int, jobs: int) -> list[tuple[int, int]]:
    span = hi - lo + 1
    if span <= 0:
        return []
    size = (span + jobs - 1) // jobs
    return [(lo + i * size, min(hi, lo + (i + 1) * size - 1))
            for i in range(jobs) if lo + i * size <= hi]


def _cmd_verify(cfg: RunConfig) -> int:
    import subprocess

    for base in (os.getcwd(), os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))):
        candidate = os.path.join(base, "tests", "test_acceptance.py")
        if os.path.exists(candidate):
            return subprocess.call([sys.executable, "-m", "pytest", candidate, "-v", "-s"])
    print("usage error: tests/test_acceptance.py not found from cwd or package root", file=sys.stderr)
    return 2


_HANDLERS = {
    "cf": _cmd_cf,
    "unit": _cmd_unit,
    "ideals": _cmd_ideals,
    "progression": _cmd_progression,
    "pairs": _cmd_pairs,
    "density": _cmd_density,
    "coverage": _cmd_coverage,
    "hensel": _cmd_hensel,
    "survey": _cmd_survey,
    "verify": _cmd_verify,
}


if __name__ == "__main__":
    sys.exit(main())
