"""Command-line entry point.

Output is byte-deterministic for a fixed configuration: single-instance
queries emit one JSON document, sweeps emit JSON Lines or CSV with a fixed
row order, and nothing timestamped ever enters a data row.  Exit status is
0 on success, 1 when a budget is exhausted, 2 on usage errors and 3 on an
internal fault (any other exception, reported as one ``internal error:``
line on stderr).  A reader that closes stdout early is not a fault: the
command stops writing and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from functools import lru_cache
from itertools import islice

from .arith import DEFAULT_TRIAL_BOUND, BudgetError, factor_budget
from .contfrac import expand_omega, fundamental_unit, regulator, residuals_hold
from .ideals import alpha_of_ideal, is_reduced_ideal, mu_below_omega, norm_ideal_candidates
from .progressions import (
    IndexPair,
    build_progression,
    coverage_report,
    empirical_density,
    hensel_quadratic,
    index_pairs,
    predicted_density,
    squarefree_flags,
)
from .quadfield import decimal_approx, field_context, format_quadint
from .survey import e_mu_stream, f_mu, negative_pell, rank_correlation, theorem_bound_sweep


ENV_TRIAL_BOUND = "QUADUNIT_FACTOR_BUDGET"


@lru_cache(maxsize=1)  # one parser per process: building one costs more than most queries
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadunit",
        description="Exact continued fractions, units, reduced ideals and "
        "quadratic progressions for real quadratic fields.",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", help="write data rows to this path instead of stdout")
    parser.add_argument("--jobs", type=int, default=1,
                        help="processes for survey bound and survey pell, this one and N - 1 "
                        "forked workers (at most the CPU count); the other sweeps run serially")
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
    p.add_argument("--mu", type=int, help="survey e-mu, f-mu and bound only (default 2)")
    p.add_argument("--limit", type=int, default=100)
    p.add_argument("--probe-constant", type=float, help="survey bound only (default 0.0)")

    sub.add_parser("verify", help="run the acceptance suite (pytest)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.precision < 64:
        parser.error("--precision must be >= 64")
    if ns.factor_budget is not None and ns.factor_budget < 2:
        parser.error("--factor-budget must be >= 2")
    if ns.jobs < 1:
        parser.error("--jobs must be >= 1")
    ns.jobs = min(ns.jobs, os.cpu_count() or 1)
    set_digits = getattr(sys, "set_int_max_str_digits", None)  # CPython 3.10.7+
    old_digits = sys.get_int_max_str_digits() if set_digits else None
    try:
        if set_digits:
            set_digits(0)  # this call only: a unit's coefficients can run to thousands of digits
        with factor_budget(_resolve_budget(ns.factor_budget)):  # this call only
            return _HANDLERS[ns.subcommand](ns)
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
        if set_digits:
            set_digits(old_digits)


def _resolve_budget(flag: int | None) -> int:
    """The trial bound: the flag, else $QUADUNIT_FACTOR_BUDGET, else the default."""
    if flag is not None:
        return flag
    env = os.environ.get(ENV_TRIAL_BOUND)
    bound = int(env) if env else DEFAULT_TRIAL_BOUND
    if bound < 2:
        raise ValueError(f"{ENV_TRIAL_BOUND} must be >= 2, got {bound}")
    return bound


def _emit(ns: argparse.Namespace, doc=None, header=(), rows=None) -> int:
    """Serialize one document or a (header, rows) table, deterministically.

    CSV tables start with the header row; JSON tables are one object per
    row, keyed by the header.  ``rows`` may be any iterable, a generator
    included: the header and then each row go straight to stdout, or to
    the ``--output`` temp file, as they are made, so no whole output text
    is ever held.  An error raised after the first row can therefore leave
    a partial table on stdout, but never a partial ``--output`` file: the
    temp file is removed and the target keeps its old bytes (a device or
    pipe at ``--output`` is written in place, see :func:`_write_atomic`).
    """
    def write(fh) -> None:
        if rows is None:
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        elif ns.format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        else:
            for row in rows:
                fh.write(json.dumps(dict(zip(header, row)), separators=(",", ":")) + "\n")

    if ns.output:
        try:
            _write_atomic(ns.output, write)
        except OSError as exc:
            print(f"usage error: cannot write {ns.output}: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout (``| head``), which is not a fault;
            # fd 1 goes to the null device so the final flush cannot raise
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    return 0


def _write_atomic(path: str, write) -> None:
    """Call ``write(fh)`` on a temp file beside path, then rename it over
    path, so a failed write leaves an existing file at path untouched and
    no temp file behind.  A symlink at path is written through, not
    replaced.  A device, pipe or directory at path is opened in place: a
    rename would replace a device such as /dev/null."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            write(fh)
        return
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        with open(tmp, "x") as fh:
            write(fh)
        os.replace(tmp, target)
    except BaseException as exc:  # any failure, also one raised by a row
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, path) from exc  # name the target, not the temp file
        raise


def _cmd_cf(ns: argparse.Namespace) -> int:
    ctx = field_context(ns.d)
    exp = expand_omega(ctx)
    eps = fundamental_unit(ctx)
    return _emit(ns, doc={
        "d": ctx.d,
        "a0": exp.a0,
        "period": exp.l,
        # a_1 .. a_{l-1} from the period, then a_l = 2 a_0 - t
        "quotients": [a for a, _, _, _ in islice(exp.period(), 1, None)] + [2 * exp.a0 - ctx.omega_trace],
        "epsilon": {"a": eps.a, "b": eps.b},
        "norm_epsilon": eps.norm(),
        "epsilon_text": format_quadint(eps),
        "residual_bound_ok": residuals_hold(exp),
    })


def _cmd_unit(ns: argparse.Namespace) -> int:
    ctx = field_context(ns.d)
    eps = fundamental_unit(ctx)
    return _emit(ns, doc={
        "d": ctx.d,
        "epsilon": {"a": eps.a, "b": eps.b},
        "epsilon_text": format_quadint(eps),
        "epsilon_decimal": decimal_approx(eps, ns.precision),
        "norm": eps.norm(),
        "regulator": regulator(ctx),
    })


def _cmd_ideals(ns: argparse.Namespace) -> int:
    ctx = field_context(ns.d)
    rows = []
    for basis in norm_ideal_candidates(ctx, ns.mu):
        alpha = alpha_of_ideal(basis)
        rows.append((basis.a, basis.b, basis.c, {"P": alpha.P, "Q": alpha.Q},
                     is_reduced_ideal(basis), mu_below_omega(ctx, ns.mu)))
    return _emit(ns, header=("a", "b", "c", "alpha", "reduced", "hypothesis_met"), rows=rows)


def _cmd_progression(ns: argparse.Namespace) -> int:
    pair = IndexPair(ns.mu, ns.j, ns.y, ns.x)
    if ns.k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {ns.k_max}")
    prog = build_progression(pair, ns.scan_limit)
    flags = squarefree_flags(prog, ns.k_max) if ns.k_max > 0 else bytearray()
    return _emit(ns, doc={
        "mu": ns.mu, "j": ns.j, "y": ns.y, "x": ns.x,
        "n0": prog.n0, "modulus": prog.modulus,
        "t": prog.t, "s": prog.s,
        "exceptions": list(prog.exceptions),
        "elements": [prog.element(k) for k in range(ns.k_max)],
        "squarefree_flags": [bool(b) for b in flags],
    })


def _cmd_pairs(ns: argparse.Namespace) -> int:
    rows = [(p.y, p.x) for p in index_pairs(ns.mu, ns.j, ns.y_max)]
    return _emit(ns, header=("y", "x"), rows=rows)


def _cmd_density(ns: argparse.Namespace) -> int:
    pair = IndexPair(ns.mu, ns.j, ns.y, ns.x)
    prog = build_progression(pair)
    pred = predicted_density(pair, ns.cutoff)
    emp = empirical_density(prog, ns.k_max)
    row = (f"mu={ns.mu};j={ns.j};y={ns.y};x={ns.x}",
           f"{pred.value:.6f}", f"{float(emp):.6f}", ns.k_max, ns.cutoff)
    return _emit(ns, header=("pair", "predicted", "empirical", "k_max", "cutoff"), rows=[row])


def _cmd_coverage(ns: argparse.Namespace) -> int:
    report = coverage_report(ns.mu, ns.t_max, ns.y_max, ns.k_max)
    rows = [(r.d, r.first_trace, r.status, r.j, r.y, r.x, r.k) for r in report.rows]
    return _emit(ns, header=("d", "first_trace", "status", "j", "y", "x", "k"), rows=rows)


def _cmd_hensel(ns: argparse.Namespace) -> int:
    solvable = hensel_quadratic(ns.a2, ns.a1, ns.a0, ns.p, ns.m)
    return _emit(ns, doc={
        "a2": ns.a2, "a1": ns.a1, "a0": ns.a0, "p": ns.p, "m": ns.m,
        "solvable": solvable,
    })


def _cmd_survey(ns: argparse.Namespace) -> int:
    if ns.kind != "bound" and ns.probe_constant is not None:
        raise ValueError(f"--probe-constant applies only to survey bound, not {ns.kind}")
    if ns.kind == "pell" and ns.mu is not None:
        raise ValueError("--mu applies only to survey e-mu, f-mu and bound, not pell")
    mu = 2 if ns.mu is None else ns.mu
    if ns.kind == "e-mu":
        entries = e_mu_stream(mu, ns.limit)  # checks mu before the header is written
        rows = ((e.trace, e.signed_norm, e.d, e.sqrt_coeff, f"{e.value:.9f}") for e in entries)
        return _emit(ns, header=("trace", "signed_norm", "d", "sqrt_coeff", "value"), rows=rows)
    if ns.kind == "f-mu":
        rep = f_mu(mu, ns.limit)
        return _emit(ns, doc={
            "mu": rep.mu, "N": rep.n_bound, "count": rep.count,
            "ratio": rep.ratio, "liminf_bound": rep.liminf_bound,
        })
    if ns.kind == "pell":
        rows = [(d,) for d in negative_pell(ns.limit, route="progression", jobs=ns.jobs)]
        return _emit(ns, header=("d",), rows=rows)
    probe = 0.0 if ns.probe_constant is None else ns.probe_constant
    report = theorem_bound_sweep(mu, ns.limit, probe, jobs=ns.jobs)
    data_rows = ((r.trace, r.d, r.D, f"{r.log_eps:.9f}", f"{r.residual:.9f}") for r in report.rows)
    if ns.format == "csv":
        return _emit(ns, header=("trace", "d", "D", "log_eps", "residual"), rows=data_rows)
    return _emit(ns, doc={
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


def _cmd_verify(ns: argparse.Namespace) -> int:
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
