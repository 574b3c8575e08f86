"""Cross-field surveys: minimal elements, their counting functions,
split/ramified unit identities, regulator lower-bound residuals, and
negative Pell solvability.

A quadratic integer is *minimal* when it is the least element above 1
among its associates.  Where they are all convergents of w[d] (|norm| mu
below w[d] - 1, or below sqrt(D)/2 and coprime to D), the per-field route
reads them off the xi_n stream; the cross-field route scans traces m and
both signed norms, reducing each discriminant m^2 -+ 4 mu to its
square-free kernel.  The two routes are independent, so they cross-check
each other: the test suite counts E_mu field by field from the first, and
its per-field oracle scans associate classes for mu outside that range.
E_mu counts only the larger root (m + f sqrt d)/2, f > 0, of each
X^2 - mX +- mu, so a minimal element with f < 0, such as 3 - sqrt 2 of
norm 7, is not counted; theorem_upper_ok is the plain count < 2 x_bound.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple

from .arith import (
    factor_budget,
    factorize,
    is_prime,
    is_square,
    is_squarefree,
    isqrt,
    jacobi,
    squarefree_integers_upto,
    trial_bound,
)
from .contfrac import convergent_xi, convergents, expand_omega, fundamental_unit, period_is_odd, regulator
from .ideals import mu_below_omega, principal_basis
from .progressions import pair_of, trace_kernels, unit_progression
from .quadfield import FieldContext, QuadInt, field_context, is_minimal, sign_plus_sqrt


def minimal_elements(ctx: FieldContext, mu: int) -> list[QuadInt]:
    """The minimal elements of |norm| mu, ascending: the xi_n of one period
    of w[d] with nu_n = mu.  Defined only where those are all of them
    (:func:`_convergent_route_valid`); any other mu raises ValueError.

    xi_n = p_n - q_n conj(w[d]) with -conj(w[d]) > 0, q_n >= 1 non-decreasing
    and p_n strictly rising (a_0 >= 1), so 1 < xi_0 < ... < xi_{l-1} = eps_d:
    period order is value order, and each xi_n is minimal.  An xi_n that is
    not raises AssertionError, as an invariant.
    """
    if mu < 1 or not is_squarefree(mu):
        raise ValueError(f"mu must be a positive square-free integer, got {mu}")
    if not _convergent_route_valid(ctx, mu):
        raise ValueError(f"mu={mu} is outside the convergent range of d={ctx.d}: "
                         "need mu < w[d] - 1, or mu < sqrt(D)/2 with gcd(mu, D) = 1")
    exp = expand_omega(ctx)
    found = [convergent_xi(ctx, p, q) for (_, _, _, nu), (p, q) in zip(exp.period(), convergents(exp)) if nu == mu]
    eps = fundamental_unit(ctx)
    if not all(is_minimal(xi, eps) for xi in found):
        raise AssertionError(f"an xi_n of norm +-{mu} in d={ctx.d} is not minimal")
    return found


def _convergent_route_valid(ctx: FieldContext, mu: int) -> bool:
    """True when minimal elements of |norm| mu all come from convergents.

    Holds for mu < w[d] - 1, and also for mu < sqrt(D)/2 when mu is coprime
    to D: then every norm-mu ideal is coprime to its conjugate, hence
    reduced, and the reduced principal ideals are exactly the (xi_n).
    """
    return mu_below_omega(ctx, mu + 1) or (  # mu < w[d] - 1
        _below_half_sqrt_disc(ctx, mu) and math.gcd(mu, ctx.discriminant) == 1)


def _below_half_sqrt_disc(ctx: FieldContext, mu: int) -> bool:
    # mu < sqrt(D)/2, exactly
    return 4 * mu * mu < ctx.discriminant


# ---------------------------------------------------------------------------
# E_mu: counting minimal elements across all fields


class EMuEntry(NamedTuple):
    """xi = (trace + sqrt_coeff sqrt(d))/2 of E_mu.  Each kept candidate of
    :func:`_e_mu_trace` is built once, as its entry, and the merge orders
    entries by exact value (:func:`_merge_by_value`); the float value is
    for reports and the merge's first test."""

    value: float
    trace: int
    signed_norm: int
    d: int
    sqrt_coeff: int


class EMuReport(NamedTuple):
    mu: int
    x_bound: Fraction
    entries: tuple[EMuEntry, ...]
    theorem_upper_ok: bool  # count < 2 * x_bound

    @property
    def count(self) -> int:
        return len(self.entries)

    def keys(self) -> set[tuple[int, int, int]]:
        return {(e.d, e.trace, e.signed_norm) for e in self.entries}


def E_mu(mu: int, x_bound) -> EMuReport:
    """Count minimal elements of absolute norm mu in (1, x_bound).

    Collects :func:`e_mu_stream`, which says how each candidate is found
    and decided; a caller that only reads the entries once should read the
    stream, which never holds them all.
    """
    x = Fraction(x_bound)
    entries = tuple(e_mu_stream(mu, x))
    return EMuReport(mu, x, entries, len(entries) < 2 * x)


def e_mu_stream(mu: int, x_bound) -> Iterator[EMuEntry]:
    """The entries of ``E_mu(mu, x_bound)``, in order, as an iterator.

    Scans traces and both signed norms, reading each discriminant's
    square-free kernel from :func:`trace_kernels`, and tests minimality
    on each candidate itself (:func:`_within_unit`), with no unit table.
    Each kept candidate is built once, as its entry.  Entries come in
    exact value order, merged from the two norms' trace-ascending scans:
    see :func:`_e_mu_trace`.  A bad mu or a negative bound raises
    ValueError here, before the first entry is asked for.
    """
    if mu < 1 or not is_squarefree(mu):
        raise ValueError(f"mu must be a positive square-free integer, got {mu}")
    x = Fraction(x_bound)
    if x < 0:
        raise ValueError(f"bound must be >= 0, got {x_bound}")
    return _e_mu_trace(mu, x)


def _within_unit(m: int, f: int, d: int, mu: int) -> bool:
    """xi <= eps_d for xi = (m + f sqrt d)/2 > 1 of norm sigma = +-mu,
    mu square-free: decided in integers and at most one exact sign.

    Scan.  A unit eta = (u + g sqrt d)/2 > 1 has u^2 = g^2 d +- 4, so
    eta >= g sqrt(d) - 1.  Now xi = f sqrt(d) + sigma/xi: for sigma = -mu,
    xi < f sqrt d, and for sigma = +mu, sqrt(d) <= xi <= f sqrt(d) +
    mu/sqrt(d).  Either way every unit with g > f + ceil(mu/d) lies above
    xi, as (1 + ceil(mu/d)) d - sqrt(d) > mu.  Each square
    u^2 = g^2 d +- 4 gives a unit > 1; eps_d has the least g and shares it
    only at d = 5, g = 1 with its square (3 + sqrt 5)/2 of norm +1.  So
    the scan's first hit, g = 1 .. f + ceil(mu/d) ascending and -4 before
    +4, is eps_d, and xi <= eps_d is the sign of (m - u) + (f - g) sqrt d.
    No hit puts eps_d above xi.  (g^2 d - 4 < 0 at g = 1 for d = 2 and 3,
    where is_square says no.)

    Shortcut.  For d > mu (the scan stops at g = f + 1) and
    m > 2(mu (f + 1) + f^2) + 1, xi is kept untested.  With
    m^2 = f^2 d + 4 sigma and u^2 = g^2 d + 4 s, (f u)^2 = (g m)^2 + delta,
    delta = 4 s f^2 - 4 sigma g^2 and |delta| <= 4 g^2 mu + 4 f^2.  That
    bound minus 2 g m - 1 is convex in g and negative at g = 1 and f + 1,
    so over the whole scan (f u)^2 lies strictly between (g m - 1)^2 and
    (g m + 1)^2 and can only be (g m)^2: delta = 0, s f^2 = sigma g^2.  A
    square-free mu >= 2 rules that out, so no g hits; for mu = 1 the one
    hit is g = f, u = m, xi itself, which is then eps_d.
    """
    if d > mu and m > 2 * (mu * (f + 1) + f * f) + 1:
        return True
    for g in range(1, f + 1 - (-mu // d)):
        for n in (g * g * d - 4, g * g * d + 4):  # norm -1 first
            if is_square(n):
                return sign_plus_sqrt(m - isqrt(n), f - g, d) <= 0
    return True


def _below_bound(m: int, f: int, d: int, x: Fraction) -> bool:
    # (m + f sqrt d)/2 < x
    return sign_plus_sqrt(m * x.denominator - 2 * x.numerator, f * x.denominator, d) < 0


def _e_mu_trace(mu: int, x: Fraction) -> Iterator[EMuEntry]:
    """The candidates xi = (m + f sqrt d)/2 of norm sigma = +-mu with
    1 < xi < x and xi <= eps_d, sorted by xi.

    Each of the three conditions is decided in integers where integers
    can decide it, and by the exact sign of a + b sqrt(d) only where they
    cannot.  The conjugate of xi is sigma/xi, so xi = m - sigma/xi, and
    once xi > 1 it lies in (m - mu, m + mu).

    - xi > 1: f sqrt(d) > 1 (d >= 2, f >= 1), so m >= 1 gives
      m + f sqrt(d) > 2.  Only m <= 0 takes the exact sign.
    - xi < x: xi < m + mu, so m + mu <= x settles it.  Only traces
      m > floor(x) - mu take the exact sign.
    - xi <= eps_d: :func:`_within_unit` keeps most candidates by an
      integer bound and scans the rest for eps_d.  Only a scan that finds
      eps_d takes the exact sign, one.

    Raw signs on (m, f, d), not qi_compare: this runs for every candidate
    of the trace scan, and a QuadInt per candidate would slow the scan.

    Order.  Within one norm xi = (m + sqrt(m^2 - 4 sigma))/2 rises with m:
    its derivative (1 + m/sqrt(m^2 - 4 sigma))/2 is positive for every m
    when sigma = -mu, and for sigma = +mu the scan yields only
    m > 2 sqrt(mu).  trace_kernels yields m ascending, so each norm's
    kept candidates come in value order, and merging the two streams
    sorts them all.  The merge (:func:`_merge_by_value`) compares only
    heads of different norms, and exactly: by their floats when they lie
    further apart than the floats' error, and otherwise by the sign of
    the difference, which two squarings decide in integers.  The float
    (m + f*sqrt(d))/2, with d, f and m rounded to floats, is off from xi
    by at most 2^-53 (4.5 xi + 2.25 |m|) < 2^-50 (xi + |m|), within the
    merge's slack.  So the entries come in exact value order for every
    mu and x; no two share a value (:func:`_below`), and where the floats
    can tell two values apart that is the order of (value, trace,
    signed_norm).  At one trace m the two norms' roots lie about 2 mu/m
    apart, against a float error near 2^-50 (xi + |m|), so the exact
    sign is needed only at large traces or a large mu.
    """
    if x <= 1:
        return
    m_max = int(x) + mu + 2
    m_below = int(x) - mu  # m <= m_below: xi < m + mu <= x

    def kept(sigma, scan):
        for m, d, f in scan:
            if m < 1 and sign_plus_sqrt(m - 2, f, d) <= 0:
                continue  # not above 1
            if m > m_below and not _below_bound(m, f, d, x):
                continue
            if _within_unit(m, f, d, mu):
                yield EMuEntry((m + f * math.sqrt(d)) / 2.0, m, sigma, d, f)

    # norm -mu admits elements > 1 with slightly negative trace
    # (down to -(mu - 2): (m + sqrt(m^2 + 4 mu))/2 > 1 forces |m| < mu - 1)
    yield from _merge_by_value(*[kept(sigma, trace_kernels(sigma, m_min, m_max))
                                 for sigma, m_min in ((mu, 0), (-mu, -mu))], mu)


# The floats of two entries of norms +-mu are off from their exact values
# by less than _VALUE_SLACK * (value_1 + value_2 + mu) together: see
# _e_mu_trace, with |m| < xi + mu.
_VALUE_SLACK = 2.0 ** -48


def _merge_by_value(a: Iterator[EMuEntry], b: Iterator[EMuEntry], mu: int) -> Iterator[EMuEntry]:
    """The entries of two value-ascending streams, of norms mu and -mu,
    merged by exact value.  Heads whose floats lie further apart than the
    floats' error go out by the floats; closer heads by :func:`_below`."""
    x, y = next(a, None), next(b, None)
    while x is not None and y is not None:
        gap, slack = y.value - x.value, _VALUE_SLACK * (x.value + y.value + mu)
        if gap > slack or (gap >= -slack and _below(x, y)):
            yield x
            x = next(a, None)
        else:
            yield y
            y = next(b, None)
    for head, rest in ((x, a), (y, b)):
        if head is not None:
            yield head
            yield from rest


def _below(x: EMuEntry, y: EMuEntry) -> bool:
    """xi_x < xi_y exactly: the sign of (m_x - m_y) + f_x sqrt(d_x) -
    f_y sqrt(d_y).  If L = (m_x - m_y) + f_x sqrt(d_x) > 0, that is the
    sign of L^2 - f_y^2 d_y; else it is negative, as f_y sqrt(d_y) > 0.
    Entries of different norms never have equal values: 1, sqrt(d_x) and
    sqrt(d_y) are independent over Q when d_x != d_y, and d_x = d_y would
    force equal traces and f, hence equal norms."""
    a, f = x.trace - y.trace, x.sqrt_coeff
    if sign_plus_sqrt(a, f, x.d) <= 0:
        return True
    return sign_plus_sqrt(a * a + f * f * x.d - y.sqrt_coeff ** 2 * y.d, 2 * a * f, x.d) < 0


# ---------------------------------------------------------------------------
# f_mu: counting distinct fields


class FMuReport(NamedTuple):
    mu: int
    n_bound: int
    count: int
    ratio: float
    liminf_bound: float  # 2**-omega(mu)
    kernels: tuple[int, ...]


def f_mu(mu: int, n_bound: int) -> FMuReport:
    """Distinct square-free kernels d > 1 of T^2 - 4 mu over 1 < T < n_bound,
    read from :func:`trace_kernels`.  mu = 0 or n_bound < 0 raises ValueError."""
    if mu == 0:
        raise ValueError(f"mu must be nonzero, got {mu}")
    if n_bound < 0:
        raise ValueError(f"bound must be >= 0, got {n_bound}")
    liminf = 2.0 ** -factorize(abs(mu)).omega()
    if n_bound <= 2:
        return FMuReport(mu, n_bound, 0, 0.0, liminf, ())
    # one sorted list, repeats dropped as it is read, peaks at about half
    # the memory of a set of the kernels
    found = sorted(d for _, d, _ in trace_kernels(mu, 2, n_bound - 1))
    kernels = tuple(d for d, _ in groupby(found))
    return FMuReport(mu, n_bound, len(kernels), len(kernels) / n_bound, liminf, kernels)


# ---------------------------------------------------------------------------
# split / ramified identities


class IdentityVerdict(NamedTuple):
    d: int
    p: int
    status: str  # "ok" | "hypothesis_not_met"
    reason: str
    holds: bool | None
    xi: QuadInt | None
    xi_tilde: QuadInt | None


def split_identity_check(d: int, p: int) -> IdentityVerdict:
    """For split principal p < sqrt(D)/2: the two minimal generators of the
    conjugate prime ideals multiply to p * eps_d, exactly.  p not prime
    raises ValueError."""
    _require_prime(p)
    ctx = field_context(d)
    if not _below_half_sqrt_disc(ctx, p):
        return IdentityVerdict(d, p, "hypothesis_not_met", "p >= sqrt(D)/2", None, None, None)
    if not _splits(ctx, p):
        return IdentityVerdict(d, p, "hypothesis_not_met", "p inert or ramified", None, None, None)
    found = minimal_elements(ctx, p)
    if not found:
        return IdentityVerdict(d, p, "hypothesis_not_met", "prime ideals not principal", None, None, None)
    if len(found) != 2:
        raise AssertionError(f"split principal p={p}, d={d}: expected 0 or 2 minimal elements")
    xi, xit = found
    if principal_basis(xi) == principal_basis(xit):
        raise AssertionError(f"minimal elements of split p={p}, d={d} generate one ideal")
    if principal_basis(xi.conj()) != principal_basis(xit):
        raise AssertionError(f"minimal elements of split p={p}, d={d} not conjugate")
    eps = fundamental_unit(ctx)
    holds = xi * xit == eps.scale(p)
    return IdentityVerdict(d, p, "ok", "", holds, xi, xit)


def ramified_identity_check(d: int, p: int) -> IdentityVerdict:
    """For ramified p with sqrt(d) - 1 > p and d = 2, 3 (mod 4): the square
    of the minimal norm +-p element equals p * eps_d; p not prime raises
    ValueError."""
    _require_prime(p)
    ctx = field_context(d)
    if d % 4 == 1:
        return IdentityVerdict(d, p, "hypothesis_not_met", "d = 1 (mod 4)", None, None, None)
    if not mu_below_omega(ctx, p + 1):
        return IdentityVerdict(d, p, "hypothesis_not_met", "sqrt(d) - 1 <= p", None, None, None)
    if ctx.discriminant % p:
        return IdentityVerdict(d, p, "hypothesis_not_met", "p unramified", None, None, None)
    found = minimal_elements(ctx, p)
    if not found:
        return IdentityVerdict(d, p, "hypothesis_not_met", "no norm +-p element", None, None, None)
    if len(found) != 1:
        raise AssertionError(f"ramified p={p}, d={d}: expected one minimal element")
    xi = found[0]
    holds = (xi * xi).divide_exact(p) == fundamental_unit(ctx)
    return IdentityVerdict(d, p, "ok", "", holds, xi, xi)


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _splits(ctx: FieldContext, p: int) -> bool:
    if p == 2:
        return ctx.d % 8 == 1
    return ctx.d % p != 0 and jacobi(ctx.d % p, p) == 1


# ---------------------------------------------------------------------------
# regulator lower-bound residuals


class BoundRow(NamedTuple):
    trace: int
    d: int
    D: int
    log_eps: float
    residual: float


class BoundReport(NamedTuple):
    mu: int
    t_max: int
    probe_constant: float
    rows: tuple[BoundRow, ...]
    min_residual: float
    percentiles: tuple[tuple[int, float], ...]
    violation_count: int  # residuals below -probe_constant
    decile_means: tuple[float, ...]  # mean residual per D-decile, D ascending


# Sweep chunks per process (bound and pell sweeps): enough that the
# costlier high-trace or high-radicand chunks spread evenly over them.
SHARDS_PER_JOB = 8


def theorem_bound_sweep(
    mu: int,
    t_max: int,
    probe_constant: float = 0.0,
    t_min: int = 2,
    jobs: int = 1,
) -> BoundReport:
    """Residuals of log(eps_d) against the quadratic-in-log lower bound.

    For each admissible trace T the radicand is the square-free kernel of
    T^2 - 4 mu, read from :func:`trace_kernels`, and the residual is

        r(T) = log eps_d - [ (log(sqrt(D)/2))^2 / log mu
                             - (3 - 2 log 2 / log mu) log(sqrt(D)/2) ].

    The bound's absolute constant is unknown, so only the empirical lower
    envelope is reported; regulators come from the half-period continued
    fraction walk (certified well below 1e-9 relative error).

    The traces are swept by :func:`_sweep`, so the report does not depend
    on jobs.  A NaN or infinite probe constant (it would print as non-JSON
    and make the violation count meaningless), a bad mu and jobs < 1 raise
    ValueError before any chunk runs.
    """
    if not math.isfinite(probe_constant):
        raise ValueError(f"probe_constant must be finite, got {probe_constant}")
    if mu < 2 or not is_squarefree(mu):
        raise ValueError(f"mu must be a square-free integer >= 2, got {mu}")
    rows = _sweep(_bound_rows, (mu,), t_min, t_max, jobs)
    if not rows:
        raise ValueError(f"no admissible traces at or below {t_max}")
    residuals = sorted(r.residual for r in rows)
    n = len(residuals)
    percentiles = tuple(
        (q, residuals[min(n - 1, (q * n) // 100)]) for q in (0, 5, 25, 50, 75, 95)
    )
    by_disc = sorted(rows, key=lambda r: (r.D, r.trace))
    deciles = []
    for i in range(10):
        chunk = by_disc[i * n // 10 : (i + 1) * n // 10]
        if chunk:
            deciles.append(sum(r.residual for r in chunk) / len(chunk))
    return BoundReport(
        mu,
        t_max,
        probe_constant,
        tuple(rows),
        residuals[0],
        percentiles,
        sum(1 for r in residuals if r < -probe_constant),
        tuple(deciles),
    )


def _sweep(chunk, args: tuple, lo: int, hi: int, jobs: int) -> list:
    """``chunk(*args, a, b)`` over ``SHARDS_PER_JOB * jobs`` contiguous
    ascending chunks [a, b] of [lo, hi], joined in chunk order.

    The chunks run one after another when jobs = 1, when there is at most
    one chunk, or where os.fork does not exist; otherwise jobs - 1 forked
    workers and the caller each run a share of them
    (:func:`_forked_parts`).  A chunk costs more the higher its values, so
    each process gets several small chunks rather than one large one.  The join does not depend on jobs, and every chunk runs
    under the trial bound in force for this call (:func:`_run_chunk`).  A
    failing sweep raises the error of its lowest failing chunk, as a
    serial run does.  jobs < 1 raises ValueError before any chunk runs.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    bound = trial_bound()
    size = max(1, -(-(hi - lo + 1) // (SHARDS_PER_JOB * jobs)))
    tasks = [(chunk, args, a, min(hi, a + size - 1), bound) for a in range(lo, hi + 1, size)]
    if jobs > 1 and len(tasks) > 1 and hasattr(os, "fork"):
        parts = _forked_parts(tasks, jobs)
    else:
        parts = map(_run_chunk, tasks)
    return [item for part in parts for item in part]


def _forked_parts(tasks: list, jobs: int) -> list:
    """The results of :func:`_run_chunk` on tasks, in task order.

    Share w is tasks[w::jobs].  The caller runs share 0; each other share
    runs in its own forked worker, which pickles (its results, its first
    failure) back over a pipe and ends in os._exit, so it never returns
    into the caller.  Every share stops at its first failing chunk, and
    the lowest failing chunk's error is raised, so the error is the serial
    run's.  A worker that ends without a result is a RuntimeError naming
    its chunks.  Every worker is reaped before this returns or raises; if
    the caller itself fails or is interrupted, the workers left are killed
    first.  Forking copies only the calling thread, so the caller must
    hold no lock another thread could own (the CLI runs one thread).
    """
    import pickle  # only a parallel sweep pays its import
    import signal

    shares = min(jobs, len(tasks))
    workers = []  # (share, pid, read end of its pipe), in share order
    reaped = set()
    try:
        for w in range(1, shares):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(rfd)
                    for _, _, fd in workers:
                        os.close(fd)
                    with open(wfd, "wb") as out:
                        pickle.dump(_run_share(tasks, w, shares), out)
                    code = 0
                finally:
                    os._exit(code)
            workers.append((w, pid, rfd))
            os.close(wfd)
        outcomes = [_run_share(tasks, 0, shares)]
        for w, pid, rfd in workers:
            with open(rfd, "rb", closefd=False) as fh:
                payload = fh.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if code or not payload:
                ranges = ", ".join(f"[{a}, {b}]" for _, _, a, b, _ in tasks[w::shares])
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"sweep worker for chunks {ranges} ended without a result ({how})")
            outcomes.append(pickle.loads(payload))
    finally:
        for _, pid, rfd in workers:
            os.close(rfd)
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    failures = [failure for _, failure in outcomes if failure]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    parts = [None] * len(tasks)
    for w, (done, _) in enumerate(outcomes):
        parts[w::shares] = done
    return parts


def _run_share(tasks: list, first: int, step: int) -> tuple:
    """Chunks tasks[first::step] in order, up to the first that raises:
    (their results, and (index, exception) of that chunk or None)."""
    parts = []
    for i in range(first, len(tasks), step):
        try:
            parts.append(_run_chunk(tasks[i]))
        except Exception as exc:  # sent to the caller, which raises the lowest
            return parts, (i, exc)
    return parts, None


def _run_chunk(task) -> list:
    """One chunk ``(chunk, args, a, b, bound)`` of a sweep:
    ``chunk(*args, a, b)`` under its trial bound."""
    chunk, args, a, b, bound = task
    with factor_budget(bound):
        return chunk(*args, a, b)


def _bound_rows(mu: int, t_min: int, t_max: int) -> list[BoundRow]:
    """Rows for traces in [t_min, t_max], ascending; mu is checked by the caller."""
    log_mu = math.log(mu)
    coeff = 3.0 - 2.0 * math.log(2) / log_mu
    rows = []
    for t, d, _ in trace_kernels(mu, t_min, t_max):
        ctx = field_context(d)
        reg = regulator(ctx)
        D = ctx.discriminant
        x = 0.5 * math.log(D) - math.log(2)
        rows.append(BoundRow(t, d, D, reg, reg - (x * x / log_mu - coeff * x)))
    return rows


def rank_correlation(values) -> float:
    """Spearman correlation of a sequence against its own index order."""
    vals = list(values)
    n = len(vals)
    if n < 2:
        return 0.0
    order = sorted(range(n), key=lambda i: vals[i])
    ranks = [0] * n
    for rank, i in enumerate(order):
        ranks[i] = rank
    num = sum((ranks[i] - (n - 1) / 2) * (i - (n - 1) / 2) for i in range(n))
    den = sum((i - (n - 1) / 2) ** 2 for i in range(n))
    return num / den


# ---------------------------------------------------------------------------
# negative Pell


def negative_pell(n_bound: int, route: str = "progression", jobs: int = 1) -> list[int]:
    """Square-free d <= n_bound whose fundamental unit has norm -1, ascending.

    route="cf": the period parity criterion (odd period of w[d]), read by
    :func:`period_is_odd` for every square-free d.
    route="progression": drops d with a prime factor p = 3 (mod 4), then
    reads the period parity of the rest and skips even l; only for odd l
    does it build the unit, raise AssertionError unless N(eps_d) = -1, and
    re-derive d as a member of the mu = -1 progression seeded by the
    unit's own index pair.  The drop is exact: N(eps_d) = -1 with
    eps_d = (u + v sqrt d)/2 gives u^2 - v^2 d = -4, so for odd p | d,
    u^2 = -4 (mod p) with p not dividing u, -1 is a square mod p and p = 1 (mod 4).
    The re-derivation still finds the progression's canonical start, with
    an exact comparison for every square-free candidate below d, but it
    reads square-freeness from the sweep's flags and takes eps_d as the
    witness at d itself (:func:`_assert_unit_progression_membership`).

    The radicands 2..n_bound are swept by :func:`_sweep`: jobs > 1 runs
    them on jobs - 1 forked workers and the caller, and joins the chunks in
    chunk order, so the list does not depend on jobs.  A failing parallel
    sweep raises its earliest failing chunk's error, the serial sweep's;
    without os.fork the sweep runs serially.  A bound below 2, an unknown
    route and jobs < 1 raise ValueError before any chunk runs.
    """
    if n_bound < 2:
        raise ValueError("bound must be >= 2")
    if route not in ("cf", "progression"):
        raise ValueError(f"unknown route {route!r}")
    return _sweep(_pell_chunk, (route, _pell_flags(route, n_bound)), 2, n_bound, jobs)


def _pell_flags(route: str, n_bound: int) -> bytearray:
    """The sweep's flags of 0..n_bound, built once before the chunks run
    (forked workers inherit them): square-freeness, and for the
    progression route cleared of every multiple of a prime p = 3 (mod 4)."""
    flags = squarefree_integers_upto(n_bound)
    if route == "progression":
        # a composite p was cleared by its smaller prime factor 3 (mod 4)
        for p in range(3, n_bound + 1, 4):
            if flags[p]:
                flags[p::p] = bytes(len(range(p, n_bound + 1, p)))
    return flags


def _pell_chunk(route: str, flags: bytearray, lo: int, hi: int) -> list[int]:
    """The radicands in [lo, hi] of the negative Pell sweep, ascending,
    read from the sweep's flags (:func:`_pell_flags`, hi at most their
    bound).  The progression route checks each radicand it keeps against
    its unit right after the parity read, while the walk memo still holds
    that radicand's walk.  The check's start scan reads the cleared flags
    and the unit in hand, not trial division and a rebuilt unit."""
    out = []
    for d in range(lo, hi + 1):
        if not (flags[d] and period_is_odd(d)):
            continue
        if route == "progression":
            eps = fundamental_unit(field_context(d))  # the memo holds the parity's walk
            if eps.norm() != -1:
                raise AssertionError(f"period of w[{d}] is odd but N(eps_d) = {eps.norm()}")
            _assert_unit_progression_membership(eps, flags)
        out.append(d)
    return out


def _assert_unit_progression_membership(eps: QuadInt, flags: bytearray) -> None:
    """Re-derive d from the mu = -1 progression of the unit's index pair.

    eps = eps_d has norm -1, and flags are the sweep's square-free flags
    of 0..N (:func:`_pell_flags`), d <= N, cleared of every multiple of a
    prime p = 3 (mod 4).
    The start scan, :func:`unit_progression`, returns the Progression
    build_progression(pair) would, from two facts:

    - the flags decide every candidate.  With (pair, n) = pair_of(-1, u, v),
      a candidate n' < n has d(n') = (u'^2 + 4)/v^2, where
      u' = 2x + (2n' + j) y >= 0 rises with n' up to u' = u at n, so
      d(n') < d <= N.  An odd prime p | u'^2 + 4 does not divide u' and
      makes -4, hence -1, a square mod p, so p = 1 (mod 4): no prime
      p = 3 (mod 4) divides d(n'), the clearing left its flag alone, and
      the flag is its square-freeness;
    - the witness at n is xi(n) = eps_d itself, which passes the
      comparison with eps_d, so the scan stops there.

    Still checked: the canonical start t, by an exact comparison of each
    earlier square-free candidate's witness with its own fundamental
    unit; that xi(n) is eps_d; and prog.element(prog.index(n)) = d.  Any
    mismatch raises AssertionError.
    """
    d = eps.ctx.d
    found = pair_of(-1, *eps.half_coords())
    if found is None:
        raise AssertionError(f"unit of d={d} has no index pair")
    pair, n = found
    prog = unit_progression(pair, n, eps, flags)
    if prog.element(prog.index(n)) != d:
        raise AssertionError(f"progression element mismatch for d={d}")
