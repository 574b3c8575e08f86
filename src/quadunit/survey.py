"""Cross-field surveys: minimal elements, their counting functions,
split/ramified unit identities, regulator lower-bound residuals, and
negative Pell solvability.

A quadratic integer is *minimal* when it is the least element above 1
among its associates.  For |norm| = mu below w[d] - 1 the minimal
elements all arise from convergents of w[d], so the per-field route scans
the xi_n stream; the cross-field route scans traces m and both signed
norms, reducing each discriminant m^2 -+ 4 mu to its square-free kernel.
The two routes are kept fully independent so they can cross-check each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    is_square,
    is_squarefree,
    isqrt,
    squarefree_integers_upto,
    squarefree_kernel,
)
from .contfrac import expand_omega, fundamental_unit, regulator
from .ideals import principal_basis
from .progressions import IndexPair, build_progression, square_parts_quadratic
from .quadfield import FieldContext, QuadInt, field_context, is_minimal, qi_compare, sign_plus_sqrt


@dataclass(frozen=True)
class MinimalRecord:
    """A minimal quadratic integer of absolute norm mu in its field."""

    d: int
    xi: QuadInt
    trace: int
    signed_norm: int
    value_approx: float

    def key(self) -> tuple[int, int, int]:
        return self.d, self.trace, self.signed_norm


def _record(xi: QuadInt) -> MinimalRecord:
    return MinimalRecord(xi.ctx.d, xi, xi.trace(), xi.norm(), xi.approx())


def minimal_elements(ctx: FieldContext, mu: int) -> list[MinimalRecord]:
    """All minimal elements of absolute norm mu, sorted by value.

    For mu < w[d] - 1 these come from convergents, so one period of the
    nu_n stream suffices.  Outside that range the associate classes are
    enumerated directly (bounded scan below the fundamental unit).
    """
    if mu < 1 or not is_squarefree(mu):
        raise ValueError(f"mu must be a positive square-free integer, got {mu}")
    if _convergent_route_valid(ctx, mu):
        exp = expand_omega(ctx)
        found = [exp.xi(n) for n in range(exp.l) if exp.nu(n) == mu]
    else:
        found = _minimal_by_scan(ctx, mu)
    eps = fundamental_unit(ctx)
    out = [_record(xi) for xi in found if is_minimal(xi, eps)]
    out.sort(key=lambda r: (r.value_approx, r.trace, r.signed_norm))
    return out


def _convergent_route_valid(ctx: FieldContext, mu: int) -> bool:
    """True when minimal elements of |norm| mu all come from convergents.

    Holds for mu < w[d] - 1, and also for mu < sqrt(D)/2 when mu is coprime
    to D: then every norm-mu ideal is coprime to its conjugate, hence
    reduced, and the reduced principal ideals are exactly the (xi_n).
    """
    if ctx.is_half:
        below_omega = (2 * mu + 1) ** 2 < ctx.d
    else:
        below_omega = (mu + 1) ** 2 < ctx.d
    if below_omega:
        return True
    return 4 * mu * mu < ctx.discriminant and math.gcd(mu, ctx.discriminant) == 1


def _minimal_by_scan(ctx: FieldContext, mu: int) -> list[QuadInt]:
    """Brute enumeration of elements in (1, eps] with |norm| = mu.

    Candidates satisfy |value - conj| = v*sqrt(d) <= eps + mu, which bounds
    the w[d] coordinate; cost is O(eps / sqrt(d)).
    """
    eps = fundamental_unit(ctx)
    bound = eps.approx() * 1.001 + mu + 2
    if not math.isfinite(bound) or bound > 1e12:
        raise ValueError(
            f"associate-class scan infeasible for d={ctx.d}: unit too large"
        )
    t, nw, d = ctx.omega_trace, ctx.omega_norm, ctx.d
    vmax = int(bound / math.sqrt(d)) + 2
    bmax = vmax if ctx.is_half else (vmax + 1) // 2 + 1
    out = []
    for b in range(1, bmax + 1):
        for target in (mu, -mu):
            # a^2 + a*b*t + b^2*nw = target, solved exactly in a
            disc = b * b * t * t - 4 * (b * b * nw - target)
            if disc < 0 or not is_square(disc):
                continue
            r = isqrt(disc)
            for sgn in (1, -1):
                num = -b * t + sgn * r
                if num % 2:
                    continue
                xi = QuadInt(ctx, num // 2, b)
                if xi.norm() != target:
                    continue
                if qi_compare(xi, 1) == "greater" and qi_compare(xi, eps) != "greater":
                    out.append(xi)
    return sorted(set(out), key=lambda x: x.approx())


# ---------------------------------------------------------------------------
# E_mu: counting minimal elements across all fields


@dataclass(frozen=True)
class EMuEntry:
    value: float
    d: int
    trace: int
    signed_norm: int
    sqrt_coeff: int  # value = (trace + sqrt_coeff * sqrt(d)) / 2


@dataclass(frozen=True)
class EMuReport:
    mu: int
    x_bound: Fraction
    route: str
    entries: tuple[EMuEntry, ...]
    theorem_upper_ok: bool  # count < 2 * x_bound

    @property
    def count(self) -> int:
        return len(self.entries)

    def keys(self) -> set[tuple[int, int, int]]:
        return {(e.d, e.trace, e.signed_norm) for e in self.entries}


def _unit_map(trace_max: int) -> dict[int, tuple[int, int]]:
    """d -> (trace, sqrt coeff) of the fundamental unit, for all fields whose
    fundamental unit has trace <= trace_max.

    Scanning traces ascending visits every unit > 1 in increasing order, so
    the first hit per radicand is the fundamental unit itself.
    """
    eps: dict[int, tuple[int, int]] = {}
    count = trace_max + 1
    parts = {
        -1: square_parts_quadratic(1, 0, 4, count),  # norm -1: disc m^2 + 4
        1: square_parts_quadratic(1, 0, -4, count),  # norm +1: disc m^2 - 4
    }
    for m in range(count):
        for sigma in (-1, 1):
            disc = m * m - 4 * sigma
            if disc <= 0:
                continue
            sq = parts[sigma][m]
            d = disc // sq
            if d == 1:
                continue
            eps.setdefault(d, (m, isqrt(sq)))
    return eps


def E_mu(
    mu: int,
    x_bound,
    route: str = "trace",
    trial_bound: int | None = None,
) -> EMuReport:
    """Count minimal elements of absolute norm mu in (1, x_bound).

    route="trace": scan traces and both signed norms, reduce each
    discriminant to its square-free kernel, and test minimality against a
    table of small fundamental units (fields absent from the table have
    eps_d beyond x_bound, making every candidate minimal).

    route="fields": enumerate radicands and collect per-field minimal
    elements; independent of the trace scan, intended as its cross-check.
    """
    if mu < 1 or not is_squarefree(mu, trial_bound):
        raise ValueError(f"mu must be a positive square-free integer, got {mu}")
    x = Fraction(x_bound)
    if route == "fields":
        entries = _e_mu_fields(mu, x)
    elif route == "trace":
        entries = _e_mu_trace(mu, x)
    else:
        raise ValueError(f"unknown route {route!r}")
    entries.sort(key=lambda e: (e.value, e.trace, e.signed_norm))
    return EMuReport(mu, x, route, tuple(entries), len(entries) < 2 * x)


def _below_bound(m: int, f: int, d: int, x: Fraction) -> bool:
    # (m + f sqrt d)/2 < x
    return sign_plus_sqrt(m * x.denominator - 2 * x.numerator, f * x.denominator, d) < 0


def _e_mu_trace(mu: int, x: Fraction) -> list[EMuEntry]:
    if x <= 1:
        return []
    m_max = int(x) + mu + 2
    units = _unit_map(int(x) + 2)
    count = m_max + 1
    parts = {
        mu: square_parts_quadratic(1, 0, -4 * mu, count),
        -mu: square_parts_quadratic(1, 0, 4 * mu, count),
    }
    out = []
    # norm -mu admits elements > 1 with slightly negative trace
    # (down to -(mu - 2): (m + sqrt(m^2 + 4 mu))/2 > 1 forces |m| < mu - 1)
    for m in range(-mu, 0):
        disc = m * m + 4 * mu
        kernel, cof = squarefree_kernel(disc)
        if kernel == 1:
            continue
        _consider(out, units, x, m, -mu, kernel, cof)
    for m in range(count):
        for sigma in (mu, -mu):
            disc = m * m - 4 * sigma
            if disc <= 0:
                continue
            sq = parts[sigma][m]
            if disc == sq:
                continue  # rational root
            _consider(out, units, x, m, sigma, disc // sq, isqrt(sq))
    return out


def _consider(out, units, x: Fraction, m: int, sigma: int, d: int, f: int) -> None:
    if sign_plus_sqrt(m - 2, f, d) <= 0:
        return  # not above 1
    if not _below_bound(m, f, d, x):
        return
    unit = units.get(d)
    if unit is not None:
        me, fe = unit
        # xi <= eps_d  <=>  (m - me) + (f - fe) sqrt(d) <= 0
        if sign_plus_sqrt(m - me, f - fe, d) > 0:
            return
    out.append(EMuEntry((m + f * math.sqrt(d)) / 2.0, d, m, sigma, f))


def _e_mu_fields(mu: int, x: Fraction) -> list[EMuEntry]:
    if x <= 1:
        return []
    d_max = (int(x) + mu + 2) ** 2
    flags = squarefree_integers_upto(d_max)
    out = []
    for d in range(2, d_max + 1):
        if not flags[d]:
            continue
        ctx = field_context(d)
        for rec in minimal_elements(ctx, mu):
            u, v = rec.xi.half_coords()
            if _below_bound(u, v, d, x):
                out.append(EMuEntry(rec.value_approx, d, rec.trace, rec.signed_norm, v))
    return out


# ---------------------------------------------------------------------------
# f_mu: counting distinct fields


@dataclass(frozen=True)
class FMuReport:
    mu: int
    n_bound: int
    count: int
    ratio: float
    liminf_bound: float  # 2**-omega(mu)
    kernels: tuple[int, ...]


def f_mu(mu: int, n_bound: int, trial_bound: int | None = None) -> FMuReport:
    """Distinct square-free kernels of T^2 - 4 mu over 1 < T < n_bound."""
    if n_bound <= 2:
        return FMuReport(mu, n_bound, 0, 0.0, 2.0 ** -_omega_abs(mu), ())
    parts = square_parts_quadratic(1, 0, -4 * mu, n_bound)
    kernels = set()
    for t in range(2, n_bound):
        disc = t * t - 4 * mu
        if disc <= 0:
            continue
        d = disc // parts[t]
        if d > 1:
            kernels.add(d)
    return FMuReport(
        mu,
        n_bound,
        len(kernels),
        len(kernels) / n_bound,
        2.0 ** -_omega_abs(mu),
        tuple(sorted(kernels)),
    )


def _omega_abs(mu: int) -> int:
    from .arith import factorize

    return factorize(abs(mu)).omega()


# ---------------------------------------------------------------------------
# split / ramified identities


@dataclass(frozen=True)
class IdentityVerdict:
    d: int
    p: int
    status: str  # "ok" | "hypothesis_not_met"
    reason: str
    holds: bool | None
    xi: QuadInt | None
    xi_tilde: QuadInt | None


def split_identity_check(d: int, p: int) -> IdentityVerdict:
    """For split principal p < w[d] - 1: the two minimal generators of the
    conjugate prime ideals multiply to p * eps_d, exactly."""
    ctx = field_context(d)
    if not _prime_below(ctx, p):
        return IdentityVerdict(d, p, "hypothesis_not_met", "p >= sqrt(D)/2", None, None, None)
    if not _splits(ctx, p):
        return IdentityVerdict(d, p, "hypothesis_not_met", "p inert or ramified", None, None, None)
    records = minimal_elements(ctx, p)
    if not records:
        return IdentityVerdict(d, p, "hypothesis_not_met", "prime ideals not principal", None, None, None)
    if len(records) != 2:
        raise AssertionError(f"split principal p={p}, d={d}: expected 0 or 2 minimal elements")
    xi, xit = records[0].xi, records[1].xi
    if principal_basis(xi) == principal_basis(xit):
        raise AssertionError(f"minimal elements of split p={p}, d={d} generate one ideal")
    if principal_basis(xi.conj()) != principal_basis(xit):
        raise AssertionError(f"minimal elements of split p={p}, d={d} not conjugate")
    eps = fundamental_unit(ctx)
    holds = xi * xit == eps.scale(p)
    return IdentityVerdict(d, p, "ok", "", holds, xi, xit)


def ramified_identity_check(d: int, p: int) -> IdentityVerdict:
    """For ramified p with sqrt(d) - 1 > p and d = 2, 3 (mod 4): the square
    of the minimal norm +-p element equals p * eps_d."""
    ctx = field_context(d)
    if ctx.is_half:
        return IdentityVerdict(d, p, "hypothesis_not_met", "d = 1 (mod 4)", None, None, None)
    if (p + 1) ** 2 >= d:
        return IdentityVerdict(d, p, "hypothesis_not_met", "sqrt(d) - 1 <= p", None, None, None)
    if ctx.discriminant % p:
        return IdentityVerdict(d, p, "hypothesis_not_met", "p unramified", None, None, None)
    records = minimal_elements(ctx, p)
    if not records:
        return IdentityVerdict(d, p, "hypothesis_not_met", "no norm +-p element", None, None, None)
    if len(records) != 1:
        raise AssertionError(f"ramified p={p}, d={d}: expected one minimal element")
    xi = records[0].xi
    holds = (xi * xi).divide_exact(p) == fundamental_unit(ctx)
    return IdentityVerdict(d, p, "ok", "", holds, xi, xi)


def _prime_below(ctx: FieldContext, p: int) -> bool:
    # p < sqrt(D)/2, exactly
    return 4 * p * p < ctx.discriminant


def _splits(ctx: FieldContext, p: int) -> bool:
    from .arith import jacobi

    if p == 2:
        return ctx.d % 8 == 1
    return ctx.d % p != 0 and jacobi(ctx.d % p, p) == 1


# ---------------------------------------------------------------------------
# regulator lower-bound residuals


@dataclass(frozen=True)
class BoundRow:
    trace: int
    d: int
    D: int
    log_eps: float
    residual: float


@dataclass(frozen=True)
class BoundReport:
    mu: int
    t_max: int
    probe_constant: float
    rows: tuple[BoundRow, ...]
    min_residual: float
    percentiles: tuple[tuple[int, float], ...]
    violation_count: int  # residuals below -probe_constant
    decile_means: tuple[float, ...]  # mean residual per D-decile, D ascending


def theorem_bound_sweep(
    mu: int,
    t_max: int,
    probe_constant: float = 0.0,
    trial_bound: int | None = None,
    t_min: int = 2,
) -> BoundReport:
    """Residuals of log(eps_d) against the quadratic-in-log lower bound.

    For each admissible trace T the radicand is the square-free kernel of
    T^2 - 4 mu and the residual is

        r(T) = log eps_d - [ (log(sqrt(D)/2))^2 / log mu
                             - (3 - 2 log 2 / log mu) log(sqrt(D)/2) ].

    The bound's absolute constant is unknown, so only the empirical lower
    envelope is reported; regulators come from the half-period continued
    fraction walk (certified well below 1e-9 relative error).
    """
    if mu < 2 or not is_squarefree(mu, trial_bound):
        raise ValueError(f"mu must be a square-free integer >= 2, got {mu}")
    rows = _bound_rows(mu, t_min, t_max, trial_bound)
    return assemble_bound_report(mu, t_max, probe_constant, rows)


def assemble_bound_report(
    mu: int, t_max: int, probe_constant: float, rows: list[BoundRow]
) -> BoundReport:
    """Summarize sweep rows; shared by the serial and sharded drivers."""
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


def _bound_rows(mu: int, t_min: int, t_max: int, trial_bound: int | None) -> list[BoundRow]:
    """Sweep worker: rows for traces in [t_min, t_max], ascending."""
    if t_max < t_min:
        return []
    offset = t_min
    parts = square_parts_quadratic(1, 2 * offset, offset * offset - 4 * mu, t_max - t_min + 1)
    log_mu = math.log(mu)
    coeff = 3.0 - 2.0 * math.log(2) / log_mu
    regs: dict[int, float] = {}
    rows = []
    for t in range(t_min, t_max + 1):
        disc = t * t - 4 * mu
        if disc <= 0:
            continue
        d = disc // parts[t - offset]
        if d == 1:
            continue
        reg = regs.get(d)
        if reg is None:
            reg = regulator(field_context(d))
            regs[d] = reg
        D = d if d % 4 == 1 else 4 * d
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


def negative_pell(n_bound: int, route: str = "progression") -> list[int]:
    """Square-free d <= n_bound whose fundamental unit has norm -1.

    route="cf": the period parity criterion (odd period of w[d]).
    route="progression": reads the norm off the unit and re-derives d as a
    member of the mu = -1 progression seeded by the unit's own index pair,
    exercising the whole progression pipeline per radicand.
    """
    if n_bound < 2:
        raise ValueError("bound must be >= 2")
    if route not in ("cf", "progression"):
        raise ValueError(f"unknown route {route!r}")
    flags = squarefree_integers_upto(n_bound)
    out = []
    for d in range(2, n_bound + 1):
        if not flags[d]:
            continue
        ctx = field_context(d)
        if route == "cf":
            if expand_omega(ctx).l % 2 == 1:
                out.append(d)
            continue
        eps = fundamental_unit(ctx)
        if eps.norm() != -1:
            continue
        _assert_unit_progression_membership(ctx, eps)
        out.append(d)
    return out


def _assert_unit_progression_membership(ctx: FieldContext, eps: QuadInt) -> None:
    """Re-derive d from the mu = -1 progression of the unit's index pair."""
    d = ctx.d
    if ctx.is_half and eps.b % 2 == 1:
        j, y = 1, eps.b
        x = eps.a % y if y > 1 else 0
        n = (eps.a - x) // y
    else:
        # unit lies in Z[sqrt(d)]
        if ctx.is_half:
            a, b = eps.a + eps.b // 2, eps.b // 2
        else:
            a, b = eps.a, eps.b
        j, y = 0, b
        x = a % y if y > 1 else 0
        n = (a - x) // y
    pair = IndexPair(-1, j, y, x)
    prog = build_progression(pair)
    if n < prog.n_start or (n - prog.n_start) % prog.modulus:
        raise AssertionError(f"unit of d={d} missing from its own progression")
    k = (n - prog.n_start) // prog.modulus
    if prog.element(k) != d:
        raise AssertionError(f"progression element mismatch for d={d}")
