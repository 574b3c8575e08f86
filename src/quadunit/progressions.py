"""Quadratic progressions of radicands representing a fixed norm mu.

An index pair (y, x) with 0 <= x < y, gcd(x, y) = 1 and x^2 = mu (mod y)
seeds an arithmetic progression of parameters n (unique mod y~, where
y~ = y/2 for even y, else y) such that

    d(n) = n^2 + (2x/y) n + (x^2 - mu)/y^2            (branch j = 0)
    ((2n+1) y + 2x)^2 - y^2 d = 4 mu                  (branch j = 1, y odd)

are integers, and the element n*y + x + y*w[d] of Q(sqrt(d(n))) has norm
exactly mu.  The canonical starting radicand t is the smallest square-free
d(n) >= 2 whose witness element does not exceed the fundamental unit;
square-free candidates that fail that comparison are kept in an explicit
exceptions list, never dropped.

The module also houses the square-free sieve over the values of a
quadratic polynomial (exact: every prime square up to the value bound is
cast out by solving the congruence mod p^2) and the quadratic Hensel
solvability criterion with its brute-force counterpart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    BudgetError,
    factorize,
    is_square,
    is_squarefree,
    isqrt,
    jacobi,
    mod_inverse,
    primes_up_to,
    sqrt_mod_prime,
    squarefree_kernel,
)
from .contfrac import unit_compare
from .quadfield import FieldContext, QuadInt, field_context


class ScanBudgetError(BudgetError):
    """The progression start was not found within the scan budget."""


@dataclass(frozen=True)
class IndexPair:
    """Pair (y, x) with x^2 = mu (mod y); j = 1 restricts to odd y."""

    mu: int
    j: int
    y: int
    x: int

    def __post_init__(self):
        if self.mu == 0 or not is_squarefree(self.mu):
            raise ValueError(f"mu must be a nonzero square-free integer, got {self.mu}")
        if self.j not in (0, 1):
            raise ValueError(f"j must be 0 or 1, got {self.j}")
        if self.y < 1:
            raise ValueError(f"y must be >= 1, got {self.y}")
        if self.j == 1 and self.y % 2 == 0:
            raise ValueError(f"branch j=1 requires odd y, got {self.y}")
        if not 0 <= self.x < self.y:
            raise ValueError(f"x must lie in [0, y), got x={self.x}, y={self.y}")
        if math.gcd(self.x, self.y) != 1:
            raise ValueError(f"gcd(x, y) must be 1, got ({self.x}, {self.y})")
        if (self.x * self.x - self.mu) % self.y:
            raise ValueError(f"x^2 != mu (mod y) for ({self.y}, {self.x}), mu={self.mu}")

    @property
    def ytilde(self) -> int:
        return self.y // 2 if self.y % 2 == 0 else self.y


def index_pairs(mu: int, j: int, y_max: int) -> list[IndexPair]:
    """All pairs with y <= y_max that seed a progression, ascending (y, x).

    For even y the congruence determining the parameter class is soluble
    only under the sharper condition x^2 = mu (mod 2y); even-y pairs
    failing it represent no quadratic integer and are omitted.
    """
    out = []
    for y in range(1, y_max + 1):
        if j == 1 and y % 2 == 0:
            continue
        modulus = 2 * y if y % 2 == 0 else y
        for x in range(y) if y > 1 else (0,):
            if math.gcd(x, y) == 1 and (x * x - mu) % modulus == 0:
                out.append(IndexPair(mu, j, y, x))
    return out


def solve_n0(pair: IndexPair) -> tuple[int, int]:
    """The unique residue class (n0, y~) of admissible parameters n.

    For even y the defining congruence is soluble iff x^2 = mu (mod 2y);
    pairs failing that admit no progression and raise ValueError.
    """
    mu, y, x = pair.mu, pair.y, pair.x
    if y == 1:
        return 0, 1
    m = (mu - x * x) // y
    rhs = m % y * (x % y) % y * mod_inverse(mu % y, y) % y
    if pair.j == 1:
        # (2n+1) x y = mu - x^2 (mod y^2), y odd
        n0 = (rhs - 1) * mod_inverse(2, y) % y
        modulus = y
    elif y % 2 == 1:
        n0 = rhs * mod_inverse(2, y) % y
        modulus = y
    else:
        if rhs % 2:
            raise ValueError(
                f"pair (y={y}, x={x}) admits no progression: x^2 != mu (mod 2y)"
            )
        modulus = y // 2
        n0 = (rhs // 2) % modulus
    _candidate(pair, n0)  # checks the norm identity at n0
    return n0, modulus


def _candidate(pair: IndexPair, n: int) -> tuple[int, int]:
    """(d(n), s(n)) where s is the integer square root datum at n.

    d(n) is integral exactly when N(n*y + x + y*w[d(n)]) = mu holds as an
    integer identity; AssertionError (also under ``python -O``) otherwise.
    """
    mu, y, x = pair.mu, pair.y, pair.x
    if pair.j == 0:
        s = n * y + x
        num = s * s - mu
    else:
        s = (2 * n + 1) * y + 2 * x
        num = s * s - 4 * mu
    if num % (y * y):
        raise AssertionError(f"non-integral candidate at n={n} for {pair}")
    return num // (y * y), s


def _witness(pair: IndexPair, n: int, ctx: FieldContext) -> QuadInt:
    """The element n*y + x + y*w[d] in the basis of its own field."""
    y, x = pair.y, pair.x
    if pair.j == 1:
        if not ctx.is_half:
            raise AssertionError(f"branch j=1 produced d != 1 (mod 4): {ctx.d}")
        return QuadInt(ctx, n * y + x, y)
    if ctx.is_half:
        # n*y + x + y*sqrt(d) = (n*y + x - y) + 2*y*w[d]
        return QuadInt(ctx, n * y + x - y, 2 * y)
    return QuadInt(ctx, n * y + x, y)


@dataclass(frozen=True)
class Progression:
    """A started progression: d(k) for k >= 0 runs over the closed form."""

    pair: IndexPair
    n0: int
    modulus: int
    n_start: int
    t: int
    s: int
    exceptions: tuple[int, ...]

    def coefficients(self) -> tuple[int, int, int]:
        """(A, B, C) with element(k) = A k^2 + B k + C."""
        pair = self.pair
        if pair.j == 1:
            return 4 * pair.y * pair.y, 4 * self.s, self.t
        yt = pair.ytilde
        step = 2 * yt * self.s
        if step % pair.y:
            raise AssertionError(f"non-integral step for {self}")
        return yt * yt, step // pair.y, self.t

    def element(self, k: int) -> int:
        if k < 0:
            raise ValueError("k must be >= 0")
        A, B, C = self.coefficients()
        return A * k * k + B * k + C

    def n_at(self, k: int) -> int:
        return self.n_start + k * self.modulus


def element(prog: Progression, k: int) -> int:
    return prog.element(k)


def build_progression(
    pair: IndexPair, scan_limit: int = 100_000, trial_bound: int | None = None
) -> Progression:
    """Scan the admissible n ascending and pick the canonical start t.

    Square-free candidates d >= 2 are tested exactly against the
    fundamental unit (witness <= eps passes; for |mu| != 1 equality cannot
    occur, for mu = +-1 the witness may equal eps itself).  Failures are
    recorded as exceptions; non-square-free values pass through untested.
    """
    n0, modulus = solve_n0(pair)
    exceptions = []
    for step in range(scan_limit):
        n = n0 + step * modulus
        dval, s = _candidate(pair, n)
        if dval < 2:
            continue
        if squarefree_kernel(dval, trial_bound)[1] != 1:
            continue
        ctx = field_context(dval)
        xi = _witness(pair, n, ctx)
        if xi.norm() != pair.mu:
            raise AssertionError(f"witness of norm {xi.norm()} != mu at n={n}, d={dval} for {pair}")
        if unit_compare(ctx, xi) <= 0:
            return Progression(pair, n0, modulus, n, dval, s, tuple(exceptions))
        exceptions.append(dval)
    raise ScanBudgetError(
        f"phi not found within budget: {scan_limit} candidates scanned for {pair}"
    )


# ---------------------------------------------------------------------------
# square-free sieve over quadratic values


def quadratic_roots_mod_p2(A: int, B: int, C: int, p: int) -> list[tuple[int, int]]:
    """Solution set of A k^2 + B k + C = 0 (mod p^2) as (residue, modulus) pairs.

    Moduli are p^2 for simple roots, p when a double root lifts to the whole
    fiber.  Assumes p | A implies p^2 | A (true for the progression forms,
    where A is y~^2 or 4 y^2); anything else falls back to brute force.
    """
    pp = p * p
    if p == 2 or (A % p == 0 and A % pp != 0):
        return [(k, pp) for k in range(pp) if (A * k * k + B * k + C) % pp == 0]
    if A % p == 0:
        # quadratic term vanishes mod p^2
        b, c = B % pp, C % pp
        if b % p == 0:
            return [(0, 1)] if c % pp == 0 else ([(k, pp) for k in range(pp) if (b * k + c) % pp == 0])
        return [((-c * mod_inverse(b, pp)) % pp, pp)]
    disc = B * B - 4 * A * C
    if disc % p:
        if jacobi(disc % p, p) == -1:
            return []
        rt = sqrt_mod_prime(disc % p, p)
        inv2a = mod_inverse(2 * A % p, p)
        out = []
        for r in ((-B + rt) * inv2a % p, (-B - rt) * inv2a % p):
            # Newton lift: the derivative 2*A*r + B is a unit mod p
            fr = (A * r * r + B * r + C) % pp
            corr = fr * mod_inverse((2 * A * r + B) % pp, pp) % pp
            out.append(((r - corr) % pp, pp))
        return sorted(set(out))
    # double root mod p
    t0 = (-B) * mod_inverse(2 * A % p, p) % p
    if (A * t0 * t0 + B * t0 + C) % pp == 0:
        return [(t0, p)]
    return []


def _abs_value_bound(A: int, B: int, C: int, count: int) -> int:
    """max |A k^2 + B k + C| over 0 <= k < count (endpoints and vertex)."""
    points = {0, count - 1}
    if A:
        vertex = -B // (2 * A)
        for k in (vertex, vertex + 1):
            if 0 <= k < count:
                points.add(k)
    return max(max(abs(A * k * k + B * k + C) for k in points), 1)


def squarefree_flags_quadratic(A: int, B: int, C: int, count: int) -> bytearray:
    """flags[k] == 1 iff A k^2 + B k + C is square-free, for 0 <= k < count.

    Exact: every prime p with p^2 possibly dividing a value (p up to the
    square root of the largest value) is cast out.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    vmax = _abs_value_bound(A, B, C, count)
    flags = bytearray(b"\x01") * count
    for p in primes_up_to(isqrt(vmax) + 1):
        for r, mod in quadratic_roots_mod_p2(A, B, C, p):
            if mod == 1:
                flags[:] = b"\x00" * count
                continue
            if r < count:
                n = len(range(r, count, mod))
                flags[r::mod] = b"\x00" * n
    return flags


def square_parts_quadratic(A: int, B: int, C: int, count: int) -> list[int]:
    """sq[k] = largest square dividing |A k^2 + B k + C| (value 0 maps to 0).

    Same sieve as :func:`squarefree_flags_quadratic`, but the marked values
    are divided out so the full square part is recovered exactly.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    vals = [abs(A * k * k + B * k + C) for k in range(count)]
    sq = [1] * count
    vmax = _abs_value_bound(A, B, C, count)
    for p in primes_up_to(isqrt(vmax) + 1):
        pp = p * p
        for r, mod in quadratic_roots_mod_p2(A, B, C, p):
            for k in range(r, count, mod):
                while vals[k] and vals[k] % pp == 0:
                    vals[k] //= pp
                    sq[k] *= pp
    return sq


def empirical_density(prog: Progression, k_max: int) -> Fraction:
    """Fraction of k in [0, k_max) with element(k) square-free."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    flags = squarefree_flags(prog, k_max)
    return Fraction(sum(flags), k_max)


def squarefree_flags(prog: Progression, k_max: int) -> bytearray:
    A, B, C = prog.coefficients()
    return squarefree_flags_quadratic(A, B, C, k_max)


# ---------------------------------------------------------------------------
# density prediction


@dataclass(frozen=True)
class DensityPrediction:
    """Truncated Euler product for the square-free density of a progression."""

    pair: IndexPair
    two_adic_count: int  # roots of d(k) = 0 (mod 4) in [0, 4)
    leading_factor: float  # 1 - two_adic_count / 4
    factor_divisors: float  # prod over odd p | y of (1 - 1/p^2)
    factor_square_part: float  # prod over odd p with p^2 | mu (empty here: 1.0)
    factor_residues: float  # prod over odd p coprime to mu*y, (mu|p) = 1, p <= cutoff
    cutoff: int
    value: float
    tail_bound: float  # sum of 2/p^2 beyond the cutoff is below this


def two_adic_root_count(pair: IndexPair) -> int:
    """Case table for the number of roots of d(k) = 0 (mod 4)."""
    if pair.j == 1:
        return 0  # progression values are 1 (mod 4)
    if pair.y % 2 == 1:
        return 2 if pair.mu % 4 in (0, 1) else 0
    if pair.y % 4 == 2:
        return 2 if pair.mu % 8 == 1 else 0
    return 1


def predicted_density(pair: IndexPair, prime_cutoff: int) -> DensityPrediction:
    """(1 - w2/4) * prod over odd primes of the per-prime local factors.

    Odd p | y contribute (1 - 1/p^2); odd p with p^2 | mu would contribute
    (1 - 1/p) but mu is square-free so that product is empty; odd p coprime
    to mu*y with (mu|p) = 1 contribute (1 - 2/p^2), truncated at the cutoff.
    """
    if prime_cutoff < 3:
        raise ValueError("prime cutoff must be >= 3")
    w2 = two_adic_root_count(pair)
    mu, y = pair.mu, pair.y
    f_div = 1.0
    for p in factorize(y).primes():
        if p != 2:
            f_div *= 1.0 - 1.0 / (p * p)
    f_sq = 1.0  # mu is square-free, so the p^2 | mu product is empty
    f_res = 1.0
    for p in primes_up_to(prime_cutoff):
        if p == 2 or mu % p == 0 or y % p == 0:
            continue
        if jacobi(mu % p, p) == 1:
            f_res *= 1.0 - 2.0 / (p * p)
    leading = 1.0 - w2 / 4.0
    return DensityPrediction(
        pair, w2, leading, f_div, f_sq, f_res, prime_cutoff,
        leading * f_div * f_sq * f_res, 2.0 / prime_cutoff,
    )


def omega_p_count(prog: Progression, p: int) -> int:
    """#{k in [0, p^2) : element(k) = 0 (mod p^2)}, by direct count."""
    A, B, C = prog.coefficients()
    pp = p * p
    return sum(1 for k in range(pp) if (A * k * k + B * k + C) % pp == 0)


def omega_p_predicted(prog: Progression, p: int) -> int:
    """Case-analysis prediction for :func:`omega_p_count`."""
    pair = prog.pair
    if p == 2:
        return two_adic_root_count(pair)
    if pair.ytilde % p == 0:
        return 1
    if pair.mu % (p * p) == 0:
        return p
    if pair.mu % p == 0:
        return 0
    return 2 if jacobi(pair.mu % p, p) == 1 else 0


# ---------------------------------------------------------------------------
# quadratic Hensel criterion


def hensel_quadratic(a2: int, a1: int, a0: int, p: int, m: int) -> bool:
    """Solvability of a2 x^2 + a1 x + a0 = 0 (mod p^m) for odd p, p not | a2.

    Decided by the discriminant criterion: the congruence is soluble iff
    a1^2 - 4 a2 a0 is a square modulo p^m.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if a2 % p == 0:
        raise ValueError("leading coefficient must not be divisible by p")
    if m < 1:
        raise ValueError("m must be >= 1")
    return _is_square_mod_prime_power(a1 * a1 - 4 * a2 * a0, p, m)


def _is_square_mod_prime_power(a: int, p: int, m: int) -> bool:
    pm = p**m
    a %= pm
    if a == 0:
        return True
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return e % 2 == 0 and jacobi(a, p) == 1


def hensel_quadratic_scan(a2: int, a1: int, a0: int, p: int, m: int) -> bool:
    """Brute-force oracle: scan x over [0, p^m)."""
    if a2 % p == 0:
        raise ValueError("leading coefficient must not be divisible by p")
    pm = p**m
    a2, a1, a0 = a2 % pm, a1 % pm, a0 % pm
    return any((a2 * x * x + a1 * x + a0) % pm == 0 for x in range(pm))


# ---------------------------------------------------------------------------
# coverage of the witness radicands


@dataclass(frozen=True)
class WitnessStatus:
    d: int
    first_trace: int
    status: str  # "covered" | "exception" | "uncovered"
    j: int | None
    y: int | None
    x: int | None
    k: int | None


@dataclass(frozen=True)
class CoverageReport:
    mu: int
    t_max: int
    y_max: int
    k_max: int
    rows: tuple[WitnessStatus, ...]

    def covered(self) -> list[int]:
        return [r.d for r in self.rows if r.status == "covered"]

    def exception_only(self) -> list[int]:
        return [r.d for r in self.rows if r.status == "exception"]

    def uncovered(self) -> list[int]:
        return [r.d for r in self.rows if r.status == "uncovered"]


def _pairs_containing(mu: int, d: int, y_max: int):
    """Index pairs whose progression grid passes through radicand d.

    Yields (pair, n): branch 0 needs y^2 d + mu to be a square s^2 with
    s = n y + x; branch 1 (d = 1 mod 4 only) needs y^2 d + 4 mu = s^2 with
    s = (2n+1) y + 2x.
    """
    for y in range(1, y_max + 1):
        val = y * y * d + mu
        if val >= 0 and is_square(val):
            s = isqrt(val)
            x = s % y if y > 1 else 0
            if math.gcd(x, y) == 1 and s >= x:
                yield IndexPair(mu, 0, y, x), (s - x) // y
    if d % 4 == 1:
        for y in range(1, y_max + 1, 2):
            val = y * y * d + 4 * mu
            if val < 0 or not is_square(val):
                continue
            s = isqrt(val)
            x = s * mod_inverse(2, y) % y if y > 1 else 0
            rem = s - 2 * x
            if rem <= 0 or rem % y:
                continue
            q = rem // y
            if q % 2 == 0 or math.gcd(x, y) != 1:
                continue
            yield IndexPair(mu, 1, y, x), (q - 1) // 2


def coverage_report(
    mu: int,
    t_max: int,
    y_max: int,
    k_max: int,
    scan_limit: int = 100_000,
    trial_bound: int | None = None,
) -> CoverageReport:
    """Check that every witness radicand lands in some progression.

    Witnesses are the square-free kernels of T^2 - 4 mu over 1 < T <= t_max
    (positive, non-square).  A witness d is covered when d = element(k) of
    some started progression with y <= y_max and 0 <= k <= k_max, and an
    exception when it only appears in exceptions lists.
    """
    witnesses: dict[int, int] = {}
    for t in range(2, t_max + 1):
        disc = t * t - 4 * mu
        if disc <= 0 or is_square(disc):
            continue
        kernel, _ = squarefree_kernel(disc, trial_bound)
        witnesses.setdefault(kernel, t)
    prog_cache: dict[IndexPair, Progression] = {}
    rows = []
    for d in sorted(witnesses):
        best: tuple[str, IndexPair | None, int | None] = ("uncovered", None, None)
        for pair, n in _pairs_containing(mu, d, y_max):
            prog = prog_cache.get(pair)
            if prog is None:
                prog = build_progression(pair, scan_limit, trial_bound)
                prog_cache[pair] = prog
            if d >= prog.t:
                if (n - prog.n_start) % prog.modulus:
                    raise AssertionError(f"witness {d} off-grid for {pair}")
                k = (n - prog.n_start) // prog.modulus
                if k <= k_max:
                    best = ("covered", pair, k)
                    break
            elif d in prog.exceptions and best[0] == "uncovered":
                best = ("exception", pair, None)
        status, pair, k = best
        rows.append(
            WitnessStatus(
                d,
                witnesses[d],
                status,
                pair.j if pair else None,
                pair.y if pair else None,
                pair.x if pair else None,
                k,
            )
        )
    return CoverageReport(mu, t_max, y_max, k_max, tuple(rows))
