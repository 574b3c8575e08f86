"""Quadratic progressions of radicands representing a fixed norm mu.

An index pair (y, x) with 0 <= x < y, gcd(x, y) = 1 and x^2 = mu (mod y),
in branch j = 0 or j = 1 (y odd), seeds one quadratic integer per
parameter n >= 0, written in half coordinates:

    xi(n) = (u + v sqrt(d))/2,    v = (2 - j) y,    u = 2x + (2n + j) y.

For j = 0 this is xi = (n y + x) + y sqrt(d); for j = 1 it is
((2n + 1) y + 2x + y sqrt(d))/2.  Both branches obey one identity,

    N(xi) = (u^2 - v^2 d)/4 = mu    <=>    d(n) = (u^2 - 4 mu)/v^2,

so xi(n) has norm exactly mu in Q(sqrt(d(n))) whenever d(n) is an
integer.  The n with d(n) integral form one residue class mod y~ (y~ = y/2
for even y, else y; see :func:`solve_n0`).  For j = 0, u is even and xi
lies in Z[sqrt(d)]; for j = 1, u and v are odd, so d = 1 (mod 4) and xi is
again an integer of its field.  The canonical starting radicand t is the
smallest square-free d(n) >= 2 whose witness xi(n) does not exceed the
fundamental unit; square-free candidates that fail that comparison are
kept in an explicit exceptions list, never dropped.

The module also houses the square-free sieve over the values of a
quadratic polynomial (exact: the primes up to the cube root of the value
bound are divided out at the roots of the form mod p, and what is left of
each value has at most two prime factors, so it is a square or
square-free), the trace scan built on it (t^2 - 4 sigma = f^2 d), the
inverse from an element to its index pair, and the quadratic Hensel
solvability criterion.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .arith import (
    BudgetError,
    factorize,
    introot,
    is_prime,
    is_square,
    is_squarefree,
    isqrt,
    jacobi,
    mod_inverse,
    primes_up_to,
    sqrt_mod_prime,
    squarefree_kernel,
)
from .contfrac import fundamental_unit
from .quadfield import FieldContext, QuadInt, field_context, qi_compare


class ScanBudgetError(BudgetError):
    """The progression start was not found within the scan budget."""


def _check_mu(mu: int) -> None:
    if mu in (1, -1):
        return  # square-free: no trial division for the unit norms
    # 0 first: is_squarefree raises on it
    if mu == 0 or not is_squarefree(mu):
        raise ValueError(f"mu must be a nonzero square-free integer, got {mu}")


class IndexPair(namedtuple("IndexPair", "mu j y x")):
    """Pair (y, x) with x^2 = mu (mod y); j = 1 restricts to odd y."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # checked, as is _replace through it

    def __new__(cls, mu: int, j: int, y: int, x: int):
        _check_mu(mu)
        if j not in (0, 1):
            raise ValueError(f"j must be 0 or 1, got {j}")
        if y < 1:
            raise ValueError(f"y must be >= 1, got {y}")
        if j == 1 and y % 2 == 0:
            raise ValueError(f"branch j=1 requires odd y, got {y}")
        if not 0 <= x < y:
            raise ValueError(f"x must lie in [0, y), got x={x}, y={y}")
        if math.gcd(x, y) != 1:
            raise ValueError(f"gcd(x, y) must be 1, got ({x}, {y})")
        if (x * x - mu) % y:
            raise ValueError(f"x^2 != mu (mod y) for ({y}, {x}), mu={mu}")
        return super().__new__(cls, mu, j, y, x)

    @property
    def ytilde(self) -> int:
        return self.y // 2 if self.y % 2 == 0 else self.y


def index_pairs(mu: int, j: int, y_max: int) -> list[IndexPair]:
    """All pairs with y <= y_max that seed a progression, ascending (y, x).

    For even y the congruence determining the parameter class is soluble
    only under the sharper condition x^2 = mu (mod 2y); even-y pairs
    failing it represent no quadratic integer and are omitted.  mu is
    checked as for :class:`IndexPair`, and y_max < 0 raises ValueError,
    before any y is scanned.
    """
    _check_mu(mu)
    if y_max < 0:
        raise ValueError(f"y_max must be >= 0, got {y_max}")
    out = []
    for y in range(1, y_max + 1):
        if j == 1 and y % 2 == 0:
            continue
        modulus = y * math.gcd(2, y)
        for x in range(y):
            if math.gcd(x, y) == 1 and (x * x - mu) % modulus == 0:
                out.append(IndexPair(mu, j, y, x))
    return out


def solve_n0(pair: IndexPair) -> tuple[int, int]:
    """The unique residue class (n0, y~) of admissible parameters n.

    With m = 2n + j and k = 2 - j, u = 2x + m y gives
    u^2 - 4 mu = 4 (x^2 - mu) + 4 x m y + m^2 y^2, and d(n) is integral iff
    k^2 y^2 divides it.  For j = 0 (m = 2n, k = 2) that is
    y^2 | (x^2 - mu) + x m y; for j = 1 (k = 1, y odd, so 4 is a unit
    mod y) it is y^2 | 4 ((x^2 - mu) + x m y).  In both branches, as
    y | x^2 - mu:

        x m = (mu - x^2)/y (mod y).

    gcd(x, y) = 1 and x^2 = mu make mu a unit mod y with x^-1 = x mu^-1,
    so m = r := x mu^-1 (mu - x^2)/y (mod y), and 2n = r - j (mod y).
    With g = gcd(2, y) this is soluble iff g | r - j, and then
    n = (r - j)/g * (2/g)^-1 (mod y/g).  Only even y (so j = 0) can fail:
    x is then odd and r is even iff x^2 = mu (mod 2y); pairs failing that
    admit no progression and raise ValueError.
    """
    mu, j, y, x = pair.mu, pair.j, pair.y, pair.x
    r = x * mod_inverse(mu, y) % y * ((mu - x * x) // y) % y
    g = math.gcd(2, y)
    if (r - j) % g:
        raise ValueError(
            f"pair (y={y}, x={x}) admits no progression: x^2 != mu (mod 2y)"
        )
    modulus = y // g
    n0 = (r - j) // g * mod_inverse(2 // g, modulus) % modulus
    _candidate(pair, n0)  # checks the norm identity at n0
    return n0, modulus


def _candidate(pair: IndexPair, n: int) -> tuple[int, int]:
    """(d(n), u(n)): the radicand (u^2 - 4 mu)/v^2 and the u of xi(n).

    d(n) is integral exactly when N(xi(n)) = mu holds as an integer
    identity; AssertionError (also under ``python -O``) otherwise.
    """
    v = (2 - pair.j) * pair.y
    u = 2 * pair.x + (2 * n + pair.j) * pair.y
    num = u * u - 4 * pair.mu
    if num % (v * v):
        raise AssertionError(f"non-integral candidate at n={n} for {pair}")
    return num // (v * v), u


def _witness(pair: IndexPair, u: int, ctx: FieldContext) -> QuadInt:
    """xi = (u + v sqrt(d))/2, v = (2 - j) y, with u from :func:`_candidate`:
    the norm-mu element in its field."""
    return QuadInt.from_half(ctx, u, (2 - pair.j) * pair.y)


class Progression(NamedTuple):
    """A started progression: d(k) for k >= 0 runs over the closed form."""

    pair: IndexPair
    n0: int
    modulus: int
    n_start: int
    t: int
    s: int  # u/(2 - j) at n_start: n y + x for j = 0, u for j = 1
    exceptions: tuple[int, ...]

    def coefficients(self) -> tuple[int, int, int]:
        """(A, B, C) with element(k) = A k^2 + B k + C.

        Step k moves n by M = modulus and u by 2 M y.  With c = 2 - j, so
        v = c y, and s = u/c at n_start:

            d = ((c s + 2 M y k)^2 - 4 mu)/(c y)^2
              = (2M/c)^2 k^2 + (4 M s/(c y)) k + t.
        """
        c, M = 2 - self.pair.j, self.modulus
        B, r = divmod(4 * M * self.s, c * self.pair.y)
        if r:
            raise AssertionError(f"non-integral step for {self}")
        return (2 * M // c) ** 2, B, self.t

    def index(self, n: int) -> int:
        """The k with n = n_start + k * modulus; AssertionError off the grid."""
        k, r = divmod(n - self.n_start, self.modulus)
        if k < 0 or r:
            raise AssertionError(f"parameter n={n} is off the grid of {self}")
        return k

    def element(self, k: int) -> int:
        if k < 0:
            raise ValueError("k must be >= 0")
        A, B, C = self.coefficients()
        return A * k * k + B * k + C


def build_progression(pair: IndexPair, scan_limit: int = 100_000) -> Progression:
    """Scan the admissible n ascending and pick the canonical start t.

    Square-free candidates d >= 2 are tested exactly against the
    fundamental unit (witness <= eps passes; for |mu| != 1 equality cannot
    occur, for mu = +-1 the witness may equal eps itself).  Failures are
    recorded as exceptions; non-square-free values pass through untested.
    scan_limit < 1 raises ValueError before any candidate is scanned.
    """
    if scan_limit < 1:
        raise ValueError(f"scan_limit must be >= 1, got {scan_limit}")
    n0, modulus = solve_n0(pair)
    return _scan_start(pair, n0, modulus, scan_limit, lambda c: squarefree_kernel(c)[1] == 1)


def unit_progression(pair: IndexPair, n: int, unit: QuadInt, flags) -> Progression:
    """``build_progression(pair)`` for the pair of a fundamental unit, from
    two facts its caller already holds.

    unit is eps_d, d = unit.ctx.d, and (pair, n) is
    ``pair_of(mu, *unit.half_coords())``, so xi(n) is the unit.  flags[c]
    must say whether c is square-free for every candidate c = d(n') >= 2
    with n' < n; the scan reads no other entry.  Each square-free
    candidate before n is compared exactly with its own fundamental
    unit, as in :func:`build_progression`; only the trial division is
    gone.  At n the scan checks that xi(n) is the unit, so its norm is mu
    by the candidate identity, and it passes the comparison with eps_d
    itself: the scan stops there at the latest, with no field context,
    unit, norm or comparison.  The result is the Progression
    build_progression(pair) returns.  AssertionError when n is off the
    pair's grid or xi(n) is not the unit.
    """
    n0, modulus = solve_n0(pair)
    steps, r = divmod(n - n0, modulus)
    if steps < 0 or r:
        raise AssertionError(f"parameter n={n} is off the grid of {pair}")
    return _scan_start(pair, n0, modulus, steps + 1, flags.__getitem__, unit)


def _scan_start(pair: IndexPair, n0: int, modulus: int, steps: int, squarefree,
                unit: QuadInt | None = None) -> Progression:
    """The candidate loop of :func:`build_progression` and
    :func:`unit_progression`: n = n0 + step * modulus for step < steps,
    square-freeness of each candidate d >= 2 decided by squarefree(d).  A
    unit, when given, is eps_d and must be the witness of the last step.
    """
    c = 2 - pair.j
    v = c * pair.y
    exceptions = []
    for step in range(steps):
        n = n0 + step * modulus
        dval, u = _candidate(pair, n)
        if unit is not None and step == steps - 1:
            if (u, v, dval) != (*unit.half_coords(), unit.ctx.d):
                raise AssertionError(f"witness at n={n} is not the unit {unit} for {pair}")
        elif dval < 2 or not squarefree(dval):
            continue
        else:
            ctx = field_context(dval)
            xi = _witness(pair, u, ctx)
            if xi.norm() != pair.mu:
                raise AssertionError(f"witness of norm {xi.norm()} != mu at n={n}, d={dval} for {pair}")
            if qi_compare(xi, fundamental_unit(ctx)) > 0:
                exceptions.append(dval)
                continue
        return Progression(pair, n0, modulus, n, dval, u // c, tuple(exceptions))
    raise ScanBudgetError(
        f"phi not found within budget: {steps} candidates scanned for {pair}"
    )


# ---------------------------------------------------------------------------
# square-free sieve over quadratic values


def _roots_mod_p(A: int, B: int, C: int, p: int):
    """The residues k mod p with p | A k^2 + B k + C."""
    if p == 2:
        return [k for k in (0, 1) if (A * k * k + B * k + C) % 2 == 0]
    a, b, c = A % p, B % p, C % p
    if a == 0:
        if b:
            return [-c * mod_inverse(b, p) % p]
        return range(p) if c == 0 else ()
    inv2a = mod_inverse(2 * a, p)
    disc = (b * b - 4 * a * c) % p
    if disc == 0:
        return [-b * inv2a % p]
    rt = sqrt_mod_prime(disc, p)
    if rt is None:
        return ()
    return [(-b + rt) * inv2a % p, (-b - rt) * inv2a % p]


# Values per block of the quadratic sieve: the most that a trace scan or a
# density count holds at once, whatever the length of its range.
_BLOCK = 1 << 14


def _max_abs_value(A: int, B: int, C: int, count: int) -> int:
    """max |A k^2 + B k + C| over 0 <= k < count.

    On an interval a quadratic takes its largest and least values at the
    ends and the vertex -B/(2A), so over the integers |value| peaks at an
    end or at an integer next to the vertex, when that lies in the range.
    """
    ks = {0, count - 1}
    if A:
        v = -B // (2 * A)  # floor of the vertex
        ks.update(k for k in (v, v + 1) if 0 <= k < count)
    return max(abs((A * k + B) * k + C) for k in ks)


def _sieve(A: int, B: int, C: int, count: int):
    """(square parts, cofactors) of |A k^2 + B k + C| for 0 <= k < count,
    as an iterator over consecutive blocks of at most _BLOCK values.

    Every prime p <= P0 = floor(vmax^(1/3)) + 1, vmax the largest |value|
    (:func:`_max_abs_value`, from the ends of the range and the vertex),
    is divided out of the values at the roots of the form mod p, with its
    multiplicity.  The roots are found once for the range; the block
    starting at lo meets root r first at k = lo + (r - lo) mod p.  A zero
    value keeps cofactor 0 and square part 1.  The setup runs, and
    count < 1 raises ValueError, at the call; then only one block of
    values is held at a time.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    roots = [(p, r) for p in primes_up_to(introot(_max_abs_value(A, B, C, count), 3) + 1)
             for r in _roots_mod_p(A, B, C, p)]

    def blocks():
        for lo in range(0, count, _BLOCK):
            size = min(_BLOCK, count - lo)
            vals = [abs((A * k + B) * k + C) for k in range(lo, lo + size)]
            sq = [1] * size
            for p, r in roots:
                for i in range((r - lo) % p, size, p):
                    v = vals[i] // p
                    if not v:
                        continue  # a zero value
                    e = 1
                    while v % p == 0:
                        v //= p
                        e += 1
                    vals[i] = v
                    if e > 1:
                        sq[i] *= p ** (e - e % 2)
            for i, c in enumerate(vals):
                if c > 1 and is_square(c):
                    sq[i] *= c
            yield sq, vals

    return blocks()


def _flag_blocks(A: int, B: int, C: int, count: int):
    """The flags of :func:`squarefree_flags_quadratic`, one bytearray per
    block of :func:`_sieve`."""
    for sq, cof in _sieve(A, B, C, count):
        yield bytearray(s == 1 and c != 0 for s, c in zip(sq, cof))


def squarefree_flags_quadratic(A: int, B: int, C: int, count: int) -> bytearray:
    """flags[k] == 1 iff A k^2 + B k + C is square-free, for 0 <= k < count.

    Exact by the cube bound: once the primes up to P0 > vmax^(1/3) are
    divided out, a nonzero cofactor c <= vmax < P0^3 has at most two prime
    factors, all above P0, so c is 1, q, q*r or q^2 and is square-free
    unless it is a square above 1.  The sieve runs over the primes up to
    vmax^(1/3), not vmax^(1/2), plus one square test per value.  A zero
    value gets flag 0.
    """
    return bytearray().join(_flag_blocks(A, B, C, count))


def square_parts_quadratic(A: int, B: int, C: int, count: int) -> Iterator[int]:
    """sq[k] = largest square dividing |A k^2 + B k + C| (a zero value gets 1),
    for k = 0 .. count - 1 in order, as an iterator that holds one sieve
    block at a time.  count < 1 raises ValueError at the call.

    Exact by the cube bound: the primes up to P0 > vmax^(1/3) are divided
    out with their multiplicity; the nonzero cofactor c <= vmax < P0^3 left
    has at most two prime factors, all above P0, so its square part is c
    when c is a perfect square (c = q^2) and 1 otherwise.  The sieve runs
    over the primes up to vmax^(1/3), not vmax^(1/2), plus one square test
    per value.  The same bound makes :func:`quadunit.arith.squarefree_kernel`
    exact.
    """
    return chain.from_iterable(sq for sq, _ in _sieve(A, B, C, count))


def trace_kernels(sigma: int, t_min: int, t_max: int):
    """Yield (t, d, f) with t^2 - 4 sigma = f^2 d, d > 1 square-free.

    t ascends over [t_min, t_max]; a trace whose discriminant is <= 0 or a
    square is skipped.  The square parts come from one sieve of the form
    (t_min + k)^2 - 4 sigma, read block by block, so every trace scan
    shares its exactness and holds one block of values, whatever its range.
    """
    if t_max < t_min:
        return
    count = t_max - t_min + 1
    parts = square_parts_quadratic(1, 2 * t_min, t_min * t_min - 4 * sigma, count)
    four_sigma = 4 * sigma
    for t, sq in zip(range(t_min, t_max + 1), parts):
        disc = t * t - four_sigma
        if disc > sq:  # positive and not a square: sq divides disc
            yield t, disc // sq, math.isqrt(sq)


def empirical_density(prog: Progression, k_max: int) -> Fraction:
    """Fraction of k in [0, k_max) with element(k) square-free, counted
    block by block: the flags are never held whole."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    blocks = _flag_blocks(*prog.coefficients(), k_max)
    return Fraction(sum(block.count(1) for block in blocks), k_max)


def squarefree_flags(prog: Progression, k_max: int) -> bytearray:
    A, B, C = prog.coefficients()
    return squarefree_flags_quadratic(A, B, C, k_max)


# ---------------------------------------------------------------------------
# density prediction


class DensityPrediction(NamedTuple):
    """Truncated Euler product for the square-free density of a progression."""

    pair: IndexPair
    two_adic_count: int  # roots of d(k) = 0 (mod 4) in [0, 4)
    leading_factor: float  # 1 - two_adic_count / 4
    factor_divisors: float  # prod over odd p | y of (1 - 1/p^2)
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
    f_res = 1.0
    for p in primes_up_to(prime_cutoff):
        if p == 2 or mu % p == 0 or y % p == 0:
            continue
        if jacobi(mu % p, p) == 1:
            f_res *= 1.0 - 2.0 / (p * p)
    leading = 1.0 - w2 / 4.0
    return DensityPrediction(
        pair, w2, leading, f_div, f_res, prime_cutoff,
        leading * f_div * f_res, 2.0 / prime_cutoff,
    )


def omega_p_predicted(prog: Progression, p: int) -> int:
    """#{k in [0, p^2) : element(k) = 0 (mod p^2)}, by case analysis."""
    pair = prog.pair
    if p == 2:
        return two_adic_root_count(pair)
    if pair.ytilde % p == 0:
        return 1
    if pair.mu % p == 0:
        return 0
    return 2 if jacobi(pair.mu % p, p) == 1 else 0


# ---------------------------------------------------------------------------
# quadratic Hensel criterion


def hensel_quadratic(a2: int, a1: int, a0: int, p: int, m: int) -> bool:
    """Solvability of a2 x^2 + a1 x + a0 = 0 (mod p^m) for odd prime p, p not | a2.

    Decided by the discriminant criterion: the congruence is soluble iff
    a1^2 - 4 a2 a0 is a square modulo p^m.  The Jacobi symbol decides
    squares only modulo a prime, so a composite p raises ValueError (and
    a p beyond is_prime's deterministic range raises UnfactoredError).
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
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


# ---------------------------------------------------------------------------
# coverage of the witness radicands


class WitnessStatus(NamedTuple):
    d: int
    first_trace: int
    status: str  # "covered" | "exception" | "uncovered"
    j: int | None
    y: int | None
    x: int | None
    k: int | None


class CoverageReport(NamedTuple):
    mu: int
    t_max: int
    y_max: int
    k_max: int
    rows: tuple[WitnessStatus, ...]


def pair_of(mu: int, u: int, v: int) -> tuple[IndexPair, int] | None:
    """The index pair and parameter n of xi = (u + v sqrt(d))/2, or None.

    xi has norm mu and v >= 1.  v = (2 - j) y fixes the branch j = v mod 2
    and y; then u = 2x + (2n + j) y gives h = (u - j y)/2 = n y + x, so
    x = h mod y and n = h div y.  None when u - j y is odd or (x, n) is
    not admissible: gcd(x, y) > 1 or n < 0.
    """
    j = v % 2
    y = v // (2 - j)
    h, odd = divmod(u - j * y, 2)
    n, x = divmod(h, y)
    if odd or n < 0 or math.gcd(x, y) != 1:
        return None
    return IndexPair(mu, j, y, x), n


def _pairs_containing(mu: int, d: int, y_max: int):
    """Index pairs whose progression grid passes through radicand d.

    Yields (pair, n) for each v = (2 - j) y with y <= y_max and
    v^2 d + 4 mu = u^2 a square: branch 0 (even v) first, then branch 1
    (odd v), which only d = 1 (mod 4) admits; :func:`pair_of` places u.
    """
    for j in (0, 1) if d % 4 == 1 else (0,):
        for v in range(2 - j, (2 - j) * y_max + 1, 2):
            val = v * v * d + 4 * mu
            if val >= 0 and is_square(val):
                found = pair_of(mu, isqrt(val), v)
                if found is not None:
                    yield found


def coverage_report(mu: int, t_max: int, y_max: int, k_max: int) -> CoverageReport:
    """Check that every witness radicand lands in some progression.

    Witnesses are the square-free kernels d > 1 of T^2 - 4 mu over
    1 < T <= t_max, read from :func:`trace_kernels`.  A witness d is
    covered when d = element(k) of some started progression with
    y <= y_max and 0 <= k <= k_max, and an exception when it only appears
    in exceptions lists.  mu is checked as for :class:`IndexPair`, and
    y_max < 0 or k_max < 0 raises ValueError, before any trace is scanned.
    """
    _check_mu(mu)
    if y_max < 0:
        raise ValueError(f"y_max must be >= 0, got {y_max}")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    witnesses: dict[int, int] = {}
    for t, d, _ in trace_kernels(mu, 2, t_max):
        witnesses.setdefault(d, t)
    prog_cache: dict[IndexPair, Progression] = {}
    rows = []
    for d in sorted(witnesses):
        best: tuple[str, IndexPair | None, int | None] = ("uncovered", None, None)
        for pair, n in _pairs_containing(mu, d, y_max):
            prog = prog_cache.get(pair)
            if prog is None:
                prog = build_progression(pair)
                prog_cache[pair] = prog
            if d >= prog.t:
                k = prog.index(n)
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
