"""Exact integer utilities: factorization, square roots, residue symbols.

Every routine here works in plain ``int`` arithmetic (arbitrary precision,
no floating point on any number-theoretic path).  Results are exact,
or an explicit :class:`UnfactoredError` is raised when an input exceeds
the factorization budget -- a wrong answer is never returned silently.

The budget is the trial-division bound in force: ``DEFAULT_TRIAL_BOUND``,
or the bound of the innermost ``with factor_budget(bound):`` of the
current thread or task.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from contextlib import contextmanager
from contextvars import ContextVar

DEFAULT_TRIAL_BOUND = 10**6
_bound_in_force: ContextVar[int] = ContextVar("factor_budget", default=DEFAULT_TRIAL_BOUND)

# Deterministic Miller-Rabin witness set, valid for n < 3.317e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


class BudgetError(ArithmeticError):
    """A computation exceeded its configured search/factorization budget."""


class UnfactoredError(BudgetError):
    """A cofactor survived the trial-division budget; nothing is guessed."""


@contextmanager
def factor_budget(bound: int):
    """Factor under the trial-division bound ``bound`` inside the block."""
    token = _bound_in_force.set(bound)
    try:
        yield
    finally:
        _bound_in_force.reset(token)


def trial_bound() -> int:
    """The trial-division bound in force for the current thread or task."""
    return _bound_in_force.get()


isqrt = math.isqrt  # exact: the r with r*r <= n < (r+1)*(r+1)


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def introot(n: int, k: int) -> int:
    """Largest r with r**k <= n (n >= 0, k >= 1), exact at any size.

    Integer Newton from 2**ceil(bits/k), which is above the root: the
    iterates fall strictly until the first one that does not, the root.
    """
    if n < 0 or k < 1:
        raise ValueError("introot requires n >= 0, k >= 1")
    if n < 2 or k == 1:
        return n
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


# ---------------------------------------------------------------------------
# primes


_sieve_limit = 0
_sieve_primes: list[int] = []


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, cached and re-used across calls.

    The cache at least doubles when it grows, so a run of ascending
    requests (one per radicand of a sweep) re-sieves O(log n) times.
    """
    global _sieve_limit, _sieve_primes
    if n > _sieve_limit:
        limit = max(n, 2 * _sieve_limit)
        flags = bytearray(b"\x01") * (limit + 1)
        flags[0:2] = b"\x00\x00"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = b"\x00" * len(range(p * p, limit + 1, p))
        _sieve_primes = [i for i in range(2, limit + 1) if flags[i]]
        _sieve_limit = limit
    if n == _sieve_limit:
        return _sieve_primes
    return _sieve_primes[: bisect.bisect_right(_sieve_primes, n)]


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid below 3.317e24; raises beyond)."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise UnfactoredError(f"{n} exceeds the deterministic primality range")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# factorization


class Factorization(namedtuple("Factorization", "pairs")):
    """Prime factorization as (prime, exponent) pairs, primes ascending."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # checked, as is _replace through it

    def __new__(cls, pairs: tuple[tuple[int, int], ...]):
        last = 1
        for p, e in pairs:
            if p <= last or e < 1:
                raise ValueError(f"malformed factorization {pairs}")
            last = p
        return super().__new__(cls, pairs)

    def omega(self) -> int:
        """Number of distinct prime factors."""
        return len(self.pairs)

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)


def _trial_divide(n: int, top: int) -> tuple[list[tuple[int, int]], int, bool]:
    """(pairs, m, exhausted): n >= 1 trial-divided by the primes up to
    min(bound in force, top), the cofactor m left, and whether every one of
    those primes was tried (when not, m is 1 or a prime).  top is isqrt(n) + 1
    for factorize, cbrt(n) for squarefree_kernel (exact there: see it)."""
    pairs = []
    m = n
    stop = math.isqrt(m)  # p > stop is p * p > m, without a product per prime
    for p in primes_up_to(min(_bound_in_force.get(), top)):
        if p > stop:
            return pairs, m, False
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            pairs.append((p, e))
            stop = math.isqrt(m)
    return pairs, m, True


def factorize(n: int) -> Factorization:
    """Complete prime factorization of n >= 1, or UnfactoredError."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    pairs, m, _ = _trial_divide(n, math.isqrt(n) + 1)
    if m > 1:
        if is_prime(m):
            pairs.append((m, 1))
        else:
            # all factors of m exceed the trial bound; try perfect powers
            for k in range(2, m.bit_length() + 1):
                r = introot(m, k)
                if r**k == m and is_prime(r):
                    pairs.append((r, k))
                    break
            else:
                raise UnfactoredError(
                    f"cofactor {m} of {n} not factored within budget {_bound_in_force.get()}"
                )
    pairs.sort()
    return Factorization(tuple(pairs))


def squarefree_kernel(n: int) -> tuple[int, int]:
    """Split n >= 1 as kernel * cofactor**2 with kernel square-free.

    Correct without full factorization: trial division up to
    min(B, cbrt(n)) leaves a cofactor whose primes all exceed cbrt(n), so
    it is 1, p, p*q or p**2; a square, or any cofactor below B**3, is
    handled exactly, anything else raises UnfactoredError.  A pass up to
    sqrt(n) gives the same results: it also stops at B when B <= cbrt(n),
    and when B > cbrt(n) every cofactor is below B**3.
    """
    if n < 1:
        raise ValueError(f"squarefree_kernel requires n >= 1, got {n}")
    pairs, m, exhausted = _trial_divide(n, introot(n, 3))
    kernel = cof = 1
    for p, e in pairs:
        kernel *= p ** (e & 1)
        cof *= p ** (e >> 1)
    if m > 1:
        bound = _bound_in_force.get()
        if not exhausted:
            kernel *= m  # prime: no factor up to its square root
        elif is_square(m):
            cof *= math.isqrt(m)
        elif m < bound**3:
            # prime or product of two distinct primes: square-free either way
            kernel *= m
        else:
            raise UnfactoredError(f"cofactor {m} of {n} not resolved within budget {bound}")
    return kernel, cof


def is_squarefree(n: int) -> bool:
    return squarefree_kernel(abs(n))[1] == 1


# ---------------------------------------------------------------------------
# modular arithmetic


def mod_inverse(a: int, m: int) -> int:
    """t in [0, m) with a*t == 1 (mod m); requires gcd(a, m) == 1."""
    if m < 1:
        raise ValueError("modulus must be positive")
    try:
        return pow(a, -1, m)
    except ValueError:
        raise ValueError(f"{a} is not invertible modulo {m}") from None


def jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a|m) for odd positive m."""
    if m <= 0 or m % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd positive modulus, got {m}")
    a %= m
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo prime p, or None. Tonelli-Shanks for odd p."""
    a %= p
    if p == 2:
        return a
    if a == 0:
        return 0
    if jacobi(a, p) == -1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return r
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while jacobi(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def squarefree_integers_upto(n: int) -> bytearray:
    """flags[i] == 1 iff i is square-free, for 0 <= i <= n."""
    flags = bytearray(b"\x01") * (n + 1)
    flags[0] = 0
    i = 2
    while i * i <= n:
        step = i * i
        flags[step::step] = b"\x00" * len(range(step, n + 1, step))
        i += 1
    return flags
