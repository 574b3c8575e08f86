import math
import random

import pytest
from oracles import kernel_by_full_trial_range

from quadunit import arith
from quadunit.arith import (
    Factorization,
    UnfactoredError,
    factor_budget,
    factorize,
    introot,
    is_prime,
    is_square,
    isqrt,
    jacobi,
    mod_inverse,
    primes_up_to,
    sqrt_mod_prime,
    squarefree_kernel,
    trial_bound,
)

rng = random.Random(0xC0FFEE)


def test_isqrt_examples():
    assert isqrt is math.isqrt
    assert isqrt(0) == 0
    assert isqrt(3481) == 59
    assert isqrt(71) == 8
    with pytest.raises(ValueError):
        isqrt(-1)


def test_isqrt_random():
    for _ in range(2000):
        n = rng.randrange(10**9)
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)
    big = 10**40 + rng.randrange(10**20)
    r = isqrt(big)
    assert r * r <= big < (r + 1) * (r + 1)


def test_introot_exact_at_any_size():
    # far beyond float range, where a float first guess overflows
    assert introot(10**400, 2) == 10**200
    assert introot(10**400, 5) == 10**80
    r = introot(10**400, 3)
    assert r**3 <= 10**400 < (r + 1) ** 3
    big = 10**150 + 12345
    for k in (2, 3, 5):
        n = big**k
        assert introot(n - 1, k) == big - 1
        assert introot(n, k) == big
        assert introot(n + 1, k) == big
    for _ in range(500):
        n, k = rng.randrange(10 ** rng.randrange(1, 80)), rng.randrange(1, 9)
        r = introot(n, k)
        assert r**k <= n < (r + 1) ** k, (n, k)
    assert [introot(n, 3) for n in range(9)] == [0, 1, 1, 1, 1, 1, 1, 1, 2]
    with pytest.raises(ValueError):
        introot(-1, 3)
    with pytest.raises(ValueError):
        introot(8, 0)


def test_squarefree_kernel_examples():
    assert squarefree_kernel(56) == (14, 2)
    assert squarefree_kernel(73) == (73, 1)
    assert squarefree_kernel(16) == (1, 4)
    with pytest.raises(ValueError):
        squarefree_kernel(0)


def test_squarefree_kernel_reconstruction():
    for _ in range(500):
        n = rng.randrange(1, 10**7)
        k, c = squarefree_kernel(n)
        assert k * c * c == n
        assert all(e == 1 for _, e in factorize(k).pairs)


def test_squarefree_kernel_large_semiprime():
    # two distinct primes above the trial bound: still resolved exactly
    # (a surviving cofactor below bound**3 is 1, p, p*q or a square)
    p, q = 1_000_003, 1_000_033
    with factor_budget(100_000):
        assert squarefree_kernel(p * q) == (p * q, 1)
    with factor_budget(1000):
        assert squarefree_kernel(p * p) == (1, p)
        with pytest.raises(UnfactoredError):
            squarefree_kernel(p * q)  # beyond the bound**3 window


def test_mod_inverse():
    assert mod_inverse(2, 7) == 4
    for _ in range(200):
        m = rng.randrange(2, 10**6)
        a = rng.randrange(1, m)
        if __import__("math").gcd(a, m) != 1:
            with pytest.raises(ValueError):
                mod_inverse(a, m)
        else:
            assert a * mod_inverse(a, m) % m == 1
    with pytest.raises(ValueError):
        mod_inverse(6, 9)


def test_jacobi():
    assert jacobi(2, 7) == 1
    assert jacobi(2, 3) == -1
    with pytest.raises(ValueError):
        jacobi(3, 4)
    # multiplicativity on random triples
    for _ in range(300):
        m = 2 * rng.randrange(1, 10**4) + 1
        a = rng.randrange(-(10**4), 10**4)
        b = rng.randrange(-(10**4), 10**4)
        assert jacobi(a * b, m) == jacobi(a, m) * jacobi(b, m)


def test_jacobi_detects_squares_mod_prime():
    for p in primes_up_to(200):
        if p == 2:
            continue
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert (jacobi(a, p) == 1) == (a in squares)


def test_factorize_examples():
    assert factorize(12).pairs == ((2, 2), (3, 1))
    assert factorize(1).pairs == ()
    assert factorize(503).pairs == ((503, 1),)
    assert factorize(503).omega() == 1
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_roundtrip():
    for _ in range(300):
        n = rng.randrange(1, 10**9)
        f = factorize(n)
        assert math.prod(p**e for p, e in f.pairs) == n


def test_factorization_invariants():
    with pytest.raises(ValueError):
        Factorization(((3, 1), (2, 1)))  # primes must ascend
    with pytest.raises(ValueError):
        Factorization(((2, 0),))


def test_unfactored_error():
    p, q = 10_007, 10_009
    with factor_budget(100):
        with pytest.raises(UnfactoredError):
            factorize(p * q)
        # a perfect square of an out-of-budget prime is still resolved
        assert factorize(p * p).pairs == ((p, 2),)


def test_is_prime_small():
    primes = set(primes_up_to(1000))
    for n in range(1000):
        assert is_prime(n) == (n in primes)


def test_primes_up_to_any_request_order(monkeypatch):
    # the cache grows at least twofold and answers smaller requests by slicing
    monkeypatch.setattr(arith, "_sieve_limit", 0)
    monkeypatch.setattr(arith, "_sieve_primes", [])
    for n in [0, 1, 2, 3, 10, 11, 12, 13, 97, 5, 98, 200, 199, 1000, 3, 1001, 2]:
        assert primes_up_to(n) == [p for p in range(2, n + 1) if is_prime(p)], n
    # one request per radicand of an ascending sweep: a handful of sieves
    limits = set()
    for n in range(1002, 40000):
        assert len(primes_up_to(n)) >= 168
        limits.add(arith._sieve_limit)
    assert len(limits) <= 7 and primes_up_to(40000)[-1] == 39989


def test_sqrt_mod_prime():
    for p in primes_up_to(100):
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            if r is None:
                assert all(x * x % p != a for x in range(p))
            else:
                assert r * r % p == a % p


def test_is_square():
    assert is_square(0) and is_square(49) and not is_square(50)
    assert not is_square(-4)


def test_trial_bound_reads_the_budget_in_force():
    outer = trial_bound()
    assert outer == arith.DEFAULT_TRIAL_BOUND
    with factor_budget(1000):
        assert trial_bound() == 1000
        with factor_budget(100):
            assert trial_bound() == 100
        assert trial_bound() == 1000
    assert trial_bound() == outer


def test_kernel_agrees_with_factorize():
    # both read one trial-division pass: wherever factorize succeeds, the
    # kernel is the odd part of each exponent and the cofactor the rest,
    # unless the one prime power above B is at least B**3 and not a square
    # (then a prime and a product of two primes look the same)
    agreed = refused = 0
    for budget in (arith.DEFAULT_TRIAL_BOUND, 1000, 100):
        with factor_budget(budget):
            for _ in range(400):
                n = rng.randrange(1, 10**9)
                try:
                    pairs = factorize(n).pairs
                except UnfactoredError:
                    continue
                kernel = math.prod(p ** (e & 1) for p, e in pairs)
                cof = math.prod(p ** (e >> 1) for p, e in pairs)
                rest = math.prod(p**e for p, e in pairs if p > budget)  # the cofactor after the pass
                if rest >= budget**3 and not is_square(rest):
                    with pytest.raises(UnfactoredError, match=f"not resolved within budget {budget}$"):
                        squarefree_kernel(n)
                    refused += 1
                else:
                    assert squarefree_kernel(n) == (kernel, cof), (budget, n)
                    agreed += 1
    assert agreed > 500 and refused > 0


def test_kernel_resolves_the_cube_window():
    # primes B < p < q with p*q < B**3: the kernel resolves p*q, factorize
    # cannot split it and says so, naming B
    for bound, p, q in ((100, 101, 103), (100, 101, 9887), (1000, 1009, 1013), (1000, 1009, 991_009)):
        assert p * q < bound**3
        with factor_budget(bound):
            assert squarefree_kernel(p * q) == (p * q, 1)
            with pytest.raises(UnfactoredError, match=f"cofactor {p * q} of {p * q} not factored within budget {bound}$"):
                factorize(p * q)


def _outcomes(ns, budget) -> list:
    """(n, kernel's outcome, oracle's outcome) wherever the two differ, for
    n in ns under budget; an outcome is a (kernel, cofactor) pair or an
    error message."""
    differ = []
    with factor_budget(budget):
        for n in ns:
            try:
                got = squarefree_kernel(n)
            except UnfactoredError as exc:
                got = str(exc)
            try:
                want = kernel_by_full_trial_range(n, budget)
            except ArithmeticError as exc:
                want = str(exc)
            if got != want:
                differ.append((n, got, want))
    return differ


TRIAL_BUDGETS = (10, 11, 100, 1000, arith.DEFAULT_TRIAL_BOUND)


def test_kernel_matches_the_full_trial_range():
    # trial division up to cbrt(n) gives the pair, or the message, that the
    # pass up to sqrt(n) + 1 gives, under the same bound**3 refusal rule
    r = random.Random(31)
    ns = [*range(1, 60_000), *(r.randrange(1, 10**12) for _ in range(10**4)),
          *(p * p * q for p in (1009, 10_007) for q in range(1, 1000))]
    for budget in TRIAL_BUDGETS:
        assert _outcomes(ns, budget) == [], budget


def _resolves(n) -> bool:
    try:
        squarefree_kernel(n)
    except UnfactoredError:
        return False
    return True


def test_kernel_trial_range_boundaries():
    # the prime 1009 >= 10**3 is refused, as before
    with factor_budget(10):
        with pytest.raises(UnfactoredError, match="^cofactor 1009 of 1009 not resolved within budget 10$"):
            squarefree_kernel(1009)
    # [B**3, (B + 1)**3): cbrt(n) and B have the same floor, so both passes
    # try the same primes, and the window both resolves and refuses
    for bound in (10, 100):
        ns = range(bound**3, (bound + 1) ** 3)
        assert _outcomes(ns, bound) == [], bound
        with factor_budget(bound):
            refused = sum(1 for n in ns if not _resolves(n))
        assert 0 < refused < len(ns), bound
    # q**2 (q - 1): q = cbrt(n) + 1 is the least integer past the range,
    # and the square q**2 is left after the pass
    for q in (1009, 10_007, 1_000_003):
        n = q * q * (q - 1)
        assert introot(n, 3) == q - 1
        for budget in TRIAL_BUDGETS:
            assert _outcomes([n, q * q], budget) == [], (q, budget)
        kernel, cof = squarefree_kernel(n)
        assert kernel * cof * cof == n and cof % q == 0

