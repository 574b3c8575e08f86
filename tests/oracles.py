"""Independent oracles shared by the test modules.

Everything here is deliberately dumb and slow: literal searches, float
cross-checks, and third-party (sympy) computations that never touch the
package's own code paths.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, cycle, islice


def linear_cf_walk(d: int):
    """(a0, periodic quotients, states) of w[d] by walking the whole period.

    The full-period (P, Q) walk: it stops when the state of alpha_1
    recurs, with no use of the palindrome.
    """
    sf = math.isqrt(d)
    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    a0 = (P + sf) // Q
    P = a0 * Q - P
    Q = (d - P * P) // Q
    first = (P, Q)
    states = [first]
    quotients = []
    while True:
        a = (P + sf) // Q
        quotients.append(a)
        P = a * Q - P
        Q = (d - P * P) // Q
        if (P, Q) == first:
            break
        states.append((P, Q))
    return a0, tuple(quotients), tuple(states)


def linear_fundamental_unit(d: int) -> tuple[int, int]:
    """(a, b) of xi_{l-1} = a + b w[d] from the full-period convergents.

    Runs p_n = a_n p_{n-1} + p_{n-2} (and q_n likewise) over a_0 and the
    whole period body of :func:`linear_cf_walk`, with no use of the
    palindrome; xi_{l-1} = conj(p_{l-1} - q_{l-1} w[d]).
    """
    a0, quotients, _ = linear_cf_walk(d)
    p, q, pm, qm = a0, 1, 1, 0
    for a in quotients[:-1]:
        p, q, pm, qm = a * p + pm, a * q + qm, p, q
    return (p - q, q) if d % 4 == 1 else (p, q)


def linear_regulator(d: int) -> float:
    """log(eps_d) streamed over the full period, summed in period order."""
    sf = math.isqrt(d)
    sd = math.sqrt(d)
    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    a = (P + sf) // Q
    P = a * Q - P
    Q = (d - P * P) // Q
    first = (P, Q)
    total = 0.0
    while True:
        total += math.log((P + sd) / Q)
        a = (P + sf) // Q
        P = a * Q - P
        Q = (d - P * P) // Q
        if (P, Q) == first:
            return total


def fraction_delta_within(d: int, e: int, nu: int, P: int, Q: int, qn: int, qm1: int) -> bool:
    """|delta| < 4/(qn^2 e sqrt d) for delta = (P + sqrt d)/Q - e sqrt(d)/nu + qm1/qn.

    The residual check in Fraction arithmetic: delta = A + B sqrt(d) with
    rational A, B, and the bound becomes -4 < U + V sqrt(d) < 4 after
    multiplying through by qn^2 e sqrt(d) (qn, e > 0).
    """
    A = Fraction(P, Q) + Fraction(qm1, qn)
    B = Fraction(1, Q) - Fraction(e, nu)
    U = B * d * qn * qn * e
    V = A * qn * qn * e
    return _sign_plus_sqrt_frac(U - 4, V, d) < 0 and _sign_plus_sqrt_frac(U + 4, V, d) > 0


def linear_cf_rows(d: int):
    """(a_n, P_{n+1}, Q_{n+1}, p_n, q_n, q_{n-1}) for n = 0, 1, 2, ... without end.

    Reads :func:`linear_cf_walk` extended periodically (a_n = a_{n-l} for
    n > l, alpha_{n+1} = alpha_{n+1-l} for n >= l) and runs its own convergent
    recurrence p_n = a_n p_{n-1} + p_{n-2} (q_n likewise) over it, from
    p_{-1}/q_{-1} = 1/0 and p_{-2}/q_{-2} = 0/1.
    """
    a0, quotients, states = linear_cf_walk(d)
    p, q, pm, qm = 1, 0, 0, 1
    for a, (P, Q) in zip(chain([a0], cycle(quotients)), cycle(states)):
        qm1 = q
        p, q, pm, qm = a * p + pm, a * q + qm, p, q
        yield a, P, Q, p, q, qm1


def _norm(d: int, p: int, q: int) -> int:
    """|N(p - q w[d])|: 4 N = (2p - q)^2 - d q^2 for w[d] = (1+sqrt(d))/2, N = p^2 - d q^2 else."""
    if d % 4 == 1:
        return abs((2 * p - q) ** 2 - d * q * q) // 4
    return abs(p * p - d * q * q)


def norm_nu(d: int, count: int) -> list[int]:
    """|N(xi_n)| for n < count from the big-integer convergents p_n/q_n of
    :func:`linear_cf_rows`, xi_n = conj(p_n - q_n w[d]); no (P, Q) state is read."""
    return [_norm(d, p, q) for _, _, _, p, q, _ in islice(linear_cf_rows(d), count)]


def fraction_residual(d: int, indices) -> list[tuple[bool, bool | None]]:
    """(alpha_below, within) of the residual certificate at each n in indices, in Fractions.

    alpha_below is alpha_{n+1} < sqrt(D)/nu_n; within is
    |delta_n| < 4/(q_n^2 sqrt(D)) from :func:`fraction_delta_within`, and
    None at n = 0, where the certificate has no delta bound.  Every datum
    comes from :func:`linear_cf_rows`, nu_n from the convergent's norm.
    """
    e = 1 if d % 4 == 1 else 2  # sqrt(D) = e sqrt(d)
    indices = list(indices)
    wanted, verdicts = set(indices), {}
    for n, (_, P, Q, p, qn, qm1) in enumerate(islice(linear_cf_rows(d), max(indices) + 1)):
        if n in wanted:
            nu = _norm(d, p, qn)
            alpha_below = _sign_plus_sqrt_frac(nu * P, nu - Q * e, d) < 0
            verdicts[n] = alpha_below, None if n == 0 else fraction_delta_within(d, e, nu, P, Q, qn, qm1)
    return [verdicts[n] for n in indices]


def alpha_product(d: int) -> tuple[Fraction, Fraction]:
    """prod_{i=1..l} alpha_i as exact (A, B) with value A + B*sqrt(d), over
    the states of :func:`linear_cf_walk`."""
    A, B = Fraction(1), Fraction(0)
    for P, Q in linear_cf_walk(d)[2]:
        A, B = (A * P + B * d) / Q, (A + B * P) / Q
    return A, B


def _sign_plus_sqrt_frac(u: Fraction, v: Fraction, d: int) -> int:
    """Sign of u + v sqrt(d) for rational (or integer) u, v and non-square d."""
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    # opposite signs: the term of larger square wins
    return sv if v * v * d > u * u else su


def pell_unit_bruteforce(d: int, y_limit: int = 10**6):
    """(u, v) half-coordinates of the least unit > 1, by literal search.

    Scans y ascending over x^2 - d y^2 = +-1 and, for d = 1 (mod 4), the
    half-integer versions = +-4.  Only usable when the fundamental solution
    is small; returns None if nothing is found below the limit.
    """
    best = None
    for y in range(1, y_limit + 1):
        dy2 = d * y * y
        for n in (1, -1):
            x2 = dy2 + n
            if x2 > 0:
                x = math.isqrt(x2)
                if x * x == x2:
                    best = _min_half(best, (2 * x, 2 * y))
        if d % 4 == 1:
            for n in (4, -4):
                x2 = dy2 + n
                if x2 > 0:
                    x = math.isqrt(x2)
                    if x * x == x2 and (x - y) % 2 == 0:
                        best = _min_half(best, (x, y))
        if best is not None:
            return best
    return None


def pell_unit_sympy(d: int):
    """(u, v) half-coordinates of the least unit > 1, via sympy's solver."""
    from sympy.solvers.diophantine.diophantine import diop_DN

    cands = []
    for n in (1, -1):
        for (x, y) in diop_DN(d, n):
            x, y = abs(int(x)), abs(int(y))
            if y:
                cands.append((2 * x, 2 * y))
    if d % 4 == 1:
        for n in (4, -4):
            for (x, y) in diop_DN(d, n):
                x, y = abs(int(x)), abs(int(y))
                if y and (x - y) % 2 == 0:
                    cands.append((x, y))
    best = None
    for c in cands:
        best = _min_half(best, c, d)
    return best


def is_minimal_deflated(x, eps) -> bool:
    """x * eps**-1 <= 1, the deflation form of minimality (x > 1, eps > 1).

    eps**-1 = N(eps) conj(eps) for a unit; the product's sign against 1 is
    decided from its coordinates over {1, w[d]}.
    """
    y = x * eps.conj().scale(eps.norm())
    d = x.ctx.d
    if d % 4 == 1:
        # a + b (1 + sqrt d)/2 - 1 has the sign of (2a + b - 2) + b sqrt(d)
        return _sign_plus_sqrt_frac(2 * y.a + y.b - 2, y.b, d) <= 0
    return _sign_plus_sqrt_frac(y.a - 1, y.b, d) <= 0


def mpmath_sign(x, y) -> int:
    """Sign of x - y for elements a + b*w[d] of one field, from mpmath.

    An irrational x - y has a nonzero integer norm, so |x - y| is at least
    1/|conj(x - y)|; twice the bits of the coordinates and of d, plus a
    margin, is then enough working precision to decide the sign.
    """
    import mpmath

    d = x.ctx.d
    bits = max(abs(c).bit_length() for c in (x.a, x.b, y.a, y.b)) + d.bit_length()
    with mpmath.workprec(2 * bits + 64):
        w = (1 + mpmath.sqrt(d)) / 2 if d % 4 == 1 else mpmath.sqrt(d)
        return int(mpmath.sign((x.a + x.b * w) - (y.a + y.b * w)))


def _min_half(a, b, d: int = 0):
    if a is None:
        return b
    if d:
        # exact: compare (a0 + a1 sqrt d) vs (b0 + b1 sqrt d)
        u, v = a[0] - b[0], a[1] - b[1]
        if v == 0:
            return b if u > 0 else a
        if v > 0:
            if u >= 0:
                return b
            return b if v * v * d > u * u else a
        if u <= 0:
            return a
        return a if v * v * d > u * u else b
    return min(a, b)


def negative_pell_bruteforce(n_bound: int) -> list[int]:
    """Square-free d <= n_bound with x^2 - d y^2 = -4 soluble (x = y mod 2)."""
    out = []
    for d in range(2, n_bound + 1):
        if any(d % (p * p) == 0 for p in range(2, math.isqrt(d) + 1)):
            continue
        found = False
        y = 1
        while not found and y <= 10**5:
            x2 = d * y * y - 4
            if x2 > 0:
                x = math.isqrt(x2)
                if x * x == x2 and (x - y) % 2 == 0:
                    found = True
            y += 1
        if found:
            out.append(d)
    return out


def e_mu_fields(mu: int, x_bound) -> list[tuple[int, int, int]]:
    """(d, trace, signed norm) of every minimal element of |norm| mu in
    (1, x_bound), collected field by field.

    The per-field cross-check of ``E_mu``'s trace scan: every square-free
    d up to (x + mu + 2)^2 is visited, and no discriminant is reduced.
    Where mu is in the convergent range of d the elements come from
    ``minimal_elements``, elsewhere from :func:`minimal_by_scan`.
    """
    from quadunit.quadfield import field_context
    from quadunit.survey import _convergent_route_valid, minimal_elements

    x = Fraction(x_bound)
    if x <= 1:
        return []
    d_max = (int(x) + mu + 2) ** 2
    out = []
    for d in range(2, d_max + 1):
        if any(d % (p * p) == 0 for p in range(2, math.isqrt(d) + 1)):
            continue
        ctx = field_context(d)
        if _convergent_route_valid(ctx, mu):
            found = [xi for xi in minimal_elements(ctx, mu) if _below(xi, x)]
        else:
            found = minimal_by_scan(ctx, mu, x)
        out += [(d, xi.trace(), xi.norm()) for xi in found]
    return out


def minimal_by_scan(ctx, mu: int, x_bound) -> list:
    """Minimal xi = (u + v sqrt(d))/2 of |norm| mu with 1 < xi < x_bound and
    v >= 1, in no fixed order, by a literal scan of v.

    v >= 1 takes xi as the larger root of X^2 - m X +- mu, as E_mu does.
    v sqrt(d) = xi - conj(xi) with |conj(xi)| = mu/xi < mu, so
    v sqrt(d) < x + mu: the scan stops once v^2 d >= (x + mu)^2, bounded by
    its own x.  u^2 = v^2 d +- 4 mu is never a square for d != 1 (mod 4)
    and odd v, so every solution is integral.
    """
    from quadunit.contfrac import fundamental_unit
    from quadunit.quadfield import QuadInt, is_minimal

    x, d = Fraction(x_bound), ctx.d
    eps = fundamental_unit(ctx)
    # v^2 d < (x + mu)^2 with x = n/q: v^2 d q^2 <= (n + mu q)^2 - 1
    n, q = x.numerator, x.denominator
    v_max = math.isqrt(((n + mu * q) ** 2 - 1) // (d * q * q))
    out = []
    for v in range(1, v_max + 1):
        for target in (mu, -mu):
            sq = v * v * d + 4 * target
            r = math.isqrt(max(sq, 0))
            if r * r != sq:
                continue
            for u in {r, -r}:  # one element when r = 0
                xi = QuadInt.from_half(ctx, u, v)
                above_one = _sign_plus_sqrt_frac(u - 2, v, d) > 0
                if above_one and _below(xi, x) and is_minimal(xi, eps):
                    out.append(xi)
    return out


def _below(xi, x: Fraction) -> bool:
    # (u + v sqrt(d))/2 < x
    u, v = xi.half_coords()
    return _sign_plus_sqrt_frac(u - 2 * x, v, xi.ctx.d) < 0


def unit_map(trace_max: int) -> dict[int, tuple[int, int]]:
    """d -> (trace, sqrt coeff) of the fundamental unit, for all fields whose
    fundamental unit has trace <= trace_max.

    Units > 1 of norm +-1 ascend with their trace, so the least trace that
    ``trace_kernels`` yields for a radicand, over both norms, belongs to
    the fundamental unit itself; its sqrt coefficient is read off the scan.
    """
    from quadunit.progressions import trace_kernels

    eps: dict[int, tuple[int, int]] = {}
    for sigma in (-1, 1):
        for m, d, f in trace_kernels(sigma, 0, trace_max):
            if d not in eps or m < eps[d][0]:
                eps[d] = (m, f)
    return eps


def e_mu_consider(mu: int, x_bound) -> list[tuple[int, int, int, int, int]]:
    """(trace, signed norm, d, sqrt coeff, passed) of every candidate of
    ``E_mu``'s trace scan, norm +mu then norm -mu, each by ascending
    trace, decided by three exact signs.

    Each candidate xi = (m + f sqrt d)/2 takes the signs in turn, with no
    integer pre-test: 1 < xi, then xi < x, then xi <= eps_d when eps_d is in
    the unit table.  ``passed`` counts the tests it passed before the first
    it failed; passed == 3 means ``E_mu`` keeps it.
    """
    from quadunit.progressions import trace_kernels
    from quadunit.quadfield import sign_plus_sqrt

    x = Fraction(x_bound)
    if x <= 1:
        return []
    units = unit_map(int(x) + 2)
    out = []
    for sigma, m_min in ((mu, 0), (-mu, -mu)):
        for m, d, f in trace_kernels(sigma, m_min, int(x) + mu + 2):
            unit = units.get(d)
            signs = (
                sign_plus_sqrt(m - 2, f, d) > 0,
                sign_plus_sqrt(m * x.denominator - 2 * x.numerator, f * x.denominator, d) < 0,
                unit is None or sign_plus_sqrt(m - unit[0], f - unit[1], d) <= 0,
            )
            passed = signs.index(False) if False in signs else 3
            out.append((m, sigma, d, f, passed))
    return out


_trial_primes: list[int] = []


def kernel_by_full_trial_range(n: int, bound: int) -> tuple[int, int]:
    """(kernel, cofactor) of n >= 1 by trial division up to min(bound, isqrt(n) + 1).

    The pass up to sqrt(n) that squarefree_kernel's cube-root pass must
    agree with: it stops early once p * p exceeds the cofactor m left (then
    m is 1 or a prime); otherwise a surviving m is a square, or square-free
    below bound**3, or refused with ArithmeticError and the library's message.
    """
    global _trial_primes
    top = min(bound, math.isqrt(n) + 1)
    if not _trial_primes or _trial_primes[-1] < top:
        flags = bytearray([1]) * (2 * top + 1)
        flags[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(2 * top) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, 2 * top + 1, p)))
        _trial_primes = [i for i, f in enumerate(flags) if f]
    kernel = cof = 1
    m = n
    exhausted = True
    stop = min(top, math.isqrt(m))
    for p in _trial_primes:
        if p > stop:  # past top, or p * p > m
            exhausted = p > top
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            kernel *= p ** (e & 1)
            cof *= p ** (e >> 1)
            stop = min(top, math.isqrt(m))
    if m > 1:
        if not exhausted:
            kernel *= m
        elif math.isqrt(m) ** 2 == m:
            cof *= math.isqrt(m)
        elif m < bound**3:
            kernel *= m
        else:
            raise ArithmeticError(f"cofactor {m} of {n} not resolved within budget {bound}")
    return kernel, cof


def float_value(a: int, b: int, d: int, half: bool) -> float:
    """Value of a + b*w[d] using 200-bit fixed point, returned as float."""
    prec = 200
    sqrt_fixed = math.isqrt(d << (2 * prec))
    if half:
        num = (a << prec) + b * ((1 << prec) + sqrt_fixed) // 2
    else:
        num = (a << prec) + b * sqrt_fixed
    return num / (1 << prec)


def cf_of_real(value: Fraction | float, terms: int) -> list[int]:
    """Partial quotients of a real number, naive float/Fraction division."""
    x = Fraction(value)
    out = []
    for _ in range(terms):
        a = math.floor(x)
        out.append(a)
        frac = x - a
        if frac == 0:
            break
        x = 1 / frac
    return out


def hensel_quadratic_scan(a2: int, a1: int, a0: int, p: int, m: int) -> bool:
    """Solvability of a2 x^2 + a1 x + a0 = 0 (mod p^m): scan x over [0, p^m)."""
    if a2 % p == 0:
        raise ValueError("leading coefficient must not be divisible by p")
    pm = p**m
    a2, a1, a0 = a2 % pm, a1 % pm, a0 % pm
    return any((a2 * x * x + a1 * x + a0) % pm == 0 for x in range(pm))


def omega_p_count(prog, p: int) -> int:
    """#{k in [0, p^2) : element(k) = 0 (mod p^2)}, by direct count."""
    A, B, C = prog.coefficients()
    pp = p * p
    return sum(1 for k in range(pp) if (A * k * k + B * k + C) % pp == 0)


def _ext_gcd(x: int, y: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s*x + t*y > 0 (x, y not both zero)."""
    old_r, r = x, y
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_rows(rows: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Hermite form (A, B, C) of the module spanned by rows over {1, w}.

    The module equals A*Z + (B + C*w)*Z with A > 0, C > 0, 0 <= B < A.
    """
    c, bw = 0, 0
    for (u, v) in rows:
        if v == 0:
            continue
        c, s, t = _ext_gcd(c, v)
        bw = s * bw + t * u
    if c == 0:
        raise ValueError("module has rank < 2")
    A = 0
    for (u, v) in rows:
        A = math.gcd(A, u - (v // c) * bw)
    if A == 0:
        raise ValueError("module has rank < 2")
    return A, bw % A, c


def conjugate_coprime_bruteforce(basis) -> bool:
    """gcd(I, conj(I)) = (1): Hermite form of the four generators of I + conj(I)."""
    D = basis.ctx.discriminant
    A, _, C = _hnf_rows(
        [
            (basis.a, 0),
            (basis.b, basis.c),
            (basis.a, 0),
            (basis.b + basis.c * D, -basis.c),
        ]
    )
    return A == 1 and C == 1


def quadratic_roots_mod_p2(A: int, B: int, C: int, p: int) -> list[tuple[int, int]]:
    """Solution set of A k^2 + B k + C = 0 (mod p^2) as (residue, modulus) pairs.

    Moduli are p^2 for simple roots, p when a double root lifts to the whole
    fiber.  Assumes p | A implies p^2 | A (true for the progression forms,
    where A is y~^2 or 4 y^2); anything else falls back to brute force.
    """
    from quadunit.arith import jacobi, sqrt_mod_prime

    pp = p * p
    if p == 2 or (A % p == 0 and A % pp != 0):
        return [(k, pp) for k in range(pp) if (A * k * k + B * k + C) % pp == 0]
    if A % p == 0:
        # quadratic term vanishes mod p^2
        b, c = B % pp, C % pp
        if b == 0:
            return [(0, 1)] if c == 0 else []
        if b % p == 0:
            # (b/p) k + c/p = 0 (mod p), with p not dividing b/p
            return [((-(c // p) * pow(b // p, -1, p)) % p, p)] if c % p == 0 else []
        return [((-c * pow(b, -1, pp)) % pp, pp)]
    disc = B * B - 4 * A * C
    if disc % p:
        if jacobi(disc % p, p) == -1:
            return []
        rt = sqrt_mod_prime(disc % p, p)
        inv2a = pow(2 * A % p, -1, p)
        out = []
        for r in ((-B + rt) * inv2a % p, (-B - rt) * inv2a % p):
            # Newton lift: the derivative 2*A*r + B is a unit mod p
            fr = (A * r * r + B * r + C) % pp
            corr = fr * pow((2 * A * r + B) % pp, -1, pp) % pp
            out.append(((r - corr) % pp, pp))
        return sorted(set(out))
    # double root mod p
    t0 = (-B) * pow(2 * A % p, -1, p) % p
    if (A * t0 * t0 + B * t0 + C) % pp == 0:
        return [(t0, p)]
    return []


def _roots_mod_p2_up_to_sqrt(A: int, B: int, C: int, count: int):
    """(p, r, mod) with p^2 | A k^2 + B k + C for k = r (mod mod), for every
    prime p up to the square root of the largest |value| with 0 <= k < count."""
    vmax = max(max(abs(A * k * k + B * k + C) for k in range(count)), 1)
    flags = bytearray(b"\x01") * (math.isqrt(vmax) + 2)
    for p in range(2, len(flags)):
        if flags[p]:
            flags[p * p :: p] = b"\x00" * len(range(p * p, len(flags), p))
            for r, mod in quadratic_roots_mod_p2(A, B, C, p):
                yield p, r, mod


def squarefree_flags_mod_p2(A: int, B: int, C: int, count: int) -> bytearray:
    """flags[k] == 1 iff A k^2 + B k + C is square-free, by casting out the
    roots mod p^2 of every prime square up to the largest value.

    A zero value is divisible by every p^2, so it gets flag 0.
    """
    flags = bytearray(b"\x01") * count
    for _, r, mod in _roots_mod_p2_up_to_sqrt(A, B, C, count):
        if r < count:
            flags[r::mod] = b"\x00" * len(range(r, count, mod))
    return flags


def square_parts_mod_p2(A: int, B: int, C: int, count: int) -> list[int]:
    """sq[k] = largest square dividing |A k^2 + B k + C| (a zero value gets 1),
    dividing p^2 out at the roots mod p^2 of every prime square up to the
    largest value."""
    vals = [abs(A * k * k + B * k + C) for k in range(count)]
    sq = [1] * count
    for p, r, mod in _roots_mod_p2_up_to_sqrt(A, B, C, count):
        pp = p * p
        for k in range(r, count, mod):
            while vals[k] and vals[k] % pp == 0:
                vals[k] //= pp
                sq[k] *= pp
    return sq
