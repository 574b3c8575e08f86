"""Independent oracles shared by the test modules.

Everything here is deliberately dumb and slow: literal searches, float
cross-checks, and third-party (sympy) computations that never touch the
package's own code paths.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


def fraction_residual(exp, n: int):
    """quotient_norm_residual(exp, n) computed with the Fraction check above."""
    from quadunit.contfrac import ResidualBound

    d = exp.ctx.d
    e = exp.ctx.sqrt_disc_scale
    nu = exp.nu(n)
    P, Q = exp.state(n + 1)
    _, qn = exp.convergent(n)
    _, qm1 = exp.convergent(n - 1)
    alpha_below = _sign_plus_sqrt_frac(nu * P, nu - Q * e, d) < 0
    within = fraction_delta_within(d, e, nu, P, Q, qn, qm1)
    sd = math.sqrt(d)
    delta_approx = (P + sd) / Q - e * sd / nu + qm1 / qn
    try:
        bound_approx = 4.0 / (qn * qn * e * sd)
    except OverflowError:
        bound_approx = 0.0
    if n == 0:
        return ResidualBound(n, alpha_below, None, alpha_below, delta_approx, bound_approx)
    return ResidualBound(n, alpha_below, within, within, delta_approx, bound_approx)


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
