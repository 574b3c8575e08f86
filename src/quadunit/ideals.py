"""Canonical bases of integral ideals and reduced-ideal enumeration.

An integral ideal is represented only through its unique canonical basis
[a, b + c*w] over Z, where w = (D + sqrt(D))/2 (note: this is a different
generator than w[d]; :func:`omega_ideal` builds it).  The defining
conditions are

    (i)   a > 0, c > 0, a*c = N(I),
    (ii)  c | a, c | b, N(b + c*w) = 0 (mod a*c),
    (iii) -a < b + c*conj(w) < 0,

all of which are decided exactly.  (iii) pins b uniquely inside its
residue class mod a because conj(w) is irrational.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import NamedTuple

from .arith import factorize, is_squarefree, isqrt, jacobi, mod_inverse
from .contfrac import QuadIrr, convergent_xi, convergents, expand_omega, is_reduced
from .quadfield import FieldContext, QuadInt, sign_plus_sqrt


def omega_ideal(ctx: FieldContext) -> QuadInt:
    """w = (D + sqrt(D))/2 = (D + e*sqrt(d))/2, e = sqrt_disc_scale."""
    return QuadInt.from_half(ctx, ctx.discriminant, ctx.sqrt_disc_scale)


class IdealBasis(namedtuple("IdealBasis", "ctx a b c")):
    """Canonical basis [a, b + c*w] of an integral ideal."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # checked, as is _replace through it

    def __new__(cls, ctx: FieldContext, a: int, b: int, c: int):
        self = super().__new__(cls, ctx, a, b, c)
        if a <= 0 or c <= 0:
            raise ValueError(f"need a > 0 and c > 0, got a={a}, c={c}")
        if a % c or b % c:
            raise ValueError(f"c={c} must divide a={a} and b={b}")
        if self.generator_second().norm() % (a * c):
            raise ValueError(f"N(b+c*w) not divisible by a*c for {self}")
        D, e, d = ctx.discriminant, ctx.sqrt_disc_scale, ctx.d
        # (iii): -a < b + c*conj(w) < 0 with conj(w) = (D - sqrt D)/2
        u = 2 * b + c * D
        if not (sign_plus_sqrt(u, -c * e, d) < 0 and sign_plus_sqrt(u + 2 * a, -c * e, d) > 0):
            raise ValueError(f"basis {self} violates the translation condition")
        return self

    def generator_second(self) -> QuadInt:
        return omega_ideal(self.ctx).scale(self.c) + QuadInt(self.ctx, self.b, 0)

    def norm(self) -> int:
        return self.a * self.c


def _canonical_b(ctx: FieldContext, a: int, b0: int, c: int) -> int:
    """Translate b0 by multiples of a > 0 into the (iii) window, for c > 0."""
    D = ctx.discriminant
    # floor((-c*conj(w) - b0) / a) with conj(w) = (D - sqrt D)/2
    return b0 + a * ((isqrt(c * c * D) - c * D - 2 * b0) // (2 * a))


def canonical_from_module(ctx: FieldContext, a: int, b0: int, c: int) -> IdealBasis:
    """Canonical basis of the Z-module a*Z + (b0 + c*w)*Z (must be an ideal)."""
    if a <= 0 or c <= 0:
        raise ValueError(f"need a > 0 and c > 0, got a={a}, c={c}")
    return IdealBasis(ctx, a, _canonical_b(ctx, a, b0, c), c)


def _omega_coords(x: QuadInt) -> tuple[int, int]:
    """Coordinates (u, v) of x over the {1, w} basis, w = (D + e*sqrt(d))/2."""
    u, v = x.half_coords()
    v //= x.ctx.sqrt_disc_scale
    return (u - v * x.ctx.discriminant) // 2, v


def principal_basis(xi: QuadInt) -> IdealBasis:
    """Canonical basis of the principal ideal (xi), via 2x2 Hermite form."""
    if xi.a == 0 and xi.b == 0:
        raise ValueError("zero generates the zero module, not an ideal")
    ctx = xi.ctx
    u1, v1 = _omega_coords(xi)
    u2, v2 = _omega_coords(omega_ideal(ctx) * xi)
    g = math.gcd(v1, v2)  # = s*v1 + t*v2
    if v2:
        s = mod_inverse(v1 // g, abs(v2) // g)
        t = (g - s * v1) // v2
    else:  # omega*xi is rational, e.g. xi = conj(omega)
        s, t = v1 // g, 0
    b0 = s * u1 + t * u2
    det = u1 * v2 - u2 * v1
    a = abs(det) // g
    basis = canonical_from_module(ctx, a, b0, g)
    if basis.norm() != abs(xi.norm()):
        raise AssertionError(f"norm mismatch for principal basis of {xi}")
    return basis


def alpha_of_ideal(basis: IdealBasis) -> QuadIrr:
    """The associated quadratic irrational (b + c*w)/a, as (P + sqrt d)/Q."""
    ctx = basis.ctx
    ah, bh = basis.a // basis.c, basis.b // basis.c
    e = ctx.sqrt_disc_scale  # (bh + w)/ah = (2 bh + D + e sqrt(d)) / (2 ah)
    return QuadIrr(ctx.d, (2 * bh + ctx.discriminant) // e, 2 * ah // e)


def is_reduced_ideal(basis: IdealBasis) -> bool:
    return basis.c == 1 and is_reduced(alpha_of_ideal(basis))


def conjugate_coprime(basis: IdealBasis) -> bool:
    """gcd(I, conj(I)) = (1), from canonical data.

    I + conj(I) has Hermite form [g, b + c*w] with g = gcd(a, 2b + c*D), so
    the sum is the unit ideal iff g = 1 and c = 1.  Validated against the
    module-sum oracle ``conjugate_coprime_bruteforce`` in ``tests/oracles.py``.
    """
    return basis.c == 1 and math.gcd(basis.a, 2 * basis.b + basis.c * basis.ctx.discriminant) == 1


def mu_below_omega(ctx: FieldContext, mu: int) -> bool:
    """Exact test of the counting hypothesis mu < w[d] = (t + e*sqrt(d))/2."""
    return mu < 1 or (2 * mu - ctx.omega_trace) ** 2 < ctx.sqrt_disc_scale ** 2 * ctx.d


def norm_ideal_candidates(ctx: FieldContext, mu: int) -> list[IdealBasis]:
    """All canonical bases [mu, b + w]: square-free mu forces c = 1."""
    if mu < 1 or not is_squarefree(mu):
        raise ValueError(f"norm {mu} must be a positive square-free integer")
    w = omega_ideal(ctx)
    out = []
    for r in range(mu):
        if (QuadInt(ctx, r, 0) + w).norm() % mu == 0:
            out.append(IdealBasis(ctx, mu, _canonical_b(ctx, mu, r, 1), 1))
    out.sort(key=lambda basis: basis.b)
    return out


def reduced_ideals_of_norm(ctx: FieldContext, mu: int) -> list[IdealBasis]:
    """The reduced integral ideals of norm mu (enumeration, no formula)."""
    return [basis for basis in norm_ideal_candidates(ctx, mu) if is_reduced_ideal(basis)]


def count_reduced_formula(ctx: FieldContext, mu: int) -> int:
    """Four-case count of reduced ideals of square-free norm mu < w[d].

    With mu1 = gcd(mu, 2d) and mu = mu1*mu2 the count is 2**omega(mu2),
    doubled once when mu is even and d = 1 (mod 8), and zero when d is a
    non-square modulo mu or when mu is even with d = 5 (mod 8).
    """
    if mu < 1 or not is_squarefree(mu):
        raise ValueError(f"norm {mu} must be a positive square-free integer")
    if not mu_below_omega(ctx, mu):
        raise ValueError(f"count formula requires mu < w[d] (mu={mu}, d={ctx.d})")
    d = ctx.d
    omega_mu2 = 0
    for p in factorize(mu).primes():
        if p == 2:
            continue
        if jacobi(d % p, p) == -1:
            return 0  # d is a non-square modulo mu
        if d % p:
            omega_mu2 += 1  # p coprime to 2d contributes to mu2
    if d % 4 in (2, 3):
        return 1 << omega_mu2
    if mu % 2 == 1:
        return 1 << omega_mu2
    if d % 8 == 1:
        return 1 << (omega_mu2 + 1)
    return 0


class XiAlphaIndex(NamedTuple):
    n: int
    ok: bool
    a: int
    nu: int
    c: int
    alpha_ideal: tuple[int, int]
    alpha_cf: tuple[int, int]


def xi_alpha_check(ctx: FieldContext) -> list[XiAlphaIndex]:
    """Verify alpha((xi_n)) == alpha_{n+1} at every n < l, exactly."""
    exp = expand_omega(ctx)
    out = []
    for n, ((_, P, Q, nu), (p, q)) in enumerate(zip(exp.period(), convergents(exp))):
        basis = principal_basis(convergent_xi(ctx, p, q))
        ai = alpha_of_ideal(basis).as_pair()
        ac = QuadIrr(ctx.d, P, Q).as_pair()
        ok = basis.c == 1 and basis.a == nu and ai == ac
        out.append(XiAlphaIndex(n, ok, basis.a, nu, basis.c, ai, ac))
    return out
