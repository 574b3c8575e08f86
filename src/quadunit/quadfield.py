"""Field contexts and exact algebra of quadratic integers a + b*w[d].

A :class:`FieldContext` fixes a square-free radicand d >= 2 together with
the integral-basis generator w[d] (= (1+sqrt(d))/2 when d = 1 mod 4, else
sqrt(d)) and the field discriminant D.  :class:`QuadInt` elements carry
exact integer coordinates over the basis {1, w[d]}, so half-integers in
the d = 1 (mod 4) case need no denominators.

Every order decision goes through :func:`qi_compare`, which returns the
exact sign of x - bound (-1, 0 or +1) by isolating the sqrt(d) term and
comparing squares with sign tracking.  No float appears here: values
are rendered by :func:`decimal_approx`, in exact integer arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .arith import isqrt, squarefree_kernel, trial_bound


def sign_plus_sqrt(u: int, v: int, d: int) -> int:
    """Exact sign of u + v*sqrt(d) for integers u, v and non-square d >= 2."""
    if v == 0:
        return (u > 0) - (u < 0)
    if v > 0:
        if u >= 0:
            return 1
        return 1 if v * v * d > u * u else (-1 if v * v * d < u * u else 0)
    return -sign_plus_sqrt(-u, -v, d)


class FieldContext(namedtuple("FieldContext", "d")):
    """A real quadratic field fixed by its square-free radicand d."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # checked, as is _replace through it

    def __new__(cls, d: int):
        if d < 2:
            raise ValueError(f"radicand must be >= 2, got {d}")
        r = isqrt(d)
        if r * r == d:
            raise ValueError(f"radicand {d} is a perfect square")
        if squarefree_kernel(d)[1] != 1:
            raise ValueError(f"radicand {d} is not square-free")
        return super().__new__(cls, d)

    @property
    def is_half(self) -> bool:
        """True when w[d] = (1+sqrt(d))/2, i.e. d = 1 (mod 4)."""
        return self.d % 4 == 1

    @property
    def discriminant(self) -> int:
        return self.d if self.is_half else 4 * self.d

    @property
    def omega_trace(self) -> int:
        return 1 if self.is_half else 0

    @property
    def omega_norm(self) -> int:
        return (1 - self.d) // 4 if self.is_half else -self.d

    # sqrt(D) = sqrt_disc_scale * sqrt(d)
    @property
    def sqrt_disc_scale(self) -> int:
        return 1 if self.is_half else 2


@lru_cache(maxsize=4096)
def _field_context(d: int, bound: int) -> FieldContext:
    return FieldContext(d)  # validated under bound, the trial bound in force


def field_context(d: int) -> FieldContext:
    """The cached context of d, keyed on the trial bound in force as well:
    a radicand factored under one budget never answers for another."""
    return _field_context(d, trial_bound())


field_context.cache_info = _field_context.cache_info
field_context.cache_clear = _field_context.cache_clear


class QuadInt(NamedTuple):
    """Element a + b*w[d] of the ring of integers of Q(sqrt(d))."""

    ctx: FieldContext
    a: int
    b: int

    def _not_a_sequence(self, other):
        return NotImplemented

    # no tuple order and no repetition: x < y and k * x raise TypeError, as
    # order is qi_compare's and scale(k) multiplies by an integer
    __lt__ = __le__ = __gt__ = __ge__ = __rmul__ = _not_a_sequence

    def _require_same_field(self, other: "QuadInt") -> None:
        if self.ctx != other.ctx:
            raise ValueError(
                f"mixed field contexts d={self.ctx.d} and d={other.ctx.d}"
            )

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._require_same_field(other)
        return QuadInt(self.ctx, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._require_same_field(other)
        return QuadInt(self.ctx, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.ctx, -self.a, -self.b)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        # w*w = Tr(w)*w - N(w)
        self._require_same_field(other)
        t, nw = self.ctx.omega_trace, self.ctx.omega_norm
        bb = self.b * other.b
        return QuadInt(
            self.ctx,
            self.a * other.a - bb * nw,
            self.a * other.b + self.b * other.a + bb * t,
        )

    def scale(self, k: int) -> "QuadInt":
        return QuadInt(self.ctx, k * self.a, k * self.b)

    def divide_exact(self, k: int) -> "QuadInt":
        if k == 0 or self.a % k or self.b % k:
            raise ValueError(f"{self} is not divisible by {k}")
        return QuadInt(self.ctx, self.a // k, self.b // k)

    def conj(self) -> "QuadInt":
        return QuadInt(self.ctx, self.a + self.b * self.ctx.omega_trace, -self.b)

    def norm(self) -> int:
        # a^2 + a b t + b^2 nw with two big products instead of three
        t, nw = self.ctx.omega_trace, self.ctx.omega_norm
        return self.a * (self.a + self.b * t) + self.b * self.b * nw

    def trace(self) -> int:
        return 2 * self.a + self.b * self.ctx.omega_trace

    def half_coords(self) -> tuple[int, int]:
        """(u, v) with value = (u + v*sqrt(d)) / 2."""
        if self.ctx.is_half:
            return 2 * self.a + self.b, self.b
        return 2 * self.a, 2 * self.b

    @classmethod
    def from_half(cls, ctx: FieldContext, u: int, v: int) -> "QuadInt":
        """(u + v*sqrt(d))/2, the inverse of :meth:`half_coords`: with v = b*e
        it is (u - b*t)/2 + b*w[d].  ValueError when that is not an integer."""
        b, r = divmod(v, ctx.sqrt_disc_scale)
        a2 = u - b * ctx.omega_trace
        if r or a2 % 2:
            raise ValueError(f"({u} + {v}*sqrt({ctx.d}))/2 is not an integer of Q(sqrt({ctx.d}))")
        return cls(ctx, a2 // 2, b)

    def __str__(self) -> str:
        return format_quadint(self)


def format_quadint(x: QuadInt) -> str:
    """Canonical text form a+b*w[d]."""
    return f"{x.a}{x.b:+d}*w[{x.ctx.d}]"


def decimal_approx(x: QuadInt, bits: int = 256) -> str:
    """Decimal rendering from a bits-wide fixed-point evaluation.

    Truncated (rounded toward zero) at bits // 4 fractional digits; exact
    integer arithmetic throughout, so output is reproducible bit for bit.
    """
    if bits < 64:
        raise ValueError("precision must be at least 64 bits")
    u, v = x.half_coords()
    num = (u << bits) + v * isqrt(x.ctx.d << (2 * bits))  # 2 * value * 2**bits
    digits = bits // 4
    scaled = abs(num) * 10**digits >> (bits + 1)
    sign = "-" if num < 0 else ""
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"


def qi_compare(x: QuadInt, bound) -> int:
    """Exact sign of x - bound: -1, 0 or +1.

    bound is a QuadInt of the same field or a rational.
    """
    if isinstance(bound, QuadInt):
        x._require_same_field(bound)
        u1, v1 = x.half_coords()
        u2, v2 = bound.half_coords()
        return sign_plus_sqrt(u1 - u2, v1 - v2, x.ctx.d)
    r = Fraction(bound)
    u, v = x.half_coords()
    # (u + v*sqrt(d))/2 - p/q has the sign of (u*q - 2*p) + v*q*sqrt(d)
    return sign_plus_sqrt(u * r.denominator - 2 * r.numerator, v * r.denominator, x.ctx.d)


def is_minimal(x: QuadInt, eps: QuadInt) -> bool:
    """True iff x is the least element > 1 among its associates: 1 < x <= eps.

    eps is the fundamental unit, so eps itself is minimal (the unit class's
    least element above 1).  For a unit eps > 1, x <= eps is the same
    verdict as x * eps**-1 <= 1, decided with no product.
    """
    if abs(eps.norm()) != 1:
        raise ValueError(f"eps = {eps} is not a unit")
    x._require_same_field(eps)
    if qi_compare(eps, 1) <= 0:
        raise ValueError(f"eps = {eps} is not > 1")
    if x.b == 0:
        raise ValueError(f"{x} is rational, not a quadratic irrational")
    if qi_compare(x, 1) <= 0:
        raise ValueError(f"{x} is not > 1")
    return qi_compare(x, eps) <= 0
