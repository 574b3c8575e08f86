"""Field contexts and exact algebra of quadratic integers a + b*w[d].

A :class:`FieldContext` fixes a square-free radicand d >= 2 together with
the integral-basis generator w[d] (= (1+sqrt(d))/2 when d = 1 mod 4, else
sqrt(d)) and the field discriminant D.  :class:`QuadInt` elements carry
exact integer coordinates over the basis {1, w[d]}, so half-integers in
the d = 1 (mod 4) case need no denominators.

All order comparisons are decided exactly by isolating the sqrt(d) term
and comparing squares with sign tracking; floating point never decides.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import isqrt, squarefree_kernel


def sign_plus_sqrt(u: int, v: int, d: int) -> int:
    """Exact sign of u + v*sqrt(d) for integers u, v and non-square d >= 2."""
    if v == 0:
        return (u > 0) - (u < 0)
    if v > 0:
        if u >= 0:
            return 1
        return 1 if v * v * d > u * u else (-1 if v * v * d < u * u else 0)
    return -sign_plus_sqrt(-u, -v, d)


def floor_plus_sqrt_div(u: int, v: int, w: int, d: int) -> int:
    """Exact floor((u + v*sqrt(d)) / w) for integers with w > 0."""
    if w <= 0:
        raise ValueError("denominator must be positive")
    if v >= 0:
        fl = isqrt(v * v * d)
    else:
        fl = -isqrt(v * v * d) - 1  # v*v*d is never a perfect square here
    return (u + fl) // w


@dataclass(frozen=True)
class FieldContext:
    """A real quadratic field fixed by its square-free radicand d."""

    d: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"radicand must be >= 2, got {self.d}")
        r = isqrt(self.d)
        if r * r == self.d:
            raise ValueError(f"radicand {self.d} is a perfect square")
        if squarefree_kernel(self.d)[1] != 1:
            raise ValueError(f"radicand {self.d} is not square-free")

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

    @property
    def sqrt_floor(self) -> int:
        return isqrt(self.d)

    @property
    def omega_floor(self) -> int:
        """floor(w[d])."""
        return (1 + self.sqrt_floor) // 2 if self.is_half else self.sqrt_floor

    # sqrt(D) = sqrt_disc_scale * sqrt(d)
    @property
    def sqrt_disc_scale(self) -> int:
        return 1 if self.is_half else 2

    def omega(self) -> "QuadInt":
        return QuadInt(self, 0, 1)

    def one(self) -> "QuadInt":
        return QuadInt(self, 1, 0)


@lru_cache(maxsize=4096)
def field_context(d: int) -> FieldContext:
    return FieldContext(d)


@dataclass(frozen=True)
class QuadInt:
    """Element a + b*w[d] of the ring of integers of Q(sqrt(d))."""

    ctx: FieldContext
    a: int
    b: int

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

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def unit_inverse(self) -> "QuadInt":
        """Exact inverse of a unit: eps**-1 = N(eps) * conj(eps)."""
        n = self.norm()
        if abs(n) != 1:
            raise ValueError(f"{self} is not a unit (norm {n})")
        return self.conj().scale(n)

    def __pow__(self, k: int) -> "QuadInt":
        if k < 0:
            return self.unit_inverse() ** (-k)
        out = self.ctx.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def half_coords(self) -> tuple[int, int]:
        """(u, v) with value = (u + v*sqrt(d)) / 2."""
        if self.ctx.is_half:
            return 2 * self.a + self.b, self.b
        return 2 * self.a, 2 * self.b

    def sign(self) -> int:
        u, v = self.half_coords()
        return sign_plus_sqrt(u, v, self.ctx.d)

    def is_rational(self) -> bool:
        return self.b == 0

    def approx(self) -> float:
        """Double approximation; overflows to +-inf instead of raising."""
        u, v = self.half_coords()
        if max(abs(u), abs(v)) < 1 << 500:
            return (u + v * math.sqrt(self.ctx.d)) / 2.0
        lv = self.log_value()
        if lv > 700:
            return math.copysign(math.inf, self.sign())
        return math.copysign(math.exp(lv), self.sign())

    def log_value(self) -> float:
        """log |value|, accurate to ~1e-12 relative for values above 1,
        however huge the coordinates.

        Uses a 64-fractional-bit integer evaluation of |u + v*sqrt(d)| and a
        bit-length-reduced logarithm, so nothing overflows.  Near-complete
        cancellation (values far below 1) degrades gracefully; nothing that
        decides an exact comparison goes through here.
        """
        u, v = self.half_coords()
        k = 64
        t = isqrt(self.ctx.d << (2 * k))  # floor(sqrt(d) * 2**k)
        w = abs((u << k) + v * t)
        if w == 0:
            raise ValueError("log of zero")
        sh = max(w.bit_length() - 53, 0)
        return math.log(w >> sh) + sh * math.log(2) - (k + 1) * math.log(2)

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


_QUADINT_RE = re.compile(r"^\s*([+-]?\d+)\s*([+-]\s*\d+)\s*\*\s*w\[(\d+)\]\s*$")


def parse_quadint(text: str) -> QuadInt:
    m = _QUADINT_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse quadratic integer {text!r}")
    a = int(m.group(1))
    b = int(m.group(2).replace(" ", ""))
    return QuadInt(field_context(int(m.group(3))), a, b)


def qi_algebra(x: QuadInt, y: QuadInt | None, kind: str):
    """Dispatcher: mul, conj, norm, trace (mul needs both operands)."""
    if kind == "mul":
        if y is None:
            raise ValueError("mul needs a second operand")
        return x * y
    if kind == "conj":
        return x.conj()
    if kind == "norm":
        return x.norm()
    if kind == "trace":
        return x.trace()
    raise ValueError(f"unknown kind {kind!r}")


def qi_compare(x: QuadInt, bound) -> str:
    """Exact order of x against a QuadInt (same field) or a rational.

    Returns "less", "equal" or "greater".
    """
    if isinstance(bound, QuadInt):
        x._require_same_field(bound)
        u1, v1 = x.half_coords()
        u2, v2 = bound.half_coords()
        s = sign_plus_sqrt(u1 - u2, v1 - v2, x.ctx.d)
    else:
        r = Fraction(bound)
        u, v = x.half_coords()
        # (u + v*sqrt(d))/2 - p/q has the sign of (u*q - 2*p) + v*q*sqrt(d)
        s = sign_plus_sqrt(u * r.denominator - 2 * r.numerator, v * r.denominator, x.ctx.d)
    return "less" if s < 0 else ("greater" if s > 0 else "equal")


def is_minimal(x: QuadInt, eps: QuadInt) -> bool:
    """True iff x is the least element > 1 among its associates.

    Convention: x * eps**-1 <= 1 < x, so eps itself is minimal (the unit
    class's least element above 1).
    """
    if abs(eps.norm()) != 1:
        raise ValueError(f"eps = {eps} is not a unit")
    x._require_same_field(eps)
    if x.b == 0:
        raise ValueError(f"{x} is rational, not a quadratic irrational")
    if qi_compare(x, 1) != "greater":
        raise ValueError(f"{x} is not > 1")
    deflated = x * eps.unit_inverse()
    return qi_compare(deflated, 1) != "greater"
