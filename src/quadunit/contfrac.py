"""Integer-only continued fraction engine for w[d].

The expansion of w[d] is driven entirely by the classical (P, Q) state
recurrence

    a_n = floor((P_n + floor(sqrt(d))) / Q_n),
    P_{n+1} = a_n Q_n - P_n,   Q_{n+1} = (d - P_{n+1}^2) / Q_n,

starting from (P_0, Q_0) = (0, 1) for w[d] = sqrt(d) and (1, 2) for
w[d] = (1+sqrt(d))/2.  The tail alpha_1, alpha_2, ... is purely periodic
with period l, and the period is palindromic (Perron; Jacobson & Williams,
*Solving the Pell Equation*, 2009):

    P_i = P_{l+1-i},   Q_i = Q_{l-i},   a_i = a_{l-i} (1 <= i < l),
    a_l = 2 a_0 - [d = 1 mod 4].

So one walk, :func:`_principal_cycle`, runs the recurrence only to the
midpoint and mirrors the rest.  It stops at the first j >= 1 with
Q_j = Q_{j-1}, where l = 2j - 1, or with P_j = P_{j-1}, where l = 2j - 2.
(P_1 = P_0 only for d = 5, whose Q_1 = Q_0 stops the walk first.)  No
floating point is involved, which makes period detection exact, and the
walk has a step budget, so a radicand with an enormous period raises
:class:`BudgetError` instead of running without bound.

Partial quotients, convergents (p_n, q_n), the quadratic integers
xi_n = conj(p_n - q_n w[d]) and their absolute norms nu_n are produced as
lazy streams so palindromy/determinant checks up to 2l stay cheap.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import repeat

from .arith import BudgetError, isqrt
from .quadfield import (
    FieldContext,
    QuadInt,
    field_context,
    qi_compare,
    sign_plus_sqrt,
)


@dataclass(frozen=True)
class QuadIrr:
    """Exact quadratic irrational (P + sqrt(d)) / Q with Q | d - P^2."""

    d: int
    P: int
    Q: int

    def __post_init__(self):
        if self.Q == 0:
            raise ValueError("Q must be nonzero")
        r = isqrt(self.d)
        if self.d < 2 or r * r == self.d:
            raise ValueError(f"{self.d} is not a valid radicand")
        if (self.d - self.P * self.P) % self.Q:
            raise ValueError(f"Q={self.Q} does not divide d - P^2 for P={self.P}")

    def approx(self) -> float:
        return (self.P + math.sqrt(self.d)) / self.Q

    def as_pair(self) -> tuple[int, int]:
        return self.P, self.Q


def is_reduced(q: QuadIrr) -> bool:
    """alpha > 1 and -1 < conj(alpha) < 0, decided exactly."""
    sq = 1 if q.Q > 0 else -1
    # alpha - 1 = (P - Q + sqrt d)/Q > 0
    if sign_plus_sqrt(q.P - q.Q, 1, q.d) * sq <= 0:
        return False
    # conj(alpha) = (P - sqrt d)/Q < 0
    if sign_plus_sqrt(q.P, -1, q.d) * sq >= 0:
        return False
    # conj(alpha) + 1 = (P + Q - sqrt d)/Q > 0
    return sign_plus_sqrt(q.P + q.Q, -1, q.d) * sq > 0


# Steps of the half-period walk before BudgetError.  This many steps cover
# periods up to 2e6, far beyond the sweeps' periods (at most about 1e4),
# and keep the walk's lists to about 100 MB.
MAX_CF_STEPS = 10**6


def _principal_cycle(ctx: FieldContext) -> tuple[list[int], list[int], list[int]]:
    """(a_0..a_l, P_1..P_l, Q_1..Q_l) over one period of w[d].

    Walks the (P, Q) recurrence from the initial state to the palindromic
    midpoint of the period and mirrors the rest (see the module docstring).
    Raises BudgetError after MAX_CF_STEPS steps.
    """
    d = ctx.d
    sf = ctx.sqrt_floor
    P, Q = (1, 2) if ctx.is_half else (0, 1)
    quotients, Ps, Qs = [], [P], [Q]  # a_i, P_i, Q_i for i = 0, 1, ...
    for _ in range(MAX_CF_STEPS):
        a = (P + sf) // Q
        quotients.append(a)
        P_next = a * Q - P
        Q_next = (d - P_next * P_next) // Q
        Ps.append(P_next)
        Qs.append(Q_next)
        if Q_next == Q:
            odd = True
            break
        if P_next == P:
            odd = False
            break
        P, Q = P_next, Q_next
    else:
        raise BudgetError(f"period of w[{d}] not closed within {MAX_CF_STEPS} steps")
    j = len(Ps) - 1  # the midpoint state
    k = j - 1 if odd else j - 2  # states after it: k = l - j
    quotients += quotients[k:0:-1]  # a_{j..l-1} = a_{k..1}
    quotients.append(2 * quotients[0] - (1 if ctx.is_half else 0))
    return quotients, Ps[1:] + Ps[k:0:-1], Qs[1:] + Qs[:k][::-1]


class CFExpansion:
    """Period, partial quotients, convergents and xi/nu streams for w[d]."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        quotients, Ps, Qs = _principal_cycle(ctx)
        self.a0 = quotients[0]
        self.periodic = tuple(quotients[1:])
        self.l = len(self.periodic)
        # states[i] is the (P, Q) of alpha_{i+1}.  The tuple is built from a
        # list: CPython grows a tuple built from an iterator by reallocation,
        # which strands small tuples in its per-size free lists (about 1 MB
        # more peak RSS for `survey pell --limit 20500` on CPython 3.11).
        self.states = tuple(list(zip(Ps, Qs)))
        self._p = [self.a0]
        self._q = [1]

    def partial_quotient(self, n: int) -> int:
        if n == 0:
            return self.a0
        return self.periodic[(n - 1) % self.l]

    def state(self, n: int) -> tuple[int, int]:
        """(P, Q) of the total quotient alpha_n, n >= 1."""
        if n < 1:
            raise ValueError("total quotients start at index 1")
        return self.states[(n - 1) % self.l]

    def _extend(self, n: int) -> None:
        while len(self._p) <= n:
            k = len(self._p)
            a = self.partial_quotient(k)
            pm2, qm2 = (1, 0) if k == 1 else (self._p[k - 2], self._q[k - 2])
            self._p.append(a * self._p[k - 1] + pm2)
            self._q.append(a * self._q[k - 1] + qm2)

    def convergent(self, n: int) -> tuple[int, int]:
        if n < 0:
            return (1, 0)
        self._extend(n)
        return self._p[n], self._q[n]

    def xi(self, n: int) -> QuadInt:
        """xi_n = conj(p_n - q_n w[d])."""
        p, q = self.convergent(n)
        if self.ctx.is_half:
            return QuadInt(self.ctx, p - q, q)
        return QuadInt(self.ctx, p, q)

    def nu(self, n: int) -> int:
        return abs(self.xi(n).norm())


@lru_cache(maxsize=256)
def expand_omega(ctx: FieldContext) -> CFExpansion:
    return CFExpansion(ctx)


def total_quotient(exp: CFExpansion, n: int) -> QuadIrr:
    """alpha_{n+1} as an exact quadratic irrational (n >= 0)."""
    if n < 0:
        raise ValueError("index must be >= 0")
    P, Q = exp.state(n + 1)
    return QuadIrr(exp.ctx.d, P, Q)


def fundamental_unit(ctx: FieldContext) -> QuadInt:
    """xi_{l-1}: the least unit > 1; N equals (-1)**l."""
    exp = expand_omega(ctx)
    eps = exp.xi(exp.l - 1)
    return eps


@dataclass(frozen=True)
class ResidualBound:
    """Certified check of alpha_{n+1} = sqrt(D)/nu_n - q_{n-1}/q_n + delta_n."""

    n: int
    alpha_below_ratio: bool  # alpha_{n+1} < sqrt(D)/nu_n, exact
    delta_within_bound: bool | None  # |delta_n| < 4/(q_n^2 sqrt(D)); None at n=0
    holds: bool  # the contract for this index
    delta_approx: float
    bound_approx: float


def quotient_norm_residual(exp: CFExpansion, n: int) -> ResidualBound:
    """Exact residual check at index n (delta bound applies to n >= 1).

    delta_n = alpha_{n+1} - sqrt(D)/nu_n + q_{n-1}/q_n is A + B sqrt(d) with
    A = P/Q + q_{n-1}/q_n and B = 1/Q - e/nu, where alpha_{n+1} =
    (P + sqrt d)/Q and sqrt(D) = e sqrt(d).  Multiplying
    |delta_n| < 4/(q_n^2 e sqrt d) through by q_n^2 e sqrt(d) and by Q nu
    clears every denominator.  Q nu > 0, because the states of w[d] have
    Q > 0 and nu = |N(xi_n)| > 0 for non-square d, so the direction of the
    inequality is kept:

        -m < U + V sqrt(d) < m,   U = (nu - e Q) d q_n^2 e,
        V = (P q_n + Q q_{n-1}) q_n e nu,   m = 4 Q nu,

    which :func:`_delta_within` decides in integers (see there).  The cost
    is about two squarings of q_n-size integers per index, q_n^2 and
    (P q_n + Q q_{n-1})^2, besides the norm nu_n; no operand reaches the
    size of q_n^4.  The float fields are reports only and never decide a
    verdict.
    """
    if n < 0:
        raise ValueError("index must be >= 0")
    ctx = exp.ctx
    d = ctx.d
    e = ctx.sqrt_disc_scale  # sqrt(D) = e * sqrt(d)
    nu = exp.nu(n)
    P, Q = exp.state(n + 1)
    _, qn = exp.convergent(n)
    _, qm1 = exp.convergent(n - 1)
    q2 = qn * qn

    # alpha_{n+1} < sqrt(D)/nu  <=>  nu*P + (nu - Q*e) sqrt(d) < 0
    alpha_below = sign_plus_sqrt(nu * P, nu - Q * e, d) < 0

    sd = math.sqrt(d)
    delta_approx = (P + sd) / Q - e * sd / nu + qm1 / qn
    try:
        bound_approx = 4.0 / (q2 * e * sd)
    except OverflowError:
        bound_approx = 0.0  # report only; the verdict is exact
    if n == 0:
        return ResidualBound(n, alpha_below, None, alpha_below, delta_approx, bound_approx)
    within = _delta_within(d, e, nu, P, Q, qn, qm1, q2)
    return ResidualBound(n, alpha_below, within, within, delta_approx, bound_approx)


def _delta_within(d: int, e: int, nu: int, P: int, Q: int, qn: int, qm1: int, q2: int) -> bool:
    """-m < U + V sqrt(d) < m (see :func:`quotient_norm_residual`), exactly.

    Needs Q, nu, qn > 0 and q2 = qn^2.  U and V share the factor g = e q_n,
    so with u = c d q_n, v = w nu, c = nu - e Q and w = P q_n + Q q_{n-1}
    the test reads |g t| < m for t = u + v sqrt(d).  In the usual case
    u < 0 < v (c < 0 < w), the conjugate u - v sqrt(d) is negative and t
    times it is
    N = u^2 - v^2 d = d N1 with N1 = c^2 d q_n^2 - w^2 nu^2.
    Then |g t| < m becomes g |N| < -m u + m v sqrt(d); it holds at once when
    -m u >= g |N|, that is -m c >= e |N1|, and is one exact sign otherwise.
    On the data of a true expansion N1 is small, |N1| = Q^2 nu whatever the
    size of q_n, and -m c = 2 e |N1|, so the quick test decides.
    """
    c = nu - e * Q
    w = P * qn + Q * qm1
    m = 4 * Q * nu
    if c < 0 < w:
        n1 = abs(c * c * d * q2 - w * w * nu * nu)
        return -m * c >= e * n1 or sign_plus_sqrt(-(m * c + e * n1) * d * qn, m * w * nu, d) > 0
    U = e * c * d * q2
    V = e * qn * w * nu
    return sign_plus_sqrt(U - m, V, d) < 0 and sign_plus_sqrt(U + m, V, d) > 0


def alpha_product(exp: CFExpansion) -> tuple[Fraction, Fraction]:
    """prod_{i=1..l} alpha_i as exact (A, B) with value A + B*sqrt(d)."""
    d = exp.ctx.d
    A, B = Fraction(1), Fraction(0)
    for i in range(1, exp.l + 1):
        P, Q = exp.state(i)
        A, B = (A * P + B * d) / Q, (A + B * P) / Q
    return A, B


def regulator(ctx: FieldContext) -> float:
    """log(eps_d) as the sum of log(alpha_i) over one period.

    The (P, Q) states come from the half-period walk, so the period's
    states are held in memory (at most MAX_CF_STEPS of them are walked).
    The float result is fixed bit for bit: the terms
    log((P_i + sqrt d) / Q_i) are added for i = 1..l in period order, left
    to right, starting from 0.0.  ``sum()`` is not used because from
    Python 3.12 it compensates float sums, and ``math.fsum`` rounds once
    at the end; either would change the last bits, and the printed sweeps
    depend on them.  Per-term float error is ~1e-16, giving ~1e-12
    relative accuracy for periods in the 1e4 range.
    """
    _, Ps, Qs = _principal_cycle(ctx)
    alphas = map(operator.truediv, map(operator.add, Ps, repeat(math.sqrt(ctx.d))), Qs)
    return reduce(operator.add, map(math.log, alphas), 0.0)


@lru_cache(maxsize=4096)
def _cached_regulator(ctx: FieldContext) -> float:
    return regulator(ctx)


def unit_compare(ctx: FieldContext, xi: QuadInt) -> int:
    """Exact sign of xi - eps_d for xi > 0: -1 below, 0 equal, +1 above.

    The logs of xi and eps_d are compared first; the margin 1e-6*(1+R)
    dwarfs both certified log errors, and anything closer falls back to
    exact integer comparison of full unit coefficients.
    """
    R = _cached_regulator(ctx)
    lx = xi.log_value()
    margin = 1e-6 * (1.0 + abs(R))
    if lx < R - margin:
        return -1
    if lx > R + margin:
        return 1
    verdict = qi_compare(xi, fundamental_unit(ctx))
    return {"less": -1, "equal": 0, "greater": 1}[verdict]


def expansion_of(d: int) -> CFExpansion:
    return expand_omega(field_context(d))
