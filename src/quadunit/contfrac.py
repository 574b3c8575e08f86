"""Integer-only continued fraction engine for w[d].

The expansion of w[d] is driven entirely by the classical (P, Q) state
recurrence

    a_n = floor((P_n + floor(sqrt(d))) / Q_n),
    P_{n+1} = a_n Q_n - P_n,   Q_{n+1} = (d - P_{n+1}^2) / Q_n,

starting from (P_0, Q_0) = (0, 1) for w[d] = sqrt(d) and (1, 2) for
w[d] = (1+sqrt(d))/2.  The tail alpha_1, alpha_2, ... is purely periodic
with period l, and the period is palindromic (Perron; Jacobson & Williams,
*Solving the Pell Equation*, 2009):

    P_i = P_{l+1-i},   Q_i = Q_{l-i}   (1 <= i <= l),
    a_i = a_{l-i} (1 <= i < l),   a_l = 2 a_0 - [d = 1 mod 4].

So one walk, :func:`_half_cycle`, runs the recurrence only to the
midpoint.  It stops at the first j >= 1 with Q_j = Q_{j-1}, where
l = 2j - 1, or with P_j = P_{j-1}, where l = 2j - 2.  (P_1 = P_0 only for
d = 5, whose Q_1 = Q_0 stops the walk first.)  The half walk is the only
stored form of a period, read through the palindrome, and a memo holds
the last walk, so one query walks each field once.  No floating point is
involved, which makes period detection exact, and the walk has a step
budget, so a radicand with an enormous period raises :class:`BudgetError`
instead of running without bound.

The fundamental unit needs no mirror.  With k = j - 1, the
convergents p_n/q_n of a_0..a_k give the last convergent of the period
body through the midpoint identities (same references):

    odd l = 2k + 1:  p_{l-1} = p_k q_k + p_{k-1} q_{k-1},
                     q_{l-1} = q_k^2 + q_{k-1}^2;
    even l = 2k:     p_{l-1} = p_k q_{k-1} + p_{k-1} q_{k-2},
                     q_{l-1} = q_{k-1} (q_k + q_{k-2}),

with p_{-1}/q_{-1} = 1/0 and p_{-2}/q_{-2} = 0/1, and eps_d = xi_{l-1}.

A period is read one way, in order: CFExpansion.period yields
(a_n, P_{n+1}, Q_{n+1}, nu_n) for n = 0 .. l - 1, where the absolute norm
nu_n = |N(xi_n)| is read off the state of alpha_{n+1}.  :func:`convergents`
runs p_n, q_n over the same quotients, and :func:`convergent_xi` builds
xi_n = conj(p_n - q_n w[d]) from them.

:func:`residuals_hold` decides the residual certificate of one period in
exact integers, reading the period in order through CFExpansion.period;
:func:`_delta_within` is its exact delta test where the quick accept does
not decide.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import chain

from .arith import BudgetError, isqrt
from .quadfield import FieldContext, QuadInt, sign_plus_sqrt


class QuadIrr(namedtuple("QuadIrr", "d P Q")):
    """Exact quadratic irrational (P + sqrt(d)) / Q with Q | d - P^2."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # checked, as is _replace through it

    def __new__(cls, d: int, P: int, Q: int):
        if Q == 0:
            raise ValueError("Q must be nonzero")
        r = isqrt(d)
        if d < 2 or r * r == d:
            raise ValueError(f"{d} is not a valid radicand")
        if (d - P * P) % Q:
            raise ValueError(f"Q={Q} does not divide d - P^2 for P={P}")
        return super().__new__(cls, d, P, Q)

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


@lru_cache(maxsize=1)  # the last walk only: at MAX_CF_STEPS one walk holds about 100 MB
def _half_cycle(d: int, max_steps: int) -> tuple[list[int], list[int], list[int], bool]:
    """(a_0..a_{j-1}, P_0..P_j, Q_0..Q_j, odd) of w[d] up to the midpoint state j.

    Walks the (P, Q) recurrence from the initial state to the palindromic
    midpoint of the period (see the module docstring); odd tells whether
    l = 2j - 1 (else l = 2j - 2).  Raises BudgetError after max_steps
    steps.  Callers pass the radicand of a FieldContext and MAX_CF_STEPS,
    read at call time, so the memo never answers a lowered budget with a
    walk made under a higher one.  The three lists are the memo's own, not
    copies: callers index, slice and iterate them and must not mutate them.
    """
    sf = isqrt(d)
    P, Q = (1, 2) if d % 4 == 1 else (0, 1)
    quotients, Ps, Qs = [], [P], [Q]  # a_i, P_i, Q_i for i = 0, 1, ...
    for _ in range(max_steps):
        a = (P + sf) // Q
        quotients.append(a)
        P_next = a * Q - P
        Q_next = (d - P_next * P_next) // Q
        Ps.append(P_next)
        Qs.append(Q_next)
        if Q_next == Q or P_next == P:
            return quotients, Ps, Qs, Q_next == Q
        P, Q = P_next, Q_next
    raise BudgetError(f"period of w[{d}] not closed within {max_steps} steps")


def period_is_odd(d: int) -> bool:
    """Whether the period l of w[d] is odd, so N(eps_d) = (-1)**l = -1: the
    half walk's flag, keyed on d alone, so no FieldContext is built.  d < 2
    or a square (the walk would divide by Q = 0) raises ValueError."""
    if d < 2 or isqrt(d) ** 2 == d:
        raise ValueError(f"{d} is not a valid radicand")
    return _half_cycle(d, MAX_CF_STEPS)[3]


class CFExpansion:
    """One period of w[d], read in order through :meth:`period` from the
    half-period walk and its palindrome."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self._a, self._P, self._Q, odd = _half_cycle(ctx.d, MAX_CF_STEPS)
        self.a0 = self._a[0]
        self._j = len(self._a)  # the midpoint state
        self._e = ctx.sqrt_disc_scale
        self.l = 2 * self._j - (1 if odd else 2)

    def period(self):
        """(a_n, P_{n+1}, Q_{n+1}, nu_n) for n = 0 .. l - 1, in order.

        Read straight from the half walk's lists: for n < j they are the
        walk's own a_n, P_{n+1}, Q_{n+1}; past the midpoint, n = l - m for
        m = k .. 1 (k = l - j) gives a_n = a_m, P_{n+1} = P_m and
        Q_{n+1} = Q_{m-1}.  The period body ends at a_{l-1}; the next
        quotient is a_l = 2 a_0 - [d = 1 mod 4].  Past one period the
        states repeat from alpha_{l+1} = alpha_1, and the quotients from
        a_{l+1} = a_1.

        nu_n = |N(xi_n)| = e Q_{n+1} / 2, with e = sqrt_disc_scale and
        theta = w[d] = (P_0 + sqrt d)/Q_0.  From
        theta = (p_n alpha_{n+1} + p_{n-1}) / (q_n alpha_{n+1} + q_{n-1}) and
        p_n q_{n-1} - p_{n-1} q_n = (-1)^{n+1},

            (p_n - q_n theta)(q_n alpha_{n+1} + q_{n-1}) = (-1)^{n+1},

        and induction on the recurrence gives q_n alpha_{n+1} + q_{n-1} =
        alpha_1 alpha_2 ... alpha_{n+1}.  Each alpha_i = (P_i + sqrt d)/Q_i has
        N(alpha_i) = (P_i^2 - d)/Q_i^2 = -Q_{i-1}/Q_i, since
        d - P_i^2 = Q_{i-1} Q_i, so the norms of the product telescope to
        (-1)^{n+1} Q_0/Q_{n+1}, and

            N(xi_n) = N(p_n - q_n theta) = (-1)^{n+1} Q_{n+1} / Q_0

        (Perron; Jacobson & Williams, *Solving the Pell Equation*, 2009).
        For w[d] = sqrt(d), Q_0 = 1 and e = 2; for w[d] = (1+sqrt(d))/2,
        Q_0 = 2 and e = 1.  Either way e Q_0 = 2, so nu_n = e Q_{n+1}/2.
        """
        a, P, Q, e = self._a, self._P, self._Q, self._e
        k = self.l - self._j
        rows = zip(chain(a, a[k:0:-1]), chain(P[1:], P[k:0:-1]), chain(Q[1:], reversed(Q[:k])))
        return ((a_n, P_n, Q_n, e * Q_n // 2) for a_n, P_n, Q_n in rows)


def convergents(exp: CFExpansion):
    """(p_n, q_n) for n = 0 .. l - 1, in order, over the quotients of exp.period().

    p_n = a_n p_{n-1} + p_{n-2}, and q_n likewise, from p_{-1}/q_{-1} = 1/0
    and p_{-2}/q_{-2} = 0/1.  Zip it with exp.period() to read row n and
    (p_n, q_n) together.
    """
    p, q, p1, q1 = 1, 0, 0, 1  # (p_{n-1}, q_{n-1}), (p_{n-2}, q_{n-2}) at n = 0
    for a, _, _, _ in exp.period():
        p, q, p1, q1 = a * p + p1, a * q + q1, p, q
        yield p, q


def convergent_xi(ctx: FieldContext, p: int, q: int) -> QuadInt:
    """xi = conj(p - q w[d]) of the convergent p/q: conj(w[d]) = t - w[d], t = omega_trace."""
    return QuadInt(ctx, p - q * ctx.omega_trace, q)


@lru_cache(maxsize=1)  # the last expansion only, as _half_cycle keeps the last walk
def _expand_omega(ctx: FieldContext, max_steps: int) -> CFExpansion:
    return CFExpansion(ctx)  # walked under max_steps, which is MAX_CF_STEPS now


def expand_omega(ctx: FieldContext) -> CFExpansion:
    """The cached expansion of ctx, keyed on MAX_CF_STEPS as well: an
    expansion walked under one step budget never answers for a lower one."""
    return _expand_omega(ctx, MAX_CF_STEPS)


expand_omega.cache_info = _expand_omega.cache_info
expand_omega.cache_clear = _expand_omega.cache_clear


def fundamental_unit(ctx: FieldContext) -> QuadInt:
    """xi_{l-1}: the least unit > 1; N equals (-1)**l.

    Only the half-period walk runs.  The convergents of its quotients
    a_0..a_k, k = j - 1, give (p_{l-1}, q_{l-1}) through the midpoint
    identities of the module docstring (Perron; Jacobson & Williams,
    *Solving the Pell Equation*, 2009):
    p_k q_k + p_{k-1} q_{k-1} and q_k^2 + q_{k-1}^2 for odd l = 2k + 1,
    p_k q_{k-1} + p_{k-1} q_{k-2} and q_{k-1} (q_k + q_{k-2}) for even
    l = 2k.  No CFExpansion is built.
    """
    quotients, _, _, odd = _half_cycle(ctx.d, MAX_CF_STEPS)
    p, q, p1, q1 = 1, 0, 0, 1  # (p_{n-1}, q_{n-1}), (p_{n-2}, q_{n-2}) at n = 0
    for a in quotients:
        q2 = q1
        p, q, p1, q1 = a * p + p1, a * q + q1, p, q
    if odd:
        p, q = p * q + p1 * q1, q * q + q1 * q1
    else:
        p, q = p * q1 + p1 * q2, q1 * (q + q2)
    return convergent_xi(ctx, p, q)


def residuals_hold(exp: CFExpansion) -> bool:
    """The residual certificate of one period of w[d], exactly, in one pass.

    For n >= 0, alpha_{n+1} = sqrt(D)/nu_n - q_{n-1}/q_n + delta_n defines
    delta_n.  The certificate is alpha_1 < sqrt(D)/nu_0 at n = 0 and
    |delta_n| < 4/(q_n^2 sqrt(D)) at 1 <= n < l.  Write
    alpha_{n+1} = (P + sqrt d)/Q and sqrt(D) = e sqrt(d).  Q nu > 0,
    because the states of w[d] have Q > 0 and nu = |N(xi_n)| > 0 for
    non-square d, so clearing these denominators keeps every inequality's
    direction.

    At n = 0, alpha_1 < sqrt(D)/nu_0 is nu P + (nu - e Q) sqrt(d) < 0, one
    exact sign.  At n >= 1, delta_n is A + B sqrt(d) with
    A = P/Q + q_{n-1}/q_n and B = 1/Q - e/nu.  Multiplying
    |delta_n| < 4/(q_n^2 e sqrt d) through by q_n^2 e sqrt(d) and by Q nu
    gives

        -m < U + V sqrt(d) < m,   U = (nu - e Q) d q_n^2 e,
        V = (P q_n + Q q_{n-1}) q_n e nu,   m = 4 Q nu,

    which :func:`_delta_within` decides exactly.  U and V share the factor
    g = e q_n; with c = nu - e Q and w = P q_n + Q q_{n-1} the test reads
    |g t| < m for t = c d q_n + w nu sqrt(d).  In the usual case c < 0 < w
    the conjugate c d q_n - w nu sqrt(d) is negative, and t times it is
    d N1 with N1 = c^2 d q_n^2 - w^2 nu^2.  Multiplying by the conjugate,
    |g t| < m becomes e q_n d |N1| < -m c d q_n + m w nu sqrt(d), which
    holds at once when -m c >= e |N1|.  On the data of a true expansion
    |N1| = Q^2 nu whatever the size of q_n, and -m c = 2 e |N1|, so this
    quick accept decides.  residuals_hold takes it where c < 0 < P and
    q_{n-1} >= 0, which give w > 0 without computing w; any other index
    falls back to _delta_within.

    N1 needs no q_n-size squaring.  With S_n = q_n^2 and X_n = q_n q_{n-1},
    q_n = a_n q_{n-1} + q_{n-2} gives

        X_n = a_n S_{n-1} + X_{n-1},
        S_n = q_n (a_n q_{n-1} + q_{n-2}) = a_n X_n + a_n X_{n-1} + S_{n-2},

    from S_0 = 1, X_0 = S_{-1} = 0 (q_{-1} = 0, q_0 = 1), and
    w^2 = P^2 S_n + 2 P Q X_n + Q^2 S_{n-1}, so

        N1 = (c^2 d - nu^2 P^2) S_n - nu^2 Q (2 P X_n + Q S_{n-1}),

    the same integer as c^2 d q_n^2 - w^2 nu^2.  Each index then costs a
    few products of a small integer by a q_n-size one, not two squarings of
    q_n-size integers, and reads (a_n, P, Q, nu_n) in order from
    :meth:`CFExpansion.period`.  The period still costs about l times the
    size of q_l in bit operations, which MAX_CF_STEPS bounds only through l.
    """
    d = exp.ctx.d
    e = exp.ctx.sqrt_disc_scale
    rows = exp.period()
    _, P, Q, nu = next(rows)
    if sign_plus_sqrt(nu * P, nu - Q * e, d) >= 0:
        return False
    qm1, qn = 0, 1  # q_{n-1}, q_n at n = 0
    S1, S, X = 0, 1, 0  # S_{n-1}, S_n, X_n at n = 0
    for a, P, Q, nu in rows:
        qm1, qn = qn, a * qn + qm1
        Xn = a * S + X
        S1, S, X = S, a * (Xn + X) + S1, Xn
        c = nu - e * Q
        if c < 0 < P and qm1 >= 0:  # then w > 0, as Q, q_n > 0
            nu2 = nu * nu
            n1 = (c * c * d - nu2 * P * P) * S - nu2 * Q * (2 * P * X + Q * S1)
            if -4 * Q * nu * c >= e * abs(n1):
                continue
        if not _delta_within(d, e, nu, P, Q, qn, qm1):
            return False
    return True


def _delta_within(d: int, e: int, nu: int, P: int, Q: int, qn: int, qm1: int) -> bool:
    """-m < U + V sqrt(d) < m, exactly: the delta test of :func:`residuals_hold`.

    Needs Q, nu, qn > 0.  Two exact signs; residuals_hold calls it only
    where its quick accept does not decide.
    """
    U = e * (nu - e * Q) * d * qn * qn
    V = e * qn * (P * qn + Q * qm1) * nu
    m = 4 * Q * nu
    return sign_plus_sqrt(U - m, V, d) < 0 and sign_plus_sqrt(U + m, V, d) > 0


def regulator(ctx: FieldContext) -> float:
    """log(eps_d) as the sum of log(alpha_i) over one period.

    The (P, Q) states are the half-period walk's, read through the
    palindrome (at most MAX_CF_STEPS steps are walked).  The float result
    is fixed bit for bit: the terms log((P_i + sqrt d) / Q_i) are added for
    i = 1..l in period order, left to right, from 0.0.  Each numerator is
    rounded once, for i = 1..j; a second pass continues the sum over the
    k = l - j states past the midpoint, P_{j+i} = P_{k+1-i} over
    Q_{j+i} = Q_{k-i}, so every term and every addition is a full walk's.
    ``sum()`` is not used because from Python 3.12 it compensates float
    sums, and ``math.fsum`` rounds once at the end; either would change
    the last bits, and the printed sweeps depend on them.  Per-term float
    error is ~1e-16, giving ~1e-12 relative accuracy for periods near 1e4.
    """
    quotients, Ps, Qs, odd = _half_cycle(ctx.d, MAX_CF_STEPS)
    k = len(quotients) - (1 if odd else 2)
    sqrt_d = math.sqrt(ctx.d)
    nums = [P + sqrt_d for P in Ps[1:]]
    r = reduce(operator.add, map(math.log, map(operator.truediv, nums, Qs[1:])), 0.0)
    return reduce(operator.add, map(math.log, map(operator.truediv, reversed(nums[:k]), reversed(Qs[:k]))), r)
