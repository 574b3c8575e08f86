import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadunit import contfrac
from quadunit.arith import BudgetError, is_squarefree, squarefree_integers_upto
from quadunit.contfrac import (
    CFExpansion,
    QuadIrr,
    alpha_product,
    expand_omega,
    expansion_of,
    fundamental_unit,
    is_reduced,
    quotient_norm_residual,
    regulator,
    total_quotient,
    unit_compare,
)
from quadunit.quadfield import FieldContext, QuadInt, field_context, qi_compare

from oracles import (
    fraction_delta_within,
    fraction_residual,
    linear_cf_walk,
    linear_regulator,
    pell_unit_bruteforce,
    pell_unit_sympy,
)

rng = random.Random(0xBADC0DE)

SQUAREFREE = [d for d in range(2, 300) if squarefree_integers_upto(300)[d]]


def test_expand_omega_worked_cases():
    for d, a0, per in [(2, 1, [2]), (3, 1, [1, 2]), (5, 1, [1]), (13, 2, [3])]:
        e = expansion_of(d)
        assert (e.a0, list(e.periodic)) == (a0, per)


def _assert_matches_linear_walk(d):
    ctx = FieldContext(d)
    e = CFExpansion(ctx)
    assert (e.a0, e.periodic, e.states) == linear_cf_walk(d), d
    assert e.l == len(e.periodic) == len(e.states)
    # bitwise: the half-period walk must keep the full walk's float sum
    assert regulator(ctx) == linear_regulator(d), d


def test_half_period_walk_matches_linear_walk():
    flags = squarefree_integers_upto(20_000)
    for d in range(2, 20_000):
        if flags[d]:
            _assert_matches_linear_walk(d)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=10**6, max_value=2 * 10**7))
def test_half_period_walk_matches_linear_walk_large(d):
    assume(is_squarefree(d))
    _assert_matches_linear_walk(d)


def test_walk_step_budget(monkeypatch):
    d = 9_999_991  # period 8096, closed at the midpoint after 4049 steps
    ctx = FieldContext(d)
    assert CFExpansion(ctx).l == 8096
    monkeypatch.setattr(contfrac, "MAX_CF_STEPS", 4049)
    assert CFExpansion(ctx).l == 8096
    monkeypatch.setattr(contfrac, "MAX_CF_STEPS", 4048)
    with pytest.raises(BudgetError, match="not closed within 4048 steps"):
        CFExpansion(ctx)
    with pytest.raises(BudgetError):
        regulator(ctx)


def test_last_quotient_and_palindrome():
    for d in SQUAREFREE:
        e = expansion_of(d)
        expected_last = 2 * e.a0 - 1 if d % 4 == 1 else 2 * e.a0
        assert e.periodic[-1] == expected_last
        body = list(e.periodic[:-1])
        assert body == body[::-1]


def test_convergent_determinant():
    for d in SQUAREFREE[:60]:
        e = expansion_of(d)
        for n in range(2 * e.l + 1):
            pn, qn = e.convergent(n)
            pm, qm = e.convergent(n - 1)
            assert pn * qm - pm * qn == (-1) ** (n + 1)
            assert math.gcd(pn, qn) == 1


def test_quotients_match_naive_expansion():
    # float/Fraction long division of w[d] reproduces the partial quotients
    for d in (2, 3, 7, 13, 19, 94, 123):
        e = expansion_of(d)
        prec = Fraction(math.isqrt(d << 200), 1 << 100)
        w = (1 + prec) / 2 if d % 4 == 1 else prec
        x = w
        for n in range(min(12, 2 * e.l)):
            a = math.floor(x)
            assert a == e.partial_quotient(n)
            x = 1 / (x - a)


def test_xi_stream_and_norms():
    for d in SQUAREFREE[:60]:
        ctx = field_context(d)
        e = expand_omega(ctx)
        for n in range(e.l):
            xi = e.xi(n)
            p, q = e.convergent(n)
            # xi is the conjugate of p - q*w[d]
            assert xi == (QuadInt(ctx, p, 0) - QuadInt(ctx, 0, q)).conj()
            assert e.nu(n) == abs(xi.norm())
            assert xi.norm() == (-1) ** (n + 1) * e.nu(n)


def test_total_quotient_examples():
    assert total_quotient(expansion_of(2), 0).as_pair() == (1, 1)
    assert total_quotient(expansion_of(13), 0).as_pair() == (3, 2)
    assert total_quotient(expansion_of(3), 1).as_pair() == (1, 1)


def test_total_quotients_reduced():
    for d in SQUAREFREE[:40]:
        e = expansion_of(d)
        for n in range(2 * e.l):
            assert is_reduced(total_quotient(e, n))


def test_is_reduced_examples():
    assert is_reduced(QuadIrr(2, 1, 1))
    assert not is_reduced(QuadIrr(2, 0, 1))
    assert is_reduced(QuadIrr(13, 3, 2))
    with pytest.raises(ValueError):
        QuadIrr(2, 1, 0)
    with pytest.raises(ValueError):
        QuadIrr(2, 1, 3)  # 3 does not divide 2 - 1


def test_fundamental_unit_examples():
    assert fundamental_unit(field_context(2)) == QuadInt(field_context(2), 1, 1)
    assert fundamental_unit(field_context(5)) == QuadInt(field_context(5), 0, 1)
    assert fundamental_unit(field_context(71)) == QuadInt(field_context(71), 3480, 413)


def test_fundamental_unit_vs_bruteforce():
    for d in SQUAREFREE[:25]:
        eps = fundamental_unit(field_context(d))
        assert pell_unit_bruteforce(d) == eps.half_coords()


def test_fundamental_unit_vs_sympy():
    for d in SQUAREFREE:
        eps = fundamental_unit(field_context(d))
        assert abs(eps.norm()) == 1
        assert eps.norm() == (-1) ** expansion_of(d).l
        assert pell_unit_sympy(d) == eps.half_coords()


def test_unit_is_first_unit_in_stream():
    for d in SQUAREFREE[:60]:
        e = expansion_of(d)
        assert e.nu(e.l - 1) == 1
        assert all(e.nu(n) > 1 for n in range(e.l - 1))


def test_alpha_product_equals_unit():
    for d in SQUAREFREE:
        e = expansion_of(d)
        A, B = alpha_product(e)
        u, v = fundamental_unit(field_context(d)).half_coords()
        assert (A, B) == (Fraction(u, 2), Fraction(v, 2))


def test_quotient_norm_residual():
    # every index n <= l + 1 of every square-free d < 3000, D in {5, 8, 12, 13} too:
    # verdicts and float reports equal the Fraction computation
    flags = squarefree_integers_upto(3000)
    for d in range(2, 3000):
        if not flags[d]:
            continue
        e = expansion_of(d)
        for n in range(e.l + 2):
            rb = quotient_norm_residual(e, n)
            assert rb == fraction_residual(e, n), (d, n)
            assert rb.alpha_below_ratio
            if e.ctx.discriminant > 16 and n >= 1:
                assert rb.delta_within_bound
            # float report is consistent with the exact verdict
            if n >= 1 and abs(abs(rb.delta_approx) - rb.bound_approx) > 1e-9:
                assert (abs(rb.delta_approx) < rb.bound_approx) == rb.delta_within_bound


def test_quotient_norm_residual_large_radicand():
    # the exact verdict must survive convergents too big for float reports
    # (9999991: period 8096, q_l of about 14k bits) and equal the Fraction check
    for d in (1000003, 2000003, 9999991):
        e = expansion_of(d)
        for n in (0, 1, e.l - 1, e.l):
            rb = quotient_norm_residual(e, n)
            assert rb.alpha_below_ratio and rb.holds, (d, n)
            assert rb == fraction_residual(e, n), (d, n)
    assert rb.bound_approx == 0.0  # q_l^2 overflows a float: the report reads 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=10**5, max_value=10**6))
def test_residual_matches_fraction_oracle_large(d):
    assume(is_squarefree(d))
    e = expansion_of(d)
    for n in sorted(set(range(0, e.l + 2, max(1, e.l // 40))) | {e.l - 1, e.l, e.l + 1}):
        assert quotient_norm_residual(e, n) == fraction_residual(e, n), (d, n)


def test_delta_within_small_grid():
    # all small inputs, true to the relation or not: they reach both verdicts
    # of the quick accept's exact fallback and of the branch for c >= 0 or w <= 0
    grid = itertools.product((2, 3, 5), (1, 2), range(1, 5), range(-2, 3), range(1, 4),
                             range(1, 4), range(-2, 3))
    for d, e, nu, P, Q, qn, qm1 in grid:
        args = (d, e, nu, P, Q, qn, qm1)
        assert contfrac._delta_within(*args, qn * qn) == fraction_delta_within(*args), args


def test_unit_compare_huge_unit_boundaries():
    # d = 9199 has a fundamental unit with 91-digit coordinates; the
    # comparisons one away from it force the exact fallback path
    ctx = field_context(9199)
    eps = fundamental_unit(ctx)
    one = ctx.one()
    assert unit_compare(ctx, eps) == 0
    assert unit_compare(ctx, eps + one) == 1
    assert unit_compare(ctx, eps - one) == -1


def test_regulator_matches_unit_log():
    for d in SQUAREFREE[:60]:
        ctx = field_context(d)
        assert abs(regulator(ctx) - fundamental_unit(ctx).log_value()) < 1e-9


def test_regulator_against_mpmath():
    # independent high-precision log of the exact unit coordinates
    import mpmath

    mpmath.mp.dps = 120
    for d in (94, 9199, 9949):
        ctx = field_context(d)
        u, v = fundamental_unit(ctx).half_coords()
        exact = float(mpmath.log((u + v * mpmath.sqrt(d)) / 2))
        assert abs(regulator(ctx) - exact) <= 1e-9 * exact, d


def test_unit_compare():
    for d in (2, 5, 13, 71, 94):
        ctx = field_context(d)
        eps = fundamental_unit(ctx)
        assert unit_compare(ctx, eps) == 0
        assert unit_compare(ctx, eps * eps) == 1
        assert unit_compare(ctx, ctx.one() + ctx.one()) == (1 if eps.approx() < 2 else -1)
    # agreement with exact comparison on random elements
    for _ in range(200):
        d = rng.choice(SQUAREFREE)
        ctx = field_context(d)
        x = QuadInt(ctx, rng.randrange(1, 500), rng.randrange(1, 500))
        want = {"less": -1, "equal": 0, "greater": 1}[qi_compare(x, fundamental_unit(ctx))]
        assert unit_compare(ctx, x) == want
