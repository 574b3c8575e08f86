import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadunit import contfrac
from quadunit.arith import BudgetError, is_squarefree, squarefree_integers_upto
from quadunit.contfrac import (
    CFExpansion,
    QuadIrr,
    convergent_xi,
    convergents,
    expand_omega,
    fundamental_unit,
    is_reduced,
    period_is_odd,
    regulator,
    residuals_hold,
)
from quadunit.cli import main
from quadunit.quadfield import FieldContext, QuadInt, field_context, qi_compare
from quadunit.survey import minimal_elements, negative_pell, split_identity_check, theorem_bound_sweep

from oracles import (
    alpha_product,
    fraction_delta_within,
    fraction_residual,
    linear_cf_rows,
    linear_cf_walk,
    linear_fundamental_unit,
    linear_regulator,
    mpmath_sign,
    norm_nu,
    pell_unit_bruteforce,
    pell_unit_sympy,
)

rng = random.Random(0xBADC0DE)

SQUAREFREE = [d for d in range(2, 300) if squarefree_integers_upto(300)[d]]


def _period(e):
    """(a_n, state of alpha_n) for n = 1 .. l, read in order from e.period().

    a_n is the floor of alpha_n, read off its state, so a_l is read from
    alpha_l, not from the 2 a_0 - [d = 1 mod 4] it is checked against; the
    rows' own a_1 .. a_{l-1} must agree.
    """
    rows = list(e.period())
    sf = math.isqrt(e.ctx.d)
    quotients = tuple((P + sf) // Q for _, P, Q, _ in rows)
    assert quotients[:-1] == tuple(a for a, _, _, _ in rows[1:]), e.ctx.d
    return quotients, tuple((P, Q) for _, P, Q, _ in rows)


def test_expand_omega_worked_cases():
    for d, a0, per in [(2, 1, [2]), (3, 1, [1, 2]), (5, 1, [1]), (13, 2, [3])]:
        e = expand_omega(field_context(d))
        assert (e.a0, list(_period(e)[0])) == (a0, per)


def _assert_matches_linear_walk(d):
    ctx = FieldContext(d)
    e = CFExpansion(ctx)
    periodic, states = _period(e)
    assert (e.a0, periodic, states) == linear_cf_walk(d), d
    assert e.l == len(periodic) == len(states)
    # bitwise: the half-period walk must keep the full walk's float sum
    assert regulator(ctx) == linear_regulator(d), d
    # the unit from the midpoint convergents is the full period's xi_{l-1}
    eps = fundamental_unit(ctx)
    assert eps == QuadInt(ctx, *linear_fundamental_unit(d)), d
    assert eps.norm() == (-1) ** e.l, d


def test_half_period_walk_matches_linear_walk():
    # both parities of l, and l = 1, 2 (d = 2, 5 and 3)
    flags = squarefree_integers_upto(20_000)
    for d in range(2, 20_000):
        if flags[d]:
            _assert_matches_linear_walk(d)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=10**6, max_value=2 * 10**7))
def test_half_period_walk_matches_linear_walk_large(d):
    assume(is_squarefree(d))
    _assert_matches_linear_walk(d)


def test_bound_sweep_regulators_match_linear_walk():
    # bit for bit on the sweep's own radicands, which reach past 3e5
    top = 0
    for mu in (2, 3, 5, 7):
        for row in theorem_bound_sweep(mu, 600).rows:
            assert row.log_eps == linear_regulator(row.d), (mu, row.trace, row.d)
            top = max(top, row.d)
    assert top > 3 * 10**5


def test_walk_step_budget(monkeypatch):
    d = 9_999_991  # period 8096, closed at the midpoint after 4049 steps
    ctx = FieldContext(d)
    assert CFExpansion(ctx).l == 8096
    assert expand_omega(ctx).l == 8096  # cached under the default budget
    monkeypatch.setattr(contfrac, "MAX_CF_STEPS", 4049)
    assert CFExpansion(ctx).l == 8096
    monkeypatch.setattr(contfrac, "MAX_CF_STEPS", 4048)
    with pytest.raises(BudgetError, match="not closed within 4048 steps"):
        CFExpansion(ctx)
    # the cache never answers a lower budget with an expansion walked under a higher one
    with pytest.raises(BudgetError, match="not closed within 4048 steps"):
        expand_omega(ctx)
    with pytest.raises(BudgetError):
        regulator(ctx)
    # the unit walks the same half period under the same budget
    with pytest.raises(BudgetError, match="not closed within 4048 steps"):
        fundamental_unit(ctx)
    monkeypatch.setattr(contfrac, "MAX_CF_STEPS", 4049)
    assert fundamental_unit(ctx).norm() == 1
    hits = expand_omega.cache_info().hits
    assert expand_omega(ctx) is expand_omega(ctx)
    assert expand_omega.cache_info().hits == hits + 1


def test_expand_omega_keeps_the_last_expansion():
    # one expansion held at a time, as the half-period memo holds one walk
    expand_omega.cache_clear()
    expand_omega(field_context(94))
    last = expand_omega(field_context(1000099))
    assert expand_omega.cache_info().currsize == 1
    assert expand_omega(field_context(1000099)) is last


def _walks(run):
    """Calls of the undecorated half-period walk made by run(), from cold caches.

    Every miss of the walk's memo is one call of the function it wraps.
    """
    expand_omega.cache_clear()
    contfrac._half_cycle.cache_clear()
    run()
    return contfrac._half_cycle.cache_info().misses


def test_one_walk_per_radicand_per_call(capsys):
    # cf and unit, minimal elements on the convergent route and the split
    # identity each ask for the period more than once, and walk it once
    assert _walks(lambda: main(["cf", "1000099"])) == 1
    assert _walks(lambda: main(["unit", "1000099"])) == 1
    capsys.readouterr()
    assert _walks(lambda: minimal_elements(field_context(94), 2)) == 1
    assert _walks(lambda: split_identity_check(94, 3)) == 1
    # 3,440 walks: one parity walk for each of the 2,991 square-free
    # radicands with no prime factor 3 (mod 4), plus 449 for the earlier
    # square-free candidates of the membership check's start scans, each
    # after another radicand's walk has replaced the memo; the unit at d
    # is the sweep's own, so d is not walked again.  The 3-mod-4 sieve
    # decides the other 9,474 radicands with no walk
    assert _walks(lambda: negative_pell(20500)) == 3_440
    # the cf route checks the sweep, so it stays unfiltered: one walk for
    # each of the 12,465 square-free radicands
    assert _walks(lambda: negative_pell(20500, route="cf")) == 12_465


def test_period_is_odd_reads_the_expansion_parity():
    flags = squarefree_integers_upto(3000)
    for d in range(2, 3000):
        if flags[d]:
            assert period_is_odd(d) == CFExpansion(field_context(d)).l % 2, d
    for d in (0, 1, 4, 10**6):  # the walk would divide by Q = 0 on a square
        with pytest.raises(ValueError):
            period_is_odd(d)


def test_last_quotient_and_palindrome():
    for d in SQUAREFREE:
        e = expand_omega(field_context(d))
        expected_last = 2 * e.a0 - 1 if d % 4 == 1 else 2 * e.a0
        periodic = _period(e)[0]
        assert periodic[-1] == expected_last
        body = list(periodic[:-1])
        assert body == body[::-1]


def _walk_period(d):
    """(a_n, P_{n+1}, Q_{n+1}, nu_n) for n < l from the full walk, nu_n the convergent's norm."""
    l = len(linear_cf_walk(d)[1])
    rows = itertools.islice(linear_cf_rows(d), l)
    return [(a, P, Q, nu) for (a, P, Q, _, _, _), nu in zip(rows, norm_nu(d, l))]


def test_period_reader_matches_linear_walk():
    # the slice edge cases first: no mirrored part (k = 0) at l = 1 and l = 2
    for d, rows in [(2, [(1, 1, 1, 1)]), (5, [(1, 1, 2, 1)]), (3, [(1, 1, 2, 2), (1, 1, 1, 1)])]:
        e = CFExpansion(field_context(d))
        assert list(e.period()) == _walk_period(d) == rows, d
    flags = squarefree_integers_upto(3000)
    for d in [d for d in range(2, 3000) if flags[d]] + [1000099, 9999991]:
        e = CFExpansion(field_context(d))
        assert list(e.period()) == _walk_period(d), d


def test_convergent_determinant():
    # the library's convergents are one period's; the oracle walk continues
    # them to n = 2l
    for d in SQUAREFREE[:60]:
        e = expand_omega(field_context(d))
        walk = [(p, q) for _, _, _, p, q, _ in itertools.islice(linear_cf_rows(d), 2 * e.l + 1)]
        assert list(convergents(e)) == walk[:e.l], d
        for n, ((pn, qn), (pm, qm)) in enumerate(zip(walk, [(1, 0)] + walk)):
            assert pn * qm - pm * qn == (-1) ** (n + 1)
            assert math.gcd(pn, qn) == 1


def test_quotients_match_naive_expansion():
    # float/Fraction long division of w[d] reproduces the partial quotients
    for d in (2, 3, 7, 13, 19, 94, 123):
        e = expand_omega(field_context(d))
        periodic = _period(e)[0]  # a_1 .. a_l, then a_n = a_{n-l}
        prec = Fraction(math.isqrt(d << 200), 1 << 100)
        w = (1 + prec) / 2 if d % 4 == 1 else prec
        x = w
        for n in range(min(12, 2 * e.l)):
            a = math.floor(x)
            assert a == (e.a0 if n == 0 else periodic[(n - 1) % e.l])
            x = 1 / (x - a)


def test_xi_stream_and_norms():
    for d in SQUAREFREE[:60]:
        ctx = field_context(d)
        e = expand_omega(ctx)
        for n, ((_, _, _, nu), (p, q)) in enumerate(zip(e.period(), convergents(e))):
            xi = convergent_xi(ctx, p, q)
            # xi is the conjugate of p - q*w[d]
            assert xi == (QuadInt(ctx, p, 0) - QuadInt(ctx, 0, q)).conj()
            assert nu == abs(xi.norm())
            assert xi.norm() == (-1) ** (n + 1) * nu


def _total_quotients(d):
    """alpha_1 .. alpha_l of w[d] as exact quadratic irrationals, in period order."""
    return [QuadIrr(d, P, Q) for _, P, Q, _ in expand_omega(field_context(d)).period()]


def test_total_quotient_examples():
    assert _total_quotients(2)[0].as_pair() == (1, 1)
    assert _total_quotients(13)[0].as_pair() == (3, 2)
    assert _total_quotients(3)[1].as_pair() == (1, 1)


def test_total_quotients_reduced():
    # alpha_{n+1} for n < 2l: the second period repeats the first's states
    for d in SQUAREFREE[:40]:
        assert all(map(is_reduced, _total_quotients(d)))


def test_is_reduced_examples():
    assert is_reduced(QuadIrr(2, 1, 1))
    assert not is_reduced(QuadIrr(2, 0, 1))  # conj(alpha) = -sqrt(2) < -1
    assert not is_reduced(QuadIrr(2, -2, 1))  # alpha = sqrt(2) - 2 < 1
    assert not is_reduced(QuadIrr(2, 2, 1))  # conj(alpha) = 2 - sqrt(2) > 0
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
        assert eps.norm() == (-1) ** expand_omega(field_context(d)).l
        assert pell_unit_sympy(d) == eps.half_coords()


def test_unit_is_first_unit_in_stream():
    for d in SQUAREFREE[:60]:
        *body, last = (nu for _, _, _, nu in expand_omega(field_context(d)).period())
        assert last == 1
        assert all(nu > 1 for nu in body)


def test_alpha_product_equals_unit():
    for d in SQUAREFREE:
        A, B = alpha_product(d)
        u, v = fundamental_unit(field_context(d)).half_coords()
        assert (A, B) == (Fraction(u, 2), Fraction(v, 2))


def test_quotient_norm_residual():
    # every index n <= l + 1 of every square-free d < 3000, D in {5, 8, 12, 13} too:
    # the alpha test holds at every n and the delta bound at every n >= 1, the
    # one-pass certificate agrees with the oracle over the period, and nu_n
    # (n <= 2l + 1) is the convergent's norm
    flags = squarefree_integers_upto(3000)
    for d in range(2, 3000):
        if not flags[d]:
            continue
        e = expand_omega(field_context(d))
        _assert_nu_from_state(e)
        verdicts = fraction_residual(d, range(e.l + 2))
        assert verdicts[0] == (True, None), d
        assert all(v == (True, True) for v in verdicts[1:]), d
        holds = [verdicts[0][0]] + [within for _, within in verdicts[1:e.l]]
        assert residuals_hold(e) is all(holds) is True, d


def test_quotient_norm_residual_large_radicand():
    # the exact verdict must survive convergents too big for floats
    # (9999991: period 8096, q_l of about 14k bits)
    for d in (1000003, 2000003, 9999991):
        e = expand_omega(field_context(d))
        assert fraction_residual(d, (0, 1, e.l - 1, e.l)) == [(True, None)] + [(True, True)] * 3, d
        assert residuals_hold(e) is True, d


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=10**5, max_value=10**6))
def test_residual_matches_fraction_oracle_large(d):
    assume(is_squarefree(d))
    e = expand_omega(field_context(d))
    indices = sorted(set(range(0, e.l + 2, max(1, e.l // 40))) | {e.l - 1, e.l, e.l + 1})
    for n, verdict in zip(indices, fraction_residual(d, indices)):
        assert verdict == (True, None if n == 0 else True), (d, n)
    assert residuals_hold(e) is True, d


def _assert_nu_from_state(e):
    # nu_n read from the state is the norm of the big-integer convergent;
    # past one period the states, so the period's nu_n, repeat
    nus = [nu for _, _, _, nu in e.period()]
    for n, nu in enumerate(norm_nu(e.ctx.d, 2 * e.l + 2)):
        assert nus[n % e.l] == nu, (e.ctx.d, n)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=10**6, max_value=2 * 10**7))
def test_nu_from_state_and_one_pass_verdict_large(d):
    assume(is_squarefree(d))
    e = expand_omega(field_context(d))
    _assert_nu_from_state(e)
    # the oracle's verdict per index: the alpha test at n = 0, the delta bound after
    verdicts = fraction_residual(d, range(e.l))
    holds = [verdicts[0][0]] + [within for _, within in verdicts[1:]]
    assert residuals_hold(e) is all(holds) is True, d


def _corrupted(d, kind, k):
    """A fresh expansion of w[d] with one datum of period element k made wrong."""
    e = CFExpansion(field_context(d))
    rows = list(e.period())
    a, P, Q, nu = rows[k]
    rows[k] = {"P": (a, P + 1, Q, nu), "Q": (a, P, Q + 2, nu),
               # P > sqrt(d): at k = 0 only the alpha test of n = 0 sees it
               "P_big": (a, math.isqrt(e.ctx.d) + 1, Q, nu),
               "a": (a + 1, P, Q, nu),  # a_k, the last quotient of q_k
               "nu": (a, P, Q, nu + 1)}[kind]
    e.period = lambda: iter(rows)
    return e


@pytest.mark.parametrize("d", [94, 139, 9199, 9949, 1000099])
def test_corrupted_expansion_fails_certificate(d):
    # the certificate is decided on the convergents, so a wrong P, Q, a_k or
    # nu anywhere in the period makes it fail
    l = expand_omega(field_context(d)).l
    assert l >= 5, d
    cases = [("P_big", 0)]
    for k in (1, 2, l // 2, l - 1):
        cases += [("P", k), ("Q", k), ("a", k), ("nu", k)]
    for kind, k in cases:
        assert residuals_hold(_corrupted(d, kind, k)) is False, (d, kind, k)
    assert residuals_hold(expand_omega(field_context(d))) is True


def _grid():
    return itertools.product((2, 3, 5), (1, 2), range(1, 5), range(-2, 3), range(1, 4),
                             range(1, 4), range(-2, 3))


def test_delta_within_small_grid():
    # all small inputs, true to the relation or not: they reach both verdicts
    # of the exact test
    verdicts = set()
    for args in _grid():
        verdict = contfrac._delta_within(*args)
        assert verdict == fraction_delta_within(*args), args
        verdicts.add(verdict)
    assert verdicts == {False, True}


def _quotients_to(pairs):
    """{(q_n, q_{n-1}): a_1 .. a_n} reaching each pair from q_{-1} = 0, q_0 = 1."""
    found = {}
    for length in (1, 2, 3):
        for quotients in itertools.product(range(-3, 4), repeat=length):
            qm1, qn = 0, 1
            for a in quotients:
                qm1, qn = qn, a * qn + qm1
            found.setdefault((qn, qm1), quotients)
    return {pair: found[pair] for pair in pairs}


def test_quick_accept_never_accepts_where_the_oracle_rejects(monkeypatch):
    # residuals_hold on a stub period whose last index carries a grid point,
    # with the exact fallback rejecting that point: it holds only where the
    # inline quick accept took it.  Consecutive q_n are coprime (q_n p_{n-1}
    # - q_{n-1} p_n = +-1), so the grid's coprime (q_n, q_{n-1}) are every
    # pair the certificate can meet; the stub reaches each through a_1 .. a_n.
    routes = _quotients_to({(qn, qm1) for qn in range(1, 4) for qm1 in range(-2, 3)
                            if math.gcd(qn, qm1) == 1})
    target = None
    monkeypatch.setattr(contfrac, "_delta_within", lambda *args: args != target)
    taken = left = 0
    for d, e, nu, P, Q, qn, qm1 in _grid():
        if math.gcd(qn, qm1) != 1:
            continue
        target = (d, e, nu, P, Q, qn, qm1)
        # alpha_1 < sqrt(D)/nu_0 holds at (P, Q, nu) = (-1, 1, 1) for every d and e
        rows = [(1, -1, 1, 1)] + [(a, P, Q, nu) for a in routes[qn, qm1]]
        stub = SimpleNamespace(ctx=SimpleNamespace(d=d, sqrt_disc_scale=e), period=lambda: iter(rows))
        if residuals_hold(stub):
            assert fraction_delta_within(*target), target
            taken += 1
        elif fraction_delta_within(*target):
            left += 1  # true, but left to the exact fallback
    assert taken and left


def test_qi_compare_huge_unit_boundaries():
    # d = 9199 has a fundamental unit with 91-digit coordinates; the
    # comparisons one away from it are decided exactly
    ctx = field_context(9199)
    eps = fundamental_unit(ctx)
    one = QuadInt(ctx, 1, 0)
    assert qi_compare(eps, fundamental_unit(ctx)) == 0
    assert qi_compare(eps + one, fundamental_unit(ctx)) == 1
    assert qi_compare(eps - one, fundamental_unit(ctx)) == -1


def test_regulator_matches_unit_log():
    # against an mpmath log of the exact unit (u + v sqrt(d))/2
    import mpmath

    with mpmath.workdps(50):
        for d in SQUAREFREE[:60]:
            ctx = field_context(d)
            u, v = fundamental_unit(ctx).half_coords()
            assert abs(regulator(ctx) - float(mpmath.log((u + v * mpmath.sqrt(d)) / 2))) < 1e-9


def test_regulator_against_mpmath():
    # independent high-precision log of the exact unit coordinates
    import mpmath

    with mpmath.workdps(120):
        for d in (94, 9199, 9949):
            ctx = field_context(d)
            u, v = fundamental_unit(ctx).half_coords()
            exact = float(mpmath.log((u + v * mpmath.sqrt(d)) / 2))
            assert abs(regulator(ctx) - exact) <= 1e-9 * exact, d


def test_qi_compare_fundamental_unit():
    for d in (2, 5, 13, 71, 94):
        ctx = field_context(d)
        eps = fundamental_unit(ctx)
        assert qi_compare(eps, fundamental_unit(ctx)) == 0
        assert qi_compare(eps * eps, fundamental_unit(ctx)) == 1
        two = QuadInt(ctx, 2, 0)
        assert qi_compare(two, fundamental_unit(ctx)) == mpmath_sign(two, eps)
    # agreement with an independent mpmath sign on random elements
    for _ in range(200):
        d = rng.choice(SQUAREFREE)
        ctx = field_context(d)
        x = QuadInt(ctx, rng.randrange(1, 500), rng.randrange(1, 500))
        eps = fundamental_unit(ctx)
        assert qi_compare(x, eps) == mpmath_sign(x, eps), (d, x)
    # units of 293 to 13,783 bits, one away from eps and far from it
    for d in (9199, 9949, 1000099, 9999991):
        ctx = field_context(d)
        eps = fundamental_unit(ctx)
        cases = [eps, QuadInt(ctx, eps.a + 1, eps.b), QuadInt(ctx, eps.a - 1, eps.b),
                 eps * eps, eps * QuadInt(ctx, 1, 1)]
        for x in cases:
            assert qi_compare(x, fundamental_unit(ctx)) == mpmath_sign(x, eps), (d, x)
