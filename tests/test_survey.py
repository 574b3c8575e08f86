import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadunit import contfrac, progressions, survey
from quadunit.arith import is_square, is_squarefree
from quadunit.contfrac import fundamental_unit
from quadunit.progressions import IndexPair, build_progression, empirical_density, trace_kernels, unit_progression
from quadunit.quadfield import QuadInt, field_context, qi_compare, sign_plus_sqrt
from quadunit.survey import (
    E_mu,
    EMuEntry,
    FMuReport,
    f_mu,
    minimal_elements,
    negative_pell,
    ramified_identity_check,
    rank_correlation,
    split_identity_check,
    theorem_bound_sweep,
)

from oracles import (
    e_mu_consider,
    e_mu_fields,
    linear_cf_walk,
    minimal_by_scan,
    mpmath_sign,
    negative_pell_bruteforce,
    unit_map,
)


def _above_unit(ctx) -> Fraction:
    """A bound just above eps_d = (u + v sqrt d)/2: (u + v (isqrt(d) + 1))/2."""
    u, v = fundamental_unit(ctx).half_coords()
    return Fraction(u + v * (math.isqrt(ctx.d) + 1), 2)


def test_minimal_elements_examples():
    c17 = field_context(17)
    xis = minimal_elements(c17, 2)
    assert [(xi.a, xi.b) for xi in xis] == [(1, 1), (2, 1)]  # (3+s)/2, (5+s)/2
    assert sorted(xi.norm() for xi in xis) == [-2, 2]

    # 2 lies outside the convergent range of d = 3 and d = 5: the oracle
    # scan finds 1 + sqrt(3), and no element for d = 5
    for d, want in ((3, [(1, 1)]), (5, [])):
        ctx = field_context(d)
        with pytest.raises(ValueError, match=f"^mu=2 is outside the convergent range of d={d}: "):
            minimal_elements(ctx, 2)
        assert [(xi.a, xi.b) for xi in minimal_by_scan(ctx, 2, _above_unit(ctx))] == want

    with pytest.raises(ValueError):
        minimal_elements(c17, 12)


def test_minimal_elements_routes_agree():
    # the convergent route and the oracle's scan up to just above eps_d
    # see the same sets
    for d in range(2, 120):
        if not is_squarefree(d):
            continue
        ctx = field_context(d)
        if qi_compare(fundamental_unit(ctx), 10**7) > 0:
            continue
        for mu in (2, 3, 5, 6, 7):
            if not survey._convergent_route_valid(ctx, mu):
                continue
            scan = set(minimal_by_scan(ctx, mu, _above_unit(ctx)))
            assert set(minimal_elements(ctx, mu)) == scan, (d, mu)


def test_hypothesis_bound_helpers():
    # each helper against the inline expressions it replaced and against an
    # exact comparison in the field: mu + 1 < w[d], and 2 mu < e sqrt(d)
    from quadunit.ideals import mu_below_omega
    from quadunit.survey import _below_half_sqrt_disc

    for d in range(2, 3000):
        if not is_squarefree(d):
            continue
        ctx = field_context(d)
        omega = QuadInt(ctx, 0, 1)
        for mu in range(1, 61):
            below_omega = (2 * mu + 1) ** 2 < d if ctx.is_half else (mu + 1) ** 2 < d
            assert mu_below_omega(ctx, mu + 1) == below_omega == (qi_compare(omega, mu + 1) > 0)
            if not ctx.is_half:  # the ramified check's form
                assert (not mu_below_omega(ctx, mu + 1)) == ((mu + 1) ** 2 >= d)
            below_half = _below_half_sqrt_disc(ctx, mu)
            assert below_half == (4 * mu * mu < ctx.discriminant)
            assert below_half == (sign_plus_sqrt(-2 * mu, ctx.sqrt_disc_scale, d) > 0)


def test_minimal_by_scan_budget_error(monkeypatch):
    # |norm| 14 in Q(sqrt 214) and Q(sqrt 211) lies outside the convergent
    # range (14 is not below w[d] - 1, and not coprime to D).  eps_214 is
    # about 1.39e12 and eps_211 about 5.6e11: no scan runs, the call is
    # refused as a usage error before any square test
    def no_scan(n):
        raise AssertionError("the scan started")

    monkeypatch.setattr(survey, "is_square", no_scan)
    for d in (214, 211):
        with pytest.raises(ValueError, match=f"^mu=14 is outside the convergent range of d={d}: "):
            minimal_elements(field_context(d), 14)


def test_minimal_elements_in_exact_order():
    # elements ascend by exact value, checked with mpmath at a working
    # precision that decides each sign, in every field d < 3000; outside
    # the convergent range the call raises
    raised = 0
    for d in range(2, 3000):
        if not is_squarefree(d):
            continue
        ctx = field_context(d)
        for mu in (2, 3, 5, 7, 14):
            if not survey._convergent_route_valid(ctx, mu):
                with pytest.raises(ValueError):
                    minimal_elements(ctx, mu)
                raised += 1
                continue
            xis = minimal_elements(ctx, mu)
            for r, s in zip(xis, xis[1:]):
                assert mpmath_sign(r, s) < 0, (d, mu, r, s)
    assert raised > 300  # the out-of-range refusal is covered too


def test_minimal_elements_checks_minimality(monkeypatch):
    # an xi_n above eps_d is not minimal: the invariant raises, it does
    # not drop the element
    ctx = field_context(17)
    eps = fundamental_unit(ctx)

    def times_eps(exp):
        # (p, q) with conj(p - q w[d]) = xi_n eps_d: a + b w[d] has p = a + b t, q = b
        for p, q in contfrac.convergents(exp):
            x = contfrac.convergent_xi(ctx, p, q) * eps
            yield x.a + x.b * ctx.omega_trace, x.b

    monkeypatch.setattr(survey, "convergents", times_eps)
    with pytest.raises(AssertionError, match="^an xi_n of norm \\+-2 in d=17 is not minimal$"):
        minimal_elements(ctx, 2)


def test_e_mu_small_values():
    r = E_mu(2, 5)
    assert r.count == 5
    assert r.keys() == {(2, 0, -2), (3, 2, -2), (17, 3, -2), (6, 4, -2), (17, 5, 2)}
    assert E_mu(2, Fraction(3, 2)).count == 1  # just sqrt(2)
    assert E_mu(2, 1).count == 0
    # 0 is still a bound; a negative one is refused before any scan
    assert E_mu(2, 0).count == 0
    with pytest.raises(ValueError, match=r"^bound must be >= 0, got -1/2$"):
        survey.e_mu_stream(2, Fraction(-1, 2))
    # sqrt(3), (+-1+sqrt 13)/2, (3+sqrt 21)/2, 2+sqrt(7)
    assert E_mu(3, 5).count == 5
    assert (13, -1, -3) in E_mu(3, 5).keys()


def test_e_mu_routes_agree():
    # the trace scan against the field-by-field count
    for mu in (1, 2, 3, 5):
        for x in (5, 12, 30):
            a = E_mu(mu, x)
            b = e_mu_fields(mu, x)
            assert a.keys() == set(b), (mu, x)
            assert a.count == len(b)
    for mu in (2, 3):
        assert E_mu(mu, 100).keys() == set(e_mu_fields(mu, 100))
    # non-integer bounds, and a mu whose small fields take the associate-class scan
    for mu, x in ((1, Fraction(7, 2)), (3, Fraction(201, 2)), (7, 5), (7, Fraction(11, 2))):
        assert E_mu(mu, x).keys() == set(e_mu_fields(mu, x)), (mu, x)


def test_e_mu_pre_tests_are_exact(monkeypatch):
    # the integer pre-tests keep exactly the candidates the three exact signs
    # keep, and take an exact sign only where _e_mu_trace says: m <= 0 for
    # xi > 1, m > floor(x) - mu for xi < x, and, for xi <= eps_d, one sign
    # when _within_unit's scan runs (no shortcut) and finds eps_d, i.e.
    # when eps_d = (m_e + g sqrt d)/2 has g <= f + ceil(mu/d).  The stream
    # interleaves the two norms, so both sides are compared by
    # (trace, signed_norm).
    from quadunit import survey

    signs = []

    def counted(u, v, d):
        signs.append((u, v, d))
        return sign_plus_sqrt(u, v, d)

    monkeypatch.setattr(survey, "sign_plus_sqrt", counted)
    edges = set()  # bounds some candidate sat on
    xs = (Fraction(11, 10), Fraction(6, 5), 2, Fraction(7, 2), 5, 12, 30, 100, Fraction(201, 2),
          1000, Fraction(4001, 3))
    for mu in (1, 2, 3, 5, 7, 997):
        for x in xs:
            m_below = int(x) - mu
            candidates = e_mu_consider(mu, x)
            kept = [c[:4] for c in candidates if c[4] == 3]
            # a unit with g <= f + ceil(mu/d) has trace at most this
            reach = max((math.isqrt((f - (-mu // d)) ** 2 * d + 4) for _, _, d, f, _ in candidates), default=0)
            units = unit_map(reach)
            window = 0
            for m, _, d, f, passed in candidates:
                window += m <= 0
                if passed >= 1:
                    window += m > m_below
                    edges.add(("x", m - m_below))
                if passed >= 2:
                    above = m - (2 * (mu * (f + 1) + f * f) + 1)  # the shortcut keeps xi when > 0
                    if d > mu:
                        edges.add(("shortcut", above))
                    if not (d > mu and above > 0) and d in units:
                        window += units[d][1] <= f - (-mu // d)
            signs.clear()
            got = [(e.trace, e.signed_norm, e.d, e.sqrt_coeff) for e in survey._e_mu_trace(mu, Fraction(x))]
            assert sorted(got) == sorted(kept), (mu, x)
            assert len(signs) == window, (mu, x)
            assert E_mu(mu, x).keys() == {(d, m, sigma) for m, sigma, d, _ in kept}, (mu, x)
    # each bound was met from both sides
    want = {("x", 0), ("x", 1), ("shortcut", 0), ("shortcut", 1)}
    assert want <= edges, want - edges


def test_unit_map_matches_fundamental_units():
    units = unit_map(300)
    from quadunit.arith import is_squarefree

    seen = 0
    for d, (m, f) in units.items():
        if d > 3000:
            continue
        assert is_squarefree(d)
        assert fundamental_unit(field_context(d)).half_coords() == (m, f), d
        seen += 1
    assert seen > 100


def test_within_unit_matches_the_unit_map(monkeypatch):
    # survey._within_unit against the oracle's fundamental units: eps_d is
    # within, eps_d^2 is not, and every candidate of the trace scan is
    # decided as the exact sign against eps_d decides it
    within = survey._within_unit
    for trace_max in (300, 3000):
        units = unit_map(trace_max)
        for d, (m, f) in units.items():
            assert within(m, f, d, 1), d
            # eps_d^2 = ((m^2 + f^2 d)/2 + m f sqrt d)/2
            assert not within((m * m + f * f * d) // 2, m * f, d, 1), d
        for mu in (1, 2, 3, 5, 7):
            for sigma, m_min in ((mu, 0), (-mu, -mu)):
                for m, d, f in trace_kernels(sigma, m_min, trace_max):
                    if sign_plus_sqrt(m - 2, f, d) <= 0:
                        continue  # not above 1
                    if d in units:
                        me, fe = units[d]
                        assert within(m, f, d, mu) == (sign_plus_sqrt(m - me, f - fe, d) <= 0), (m, f, d)
                    elif m + mu < trace_max:  # xi < m + mu <= trace_max - 1 < eps_d
                        assert within(m, f, d, mu), (m, f, d)
    # 1 + sqrt(2) = (2 + 2 sqrt 2)/2 is found at g = 2, past g^2 d - 4 < 0
    assert within(2, 2, 2, 1) and not within(6, 4, 2, 1)
    assert within(0, 2, 2, 2) and not within(4, 2, 2, 2)  # sqrt(2); 2 + sqrt(2) = sqrt(2) eps_2
    assert within(4, 2, 3, 1) and within(0, 2, 3, 3)  # 2 + sqrt(3); sqrt(3)
    # d = 5, g = 1 holds (1 + sqrt 5)/2 of norm -1 and its square of norm +1:
    # only -4 before +4 puts sqrt(5) between them above eps_5
    assert within(1, 1, 5, 1) and not within(3, 1, 5, 1)
    assert not within(0, 2, 5, 5)
    # candidates on both sides of the shortcut bound: at the bound the scan
    # runs, one above it no square is tested
    squares = []

    def counted(n):
        squares.append(n)
        return is_square(n)

    monkeypatch.setattr(survey, "is_square", counted)
    sides = set()
    for mu in (1, 2, 3, 5, 7):
        for f in (1, 2, 3, 4):
            bound = 2 * (mu * (f + 1) + f * f) + 1
            for m in (bound, bound + 1):
                for sigma in (mu, -mu):
                    q, r = divmod(m * m - 4 * sigma, f * f)
                    if r or q <= mu or not is_squarefree(q):
                        continue
                    me, fe = fundamental_unit(field_context(q)).half_coords()
                    squares.clear()
                    assert within(m, f, q, mu) == (sign_plus_sqrt(m - me, f - fe, q) <= 0), (m, f, q, mu)
                    assert bool(squares) == (m == bound), (m, f, q, mu)
                    sides.add(m - bound)
    assert sides == {0, 1}


def test_e_mu_stream_matches_sorted_oracle():
    # the merged stream is the oracle's kept candidates under one full sort
    # by (value, trace, signed_norm); at mu = 10007 the low traces of norm
    # -mu give the closest values, about 1/mu apart.  Each entry is its own
    # sort key, so the entries equal the oracle's plain tuples
    xs = (Fraction(11, 10), 2, Fraction(7, 2), 100, 1000, Fraction(4001, 3))
    cases = [(mu, x) for mu in (1, 2, 3, 5, 7, 997) for x in xs] + [(2, 2 * 10**4), (3, 2 * 10**4)]
    cases += [(10007, 100), (10007, Fraction(4001, 3))]
    for mu, x in cases:
        kept = [((m + f * math.sqrt(d)) / 2.0, m, sigma, d, f)
                for m, sigma, d, f, passed in e_mu_consider(mu, x) if passed == 3]
        got = list(survey.e_mu_stream(mu, x))
        assert got == sorted(kept) and all(type(e) is survey.EMuEntry for e in got), (mu, x)


def test_e_mu_stream_walks_no_period():
    # _within_unit finds eps_d by its g-scan, O(f + mu/d) per candidate: a
    # continued fraction walk per scanned d costs about sqrt(d) and read
    # about 10x slower at mu = 997, x = 5000
    before = contfrac._half_cycle.cache_info().misses
    list(survey.e_mu_stream(997, 5000))
    assert contfrac._half_cycle.cache_info().misses == before


def _traced_peak(run) -> int:
    """The tracemalloc peak, in bytes, of run()."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_e_mu_stream_holds_no_whole_list():
    # reading the stream holds the two merge heads, not every entry (E_mu's
    # report does) or a tuple per field
    streamed = _traced_peak(lambda: sum(1 for _ in survey.e_mu_stream(3, 10**4)))
    collected = _traced_peak(lambda: E_mu(3, 10**4))
    assert streamed < 0.3 * collected, (streamed, collected)


# The trace sieves and the density count hold one block of values, so eight
# times the range may add no more than this to the traced peak.
_BLOCK_SLACK = 2 * 2**20


def test_e_mu_stream_memory_does_not_grow_with_the_limit():
    small = _traced_peak(lambda: sum(1 for _ in survey.e_mu_stream(3, 50_000)))
    large = _traced_peak(lambda: sum(1 for _ in survey.e_mu_stream(3, 400_000)))
    assert large < small + _BLOCK_SLACK, (small, large)


def test_empirical_density_memory_does_not_grow_with_k_max():
    prog = build_progression(IndexPair(5, 0, 11, 4))
    small = _traced_peak(lambda: empirical_density(prog, 100_000))
    large = _traced_peak(lambda: empirical_density(prog, 800_000))
    assert large < small + _BLOCK_SLACK, (small, large)


def _entry(m, sigma):
    """The entry of trace m and norm sigma with f = 1: d = m^2 - 4 sigma."""
    d = m * m - 4 * sigma
    return EMuEntry((m + math.sqrt(d)) / 2.0, m, sigma, d, 1)


def _exact_below(x, y) -> bool:
    # x - y is an algebraic integer of degree <= 4 whose conjugates are at
    # most B, so |x - y| >= B^-3 when it is not 0
    import mpmath

    bound = abs(x.trace) + abs(y.trace) + (x.sqrt_coeff + y.sqrt_coeff) * (math.isqrt(max(x.d, y.d)) + 1)
    with mpmath.workprec(3 * bound.bit_length() + 64):
        return x.trace + x.sqrt_coeff * mpmath.sqrt(x.d) < y.trace + y.sqrt_coeff * mpmath.sqrt(y.d)


def test_e_mu_merge_orders_heads_whose_floats_tie():
    # the two roots of X^2 - mX -+ 1 lie about 2/m apart; at m = 2^60 their
    # floats, and those of the next traces, are equal, so the order comes
    # from the exact sign.  By (value, trace, signed_norm) the norm -1
    # root, the larger, would come first
    m = 2**60
    plus, minus = _entry(m, 1), _entry(m, -1)
    assert plus.value == minus.value == _entry(m + 1, 1).value and minus < plus
    for a, b in ((plus, minus), (minus, plus)):
        assert list(survey._merge_by_value(iter([a]), iter([b]), 1)) == [plus, minus]
    # two streams of near-tied heads: plus(m), minus(m), plus(m + 1), ...
    pluses = [_entry(m + i, 1) for i in range(6)]
    minuses = [_entry(m + i, -1) for i in range(6)]
    merged = list(survey._merge_by_value(iter(pluses), iter(minuses), 1))
    assert merged == [e for pair in zip(pluses, minuses) for e in pair]
    assert all(_exact_below(x, y) for x, y in zip(merged, merged[1:]))


_squarefree_d = st.integers(2, 10**6).filter(lambda d: is_squarefree(d) and not is_square(d))


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**3), _squarefree_d),
       st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**3), _squarefree_d))
def test_exact_head_order_matches_mpmath(first, second):
    # _below is the exact order of two entries, tied floats or not
    (m1, f1, d1), (m2, f2, d2) = first, second
    x, y = EMuEntry(0.0, m1, 1, d1, f1), EMuEntry(0.0, m2, -1, d2, f2)
    if (m1, f1, d1) != (m2, f2, d2):
        assert survey._below(x, y) == _exact_below(x, y)
        assert survey._below(y, x) == _exact_below(y, x)


def test_e_mu_upper_bound():
    for mu in (2, 3):
        for x in (10, 100, 1000):
            r = E_mu(mu, x)
            assert r.theorem_upper_ok
            assert r.count < 2 * x


def test_e_mu_values_sorted_and_minimal():
    r = E_mu(2, 50)
    values = [e.value for e in r.entries]
    assert values == sorted(values)
    # every entry's element is minimal in its own field
    from quadunit.quadfield import is_minimal

    for e in r.entries:
        ctx = field_context(e.d)
        if ctx.is_half:
            xi = QuadInt(ctx, (e.trace - e.sqrt_coeff) // 2, e.sqrt_coeff)
        else:
            xi = QuadInt(ctx, e.trace // 2, e.sqrt_coeff // 2)
        assert xi.norm() == e.signed_norm
        assert is_minimal(xi, fundamental_unit(ctx))


def test_f_mu_examples():
    r = f_mu(2, 10)
    assert r.count == 6
    assert set(r.kernels) == {2, 17, 7, 41, 14, 73}
    assert r.ratio == 0.6 >= 0.5
    assert f_mu(30, 3).count == 0
    # no trace 1 < T < n_bound to scan
    assert f_mu(2, 2) == FMuReport(2, 2, 0, 0.0, 0.5, ())
    assert f_mu(-30, 0) == FMuReport(-30, 0, 0, 0.0, 0.125, ())
    with pytest.raises(ValueError, match=r"^mu must be nonzero, got 0$"):
        f_mu(0, 10)
    # a negative bound is refused, not read as an empty range
    with pytest.raises(ValueError, match=r"^bound must be >= 0, got -5$"):
        f_mu(2, -5)


def test_split_identity_examples():
    v = split_identity_check(22, 3)
    assert v.status == "ok" and v.holds
    assert {v.xi, v.xi_tilde} == {QuadInt(field_context(22), 5, 1), QuadInt(field_context(22), 61, 13)}

    v = split_identity_check(17, 2)
    assert v.status == "ok" and v.holds

    v = split_identity_check(5, 2)
    assert v.status == "hypothesis_not_met"

    # 2 is inert in Q(sqrt 5)-like fields with d = 5 (mod 8)
    v = split_identity_check(29, 2)
    assert v.status == "hypothesis_not_met"


def test_split_identity_value():
    v = split_identity_check(17, 2)
    prod = v.xi * v.xi_tilde
    assert prod == fundamental_unit(field_context(17)).scale(2)


def test_ramified_identity():
    v = ramified_identity_check(14, 2)
    assert v.status == "ok" and v.holds
    assert v.xi == QuadInt(field_context(14), 4, 1)

    assert ramified_identity_check(2, 2).status == "hypothesis_not_met"
    # sqrt(6) - 1 < 2: hypothesis fails even though the squared-generator
    # identity itself happens to hold for d = 6
    assert ramified_identity_check(6, 2).status == "hypothesis_not_met"
    xi = QuadInt(field_context(6), 2, 1)
    assert (xi * xi).divide_exact(2) == fundamental_unit(field_context(6))
    assert ramified_identity_check(21, 2).status == "hypothesis_not_met"  # d = 1 mod 4


def test_identity_checks_reject_a_p_that_is_not_prime(monkeypatch):
    # p = 0 divided by zero, p = 1 made a false counterexample at d = 14
    # and p = -3 read as p >= sqrt(D)/2: each is refused before a field
    # is built
    monkeypatch.setattr(survey, "field_context", lambda d: pytest.fail("a field was built"))
    for p in (0, 1, -3, 15):
        for check, d in ((split_identity_check, 17), (ramified_identity_check, 14)):
            with pytest.raises(ValueError, match=f"^p must be prime, got {p}$"):
                check(d, p)


def test_negative_pell_small():
    want = [2, 5, 10, 13, 17, 26, 29]
    assert negative_pell(30, route="cf") == want
    assert negative_pell(30, route="progression") == want
    assert negative_pell(3, route="progression") == [2]
    assert negative_pell_bruteforce(30) == want
    assert 3 not in negative_pell(30, route="cf")  # period of w[3] is even


def test_negative_pell_routes_agree():
    assert negative_pell(500, route="cf") == negative_pell(500, route="progression")
    # two processes join their chunks into the same list
    assert negative_pell(500, jobs=2) == negative_pell(500) == negative_pell(500, route="cf")
    assert negative_pell(500, route="cf", jobs=2) == negative_pell(500)


def test_negative_pell_matches_the_full_period_parity():
    # both routes read the half walk's parity flag, so the check that holds
    # them to an independent method walks each whole period in the oracle
    want = [d for d in range(2, 20501) if is_squarefree(d) and len(linear_cf_walk(d)[1]) % 2]
    assert len(want) == 2443
    assert negative_pell(20500) == want
    assert negative_pell(20500, jobs=2) == want


def test_negative_pell_sieve_drops_only_even_periods(monkeypatch):
    # a radicand with a prime factor 3 (mod 4) has an even full period, and
    # the progression route reads the parity of exactly the other radicands
    from sympy import primefactors

    def has_3_mod_4_factor(d):
        return any(p % 4 == 3 for p in primefactors(d))

    squarefree = [d for d in range(2, 20501) if is_squarefree(d)]
    odd = {d for d in squarefree if len(linear_cf_walk(d)[1]) % 2}
    assert not any(has_3_mod_4_factor(d) for d in odd)
    kept = [d for d in squarefree if not has_3_mod_4_factor(d)]
    assert len(kept) == 2991 and len(odd) == 2443 and odd <= set(kept)
    read = []
    monkeypatch.setattr(survey, "period_is_odd", lambda d: read.append(d) or d in odd)
    assert negative_pell(20500) == sorted(odd)
    assert read == kept


def test_negative_pell_builds_fields_only_for_odd_periods():
    # the parity is read from the radicand first: a context is built (and
    # trial-divided) only for the radicands the sweep returns
    field_context.cache_clear()
    contfrac._half_cycle.cache_clear()
    found = negative_pell(20500)
    assert field_context.cache_info().misses == len(found)
    # the membership check looks up a context only for the 449 earlier
    # square-free candidates of the unit's progression, never for d itself
    assert field_context.cache_info().hits == 449
    # the cf route reads the parity alone and builds no context at all
    negative_pell(20500, route="cf")
    assert field_context.cache_info().misses == len(found)


def test_negative_pell_rejects_a_unit_against_its_parity(monkeypatch):
    # an odd period with a unit of norm +1 is a fault, never a skip
    monkeypatch.setattr(survey, "fundamental_unit", lambda ctx: fundamental_unit(ctx) * fundamental_unit(ctx))
    with pytest.raises(AssertionError, match="is odd but N"):
        survey._pell_chunk("progression", survey._pell_flags("progression", 50), 2, 50)


def test_unit_progression_matches_build_progression(monkeypatch):
    # the sweep's start scan, told the chunk's flags and the unit, returns
    # the progression a full build_progression finds, exceptions included
    seen = []

    def both(pair, n, unit, flags):
        prog = unit_progression(pair, n, unit, flags)
        assert prog == build_progression(pair), (unit.ctx.d, pair)
        seen.append((prog, n))
        return prog

    monkeypatch.setattr(survey, "unit_progression", both)
    assert len(negative_pell(21000)) == len(seen) == 2495
    # both ends of the scan ran: starts below the unit's parameter and
    # progressions with exceptions
    assert sum(prog.n_start < n for prog, n in seen) == 348
    assert sum(bool(prog.exceptions) for prog, _ in seen) == 106


def _shifted_pair_of(steps):
    """survey.pair_of with the unit's parameter n moved steps grid steps."""
    def shifted(mu, u, v):
        pair, n = progressions.pair_of(mu, u, v)
        return pair, n + steps * pair.ytilde
    return shifted


@pytest.mark.parametrize("steps, match", [(1, "element mismatch"), (-1, "is not the unit|off the grid")])
def test_negative_pell_rejects_a_unit_off_its_parameter(monkeypatch, steps, match):
    # one grid step up, the progression's element there is not d; one step
    # down, the start scan's last witness is not the unit (or n is below
    # the grid)
    monkeypatch.setattr(survey, "pair_of", _shifted_pair_of(steps))
    with pytest.raises(AssertionError, match=match):
        survey._pell_chunk("progression", survey._pell_flags("progression", 500), 2, 500)


def test_negative_pell_compares_earlier_candidates(monkeypatch):
    # each square-free candidate below d gets its own field and witness:
    # a witness of the wrong norm there is a fault
    def squared(pair, u, ctx):
        xi = QuadInt.from_half(ctx, u, (2 - pair.j) * pair.y)
        return xi * xi

    monkeypatch.setattr(progressions, "_witness", squared)
    with pytest.raises(AssertionError, match="witness of norm 1 != mu"):
        survey._pell_chunk("progression", survey._pell_flags("progression", 500), 2, 500)


def test_ramified_identity_sweep():
    # the squared-generator identity holds whenever the hypotheses do
    from quadunit.arith import is_squarefree

    checked = 0
    for d in range(2, 800):
        if not is_squarefree(d) or d % 4 == 1:
            continue
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            if (p + 1) ** 2 >= d or (4 * d) % p:
                continue
            v = ramified_identity_check(d, p)
            if v.status == "ok":
                assert v.holds, (d, p)
                checked += 1
    assert checked > 150


def test_bound_sweep():
    rep = theorem_bound_sweep(2, 500)
    assert rep.rows[0].trace == 4 and rep.rows[0].d == 2
    r0 = rep.rows[0]
    assert abs(r0.log_eps - math.log(1 + math.sqrt(2))) < 1e-9
    assert rep.min_residual <= min(r.residual for r in rep.rows)
    assert rep.violation_count == sum(1 for r in rep.rows if r.residual < 0)
    assert len(rep.decile_means) == 10
    with pytest.raises(ValueError):
        theorem_bound_sweep(4, 100)
    with pytest.raises(ValueError):
        theorem_bound_sweep(2, 3)  # no admissible traces
    for probe in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^probe_constant must be finite, got "):
            theorem_bound_sweep(2, 20, probe_constant=probe)


def test_bound_sweep_deterministic():
    a = theorem_bound_sweep(2, 300)
    b = theorem_bound_sweep(2, 300)
    assert a == b


def test_bound_sweep_on_a_pool_matches_serial():
    # two processes sweep the same chunks and merge them in order
    serial = theorem_bound_sweep(2, 300)
    pooled = theorem_bound_sweep(2, 300, jobs=2)
    for name in survey.BoundReport._fields:
        assert getattr(pooled, name) == getattr(serial, name), name


def test_bound_sweep_rejects_jobs_below_one(monkeypatch):
    def no_chunk(*args):
        raise AssertionError("a chunk ran")

    monkeypatch.setattr(survey, "_bound_rows", no_chunk)
    with pytest.raises(ValueError, match=r"^jobs must be >= 1, got 0$"):
        theorem_bound_sweep(2, 300, jobs=0)


def test_rank_correlation():
    assert rank_correlation([1, 2, 3, 4]) == 1.0
    assert rank_correlation([4, 3, 2, 1]) == -1.0
    assert abs(rank_correlation([1, 3, 2, 4])) < 1.0
    assert rank_correlation([]) == rank_correlation([7]) == 0.0
