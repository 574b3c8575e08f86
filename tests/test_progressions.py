import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadunit import progressions
from quadunit.arith import (
    factorize,
    introot,
    is_prime,
    is_square,
    is_squarefree,
    primes_up_to,
    squarefree_integers_upto,
    squarefree_kernel,
)
from quadunit.contfrac import fundamental_unit
from quadunit.progressions import (
    IndexPair,
    ScanBudgetError,
    build_progression,
    coverage_report,
    empirical_density,
    hensel_quadratic,
    index_pairs,
    _candidate,
    omega_p_predicted,
    pair_of,
    predicted_density,
    solve_n0,
    square_parts_quadratic,
    squarefree_flags,
    squarefree_flags_quadratic,
    trace_kernels,
    unit_progression,
)
from quadunit.quadfield import QuadInt, field_context

from oracles import (
    hensel_quadratic_scan,
    omega_p_count,
    quadratic_roots_mod_p2,
    square_parts_mod_p2,
    squarefree_flags_mod_p2,
)

rng = random.Random(0xFEED)


def test_index_pair_validation():
    with pytest.raises(ValueError):
        IndexPair(4, 0, 3, 1)  # mu not square-free
    with pytest.raises(ValueError):
        IndexPair(2, 1, 4, 1)  # j=1 needs odd y
    with pytest.raises(ValueError):
        IndexPair(2, 0, 7, 9)  # x out of range
    with pytest.raises(ValueError):
        IndexPair(2, 0, 7, 1)  # 1 != 2 (mod 7)
    with pytest.raises(ValueError):
        IndexPair(9, 0, 6, 3)  # gcd > 1
    assert IndexPair(2, 0, 7, 3).ytilde == 7
    assert IndexPair(17, 0, 4, 1).ytilde == 2


def test_index_pairs_examples():
    assert [(p.y, p.x) for p in index_pairs(2, 0, 7)] == [(1, 0), (7, 3), (7, 4)]
    assert [(p.y, p.x) for p in index_pairs(-1, 0, 5)] == [(1, 0), (5, 2), (5, 3)]
    assert [(p.y, p.x) for p in index_pairs(5, 1, 3)] == [(1, 0)]
    # mu is checked before the scan, so an empty scan range does not hide it
    for mu, j, y_max in ((4, 0, 0), (0, 0, 0), (0, 1, 5), (-12, 0, 3)):
        with pytest.raises(ValueError, match=f"^mu must be a nonzero square-free integer, got {mu}$"):
            index_pairs(mu, j, y_max)
    # a negative y_max is rejected; y_max = 0 is an empty scan
    with pytest.raises(ValueError, match="^y_max must be >= 0, got -5$"):
        index_pairs(2, 0, -5)
    assert index_pairs(2, 0, 0) == []


def test_solve_n0_examples():
    assert solve_n0(IndexPair(2, 0, 7, 3)) == (1, 7)
    assert solve_n0(IndexPair(2, 0, 7, 4)) == (5, 7)
    assert solve_n0(IndexPair(2, 0, 1, 0)) == (0, 1)


def test_solve_n0_even_y_insoluble():
    # (4, 1) satisfies x^2 = 5 (mod 4) but not (mod 8): no progression
    pair = IndexPair(5, 0, 4, 1)
    with pytest.raises(ValueError):
        solve_n0(pair)
    # and index_pairs omits it
    assert pair not in index_pairs(5, 0, 4)
    # while (4, 1) for mu = 17 is fine: 1 = 17 (mod 8)
    assert solve_n0(IndexPair(17, 0, 4, 1))[1] == 2


def test_build_progression_worked_cases():
    prog = build_progression(IndexPair(2, 0, 7, 3))
    assert (prog.t, prog.exceptions) == (71, (2,))
    assert [prog.element(k) for k in range(3)] == [71, 238, 503]

    prog = build_progression(IndexPair(2, 0, 1, 0))
    assert (prog.t, prog.exceptions) == (7, (2,))

    prog = build_progression(IndexPair(2, 0, 7, 4))
    assert (prog.t, prog.exceptions) == (31, ())
    assert prog.element(1) == 158

    prog = build_progression(IndexPair(5, 1, 1, 0))
    assert (prog.t, prog.exceptions) == (61, (5, 29))
    assert prog.element(1) == 101
    assert prog.element(2) == 149


def test_build_progression_budget(monkeypatch):
    with pytest.raises(ScanBudgetError):
        build_progression(IndexPair(2, 0, 7, 3), scan_limit=1)

    # a scan limit below 1 is a usage error, raised before any candidate
    def no_scan(*args):
        raise AssertionError("a candidate was scanned")

    monkeypatch.setattr(progressions, "_candidate", no_scan)
    for limit in (0, -3):
        with pytest.raises(ValueError, match=f"^scan_limit must be >= 1, got {limit}$"):
            build_progression(IndexPair(2, 0, 7, 3), scan_limit=limit)


def test_progression_norm_identity():
    # every square-free element carries a norm-mu witness
    for pair in (IndexPair(2, 0, 7, 3), IndexPair(5, 1, 1, 0), IndexPair(-1, 0, 5, 2)):
        prog = build_progression(pair)
        y, x = pair.y, pair.x
        for k in range(1001):
            d = prog.element(k)
            n = prog.n_start + k * prog.modulus
            if pair.j == 0:
                assert (n * y + x) ** 2 - y * y * d == pair.mu
            else:
                assert ((2 * n + 1) * y + 2 * x) ** 2 - y * y * d == 4 * pair.mu
            # and in the ring, for square-free d: N(n y + x + y w[d]) = mu
            if k >= 100 or not is_squarefree(d):
                continue
            ctx = field_context(d)
            if pair.j == 1:
                xi = QuadInt(ctx, n * y + x, y)
            elif ctx.is_half:
                xi = QuadInt(ctx, n * y + x - y, 2 * y)
            else:
                xi = QuadInt(ctx, n * y + x, y)
            assert xi.norm() == pair.mu


def test_invariants_raise_under_python_O():
    # the invariant checks are explicit raises, so python -O keeps them
    script = """
from quadunit import progressions
from quadunit.progressions import IndexPair, _candidate, build_progression
from quadunit.quadfield import QuadInt
pair = IndexPair(2, 0, 7, 3)
try:
    _candidate(pair, 2)  # n0 = 1: the norm identity fails at n = 2
except AssertionError as exc:
    print("identity:", exc)
progressions._witness = lambda pair, n, ctx: QuadInt(ctx, 1, 0)
try:
    build_progression(pair)
except AssertionError as exc:
    print("witness:", exc)
"""
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "identity: non-integral candidate at n=2 for IndexPair(mu=2, j=0, y=7, x=3)",
        "witness: witness of norm 1 != mu at n=1, d=2 for IndexPair(mu=2, j=0, y=7, x=3)",
    ]


def test_closed_form_discriminants():
    # polynomial discriminant: mu (y even), 4 mu (y odd), 64 mu for the j=1
    # closed form 4 y^2 k^2 + 4 s k + t (a square multiple of mu either way,
    # so the per-prime analysis is unchanged and no root repeats)
    for pair in (IndexPair(2, 0, 7, 3), IndexPair(17, 0, 4, 1), IndexPair(5, 1, 1, 0)):
        prog = build_progression(pair)
        A, B, C = prog.coefficients()
        disc = B * B - 4 * A * C
        if pair.j == 1:
            assert disc == 64 * pair.mu
        elif pair.y % 2 == 0:
            assert disc == pair.mu
        else:
            assert disc == 4 * pair.mu


def test_unit_progressions():
    # mu = -1: the progression of (1, 0) starts at d = 2 and lists d = n^2 + 1
    prog = build_progression(IndexPair(-1, 0, 1, 0))
    assert prog.t == 2 and prog.exceptions == ()
    assert [prog.element(k) for k in range(4)] == [2, 5, 10, 17]
    # mu = +1: (1, 0) starts at 3 = 2^2 - 1
    prog = build_progression(IndexPair(1, 0, 1, 0))
    assert prog.t == 3


def test_unit_norms_skip_trial_division(monkeypatch):
    # +-1 are square-free: a unit pair is checked without trial division
    monkeypatch.setattr(progressions, "is_squarefree", lambda n: pytest.fail(f"trial division of {n}"))
    assert pair_of(-1, 64, 10) == (IndexPair(-1, 0, 5, 2), 6)  # 32 + 5 sqrt(41)
    assert [(p.y, p.x) for p in index_pairs(-1, 0, 9)] == [(1, 0), (5, 2), (5, 3)]
    assert len(index_pairs(1, 1, 9)) == 9


def test_unit_progression_checks_the_unit():
    # eps_41 = 32 + 5 sqrt(41) sits at n = 6 of the pair (5, 2), on the grid
    # n = 1 (mod 5); the square-free candidate 2 at n = 1 has the witness
    # 7 + 5 sqrt(2) > eps_2, an exception, so the start is d = 41 itself
    eps = fundamental_unit(field_context(41))
    pair, n = pair_of(-1, *eps.half_coords())
    flags = squarefree_integers_upto(41)
    prog = unit_progression(pair, n, eps, flags)
    assert prog == build_progression(pair)
    assert (prog.t, prog.n_start, prog.exceptions) == (41, 6, (2,))
    # a unit that is not xi(n) is a fault, and so is an n off the grid
    with pytest.raises(AssertionError, match="is not the unit"):
        unit_progression(pair, n, eps * eps * eps, flags)
    for off in (n + 1, n - 2 * pair.ytilde):
        with pytest.raises(AssertionError, match="off the grid"):
            unit_progression(pair, off, eps, flags)


def test_quadratic_roots_mod_p2():
    for _ in range(300):
        p = rng.choice([3, 5, 7, 11, 13])
        A = rng.randrange(1, 50)
        if A % p == 0:
            A *= p  # keep the p | A => p^2 | A shape of progression forms
        B = rng.randrange(-50, 50)
        C = rng.randrange(-50, 50)
        pp = p * p
        want = {k for k in range(pp) if (A * k * k + B * k + C) % pp == 0}
        got = set()
        for r, mod in quadratic_roots_mod_p2(A, B, C, p):
            got.update(range(r, pp, mod) if mod > 1 else range(pp))
        assert got == want, (A, B, C, p)


def test_squarefree_flags_quadratic_vs_factorization():
    # (9, 9, 18): 9 divides every value, so the roots mod 9 are the whole line
    for (A, B, C) in [(49, 118, 71), (1, 0, -8), (4, 36, 61), (1, 2, -7), (9, 9, 18)]:
        flags = squarefree_flags_quadratic(A, B, C, 300)
        for k in range(300):
            v = abs(A * k * k + B * k + C)
            if v == 0:
                continue
            want = all(e == 1 for _, e in factorize(v).pairs)
            assert bool(flags[k]) == want, (A, B, C, k, v)


def _square_part(v: int) -> int:
    out = 1
    for p, e in factorize(v).pairs:
        out *= p ** (e - e % 2)
    return out


def test_square_parts_quadratic_vs_factorization():
    # the flags test's triples, the survey forms T^2 -+ 4 mu and the shifted
    # bound-sweep form (T + t0)^2 - 4 mu, and the all-divisible-by-9 form
    forms = [(49, 118, 71), (1, 0, -8), (4, 36, 61), (1, 2, -7), (9, 9, 18)]
    for mu in (1, 2, 3, 5, 6):
        forms += [(1, 0, -4 * mu), (1, 0, 4 * mu)]
        for t0 in (2, 7, 40):
            forms.append((1, 2 * t0, t0 * t0 - 4 * mu))
    for (A, B, C) in forms:
        sq = list(square_parts_quadratic(A, B, C, 300))
        assert len(sq) == 300
        for k in range(300):
            v = abs(A * k * k + B * k + C)
            assert sq[k] == (_square_part(v) if v else 1), (A, B, C, k, v)
    with pytest.raises(ValueError):
        square_parts_quadratic(1, 0, -8, 0)
    with pytest.raises(ValueError):
        squarefree_flags_quadratic(1, 0, -8, 0)


def _assert_sieve_matches_kernel(A, B, C, count):
    flags = squarefree_flags_quadratic(A, B, C, count)
    sq = list(square_parts_quadratic(A, B, C, count))
    assert len(flags) == len(sq) == count
    for k in range(count):
        v = abs(A * k * k + B * k + C)
        if v == 0:
            assert (flags[k], sq[k]) == (0, 1), (k, v)
            continue
        kernel, cof = squarefree_kernel(v)
        assert sq[k] == cof * cof, (k, v)
        assert bool(flags[k]) == (cof == 1), (k, v)


@st.composite
def _prime_square_leading(draw):
    # A = q^2 for a prime q about the sieve bound P0 = vmax^(1/3) + 1; with
    # A dominating, vmax ~ q^2 count^2, so q ~ P0 when q ~ count^2
    count = draw(st.integers(2, 60))
    q = max(2, (count - 1) ** 2 + draw(st.integers(-40, 40)))
    while not is_prime(q):
        q += 1
    return q * q, draw(st.integers(-200, 200)), draw(st.integers(-2000, 2000)), count


_counts = st.integers(1, 60)
_sieve_forms = st.one_of(
    # any (A, B, C), not only the progression forms
    st.tuples(st.integers(-20, 20), st.integers(-200, 200), st.integers(-2000, 2000), _counts),
    # A = 0: the form is linear, or constant, mod every prime
    st.tuples(st.just(0), st.integers(-200, 200), st.integers(-2000, 2000), _counts),
    # a (k - r1)(k - r2): zero values inside the range, all zeros for a = 0
    st.builds(
        lambda a, r1, r2, count: (a, -a * (r1 + r2), a * r1 * r2, count),
        st.integers(-20, 20), st.integers(0, 60), st.integers(-60, 60), _counts,
    ),
    # b (k - r): a linear form with a zero value
    st.builds(lambda b, r, count: (0, b, -b * r, count), st.integers(-50, 50), st.integers(0, 60), _counts),
    _prime_square_leading(),
)


@settings(max_examples=300, deadline=None)
@given(_sieve_forms)
def test_quadratic_sieve_matches_kernel(form):
    _assert_sieve_matches_kernel(*form)


def test_quadratic_sieve_cube_bound_edge():
    # k^2 + 1 below count 1000: vmax = 998002 and P0 = 99 + 1 = 100.  The
    # first prime above P0 is 101; k = 515 gives 2 * 13 * 101^2, whose
    # cofactor 101^2 is a square.  k = 254 gives 149 * 433: two primes
    # above P0, square-free.
    count = 1000
    assert introot(999 * 999 + 1, 3) + 1 == 100
    sq = list(square_parts_quadratic(1, 0, 1, count))
    flags = squarefree_flags_quadratic(1, 0, 1, count)
    assert 515 * 515 + 1 == 2 * 13 * 101**2 and (sq[515], flags[515]) == (101**2, 0)
    assert 254 * 254 + 1 == 149 * 433 and (sq[254], flags[254]) == (1, 1)
    _assert_sieve_matches_kernel(1, 0, 1, count)


# Blocks of seven values: a range of up to 60 values spans up to nine blocks.
_SMALL_BLOCK = 7


def _edge_forms():
    # a range that ends on a block multiple; a zero value on either side of a
    # block edge; a concave form whose largest |value| is at an interior vertex
    edges = st.sampled_from([_SMALL_BLOCK * i + j for i in range(1, 9) for j in (-1, 0)])
    block_counts = st.integers(1, 8).map(lambda i: _SMALL_BLOCK * i)
    return st.one_of(
        st.tuples(st.integers(-20, 20), st.integers(-200, 200), st.integers(-2000, 2000), block_counts),
        st.builds(lambda a, r1, r2, count: (a, -a * (r1 + r2), a * r1 * r2, count),
                  st.integers(-20, 20), edges, st.integers(-60, 60), st.integers(1, 60)),
        st.builds(lambda a, v, c, count: (-a, 2 * a * v, c, count),
                  st.integers(1, 20), st.integers(1, 58), st.integers(-2000, 2000), st.integers(60, 61)),
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(_edge_forms(), _sieve_forms))
def test_quadratic_sieve_block_edges(form):
    # the sieve in blocks of seven values gives the whole-range answers, and
    # its P0 reads the largest |value| from the ends and the vertex
    A, B, C, count = form
    assert progressions._max_abs_value(A, B, C, count) == max(abs((A * k + B) * k + C) for k in range(count))
    with mock.patch.object(progressions, "_BLOCK", _SMALL_BLOCK):
        _assert_sieve_matches_kernel(A, B, C, count)


@settings(max_examples=100, deadline=None)
@given(st.integers(-60, 60), st.integers(-70, 300), st.sampled_from([0, 5, 6, 7, 13, 14, 20, 62, 63, 64]))
def test_trace_kernels_block_edges(sigma, t_min, span):
    # trace scans of up to ten blocks of seven, ending on and next to a block
    # edge, with negative traces (the norm -mu scan of survey e-mu)
    with mock.patch.object(progressions, "_BLOCK", _SMALL_BLOCK):
        _assert_trace_kernels_match_kernel(sigma, t_min, t_min + span)


@pytest.mark.parametrize("block", [7, 254, 255, 515, 516])
def test_quadratic_sieve_cube_bound_edge_across_blocks(block):
    # test_quadratic_sieve_cube_bound_edge with a block edge at or next to
    # the two values it pins, k = 254 and k = 515
    with mock.patch.object(progressions, "_BLOCK", block):
        test_quadratic_sieve_cube_bound_edge()


def test_quadratic_sieve_interior_vertex():
    # -k^2 + 40 k + 3 over 0 <= k <= 40: the ends are 3 and the vertex value
    # is 403, so P0 is 8, not the ends' 2.  k = 4 gives 147 = 3 * 7^2, whose
    # cofactor 147 would pass as square-free with the ends' P0
    A, B, C, count = -1, 40, 3, 41
    assert introot(3, 3) + 1 == 2 and introot(403, 3) + 1 == 8
    assert progressions._max_abs_value(A, B, C, count) == 403 == (A * 20 + B) * 20 + C
    assert 4 * 36 + 3 == 3 * 7**2
    assert list(square_parts_quadratic(A, B, C, count))[4] == 7**2
    assert squarefree_flags_quadratic(A, B, C, count)[4] == 0
    with mock.patch.object(progressions, "_BLOCK", _SMALL_BLOCK):
        _assert_sieve_matches_kernel(A, B, C, count)


def test_quadratic_sieve_matches_mod_p2_oracle():
    # the density forms of the benchmark pairs (mu, j, y, x), flags
    for pair in (IndexPair(3, 0, 11, 5), IndexPair(3, 0, 11, 6), IndexPair(5, 0, 11, 4), IndexPair(5, 0, 11, 7)):
        A, B, C = build_progression(pair).coefficients()
        assert squarefree_flags_quadratic(A, B, C, 100500) == squarefree_flags_mod_p2(A, B, C, 100500), pair
    # the trace discriminants m^2 -+ 4 mu, square parts
    for mu in (1, 2, 3, 5, 7):
        for C in (-4 * mu, 4 * mu):
            assert list(square_parts_quadratic(1, 0, C, 10**5)) == square_parts_mod_p2(1, 0, C, 10**5), (mu, C)


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.integers(0, 300), st.integers(-5, 400))
def test_trace_kernels_match_kernel(sigma, t_min, span):
    # span < 0 draws empty ranges
    _assert_trace_kernels_match_kernel(sigma, t_min, t_min + span)


def _assert_trace_kernels_match_kernel(sigma, t_min, t_max):
    got = list(trace_kernels(sigma, t_min, t_max))
    assert [t for t, _, _ in got] == sorted({t for t, _, _ in got})
    yielded = {t: (d, f) for t, d, f in got}
    for t in range(t_min, t_max + 1):
        disc = t * t - 4 * sigma
        if t in yielded:
            assert yielded[t] == squarefree_kernel(disc) and yielded[t][0] > 1, t
        else:
            assert disc <= 0 or is_square(disc), t
    assert set(yielded) <= set(range(t_min, t_max + 1))


def test_pair_of_inverts_candidate():
    for mu in (-3, -2, -1, 2, 3, 5):
        for j in (0, 1):
            for pair in index_pairs(mu, j, 60):
                n0, modulus = solve_n0(pair)
                for n in range(n0, 50, modulus):
                    _, u = _candidate(pair, n)
                    assert pair_of(mu, u, (2 - j) * pair.y) == (pair, n), (pair, n)


def test_pair_of_rejects_off_grid_elements():
    assert pair_of(2, 6, 14) == (IndexPair(2, 0, 7, 3), 0)  # 3 + 7 sqrt(d)
    assert pair_of(2, -8, 14) is None  # n < 0
    assert pair_of(-1, 4, 8) is None  # gcd(x, y) = 2
    assert pair_of(5, 1, 1) == (IndexPair(5, 1, 1, 0), 0)
    assert pair_of(5, -1, 1) is None  # u = 2x + (2n+1) y needs n >= 0
    assert pair_of(5, 8, 3) is None  # u - y = 5 is odd: u = 2x + (2n+1) y has no solution
    assert pair_of(5, 5, 2) is None  # v even needs u even


def _brute_n0(pair):
    """The least n >= 0 with v^2 | u(n)^2 - 4 mu, and the gap to the next one."""
    v = (2 - pair.j) * pair.y
    hits = [n for n in range(2 * pair.y + 1)
            if (2 * pair.x + (2 * n + pair.j) * pair.y) ** 2 % (v * v) == 4 * pair.mu % (v * v)]
    return hits[0], hits[1] - hits[0]


def test_solve_n0_matches_brute_force():
    mus = [mu for m in range(1, 41) if is_squarefree(m) for mu in (m, -m)]
    for mu in mus:
        for j in (0, 1):
            for pair in index_pairs(mu, j, 150):
                assert solve_n0(pair) == _brute_n0(pair), pair
        # even y with x^2 = mu (mod y) but not (mod 2y): no n at all
        for y in range(2, 151, 2):
            for x in range(1, y, 2):
                if math.gcd(x, y) == 1 and (x * x - mu) % y == 0 and (x * x - mu) % (2 * y):
                    pair = IndexPair(mu, 0, y, x)
                    with pytest.raises(ValueError, match="admits no progression"):
                        solve_n0(pair)
                    assert all((2 * x + 2 * n * y) ** 2 % (4 * y * y) != 4 * mu % (4 * y * y)
                               for n in range(y)), pair


def test_closed_form_matches_candidates():
    for mu in (1, -1, 2, -2, 3, -3, 5, 6, 7):
        for j in (0, 1):
            for pair in index_pairs(mu, j, 40):
                prog = build_progression(pair)
                for k in range(8):
                    assert prog.element(k) == _candidate(pair, prog.n_start + k * prog.modulus)[0], (pair, k)


def test_progression_index():
    prog = build_progression(IndexPair(2, 0, 7, 3))
    for k in range(5):
        assert prog.index(prog.n_start + k * prog.modulus) == k
    for n in (prog.n_start + 1, prog.n_start - prog.modulus):
        with pytest.raises(AssertionError):
            prog.index(n)


def test_empirical_density_examples():
    prog = build_progression(IndexPair(2, 0, 7, 3))
    assert empirical_density(prog, 3) == Fraction(3, 3)
    with pytest.raises(ValueError):
        empirical_density(prog, 0)
    prog = build_progression(IndexPair(5, 1, 1, 0))
    assert empirical_density(prog, 3) == Fraction(3, 3)  # 61, 101, 149


def test_two_adic_cases():
    # y odd, mu = 1 (mod 4): two roots; j = 1: none
    assert omega_p_predicted(build_progression(IndexPair(5, 0, 1, 0)), 2) == 2
    assert omega_p_predicted(build_progression(IndexPair(5, 1, 1, 0)), 2) == 0
    assert omega_p_predicted(build_progression(IndexPair(2, 0, 7, 3)), 2) == 0
    # y = 0 (mod 4): one root
    assert omega_p_predicted(build_progression(IndexPair(17, 0, 4, 1)), 2) == 1
    # y = 2 (mod 4) exists for mu = 1 (mod 8): x = 1, y = 2 works for mu = 17
    pair = IndexPair(17, 0, 2, 1)
    assert omega_p_predicted(build_progression(pair), 2) == 2


def test_omega_p_count_examples():
    prog = build_progression(IndexPair(2, 0, 7, 3))
    assert omega_p_count(prog, 3) == 0
    assert omega_p_count(prog, 7) == 1
    assert omega_p_count(build_progression(IndexPair(5, 1, 1, 0)), 2) == 0


def test_omega_p_count_matches_prediction():
    pairs = [
        IndexPair(2, 0, 7, 3),
        IndexPair(2, 0, 1, 0),
        IndexPair(5, 1, 1, 0),
        IndexPair(17, 0, 4, 1),
        IndexPair(-1, 0, 5, 2),
        IndexPair(3, 0, 11, 5),
        IndexPair(13, 1, 3, 1),
    ]
    for pair in pairs:
        prog = build_progression(pair)
        for p in primes_up_to(50):
            assert omega_p_count(prog, p) == omega_p_predicted(prog, p), (pair, p)


def test_predicted_density_leading_factor():
    assert predicted_density(IndexPair(5, 0, 1, 0), 100).leading_factor == 0.5
    assert predicted_density(IndexPair(5, 1, 1, 0), 100).leading_factor == 1.0
    assert predicted_density(IndexPair(2, 0, 7, 3), 100).leading_factor == 1.0
    with pytest.raises(ValueError):
        predicted_density(IndexPair(2, 0, 7, 3), 2)
    pred = predicted_density(IndexPair(2, 0, 7, 3), 100)
    assert pred.factor_divisors == 1.0 - 1.0 / 49  # the odd prime 7 divides y
    for f in (pred.leading_factor, pred.factor_divisors, pred.factor_residues):
        assert 0.0 < f <= 1.0
    assert abs(pred.value - pred.leading_factor * pred.factor_divisors * pred.factor_residues) < 1e-15


def test_predicted_vs_empirical_moderate():
    for pair in (IndexPair(2, 0, 7, 3), IndexPair(2, 0, 1, 0), IndexPair(5, 1, 1, 0)):
        prog = build_progression(pair)
        pred = predicted_density(pair, 10**4).value
        emp = float(empirical_density(prog, 10**4))
        assert abs(pred - emp) < 0.02, (pair, pred, emp)


def test_predicted_vs_empirical_diverse_pair_shapes():
    # both even-y two-adic cases, negative and composite mu, j=1 with y > 1
    probes = [
        IndexPair(17, 0, 4, 1),
        IndexPair(17, 0, 2, 1),
        IndexPair(-1, 0, 5, 2),
        IndexPair(-2, 0, 3, 1),
        IndexPair(6, 0, 5, 1),
        IndexPair(13, 1, 3, 1),
        IndexPair(-5, 1, 3, 1),
    ]
    for pair in probes:
        prog = build_progression(pair)
        pred = predicted_density(pair, 10**4).value
        emp = float(empirical_density(prog, 10**4))
        assert abs(pred - emp) < 0.02, (pair, pred, emp)
        for p in (2, 3, 5, 7, 11, 13):
            assert omega_p_count(prog, p) == omega_p_predicted(prog, p), (pair, p)


def test_hensel_examples():
    assert hensel_quadratic(1, 0, -5, 11, 2)
    assert not hensel_quadratic(1, 0, -2, 3, 1)
    assert hensel_quadratic(1, 1, 1, 3, 2) == hensel_quadratic_scan(1, 1, 1, 3, 2) == False
    with pytest.raises(ValueError):
        hensel_quadratic(3, 1, 1, 3, 2)
    with pytest.raises(ValueError):
        hensel_quadratic(1, 0, 1, 2, 2)


def test_hensel_vs_scan_random():
    for _ in range(400):
        p = rng.choice([3, 5, 7, 11, 13])
        m = rng.randrange(1, 4)
        a2 = rng.randrange(1, 100)
        while a2 % p == 0:
            a2 = rng.randrange(1, 100)
        a1, a0 = rng.randrange(-100, 100), rng.randrange(-100, 100)
        assert hensel_quadratic(a2, a1, a0, p, m) == hensel_quadratic_scan(a2, a1, a0, p, m)


def test_coverage_small():
    report = coverage_report(2, 10, 50, 10**4)
    by_d = {r.d: r for r in report.rows}
    assert set(by_d) == {2, 7, 14, 17, 23, 41, 73}
    assert by_d[2].status == "exception"
    assert [r.d for r in report.rows if r.status == "uncovered"] == []
    assert by_d[17].status == "covered"
    # vacuous coverage
    assert coverage_report(-1, 0, 5, 10).rows == ()
    # 0 and non-square-free mu fail with the IndexPair message, also when no
    # index pair would be built (y_max = 0) or no trace scanned (t_max = 1)
    for mu, t_max, y_max in ((0, 200, 300), (9, 12, 0), (9, 1, 300), (-12, 12, 0)):
        with pytest.raises(ValueError, match=rf"^mu must be a nonzero square-free integer, got {mu}$"):
            coverage_report(mu, t_max, y_max, 10)
    # a negative y_max is rejected; y_max = 0 leaves every witness uncovered
    with pytest.raises(ValueError, match="^y_max must be >= 0, got -1$"):
        coverage_report(2, 10, -1, 10)
    assert {r.status for r in coverage_report(2, 10, 0, 10).rows} == {"uncovered"}


def test_exceptions_for_mu2_d2():
    # every norm-2 element of Z[sqrt 2] exceeds the fundamental unit, so
    # d = 2 sits in the exceptions list of both pairs that reach it
    for pair in (IndexPair(2, 0, 1, 0), IndexPair(2, 0, 7, 3)):
        assert 2 in build_progression(pair).exceptions
