import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from quadunit.arith import factorize, is_squarefree, primes_up_to
from quadunit.progressions import (
    IndexPair,
    ScanBudgetError,
    build_progression,
    coverage_report,
    element,
    empirical_density,
    hensel_quadratic,
    hensel_quadratic_scan,
    index_pairs,
    omega_p_count,
    omega_p_predicted,
    predicted_density,
    quadratic_roots_mod_p2,
    solve_n0,
    squarefree_flags,
    squarefree_flags_quadratic,
)
from quadunit.quadfield import QuadInt, field_context

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
    assert element(prog, 2) == 149


def test_build_progression_budget():
    with pytest.raises(ScanBudgetError):
        build_progression(IndexPair(2, 0, 7, 3), scan_limit=1)


def test_progression_norm_identity():
    # every square-free element carries a norm-mu witness
    for pair in (IndexPair(2, 0, 7, 3), IndexPair(5, 1, 1, 0), IndexPair(-1, 0, 5, 2)):
        prog = build_progression(pair)
        y, x = pair.y, pair.x
        for k in range(1001):
            d = prog.element(k)
            n = prog.n_at(k)
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
pair = IndexPair(2, 0, 7, 3)
try:
    _candidate(pair, 2)  # n0 = 1: the norm identity fails at n = 2
except AssertionError as exc:
    print("identity:", exc)
progressions._witness = lambda pair, n, ctx: ctx.one()
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
    for (A, B, C) in [(49, 118, 71), (1, 0, -8), (4, 36, 61), (1, 2, -7)]:
        flags = squarefree_flags_quadratic(A, B, C, 300)
        for k in range(300):
            v = abs(A * k * k + B * k + C)
            if v == 0:
                continue
            want = all(e == 1 for _, e in factorize(v).pairs)
            assert bool(flags[k]) == want, (A, B, C, k, v)


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
    assert pred.factor_square_part == 1.0
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
    assert report.uncovered() == []
    assert by_d[17].status == "covered"
    # vacuous coverage
    assert coverage_report(-1, 0, 5, 10).rows == ()


def test_exceptions_for_mu2_d2():
    # every norm-2 element of Z[sqrt 2] exceeds the fundamental unit, so
    # d = 2 sits in the exceptions list of both pairs that reach it
    for pair in (IndexPair(2, 0, 1, 0), IndexPair(2, 0, 7, 3)):
        assert 2 in build_progression(pair).exceptions
