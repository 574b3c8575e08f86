"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` (or `quadunit verify`).
Expected values are frozen from independent oracles: literal Pell searches,
sympy's Diophantine solver, numpy brute scans, and exact recomputation.
"""

import json
import math
import random
from fractions import Fraction
from itertools import islice

from quadunit.arith import is_squarefree, primes_up_to, squarefree_integers_upto
from quadunit.contfrac import convergents, expand_omega, fundamental_unit, residuals_hold
from quadunit.ideals import (
    count_reduced_formula,
    mu_below_omega,
    reduced_ideals_of_norm,
    xi_alpha_check,
)
from quadunit.progressions import (
    IndexPair,
    build_progression,
    coverage_report,
    empirical_density,
    hensel_quadratic,
    omega_p_predicted,
    predicted_density,
)
from quadunit.quadfield import field_context, sign_plus_sqrt
from quadunit.survey import (
    E_mu,
    f_mu,
    negative_pell,
    ramified_identity_check,
    rank_correlation,
    split_identity_check,
    theorem_bound_sweep,
)

from oracles import (
    alpha_product,
    e_mu_fields,
    fraction_residual,
    linear_cf_rows,
    omega_p_count,
    pell_unit_bruteforce,
    pell_unit_sympy,
)

SQFREE_5000 = squarefree_integers_upto(5000)


def _squarefree_range(hi):
    return (d for d in range(2, hi) if SQFREE_5000[d])


def test_criterion_01_cf_regression():
    want = {2: (1, [2]), 3: (1, [1, 2]), 5: (1, [1]), 13: (2, [3])}
    for d, (a0, periodic) in want.items():
        exp = expand_omega(field_context(d))
        assert exp.a0 == a0
        # a_1 .. a_l, each the floor of alpha_n = (P_n + sqrt d)/Q_n
        assert [(P + math.isqrt(d)) // Q for _, P, Q, _ in exp.period()] == periodic
        assert [a for a, _, _, _ in exp.period()][1:] == periodic[:-1]
        assert exp.l == len(periodic)
    print("PASS criterion 1: CF regression for d in {2, 3, 5, 13}")


def test_criterion_02_unit_correctness():
    # d < 1000: match the independent Pell solvers
    for d in _squarefree_range(1000):
        eps = fundamental_unit(field_context(d))
        assert abs(eps.norm()) == 1, d
        assert pell_unit_sympy(d) == eps.half_coords(), d
        if d < 60:
            assert pell_unit_bruteforce(d) == eps.half_coords(), d
    # d < 5000: the unit is the last xi of the period, and no earlier one;
    # last-quotient and palindrome invariants; convergent determinant
    for d in _squarefree_range(5000):
        exp = expand_omega(field_context(d))
        l = exp.l
        rows = list(exp.period())
        assert rows[-1][3] == 1, d
        assert all(nu > 1 for _, _, _, nu in rows[:-1]), d
        _, P, Q, _ = rows[-1]  # alpha_l, whose floor is a_l
        assert (P + math.isqrt(d)) // Q == (2 * exp.a0 - 1 if d % 4 == 1 else 2 * exp.a0), d
        body = [a for a, _, _, _ in rows[1:]]
        assert body == body[::-1], d
        # the library's one period of convergents, continued to n < 2l by the oracle walk
        walk = [(p, q) for _, _, _, p, q, _ in islice(linear_cf_rows(d), 2 * l)]
        assert list(convergents(exp)) == walk[:l], d
        for n, ((pn, qn), (pm, qm)) in enumerate(zip(walk, [(1, 0)] + walk)):
            assert pn * qm - pm * qn == (-1) ** (n + 1), (d, n)
    print("PASS criterion 2: units match Pell oracles (d < 1000); "
          "unit/palindrome invariants hold (d < 5000)")


def test_criterion_03_xi_alpha():
    for d in _squarefree_range(2000):
        assert all(r.ok for r in xi_alpha_check(field_context(d))), d
    print("PASS criterion 3: principal ideal of xi_n has associated "
          "irrational alpha_{n+1}, exactly (d < 2000)")


def test_criterion_04_alpha_product():
    for d in _squarefree_range(2000):
        A, B = alpha_product(d)
        u, v = fundamental_unit(field_context(d)).half_coords()
        assert (A, B) == (Fraction(u, 2), Fraction(v, 2)), d
    print("PASS criterion 4: product of total quotients over one period "
          "equals the fundamental unit, exactly (d < 2000)")


def test_criterion_05_quotient_norm_bound():
    small = []
    for d in _squarefree_range(5000):
        ctx = field_context(d)
        exp = expand_omega(ctx)
        if ctx.discriminant <= 16:
            small.append(d)
            continue
        e = ctx.sqrt_disc_scale  # sqrt(D) = e sqrt(d)
        rows = list(exp.period())
        for n, (_, P, Q, nu) in enumerate(rows + rows[:1]):  # n <= l: alpha_{l+1} = alpha_1
            # alpha_{n+1} < sqrt(D)/nu_n  <=>  nu P + (nu - e Q) sqrt(d) < 0
            assert sign_plus_sqrt(nu * P, nu - e * Q, d) < 0, (d, n)
        assert residuals_hold(exp), d  # the delta bound at 1 <= n < l
        assert fraction_residual(d, [exp.l])[0][1], d  # and at n = l
    assert sorted(small) == [2, 3, 5, 13]  # discriminants 8, 12, 5, 13
    for d in small:
        exp = expand_omega(field_context(d))
        for n, (alpha_below, within) in enumerate(fraction_residual(d, range(2 * exp.l + 3))):
            assert alpha_below, (d, n)
            if n >= 1:
                assert within, (d, n)
    print("PASS criterion 5: |delta_n| < 4/(q_n^2 sqrt D) certified at every "
          "index (d < 5000, D > 16); D in {5, 8, 12, 13} checked up to n = 2l + 2")


def test_criterion_06_ideal_counts():
    mismatches = 0
    checked = 0
    for d in _squarefree_range(2000):
        ctx = field_context(d)
        mu = 1
        while mu_below_omega(ctx, mu):
            if is_squarefree(mu):
                checked += 1
                if len(reduced_ideals_of_norm(ctx, mu)) != count_reduced_formula(ctx, mu):
                    mismatches += 1
            mu += 1
    assert mismatches == 0
    assert checked > 10000
    print(f"PASS criterion 6: reduced-ideal enumeration equals the four-case "
          f"count formula on {checked} (d, mu) instances, zero mismatches")


WORKED_PAIRS = (
    (IndexPair(2, 0, 7, 3), 71, (2,)),
    (IndexPair(2, 0, 1, 0), 7, (2,)),
    (IndexPair(2, 0, 7, 4), 31, ()),
    (IndexPair(5, 1, 1, 0), 61, (5, 29)),
)


def test_criterion_07_progression_instances():
    for pair, want_t, want_exc in WORKED_PAIRS:
        prog = build_progression(pair)
        assert prog.t == want_t, pair
        assert prog.exceptions == want_exc, pair
        # independent norm check N(n y + x + y w[d]) = mu at the start and
        # the next few members, straight from integer arithmetic
        y, x = pair.y, pair.x
        for k in range(5):
            d = prog.element(k)
            n = prog.n_start + k * prog.modulus
            if pair.j == 0:
                assert (n * y + x) ** 2 - y * y * d == pair.mu
            else:
                assert ((2 * n + 1) * y + 2 * x) ** 2 - y * y * d == 4 * pair.mu
    print("PASS criterion 7: canonical starts t = 71, 7, 31, 61 with the "
          "stated exceptions, norms verified independently")


def test_criterion_08_coverage():
    for mu in (2, 3):
        report = coverage_report(mu, 200, 300, 10**6)
        assert [r.d for r in report.rows if r.status == "uncovered"] == [], mu
        for row in report.rows:
            assert row.status in ("covered", "exception"), row
    print("PASS criterion 8: every witness radicand (T <= 200, mu in {2, 3}) "
          "is a progression member or a recorded exception; none uncovered")


def test_criterion_09_density():
    for pair, _, _ in WORKED_PAIRS:
        prog = build_progression(pair)
        pred = predicted_density(pair, 10**5).value
        emp = float(empirical_density(prog, 10**5))
        assert abs(pred - emp) <= 0.02, (pair, pred, emp)
        for p in primes_up_to(50):
            assert omega_p_count(prog, p) == omega_p_predicted(prog, p), (pair, p)
    print("PASS criterion 9: |predicted - empirical| <= 0.02 at cutoff and "
          "k_max 1e5; omega'_d(p) matches the case analysis for p <= 50")


def test_criterion_10_hensel():
    import numpy as np

    rng = random.Random(20130517)
    triples = [
        (rng.randint(1, 1000), rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        for _ in range(500)
    ]
    mismatches = 0
    checked = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for m in range(1, 5):
            pm = p**m
            xs = np.arange(pm, dtype=np.int64)
            for (a2, a1, a0) in triples:
                if a2 % p == 0:
                    continue
                checked += 1
                vals = (a2 % pm) * xs * xs + (a1 % pm) * xs + (a0 % pm)
                scan = bool((vals % pm == 0).any())
                if hensel_quadratic(a2, a1, a0, p, m) != scan:
                    mismatches += 1
    assert mismatches == 0
    assert checked > 13000
    print(f"PASS criterion 10: discriminant criterion equals brute scan on "
          f"{checked} quadratics (odd p <= 23, m <= 4), zero mismatches")


def test_criterion_11_surveys():
    # E_2(5) = 5 by both routes: the trace scan and the field-by-field count
    trace = E_mu(2, 5)
    fields = e_mu_fields(2, 5)
    assert trace.count == 5 and len(fields) == 5
    assert trace.keys() == set(fields)

    # E_mu(x) < 2x for all x <= 1e5: at each jump value v_i (sorted, i-th
    # smallest, 1-based) the count just after v_i is i, so i <= 2 v_i exactly
    for mu in (2, 3):
        rep = E_mu(mu, 10**5)
        assert rep.theorem_upper_ok
        for i, e in enumerate(rep.entries, start=1):
            # i <= 2 * (trace + f sqrt d)/2  <=>  (trace - i) + f sqrt d >= 0
            assert sign_plus_sqrt(e.trace - i, e.sqrt_coeff, e.d) >= 0, (mu, i)

    # f_mu counts
    assert f_mu(2, 10).count == 6
    for mu in (2, 3, 5, 6):
        rep = f_mu(mu, 10**4)
        assert rep.ratio >= rep.liminf_bound - 0.05, mu

    # negative Pell: progression route == CF parity route at 1e4
    assert negative_pell(10**4, route="progression") == negative_pell(10**4, route="cf")
    print("PASS criterion 11: E_2(5) = 5 both routes; E_mu(x) < 2x up to 1e5; "
          "f_2(10) = 6 and liminf probes hold; negative Pell routes agree at 1e4")


def test_criterion_12_identities():
    # the two named instances
    for d, p in ((22, 3), (17, 2)):
        v = split_identity_check(d, p)
        assert v.status == "ok" and v.holds, (d, p)
    # the full sweep: every split principal p below sqrt(D)/2, d <= 2000
    checked = 0
    for d in (d for d in range(2, 2001) if SQFREE_5000[d]):
        ctx = field_context(d)
        for p in primes_up_to(60):
            if 4 * p * p >= ctx.discriminant:
                break
            v = split_identity_check(d, p)
            if v.status == "ok":
                checked += 1
                assert v.holds, (d, p)
    assert checked > 2000
    v = ramified_identity_check(14, 2)
    assert v.status == "ok" and v.holds
    print(f"PASS criterion 12: xi * xi~ = p * eps on {checked} split "
          f"principal instances (d <= 2000); squared-generator identity at (14, 2)")


def test_criterion_13_bound_sweep():
    rep1 = theorem_bound_sweep(2, 10**4)
    assert math.isfinite(rep1.min_residual)
    corr = rank_correlation(rep1.decile_means)
    assert corr > 0, corr
    # byte-determinism of the serialized report
    def serialize(rep):
        return json.dumps(
            {
                "min": rep.min_residual,
                "percentiles": [list(p) for p in rep.percentiles],
                "deciles": list(rep.decile_means),
                "rows": [[r.trace, r.d, r.D, r.log_eps, r.residual] for r in rep.rows],
            },
            separators=(",", ":"),
        ).encode()

    rep2 = theorem_bound_sweep(2, 10**4)
    assert serialize(rep1) == serialize(rep2)
    print(f"PASS criterion 13: bound sweep (mu=2, T <= 1e4) has finite minimum "
          f"residual {rep1.min_residual:.3f}, decile rank correlation "
          f"{corr:.3f} > 0, byte-deterministic report")
