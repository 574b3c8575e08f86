import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadunit.arith import is_squarefree, squarefree_integers_upto
from quadunit.contfrac import convergent_xi, convergents, expand_omega
from quadunit.ideals import (
    IdealBasis,
    alpha_of_ideal,
    canonical_from_module,
    conjugate_coprime,
    count_reduced_formula,
    is_reduced_ideal,
    mu_below_omega,
    norm_ideal_candidates,
    omega_ideal,
    principal_basis,
    reduced_ideals_of_norm,
    xi_alpha_check,
)
from quadunit.quadfield import QuadInt, field_context

from oracles import _hnf_rows, conjugate_coprime_bruteforce, norm_nu

rng = random.Random(0xA11CE)

SQUAREFREE = [d for d in range(2, 300) if squarefree_integers_upto(300)[d]]


def test_omega_ideal_value():
    for d in (2, 3, 5, 13, 17):
        ctx = field_context(d)
        w = omega_ideal(ctx)
        assert w.trace() == ctx.discriminant
        assert w.norm() == ctx.discriminant * (ctx.discriminant - 1) // 4


def test_principal_basis_examples():
    c2 = field_context(2)
    unit_ideal = principal_basis(QuadInt(c2, 1, 1))
    assert (unit_ideal.a, unit_ideal.c) == (1, 1)
    assert alpha_of_ideal(unit_ideal).as_pair() == (1, 1)  # 1 + sqrt(2)

    ramified = principal_basis(QuadInt(c2, 10, 7))
    assert (ramified.a, ramified.c) == (2, 1)

    c13 = field_context(13)
    assert (principal_basis(QuadInt(c13, 1, 1)).a, principal_basis(QuadInt(c13, 1, 1)).c) == (1, 1)

    with pytest.raises(ValueError):
        principal_basis(QuadInt(c2, 0, 0))


def _random_generators(draws=300):
    """xi = a + b w[d] with |a|, |b| <= 30 and N(xi) != 0, out of `draws` draws."""
    for _ in range(draws):
        ctx = field_context(rng.choice(SQUAREFREE))
        xi = QuadInt(ctx, rng.randrange(-30, 31), rng.randrange(-30, 31))
        if xi.norm():
            yield xi


def test_principal_basis_idempotent_and_norm():
    for xi in _random_generators():
        ctx = xi.ctx
        basis = principal_basis(xi)
        assert basis.norm() == abs(xi.norm())
        # re-canonicalizing is a fixed point
        again = canonical_from_module(ctx, basis.a, basis.b, basis.c)
        assert again == basis


def _omega_row(x):
    """(p, q) with x = p + q*omega, read off x = a + b*w[d]."""
    d = x.ctx.d
    return x.a - x.b * ((d - 1) // 2 if d % 4 == 1 else 2 * d), x.b  # w[d] = omega - shift


def test_principal_basis_matches_hermite_oracle():
    # (xi) is spanned by xi and omega*xi; the oracle's Hermite form of those
    # two rows gives a, c and b mod a.  xi = conj(omega) makes omega*xi = N(omega)
    # rational, a row with no omega part.
    conj_omegas = [omega_ideal(field_context(d)).conj() for d in (2, 3, 5, 13)]
    for xi in [*_random_generators(), *conj_omegas]:
        basis = principal_basis(xi)
        A, B, C = _hnf_rows([_omega_row(xi), _omega_row(omega_ideal(xi.ctx) * xi)])
        assert (basis.a, basis.b % basis.a, basis.c) == (A, B, C), xi


def test_basis_validation():
    ctx = field_context(2)
    with pytest.raises(ValueError):
        IdealBasis(ctx, -1, 0, 1)
    with pytest.raises(ValueError):
        IdealBasis(ctx, 2, 1, 2)  # c does not divide b
    with pytest.raises(ValueError):
        IdealBasis(ctx, 1, 17, 1)  # b outside the translation window
    # the module's a and c are checked before b is translated, which divides by 2a
    for a, c in ((0, 1), (-2, 1), (2, 0), (2, -1)):
        with pytest.raises(ValueError, match=rf"^need a > 0 and c > 0, got a={a}, c={c}$"):
            canonical_from_module(ctx, a, 0, c)


def test_non_primitive_alpha_well_defined():
    ctx = field_context(2)
    two_o = canonical_from_module(ctx, 2, 0, 2)  # the module 2*O
    assert (two_o.a, two_o.c) == (2, 2)
    alpha = alpha_of_ideal(two_o)
    assert alpha.as_pair() == (1, 1)
    assert not is_reduced_ideal(two_o)  # c != 1


def test_xi_alpha_check_small():
    for d in (2, 3, 61):
        assert all(r.ok for r in xi_alpha_check(field_context(d)))


def test_xi_alpha_full_alignment():
    for d in SQUAREFREE[:80]:
        ctx = field_context(d)
        exp = expand_omega(ctx)
        for (_, P, Q, nu), (p, q) in zip(exp.period(), convergents(exp)):
            basis = principal_basis(convergent_xi(ctx, p, q))
            assert basis.c == 1
            assert basis.a == nu
            assert alpha_of_ideal(basis).as_pair() == (P, Q)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=10**5, max_value=10**6))
def test_principal_basis_norms_large(d):
    # (xi_n) is reduced with canonical basis [nu_n, b + w]: a is the norm
    # read from the (P, Q) state and from the big-integer convergents alike
    assume(is_squarefree(d))
    ctx = field_context(d)
    exp = expand_omega(ctx)
    rows = zip(exp.period(), convergents(exp), norm_nu(d, exp.l))
    for n, ((_, _, _, nu), (p, q), oracle_nu) in enumerate(rows):
        basis = principal_basis(convergent_xi(ctx, p, q))
        assert basis.c == 1, (d, n)
        assert basis.a == nu == oracle_nu, (d, n)


def test_reduced_ideals_examples():
    assert len(reduced_ideals_of_norm(field_context(61), 3)) == 2
    assert len(reduced_ideals_of_norm(field_context(23), 3)) == 0
    for d in (2, 3, 5, 61):
        assert len(reduced_ideals_of_norm(field_context(d), 1)) == 1
    with pytest.raises(ValueError):
        reduced_ideals_of_norm(field_context(61), 12)  # not square-free


def test_count_formula_examples():
    assert count_reduced_formula(field_context(61), 3) == 2
    assert count_reduced_formula(field_context(17), 2) == 2
    assert count_reduced_formula(field_context(23), 3) == 0
    with pytest.raises(ValueError):
        count_reduced_formula(field_context(2), 2)  # mu >= w[d]


def test_enumeration_matches_formula():
    for d in SQUAREFREE[:120]:
        ctx = field_context(d)
        for mu in range(1, 40):
            if not is_squarefree(mu) or not mu_below_omega(ctx, mu):
                continue
            assert len(reduced_ideals_of_norm(ctx, mu)) == count_reduced_formula(ctx, mu), (d, mu)


def test_condition_reduced_direction():
    # N(I) < sqrt(D)/2 and gcd(I, conj I) = 1 force reducedness
    for d in SQUAREFREE[:80]:
        ctx = field_context(d)
        for mu in range(1, 20):
            if not is_squarefree(mu):
                continue
            for basis in norm_ideal_candidates(ctx, mu):
                if 4 * basis.norm() ** 2 < ctx.discriminant and conjugate_coprime(basis):
                    assert is_reduced_ideal(basis), (d, mu, basis)


def test_conjugate_coprime_fast_vs_bruteforce():
    checked = 0
    for _ in range(400):
        d = rng.choice(SQUAREFREE)
        ctx = field_context(d)
        xi = QuadInt(ctx, rng.randrange(-25, 26), rng.randrange(-25, 26))
        if xi.norm() == 0:
            continue
        basis = principal_basis(xi)
        assert conjugate_coprime(basis) == conjugate_coprime_bruteforce(basis)
        checked += 1
    assert checked > 300


def test_mu_below_omega():
    assert mu_below_omega(field_context(61), 3)
    assert not mu_below_omega(field_context(2), 2)
    assert mu_below_omega(field_context(17), 2)
