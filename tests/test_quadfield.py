import random

import pytest

from quadunit.arith import is_squarefree, isqrt
from quadunit.contfrac import fundamental_unit
from quadunit.quadfield import (
    FieldContext,
    QuadInt,
    field_context,
    is_minimal,
    qi_compare,
)

from oracles import float_value, is_minimal_deflated

rng = random.Random(0x5EED)

SQUAREFREE = [d for d in range(2, 400) if all(d % (p * p) for p in range(2, 20))]


def test_field_context_validation():
    with pytest.raises(ValueError):
        FieldContext(1)
    with pytest.raises(ValueError):
        FieldContext(12)
    with pytest.raises(ValueError):
        FieldContext(49)
    ctx = field_context(5)
    assert ctx.is_half and ctx.discriminant == 5 and (1 + isqrt(ctx.d)) // 2 == 1
    ctx = field_context(6)
    assert not ctx.is_half and ctx.discriminant == 24 and isqrt(ctx.d) == 2


def test_norm_trace_examples():
    c2, c5, c13 = field_context(2), field_context(5), field_context(13)
    assert QuadInt(c2, 10, 7).norm() == 2
    assert QuadInt(c5, 0, 1).norm() == -1
    assert QuadInt(c13, 1, 1).trace() == 3


def test_conj_involution_and_norm_product():
    for _ in range(300):
        d = rng.choice(SQUAREFREE)
        ctx = field_context(d)
        x = QuadInt(ctx, rng.randrange(-50, 50), rng.randrange(-50, 50))
        assert x.conj().conj() == x
        prod = x * x.conj()
        assert prod == QuadInt(ctx, x.norm(), 0)
        assert x.trace() == x.a * 2 + x.b * ctx.omega_trace


def test_norm_multiplicative():
    for _ in range(300):
        ctx = field_context(rng.choice(SQUAREFREE))
        x = QuadInt(ctx, rng.randrange(-40, 40), rng.randrange(-40, 40))
        y = QuadInt(ctx, rng.randrange(-40, 40), rng.randrange(-40, 40))
        assert (x * y).norm() == x.norm() * y.norm()


def test_mixed_contexts_rejected():
    x = QuadInt(field_context(2), 1, 1)
    y = QuadInt(field_context(3), 1, 1)
    with pytest.raises(ValueError):
        _ = x * y
    with pytest.raises(ValueError):
        qi_compare(x, y)


def test_compare_examples():
    c2 = field_context(2)
    assert qi_compare(QuadInt(c2, 2, 1), QuadInt(c2, 1, 1)) == 1
    c71 = field_context(71)
    assert qi_compare(QuadInt(c71, 59, 7), QuadInt(c71, 3480, 413)) == -1
    c5 = field_context(5)
    assert qi_compare(QuadInt(c5, 0, 1), 1) == 1
    assert qi_compare(QuadInt(c5, 2, 0), 2) == 0


def test_compare_against_float_oracle():
    for _ in range(10**4):
        d = rng.choice(SQUAREFREE)
        ctx = field_context(d)
        x = QuadInt(ctx, rng.randrange(-100, 100), rng.randrange(-100, 100))
        y = QuadInt(ctx, rng.randrange(-100, 100), rng.randrange(-100, 100))
        fx = float_value(x.a, x.b, d, ctx.is_half)
        fy = float_value(y.a, y.b, d, ctx.is_half)
        got = qi_compare(x, y)
        if abs(fx - fy) > 1e-9:
            assert got == (-1 if fx < fy else 1)
        else:
            assert (got == 0) == (x == y)


def test_is_minimal_examples():
    c2 = field_context(2)
    eps2 = QuadInt(c2, 1, 1)
    assert is_minimal(QuadInt(c2, 0, 1), eps2)  # sqrt(2)
    assert not is_minimal(QuadInt(c2, 2, 1), eps2)  # 2 + sqrt(2)
    c17 = field_context(17)
    eps17 = QuadInt(c17, 3, 2)  # 4 + sqrt(17)
    assert is_minimal(QuadInt(c17, 2, 1), eps17)  # (5 + sqrt 17)/2
    # eps itself is minimal in the unit class
    assert is_minimal(eps2, eps2)
    with pytest.raises(ValueError):
        is_minimal(QuadInt(c2, 3, 0), eps2)  # rational
    with pytest.raises(ValueError):
        is_minimal(QuadInt(c2, 0, 1), QuadInt(c2, 3, 1))  # not a unit
    # a unit that is not > 1 is not the fundamental unit
    with pytest.raises(ValueError):
        is_minimal(QuadInt(c2, 0, 1), QuadInt(c2, -1, 1))  # 1/eps2 = sqrt(2) - 1
    with pytest.raises(ValueError):
        is_minimal(QuadInt(c2, 0, 1), -eps2)
    with pytest.raises(ValueError):
        is_minimal(QuadInt(c2, 0, 1), QuadInt(c2, 1, 0))


def test_is_minimal_matches_deflation_oracle():
    # 1 < x <= eps decides as x * eps**-1 <= 1 on every small element above 1
    for d in range(2, 200):
        if not is_squarefree(d):
            continue
        ctx = field_context(d)
        eps = fundamental_unit(ctx)
        for a in range(-40, 41):
            for b in range(-40, 41):
                x = QuadInt(ctx, a, b)
                if b == 0 or qi_compare(x, 1) <= 0:
                    continue
                assert is_minimal(x, eps) == is_minimal_deflated(x, eps), (d, a, b)


def test_exactly_one_minimal_associate():
    for d in (2, 3, 6, 13, 17, 21, 29):
        ctx = field_context(d)
        eps = fundamental_unit(ctx)
        for (a, b) in [(1, 1), (2, 1), (0, 1), (3, 2)]:
            x = QuadInt(ctx, a, b)
            if x.norm() == 0 or x.b == 0:
                continue
            # among the positive associates x*eps^k in (1, inf), k = -6..6,
            # exactly one is minimal; 1/eps = N(eps)*conj(eps)
            y = x
            for _ in range(6):
                y = y * eps.conj().scale(eps.norm())
            hits = 0
            for _ in range(13):
                z = y if qi_compare(y, 0) > 0 else -y
                if qi_compare(z, 1) > 0 and is_minimal(z, eps):
                    hits += 1
                y = y * eps
            assert hits == 1


def test_from_half_inverts_half_coords():
    # a local generator: the module's rng keeps its stream for the other tests
    local = random.Random(0x4A1F)
    for d in (5, 13, 17, 101, 2, 3, 6, 7, 94):
        ctx = field_context(d)
        for _ in range(200):
            x = QuadInt(ctx, local.randrange(-10**9, 10**9), local.randrange(-10**9, 10**9))
            assert QuadInt.from_half(ctx, *x.half_coords()) == x
    assert QuadInt.from_half(field_context(5), 1, 1) == QuadInt(field_context(5), 0, 1)  # w[5]
    assert QuadInt.from_half(field_context(2), 0, 2) == QuadInt(field_context(2), 0, 1)  # w[2]


def test_from_half_rejects_non_integers():
    for d in (2, 3, 5, 13):
        with pytest.raises(ValueError):
            QuadInt.from_half(field_context(d), 1, 0)
    with pytest.raises(ValueError):
        QuadInt.from_half(field_context(2), 0, 1)
    with pytest.raises(ValueError):
        QuadInt.from_half(field_context(13), 1, 2)


def test_decimal_approx():
    from quadunit.quadfield import decimal_approx

    golden = decimal_approx(QuadInt(field_context(5), 0, 1), 256)
    assert golden.startswith("1.61803398874989484820458683436563811772")
    assert decimal_approx(QuadInt(field_context(2), -1, -1), 64).startswith("-2.414213562")
    assert decimal_approx(QuadInt(field_context(2), 3, 0), 64).startswith("3.0000")
    with pytest.raises(ValueError):
        decimal_approx(QuadInt(field_context(2), 1, 1), 32)
