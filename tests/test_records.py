"""The library's record types are immutable named tuples: read by field
name, equal and hashed by value, and validated where they were before."""

import pickle

import pytest

from quadunit.arith import Factorization, factorize
from quadunit.contfrac import QuadIrr
from quadunit.ideals import IdealBasis, norm_ideal_candidates, xi_alpha_check
from quadunit.progressions import IndexPair, build_progression, coverage_report, predicted_density
from quadunit.quadfield import FieldContext, QuadInt, field_context
from quadunit.survey import (
    E_mu,
    f_mu,
    ramified_identity_check,
    theorem_bound_sweep,
)


def _samples():
    """One value of each record type, built by the library."""
    pair = IndexPair(2, 0, 7, 3)
    coverage = coverage_report(2, 50, 30, 100)
    bound = theorem_bound_sweep(2, 50)
    return [
        factorize(360),
        QuadIrr(13, 1, 3),
        norm_ideal_candidates(field_context(13), 3)[0],
        xi_alpha_check(field_context(13))[0],
        pair,
        build_progression(pair),
        predicted_density(pair, 100),
        coverage.rows[0],
        coverage,
        field_context(5),
        QuadInt(field_context(5), 1, 2),
        E_mu(2, 5),
        f_mu(2, 100),
        ramified_identity_check(14, 2),
        bound.rows[0],
        bound,
    ]


def test_every_record_type_is_sampled():
    assert len({type(x).__name__ for x in _samples()}) == 16


@pytest.mark.parametrize("x", _samples(), ids=lambda x: type(x).__name__)
def test_records_are_immutable_values(x):
    cls = type(x)
    copy = cls(*x)  # positional construction, in field order
    assert copy == x and hash(copy) == hash(x) and copy is not x
    assert [getattr(x, name) for name in cls._fields] == list(x)
    with pytest.raises(AttributeError):
        setattr(x, cls._fields[0], getattr(x, cls._fields[0]))
    assert not hasattr(x, "__dict__")
    assert pickle.loads(pickle.dumps(x)) == x  # sweep workers pickle rows


def test_quadint_repr_and_no_tuple_arithmetic():
    x = QuadInt(field_context(5), 1, 2)
    assert repr(x) == "QuadInt(ctx=FieldContext(d=5), a=1, b=2)"
    y = QuadInt(field_context(5), 2, 1)
    # order goes through qi_compare only; k * x is x.scale(k), not repetition
    for op in (lambda: x < y, lambda: x <= y, lambda: x > y, lambda: x >= y, lambda: 2 * x):
        with pytest.raises(TypeError):
            op()
    assert x * y == QuadInt(field_context(5), 4, 7) and x + x == x.scale(2)


BAD = [
    (Factorization, (((3, 1), (2, 1)),), "malformed factorization ((3, 1), (2, 1))"),
    (QuadIrr, (13, 1, 0), "Q must be nonzero"),
    (QuadIrr, (16, 1, 3), "16 is not a valid radicand"),
    (QuadIrr, (13, 1, 5), "Q=5 does not divide d - P^2 for P=1"),
    (FieldContext, (1,), "radicand must be >= 2, got 1"),
    (FieldContext, (49,), "radicand 49 is a perfect square"),
    (FieldContext, (12,), "radicand 12 is not square-free"),
    (IndexPair, (4, 0, 7, 2), "mu must be a nonzero square-free integer, got 4"),
    (IndexPair, (2, 1, 2, 1), "branch j=1 requires odd y, got 2"),
    (IndexPair, (2, 0, 7, 1), "x^2 != mu (mod y) for (7, 1), mu=2"),
    (IdealBasis, (field_context(13), 3, -4, 1),
     "basis IdealBasis(ctx=FieldContext(d=13), a=3, b=-4, c=1) violates the translation condition"),
]


GOOD = {
    Factorization: factorize(6),
    QuadIrr: QuadIrr(13, 1, 3),
    FieldContext: field_context(5),
    IndexPair: IndexPair(2, 0, 7, 3),
    IdealBasis: norm_ideal_candidates(field_context(13), 3)[0],
}


@pytest.mark.parametrize("cls, args, message", BAD, ids=lambda v: getattr(v, "__name__", None))
def test_validated_records_reject_bad_input(cls, args, message):
    builds = [
        lambda: cls(*args),
        # the tuple helpers construct through the same check
        lambda: cls._make(args),
        lambda: GOOD[cls]._replace(**dict(zip(cls._fields, args))),
        # and so does unpickling, so a bad value cannot reach a sweep worker
        # or come back from one
        lambda: pickle.loads(pickle.dumps(tuple.__new__(cls, args))),
    ]
    for build in builds:
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message
