"""Polynomial and matrix value-object semantics."""

from fractions import Fraction

import pytest

from grfilt.fields import QQ, PrimeField
from grfilt.poly import Poly, PolyMatrix


def x():
    return Poly.variable(QQ, 1, 0)


def test_zero_terms_dropped_on_construction():
    p = Poly(QQ, 1, {(0,): Fraction(0), (2,): Fraction(3)})
    assert p.terms == {(2,): Fraction(3)}
    assert p.degree() == 2


def test_add_cancels_to_zero():
    p = x()
    q = -p
    assert (p + q).is_zero()
    assert (p + q).degree() == -1


def test_mul_collects_cross_terms():
    # (x + 1)^2 = x^2 + 2x + 1
    p = x() + Poly.const(QQ, 1, QQ.one)
    sq = p * p
    assert sq.terms == {(2,): 1, (1,): 2, (0,): 1}


def test_dilate_is_an_algebra_map():
    f = x() * x() + x()          # x^2 + x
    g = x() * x() * x()          # x^3
    assert (f * g).dilate(2) == f.dilate(2) * g.dilate(2)
    assert f.dilate(2) == Poly(QQ, 1, {(4,): QQ.one, (2,): QQ.one})


def test_dilate_leaves_other_variables():
    p = Poly(QQ, 2, {(1, 1): QQ.one})  # x*y
    assert p.dilate(2) == Poly(QQ, 2, {(2, 1): QQ.one})


def test_truncate_drops_high_total_degree():
    p = Poly(QQ, 2, {(2, 1): QQ.one, (1, 0): QQ.one})
    assert p.truncate(2) == Poly(QQ, 2, {(1, 0): QQ.one})


def test_arity_mismatch_raises():
    with pytest.raises(TypeError):
        x() + Poly.zero(QQ, 2)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Poly(QQ, 1, {(-1,): QQ.one})


def test_prime_field_coefficients():
    f5 = PrimeField(5)
    p = Poly(f5, 1, {(1,): f5.of(3)})
    q = p + p  # 6x = x mod 5
    assert q.terms == {(1,): f5.of(1)}
    assert (p + p + p + p + p).is_zero()


def test_matrix_identity_and_mul():
    one = PolyMatrix.identity(QQ, 2, 1)
    a = PolyMatrix([[x(), Poly.zero(QQ, 1)], [Poly.zero(QQ, 1), x() * x()]])
    assert one * a == a
    assert a * one == a
    b = PolyMatrix([[Poly.zero(QQ, 1), Poly.const(QQ, 1, QQ.one)],
                    [Poly.zero(QQ, 1), Poly.zero(QQ, 1)]])
    # diag(x, x^2) * e12 = x e12 while e12 * diag(x, x^2) = x^2 e12
    assert (a * b).entry(0, 1) == x()
    assert (b * a).entry(0, 1) == x() * x()


def test_matrix_antidistribution_spot():
    a = PolyMatrix([[x(), Poly.zero(QQ, 1)], [Poly.zero(QQ, 1), x() * x()]])
    b = PolyMatrix([[Poly.zero(QQ, 1), Poly.const(QQ, 1, QQ.one)],
                    [Poly.zero(QQ, 1), Poly.zero(QQ, 1)]])
    assert (a + b) * b == a * b + b * b


def test_matrix_shape_guard():
    with pytest.raises(ValueError):
        PolyMatrix([[Poly.zero(QQ, 1)], [Poly.zero(QQ, 1), Poly.zero(QQ, 1)]])


def test_matrix_hash_consistent_with_eq():
    a = PolyMatrix([[x(), Poly.zero(QQ, 1)], [Poly.zero(QQ, 1), x() * x()]])
    b = PolyMatrix([[x(), Poly.zero(QQ, 1)], [Poly.zero(QQ, 1), x() * x()]])
    assert a == b and hash(a) == hash(b)
