"""One scalar currency: F_p values are ints in [0, p) everywhere, and Q
values are Python rationals in lowest form, an int when integral and
otherwise a Fraction with denominator > 1.

Poly terms, kernel rows from encode_sparse, Ambient.mul and Echelon,
and dense rows from rref and dense_row all hold plain ints reduced mod p
over F_p; over Q the same values, joint_kernel echelons and
SpanTracker.express results are in lowest form.  No field takes a float.
Arithmetic never mixes two fields, and each field's text encoder and
parser are inverse to each other.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grfilt.fields import QQ, PrimeField
from grfilt.linalg import (Echelon, SpanTracker, dense_row, joint_kernel,
                           rref)
from grfilt.linspace import Ambient, Subspace
from grfilt.poly import Poly, PolyMatrix

F7, F101 = PrimeField(7), PrimeField(101)

common = settings(max_examples=80, deadline=None)


def assert_reduced(values, p):
    for v in values:
        assert type(v) is int and 0 <= v < p


def in_canonical_form(fld, x):
    """An int in [0, p) over F_p; over Q an int when integral, else a
    Fraction with denominator > 1.  Never a float or a bool."""
    if fld.p:
        return type(x) is int and 0 <= x < fld.p
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_lowest(values):
    for v in values:
        assert v and in_canonical_form(QQ, v), repr(v)


@st.composite
def polys(draw, fld, max_degree=3):
    """A one-variable Poly over fld from raw ints, negative and past p."""
    coeffs = draw(st.dictionaries(st.integers(0, max_degree),
                                  st.integers(-3 * fld.p, 3 * fld.p),
                                  max_size=4))
    return Poly(fld, 1, {(e,): c for e, c in coeffs.items()})


@st.composite
def poly_cases(draw):
    fld = draw(st.sampled_from((F7, F101)))
    return (fld, draw(polys(fld)), draw(polys(fld)),
            draw(st.integers(-200, 200)))


@common
@given(poly_cases())
def test_poly_terms_are_reduced_ints(case):
    fld, f, g, c = case
    scaled = Poly(fld, 1, {e: c * v for e, v in f.terms.items()})
    for h in (f, g, f + g, f - g, -f, f * g, scaled, f.dilate(2),
              (f * g).truncate(3)):
        assert_reduced(h.terms.values(), fld.p)
        assert all(h.terms.values())


def test_a_sum_that_is_a_multiple_of_p_cancels():
    x = Poly.variable(F7, 1, 0)
    one = Poly.const(F7, 1, F7.one)
    power = one
    for _ in range(7):
        power = power * (one + x)
    # the middle binomial coefficients of (1 + x)^7 are multiples of 7
    assert power == one + x * x * x * x * x * x * x
    assert power.terms == {(0,): 1, (7,): 1}


@st.composite
def matrix_cases(draw):
    fld = draw(st.sampled_from((F7, F101)))
    amb = Ambient(2, 1, 6, fld)

    def matrix():
        return PolyMatrix([[draw(polys(fld)) for _ in range(2)]
                           for _ in range(2)])
    return amb, [matrix() for _ in range(draw(st.integers(1, 4)))]


@common
@given(matrix_cases())
def test_kernel_and_dense_rows_hold_reduced_ints(case):
    amb, mats = case
    p = amb.field.p
    rows = [amb.encode_sparse(m) for m in mats]
    for row in rows:
        assert_reduced(row.values(), p)
    for a in rows:
        for b in rows:
            assert_reduced(amb.mul(a, b).values(), p)
    echelon = Echelon(p)
    for row in rows:
        echelon.insert(row)
        for held in echelon.values():
            assert_reduced(held.values(), p)
    dense = [dense_row(row, amb.dim, amb.field) for row in rows]
    for row in dense:
        assert_reduced(row, p)
    red, _ = rref(dense, amb.field)
    for row in red:
        assert_reduced(row, p)
    for m in mats:
        assert amb.decode_sparse(amb.encode_sparse(m)) == m


# drawn through QQ.of: integers, non-unit pivots such as 2, -3 and 2/3,
# and halves, whose sums and doubles cancel to integers
rationals = st.builds(lambda n, d: QQ.of(Fraction(n, d)),
                      st.integers(-4, 4), st.sampled_from((1, 2, 3)))


@st.composite
def q_polys(draw, max_degree=3):
    coeffs = draw(st.dictionaries(st.integers(0, max_degree), rationals,
                                  max_size=4))
    return Poly(QQ, 1, {(e,): c for e, c in coeffs.items()})


@common
@given(q_polys(), q_polys(), rationals)
def test_rational_poly_terms_are_in_lowest_form(f, g, c):
    scaled = Poly(QQ, 1, {e: c * v for e, v in f.terms.items()})
    for h in (f, g, f + g, f - g, f + f, -f, f * g, scaled, f.dilate(2),
              (f * g).truncate(3)):
        assert_lowest(h.terms.values())
    half = Fraction(1, 2)
    assert Poly(QQ, 1, {(0,): half + half, (1,): half}).terms == {
        (0,): 1, (1,): half}


@common
@given(st.lists(st.lists(q_polys(), min_size=4, max_size=4), min_size=1,
                max_size=4))
def test_rational_rows_and_echelons_are_in_lowest_form(entries):
    amb = Ambient(2, 1, 6, QQ)
    mats = [PolyMatrix([e[:2], e[2:]]) for e in entries]
    rows = [amb.encode_sparse(m) for m in mats]
    for row in rows:
        assert_lowest(row.values())
    for a in rows:
        for b in rows:
            assert_lowest(amb.mul(a, b).values())
    echelon = Echelon(None)
    tracker = SpanTracker(QQ, amb.dim)
    for i, row in enumerate(rows):
        echelon.insert(row)
        tracker.add(row, i)
        for held in echelon.values():
            assert_lowest(held.values())
    for row in rows:
        combo = tracker.express(row)
        assert combo is not None
        assert_lowest(combo.values())
    products = [amb.mul(a, b) for a in rows for b in rows]
    for held in joint_kernel(zip(products, products[::-1]), None).values():
        assert_lowest(held.values())
    for m in mats:
        assert amb.decode_sparse(amb.encode_sparse(m)) == m


@pytest.mark.parametrize("fld", [QQ, F7], ids=["Q", "Fp:7"])
def test_no_field_takes_a_float(fld):
    for bad in (0.1, 2.5, 3.0):
        with pytest.raises(TypeError):
            fld.of(bad)
        with pytest.raises(TypeError):
            Poly(fld, 1, {(1,): bad})
        with pytest.raises(TypeError):
            Ambient(2, 1, 3, fld).row([(((0,), 0, 0), bad)])


def test_prime_field_maps_a_fraction_to_its_residue():
    half = Fraction(1, 2)
    # 2 * 4 = 1 mod 7, and 4 * 76 = 1 mod 101
    assert (F7.of(half), F101.of(Fraction(-3, 4))) == (4, -3 * 76 % 101)
    assert_reduced([F7.of(half)], 7)
    assert Poly(F7, 1, {(0,): half, (1,): Fraction(7, 2)}).terms == {
        (0,): 4}
    assert Ambient(2, 1, 3, F7).row([(((0,), 0, 0), half)]) == {0: 4}
    for bad in (Fraction(1, 7), Fraction(3, 14)):
        with pytest.raises(ValueError):
            F7.of(bad)


@pytest.mark.parametrize("fld", [QQ, F7], ids=["Q", "Fp:7"])
def test_the_dense_entry_hands_out_field_elements(fld):
    # dense rows of unlowered rationals leave rref and from_vectors in
    # the field's own form
    vecs = [(Fraction(2), Fraction(6), 0), (0, Fraction(2, 2), Fraction(1, 2))]
    rows, pivots = rref(vecs, fld)
    assert pivots == [0, 1]
    for row in rows:
        assert all(v == fld.zero or in_canonical_form(fld, v) for v in row)
    space = Subspace.from_vectors(Ambient(1, 1, 2, fld), vecs)
    for row in space.echelon.values():
        assert all(v and in_canonical_form(fld, v) for v in row.values())
    if fld.p:
        # an int past p is reduced too: 7 is 0 mod 7
        assert rref([(7, 1)], fld) == ([(0, 1)], [1])


@pytest.mark.parametrize("other", [QQ, F101], ids=["Q", "Fp:101"])
def test_arithmetic_across_fields_raises(other):
    f = Poly.variable(F7, 1, 0)
    g = Poly.variable(other, 1, 0)
    for op in (lambda: f + g, lambda: f - g, lambda: f * g):
        with pytest.raises(TypeError):
            op()
    assert f != g
    a = PolyMatrix.identity(F7, 2, 1)
    b = PolyMatrix.identity(other, 2, 1)
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(ValueError):
        PolyMatrix([[f, Poly.zero(F7, 1)], [Poly.zero(other, 1), f]])


def test_an_ambient_refuses_a_matrix_over_another_field():
    with pytest.raises(ValueError):
        Ambient(2, 1, 4, F101).encode_sparse(PolyMatrix.identity(F7, 2, 1))


@common
@given(st.fractions())
def test_rational_text_round_trips(c):
    assert QQ.parse(QQ.text(c)) == c
    assert in_canonical_form(QQ, QQ.parse(QQ.text(c)))
    assert in_canonical_form(QQ, QQ.of(c))


@common
@given(st.sampled_from((F7, F101, PrimeField(2147483629))),
       st.integers(-10 ** 12, 10 ** 12))
def test_prime_text_round_trips(fld, n):
    c = fld.of(n)
    assert fld.text(c) == f"{c}~{fld.p}"
    assert fld.parse(fld.text(c)) == c


@pytest.mark.parametrize("fld, text", [
    (QQ, "2/4"), (QQ, " 1/2"), (QQ, "0.5"), (QQ, "one"), (QQ, "1/0"),
    (QQ, 1), (F101, "3"), (F101, "3~7"), (F101, "104~101"),
    (F101, "-1~101"), (F101, "03~101"), (F101, 3), (F101, "x~101")])
def test_parse_refuses_what_text_never_writes(fld, text):
    with pytest.raises((AttributeError, TypeError, ValueError,
                        ZeroDivisionError)):
        fld.parse(text)


def test_prime_field_hands_out_ints():
    assert (F101.zero, F101.one, F101.of(-1)) == (0, 1, 100)
    assert all(type(v) is int for v in (F101.zero, F101.one, F101.of(7)))
    assert (QQ.p, F101.p) == (None, 101)
    assert QQ.of(3) == Fraction(3)


def test_rational_field_hands_out_ints_when_integral():
    assert (QQ.zero, QQ.one, QQ.of(Fraction(6, 3)), QQ.parse("-4")) == (
        0, 1, 2, -4)
    assert all(type(v) is int for v in (
        QQ.zero, QQ.one, QQ.of(Fraction(6, 3)), QQ.of(True), QQ.of("4/2"),
        QQ.parse("-4")))
    assert QQ.of("2/4") == Fraction(1, 2)
