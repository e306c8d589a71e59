"""Coordinate spaces and canonical subspace arithmetic."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from grfilt.fields import QQ, PrimeField
from grfilt.poly import Poly, PolyMatrix
from grfilt.linspace import (Ambient, Subspace,
                             DegreeOverflowError, ContainmentError,
                             QuotientContext, span, zero_space, sum_spaces,
                             intersect, subspace_product, quotient_dim,
                             prefix_space, restrict_degree, degree_cuts,
                             complement_section)
from grfilt.workbench import CATALOG, make


def xp(k):
    return Poly(QQ, 1, {(k,): QQ.one})


def corner(p):
    return PolyMatrix([[Poly.zero(QQ, 1), p], [Poly.zero(QQ, 1), Poly.zero(QQ, 1)]])


@pytest.fixture()
def amb():
    return Ambient(2, 1, 6)


def test_coords_are_degree_major(amb):
    degs = [sum(e) for (e, _, _) in amb.coords]
    assert degs == sorted(degs)
    # prefix_dim must agree with the coordinate order
    for m in range(-1, 7):
        k = amb.prefix_dim(m)
        assert all(sum(amb.coords[i][0]) <= m for i in range(k))
        assert all(sum(amb.coords[i][0]) > m for i in range(k, amb.dim))


@pytest.mark.parametrize("field", [QQ, PrimeField(7)])
@pytest.mark.parametrize("name", CATALOG)
def test_prefix_dim_counts_coordinates(name, field):
    amb = make(name, field=field).ambient
    for d in range(-1, amb.degcap + 2):
        assert amb.prefix_dim(d) == sum(sum(e) <= d for e, _, _ in amb.coords)


def test_encode_decode_roundtrip(amb):
    m = PolyMatrix([[xp(2) + xp(0), xp(5)], [Poly.zero(QQ, 1), xp(1)]])
    assert amb.decode(amb.encode(m)) == m


def test_encode_overflow_is_hard_error(amb):
    with pytest.raises(DegreeOverflowError):
        amb.encode(corner(xp(7)))
    with pytest.raises(DegreeOverflowError):
        amb.mul(amb.encode_sparse(corner(xp(4))), amb.encode_sparse(
            PolyMatrix([[xp(3), Poly.zero(QQ, 1)], [Poly.zero(QQ, 1), xp(6)]])))


def test_series_mode_reduces_instead():
    samb = Ambient(2, 1, 6, series=True)
    a = samb.encode_sparse(
        PolyMatrix([[xp(4), Poly.zero(QQ, 1)], [Poly.zero(QQ, 1), xp(4)]]))
    assert samb.mul(a, a) == {}  # x^8 dies in the quotient by degree > 6
    assert samb.encode(corner(xp(9))) == samb.encode(corner(Poly.zero(QQ, 1)))


def test_ambient_row_sums_terms_under_the_window_rule(amb):
    one = QQ.one
    corner7 = ((7,), 0, 1)
    k = amb.index[((2,), 1, 1)]
    assert amb.row([(((2,), 1, 1), one), (((2,), 1, 1), one)]) == {k: 2}
    # a term past the cap that cancels is no overflow
    assert amb.row([(corner7, one), (corner7, -one)]) == {}
    with pytest.raises(DegreeOverflowError):
        amb.row([(corner7, one)])
    samb = Ambient(2, 1, 6, series=True)
    assert samb.row([(corner7, one), (((0,), 0, 0), one)]) == {0: one}



@lru_cache(maxsize=None)
def catalog_ambient(name, field_name):
    fld = QQ if field_name == "Q" else PrimeField(101)
    return make(name, field=fld).ambient


@st.composite
def row_pairs(draw):
    """Two kernel rows of a catalog ambient, mostly of low degree so that
    products fit the cap as often as they overflow it."""
    amb = catalog_ambient(draw(st.sampled_from(CATALOG)),
                          draw(st.sampled_from(("Q", "Fp:101"))))

    def row():
        top = amb.prefix_dim(draw(st.integers(0, amb.degcap)))
        keys = draw(st.lists(st.integers(0, top - 1), max_size=6))
        vals = [amb.field.of(draw(st.integers(1, 5)) * (
            1 if draw(st.booleans()) else -1)) for _ in keys]
        return dict(zip(keys, vals))
    return amb, row(), row()


@settings(max_examples=300, deadline=None)
@given(row_pairs())
def test_row_product_matches_matrix_product(case):
    # the index-arithmetic product against PolyMatrix's own product, with
    # the window rule encode_sparse applies to the matrix
    amb, a, b = case
    try:
        expected = amb.encode_sparse(
            amb.decode_sparse(a) * amb.decode_sparse(b))
    except DegreeOverflowError:
        with pytest.raises(DegreeOverflowError):
            amb.mul(a, b)
    else:
        assert amb.mul(a, b) == expected


def test_row_product_cancellation_at_the_cap():
    # x^4 (E11 + E12) times x^3 (E11 - E21) is x^7 E11 - x^7 E11 = 0: the
    # terms past the cap cancel, so nothing overflows
    amb = Ambient(2, 1, 6)
    x4, x3, z = xp(4), xp(3), Poly.zero(QQ, 1)
    a = amb.encode_sparse(PolyMatrix([[x4, x4], [z, z]]))
    b = amb.encode_sparse(PolyMatrix([[x3, z], [-x3, z]]))
    assert amb.mul(a, b) == {}
    with pytest.raises(DegreeOverflowError):
        amb.mul(a, amb.encode_sparse(PolyMatrix([[x3, z], [x3, z]])))

def test_subspace_canonical_under_generating_set(amb):
    u = span(amb, [corner(xp(0) + xp(1)), corner(xp(1))])
    v = span(amb, [corner(xp(0)), corner(Poly(QQ, 1, {(0,): QQ.of(3), (1,): QQ.of(3)}))])
    assert u == v
    assert u.dim == 2


def test_membership_and_reduce(amb):
    u = span(amb, [corner(xp(1)), corner(xp(3))])
    assert u.member(corner(xp(1) + xp(3)))
    assert not u.member(corner(xp(2)))
    red = u.residual(amb.encode_sparse(corner(xp(3) + xp(2))))
    assert amb.decode_sparse(red) == corner(xp(2))


def test_sum_intersect_product(amb):
    u = span(amb, [corner(xp(0)), corner(xp(1))])
    v = span(amb, [corner(xp(1)), corner(xp(2))])
    assert sum_spaces(u, v).dim == 3
    w = intersect(u, v)
    assert w.dim == 1 and w.member(corner(xp(1)))
    diag = span(amb, [PolyMatrix([[xp(1), Poly.zero(QQ, 1)],
                                  [Poly.zero(QQ, 1), xp(2)]])])
    prod = subspace_product(diag, u)
    # diag(x, x^2) * g(x)e12 = x*g(x) e12
    assert prod.dim == 2
    assert prod.member(corner(xp(1))) and prod.member(corner(xp(2)))


def test_quotient_dim_needs_containment(amb):
    u = span(amb, [corner(xp(0)), corner(xp(1))])
    v = span(amb, [corner(xp(2))])
    with pytest.raises(ContainmentError):
        quotient_dim(u, v)
    assert quotient_dim(sum_spaces(u, v), v) == 2


def test_prefix_and_restrict(amb):
    pre2 = prefix_space(amb, 2)
    assert pre2.dim == amb.prefix_dim(2)
    u = span(amb, [corner(xp(1)), corner(xp(4)), corner(xp(1) + xp(4))])
    cut = restrict_degree(u, 2)
    assert cut.dim == 1 and cut.member(corner(xp(1)))
    assert u.maxdeg() == 4 and cut.maxdeg() == 1


@st.composite
def span_pairs(draw):
    """Two random spans of sparse small-integer vectors in one ambient."""
    fld = draw(st.sampled_from([QQ, PrimeField(101),
                                PrimeField(2147483647)]))
    amb = Ambient(2, 1, 3, fld)
    value = st.one_of(st.just(0), st.just(0), st.just(0), st.just(0),
                      st.integers(-3, 3))
    vectors = st.lists(st.lists(value, min_size=amb.dim, max_size=amb.dim),
                       max_size=6)

    def subspace(rows):
        return Subspace.from_vectors(
            amb, [tuple(fld.of(x) for x in r) for r in rows])

    return amb, subspace(draw(vectors)), subspace(draw(vectors))


@settings(max_examples=60, deadline=None)
@given(span_pairs())
def test_degree_cut_intersection_and_sum_agree(case):
    amb, u, v = case
    # two routes to the same space: the degree cuts, and a Zassenhaus
    # intersection with the degree prefix
    for m in range(-1, amb.degcap + 1):
        assert restrict_degree(u, m) == intersect(u, prefix_space(amb, m))
    meet = intersect(u, v)
    assert u.contains(meet) and v.contains(meet)
    assert meet.dim + sum_spaces(u, v).dim == u.dim + v.dim


def restrict_degree_reference(u, maxdeg):
    """The elements of u of degree <= maxdeg as the kernel of cutting u's
    basis rows down to their columns of higher degree."""
    k = u.ambient.prefix_dim(maxdeg)
    tails = [{j: x for j, x in u.echelon[q].items() if j >= k}
             for q in u.pivots]
    if not any(tails):
        return u
    return u.kernel(tails)


@st.composite
def cut_cases(draw):
    """A subspace of a polynomial, series or 1 x r tuple ambient over Q,
    F_7 or F_101, spanned by sparse rows, some of them sums of others."""
    fld = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(101)]))
    degcap = draw(st.integers(0, 4))
    shape = draw(st.sampled_from(("poly", "series", "tuple")))
    if shape == "tuple":
        amb = Ambient(draw(st.integers(1, 3)), 1, degcap, fld, rows=1)
    else:
        amb = Ambient(2, 1, degcap, fld, series=shape == "series")
    entry = st.tuples(st.integers(0, amb.dim - 1),
                      st.integers(-3, 3).filter(bool))
    rows = [amb.row((amb.coords[j], c) for j, c in terms)
            for terms in draw(st.lists(st.lists(entry, max_size=4),
                                       max_size=6))]
    rows += [amb.row((amb.coords[j], c) for r in rows[:2]
                     for j, c in r.items())]
    return amb, zero_space(amb).extend(rows)


@settings(max_examples=80, deadline=None)
@given(cut_cases())
def test_degree_cuts_give_every_restriction(case):
    amb, u = case
    for v in (u, zero_space(amb)):
        cuts = degree_cuts(v)
        degrees = [amb.degree(r) for r in cuts]
        assert degrees == sorted(degrees)
        assert len(cuts) == v.dim and zero_space(amb).extend(cuts) == v
        for r in cuts:
            top = max(r)
            assert r[top] == 1
            assert not any(top in other for other in cuts if other is not r)
        for d in range(-1, amb.degcap + 2):
            assert restrict_degree(v, d) == restrict_degree_reference(v, d)


def test_complement_section_pivots(amb):
    sup = span(amb, [corner(xp(0)), corner(xp(1)), corner(xp(2))])
    sub = span(amb, [corner(xp(0))])
    sec = complement_section(sup, sub)
    assert sec.dim == 2
    assert sum_spaces(sec, sub) == sup
    assert intersect(sec, sub).dim == 0


def test_quotient_context_canonical_representatives(amb):
    ideal = span(amb, [corner(xp(k)) for k in range(7)])
    ctx = QuotientContext(ideal)
    a = PolyMatrix([[xp(1), xp(3)], [Poly.zero(QQ, 1), xp(2)]])
    b = PolyMatrix([[xp(1), xp(5)], [Poly.zero(QQ, 1), xp(2)]])
    # equal cosets reduce to identical representative rows
    one = amb.encode_sparse(amb.one())
    assert ctx.mul(amb.encode_sparse(a), one) == \
        ctx.mul(amb.encode_sparse(b), one)
    assert ctx.image(span(amb, [a, b])).dim == 1


def test_quotient_context_reads_its_ambient_off_the_ideal(amb):
    ideal = span(amb, [corner(xp(k)) for k in range(7)])
    assert QuotientContext(ideal).ambient is ideal.ambient


def tuple_ambient(r, degcap, field=QQ, series=False):
    """The ambient of r-tuples over k[x]: one row of r slots."""
    return Ambient(r, 1, degcap, field, series, rows=1)


def slot(d, s):
    """The coordinate of x^d in slot s of a tuple."""
    return ((d,), 0, s)


def test_tuple_space_roundtrip_and_prefix():
    sp = tuple_ambient(3, 5)
    # (x^2, 0, x^5 + 1): x^d in slot s is coordinate d * r + s
    row = sp.row([(slot(2, 0), QQ.one), (slot(5, 2), QQ.one),
                  (slot(0, 2), QQ.one)])
    assert row == {6: QQ.one, 17: QQ.one, 2: QQ.one}
    assert all(sp.index[slot(d, s)] == d * 3 + s
               for d in range(6) for s in range(3))
    # equal coordinates sum, and a sum that cancels is dropped
    assert sp.row([(slot(1, 1), QQ.one), (slot(1, 1), QQ.one),
                   (slot(0, 0), QQ.one), (slot(0, 0), -QQ.one)]) == \
        {4: QQ.of(2)}
    assert sp.prefix_dim(1) == 6
    assert sp.dim == 18
    with pytest.raises(DegreeOverflowError):
        sp.row([(slot(6, 0), QQ.one)])
    with pytest.raises(ValueError):
        sp.row([(slot(1, 3), QQ.one)])
    # the 1 x 3 shape is its own space, not the ring M_3
    assert sp != Ambient(3, 1, 5) and sp == tuple_ambient(3, 5)


def test_tuple_space_supports_subspace_ops():
    sp = tuple_ambient(2, 4)
    one = QQ.one
    u = zero_space(sp).extend([sp.row([(slot(0, 0), one),
                                       (slot(1, 1), one)]),
                               sp.row([(slot(0, 0), one)])])
    assert u.dim == 2
    cut = restrict_degree(u, 0)
    assert cut.dim == 1
    assert not cut.residual(sp.row([(slot(0, 0), one)]))
    assert cut.residual(sp.row([(slot(1, 0), one)]))


def ref_tuple_row(r, degcap, p, terms):
    """PolyTupleSpace.row, the r-tuple space's constructor before the
    tuple space became the 1 x r Ambient: the terms ((degree, slot),
    value) summed, reduced mod p when p is given and the zero sums
    dropped; x^d in slot s is coordinate d * r + s, a slot outside the
    tuple raises ValueError and a degree past the cap
    DegreeOverflowError."""
    acc = {}
    for k, c in terms:
        acc[k] = acc.get(k, 0) + c
    out = {}
    for (d, s), c in acc.items():
        if p is not None:
            c %= p
        if not c:
            continue
        if not 0 <= s < r:
            raise ValueError(f"slot {s} outside a {r}-tuple")
        if d > degcap:
            raise DegreeOverflowError(f"degree {d} exceeds cap {degcap}")
        out[d * r + s] = c
    return out


def row_or_overflow(fn):
    try:
        return fn()
    except DegreeOverflowError:
        return DegreeOverflowError


@st.composite
def tuple_terms(draw):
    """A field, a tuple shape and ((degree, slot), value) terms, some past
    the cap and with values repeated so that sums cancel (mod p too)."""
    fld = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(101)]))
    r, cap = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    key = st.tuples(st.integers(0, cap + 2), st.integers(0, r - 1))
    value = st.sampled_from([1, -1, 2, 7, -7, 101, 3, -3])
    terms = draw(st.lists(st.tuples(key, value), max_size=10))
    # a term and its negative, or p copies of one term, cancel
    if terms and draw(st.booleans()):
        (k, c) = terms[0]
        terms.append((k, -c) if fld.p is None else (k, (fld.p - 1) * c))
    if fld.p is None:
        terms = [(k, QQ.of(c)) for k, c in terms]
    return fld, r, cap, terms


@settings(max_examples=300, deadline=None)
@given(tuple_terms())
def test_tuple_rows_match_the_old_tuple_space(case):
    fld, r, cap, terms = case
    coord_terms = [(slot(d, s), c) for (d, s), c in terms]
    sp = tuple_ambient(r, cap, fld)
    assert row_or_overflow(lambda: sp.row(coord_terms)) == \
        row_or_overflow(lambda: ref_tuple_row(r, cap, fld.p, terms))
    # series mode drops the terms past the cap instead
    kept = [((d, s), c) for (d, s), c in terms if d <= cap]
    assert tuple_ambient(r, cap, fld, series=True).row(coord_terms) == \
        ref_tuple_row(r, cap, fld.p, kept)


@pytest.mark.parametrize("series", [False, True])
def test_row_refuses_a_coordinate_outside_the_shape(series):
    ring, sp = Ambient(2, 1, 4, series=series), tuple_ambient(3, 4,
                                                                series=series)
    for amb, bad in ((ring, ((1,), 2, 0)), (ring, ((1,), 0, 2)),
                     (sp, ((1,), 1, 0)), (sp, ((1,), 0, 3)),
                     # a negative degree, and a monomial of the wrong arity
                     (ring, ((-1,), 0, 0)), (sp, ((-1,), 0, 0)),
                     (ring, ((1, 0), 0, 0))):
        with pytest.raises(ValueError):
            amb.row([(bad, QQ.one)])
        # also beside a term that is fine
        with pytest.raises(ValueError):
            amb.row([(((0,), 0, 0), QQ.one), (bad, QQ.one)])


def test_a_tuple_ambient_has_no_product():
    sp = tuple_ambient(2, 4)
    with pytest.raises(ValueError):
        sp.mul({0: QQ.one}, {0: QQ.one})
    with pytest.raises(ValueError):
        Ambient(2, 1, 4, rows=3).mul({}, {})
