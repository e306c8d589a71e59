"""Presentations beyond the catalog against the independent oracle.

The catalog's generators have 0/1 coefficients, so on the catalog the
echelon engine almost never clears a held row and no coefficient grows.
Here hypothesis draws small presentations instead: 2x2 or 3x3 matrices
over k[x] or k[x,y], one to three generators, entries of degree <= 2
with small integer coefficients.  Each is built through
AlgebraPresentation at the cap make gives a polynomial row (top
generator degree times depth, plus 2), and its standard Hilbert values
are checked against tests/oracle.py's word spans over Q, F_7 and F_101.
A series window's full span is checked against the oracle's truncated
word closure the same way.

The same draws check what the oracle cannot see.  The graded cosets of
the standard filtration: mul equals lift_mul on drawn combinations of
piece_basis cosets, and class_of inverts lift.  And the subspace
arithmetic on the layers: the dimension identity of intersect and
sum_spaces on pairs that need not be nested, kernel dimension plus rank
for the products of a layer by one generator, and restrict_degree
against its kernel-route reference.

Size: a layer of depth n is spanned by the words of length <= n, so the
depth is bounded by the number of generators to keep that count, and so
every layer, at most 40; a series window is bounded by its ambient
dimension, at most 60.  The engine takes seconds on one layer of
dimension 115 over Q.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracle
from grfilt.fields import QQ, PrimeField
from grfilt.filtration import (AlgebraPresentation, full_span, hilbert,
                               standard_filtration)
from grfilt.graded import GradedTrunc, GrElement
from grfilt.linalg import Echelon, combine_rows
from grfilt.linspace import (Ambient, intersect, restrict_degree,
                             subspace_product, sum_spaces, zero_space)
from grfilt.poly import Poly, PolyMatrix
from test_linspace import restrict_degree_reference

FIELDS = (QQ, PrimeField(7), PrimeField(101))
# by generator count, the largest depth whose words of length <= depth
# number at most 40
MAX_DEPTH = {1: 5, 2: 4, 3: 3}


@st.composite
def presentations(draw):
    """(n, arity, generators), each generator {(i, j): {exponent: c}}
    with nonzero c in -2..3, the oracle's matrix form."""
    n = draw(st.sampled_from((2, 3)))
    arity = draw(st.sampled_from((1, 2)))
    monomials = [e for e in product(range(3), repeat=arity) if sum(e) <= 2]
    entry = st.dictionaries(st.sampled_from(monomials),
                            st.integers(-2, 3).filter(bool),
                            min_size=1, max_size=2)
    slots = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    gens = draw(st.lists(st.dictionaries(slots, entry, min_size=1,
                                         max_size=3),
                         min_size=1, max_size=3))
    return n, arity, gens


def presentation(field, n, arity, gens, degcap, series=False):
    """The generators as an AlgebraPresentation over field."""
    mats = [PolyMatrix([[Poly(field, arity,
                              {e: field.of(c)
                               for e, c in g.get((i, j), {}).items()})
                         for j in range(n)] for i in range(n)])
            for g in gens]
    amb = Ambient(n, arity, degcap, field, series=series)
    return AlgebraPresentation("random", amb,
                               tuple((f"g{k}", m) for k, m in enumerate(mats)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=60, deadline=None)
@given(presentations())
def test_standard_hilbert_values_match_the_oracle(field, drawn):
    """H(0), ..., H(depth) at the deepest depth the size bound allows."""
    n, arity, gens = drawn
    depth = MAX_DEPTH[len(gens)]
    top = max(sum(e) for g in gens for entry in g.values() for e in entry)
    pres = presentation(field, n, arity, gens, top * depth + 2)
    values = list(hilbert(standard_filtration(pres, depth)).values)
    assert values == oracle.word_span_dims(gens, n, arity, depth,
                                           p=field.p)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=25, deadline=None)
@given(presentations(), st.data())
def test_series_full_span_matches_the_oracle(field, drawn, data):
    n, arity, gens = drawn
    # the largest cap >= 2 whose ambient has at most 60 dimensions
    cap = max(c for c in range(2, 15)
              if n * n * len(Ambient(n, arity, c).monomials) <= 60)
    cap = data.draw(st.integers(2, cap), label="cap")
    pres = presentation(field, n, arity, gens, cap, series=True)
    assert full_span(pres).dim == \
        oracle.series_full_span(gens, n, arity, cap, p=field.p).dim


def standard_window(field, drawn, depth):
    """The drawn presentation at the cap its depth-depth layers need, and
    its standard filtration to that depth."""
    n, arity, gens = drawn
    top = max(sum(e) for g in gens for entry in g.values() for e in entry)
    pres = presentation(field, n, arity, gens, top * depth + 2)
    return pres, standard_filtration(pres, depth)


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=15, deadline=None)
@given(presentations(), st.data())
def test_graded_cosets_multiply_as_their_lifts(field, drawn, data):
    """In gr of the standard filtration, a drawn combination of a piece's
    basis cosets is a class of its own lift, and the row product mul of
    two such cosets is the matrix product lift_mul."""
    depth = min(MAX_DEPTH[len(drawn[2])], 3)
    _, filt = standard_window(field, drawn, depth)
    gr = GradedTrunc(filt)

    def draw_coset(m):
        basis = [dict(b.coords) for b in gr.piece_basis(m)]
        coeffs = data.draw(st.lists(st.integers(-2, 3), min_size=len(basis),
                                    max_size=len(basis)))
        row = combine_rows({i: field.of(c) for i, c in enumerate(coeffs)
                            if field.of(c)}, basis, field.p)
        return GrElement(m, tuple(sorted(row.items())))
    cosets = {m: draw_coset(m) for m in gr.degrees}
    for e in cosets.values():
        assert gr.class_of(gr.lift(e), e.degree) == e
    for a in gr.degrees:
        for b in gr.degrees:
            if a + b <= depth:
                assert (gr.mul(cosets[a], cosets[b])
                        == gr.lift_mul(cosets[a], cosets[b]))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(max_examples=15, deadline=None)
@given(presentations())
def test_layer_arithmetic_on_drawn_presentations(field, drawn):
    """On each layer Gamma_j and each generator g: span(Gamma_{j-1} g)
    lies in Gamma_j, so it is paired with Gamma_{j-1} and with g
    Gamma_{j-1}, which it need not contain or lie in, for dim(U meet V)
    + dim(U + V) = dim U + dim V; the kernel of Gamma_j -> Gamma_j g has
    dimension dim Gamma_j less the rank of the products; and the degree
    cuts of Gamma_j give restrict_degree_reference's spaces."""
    depth = MAX_DEPTH[len(drawn[2])] - 1
    pres, filt = standard_window(field, drawn, depth)
    amb = pres.ambient
    for j in range(depth + 1):
        layer = filt.layer(j)
        for g in pres.gen_rows:
            span_g = zero_space(amb).extend([g])
            before = filt.layer(j - 1)
            right = subspace_product(before, span_g)
            left = subspace_product(span_g, before)
            assert layer.contains(right)
            for u, v in ((before, right), (left, right)):
                assert (intersect(u, v).dim + sum_spaces(u, v).dim
                        == u.dim + v.dim)
            images = [amb.mul(b, g) for b in layer.basis_rows()]
            kernel = layer.kernel(images)
            assert kernel.dim + len(Echelon(field.p, images)) \
                == layer.dim
            assert layer.contains(kernel)
            assert not any(amb.mul(k, g) for k in kernel.basis_rows())
        for d in range(-1, layer.maxdeg() + 1):
            assert (restrict_degree(layer, d)
                    == restrict_degree_reference(layer, d))
