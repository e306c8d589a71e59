"""Properties of the echelon kernel on random sparse integer matrices.

Every check runs over Q, a small prime and a prime just below 2^31 (where
eliminating small integers soon yields residues of full size).  Ranks
over Q are also compared with the independent accumulator in
tests/oracle.py.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
from grfilt.fields import QQ, PrimeField
from grfilt.linalg import (Echelon, SpanTracker, combine_rows,
                           coords_in_rref, dense_row, joint_kernel,
                           kernel_combos, kernel_rows, nullspace,
                           reduce_by_rref, rref, sparse_row)
from test_scalars import in_canonical_form

FIELDS = [QQ, PrimeField(101), PrimeField(2147483647)]

common = settings(max_examples=60, deadline=None)


def entry(fld, n):
    """n as a field element; a zero is usually the field's zero object,
    sometimes an equal but distinct one (over Q), as callers may pass
    either."""
    if n == 0:
        return fld.zero
    if n == 100:
        return fld.of(0) if fld.p else Fraction(0)
    return fld.of(n)


@st.composite
def matrices(draw, max_rows=7, max_cols=7):
    """(field, rows): mostly-zero integer rows, as tuples of elements."""
    fld = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(0, max_rows))
    value = st.one_of(st.just(0), st.just(0), st.just(0), st.just(100),
                      st.integers(-4, 4))
    rows = draw(st.lists(st.lists(value, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return fld, [tuple(entry(fld, n) for n in r) for r in rows]


def combine(fld, coeffs, vectors, ncols):
    out = [fld.zero] * ncols
    for c, v in zip(coeffs, vectors):
        out = [fld.of(a + c * b) for a, b in zip(out, v)]
    return out


def oracle_rank(rows):
    """Rank of rows over Q by the independent accumulator."""
    ech = oracle.Echelon()
    for r in rows:
        ech.add({j: x for j, x in enumerate(r) if x})
    return ech.dim


def assert_canonical(fld, rows, pivots, ncols):
    assert list(pivots) == sorted(set(pivots))
    assert len(rows) == len(pivots) <= ncols
    for row, p in zip(rows, pivots):
        assert isinstance(row, tuple) and len(row) == ncols
        assert row[p] == fld.one
        assert all(x is fld.zero for x in row[:p])
        for x in row:
            assert x is fld.zero or (x and in_canonical_form(fld, x))
    for i, p in enumerate(pivots):
        assert all(rows[k][p] is fld.zero
                   for k in range(len(rows)) if k != i)


@common
@given(matrices())
def test_rref_is_canonical(case):
    fld, rows = case
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows, fld)
    assert_canonical(fld, red, pivots, ncols)
    if fld == QQ:
        assert len(pivots) == oracle_rank(rows)


@common
@given(matrices(), st.data())
def test_rref_ignores_order_scale_repeats_and_zero_rows(case, data):
    fld, rows = case
    if not rows:
        return
    ncols = len(rows[0])
    expected = rref(rows, fld)
    scales = data.draw(st.lists(st.integers(1, 6), min_size=len(rows),
                                max_size=len(rows)))
    scaled = [tuple(fld.of(s * x) for x in r)
              for s, r in zip(scales, rows)]
    shuffled = data.draw(st.permutations(scaled + rows[:2]))
    zero_row = tuple([fld.zero] * ncols)
    mixed = []
    for r in shuffled:
        mixed += [zero_row, r]
    assert rref(mixed, fld) == expected


@common
@given(matrices())
def test_input_rows_reduce_to_zero_and_have_coordinates(case):
    fld, rows = case
    if not rows:
        return
    ncols = len(rows[0])
    red, pivots = rref(rows, fld)
    for r in rows:
        assert not any(reduce_by_rref(r, red, pivots, fld))
        coeffs = coords_in_rref(r, red, pivots, fld)
        assert coeffs is not None
        assert combine(fld, coeffs, red, ncols) == list(r)
    for j in set(range(ncols)) - set(pivots):
        unit = [fld.zero] * ncols
        unit[j] = fld.one
        assert reduce_by_rref(unit, red, pivots, fld) == unit
        assert coords_in_rref(unit, red, pivots, fld) is None


@common
@given(matrices())
def test_nullspace_is_annihilated_with_full_dimension(case):
    fld, rows = case
    if not rows:
        return
    ncols = len(rows[0])
    basis = nullspace(rows, fld)
    rank = len(rref(rows, fld)[1])
    assert len(basis) == ncols - rank
    assert len(rref(basis, fld)[1]) == len(basis)
    for v in basis:
        for r in rows:
            assert combine(fld, v, [[x] for x in r], 1) == [fld.zero]
    combos = kernel_combos([list(r) for r in rows], fld)
    for c in combos:
        assert not any(combine(fld, c, rows, ncols))
    # the map sends the i-th unit e_i to rows[i]; its graph rows
    # (e_i, rows[i]) let each kernel row show its own image, which is 0
    n = len(rows)
    graph = [tuple(fld.one if j == i else fld.zero for j in range(n)) + r
             for i, r in enumerate(rows)]
    kernel = kernel_rows(rows, graph, fld)
    assert len(kernel) == n - rank
    assert len(rref(kernel, fld)[1]) == len(kernel)
    for k in kernel:
        assert len(k) == n + ncols
        assert not any(k[n:])
        assert combine(fld, k[:n], rows, ncols) == [fld.zero] * ncols


@common
@given(matrices(), st.data())
def test_joint_kernel_is_the_rref_of_the_kernel(case, data):
    # each row splits into a first part (a) and a second part (b); the
    # kernel {sum c_i b_i : sum c_i a_i = 0} lies in the joint span as
    # (0, k), and its dimension is rank(joint) - rank(first parts)
    fld, rows = case
    ncols = len(rows[0]) if rows else 0
    width = data.draw(st.integers(0, ncols))
    pairs = [(sparse_row(r[:width], fld), sparse_row(r[width:], fld))
             for r in rows]
    kernel = joint_kernel(pairs, fld.p)
    assert all(q == min(k) for q, k in kernel.items())
    dense = [tuple(dense_row(k, ncols - width, fld))
             for k in kernel.values()]
    assert_canonical(fld, dense, list(kernel), ncols - width)
    joint, pivots = rref(rows, fld)
    for k in dense:
        lifted = [fld.zero] * width + list(k)
        assert coords_in_rref(lifted, joint, pivots, fld) is not None
    first = [r[:width] for r in rows]
    assert len(kernel) == len(pivots) - len(rref(first, fld)[1])
    if fld == QQ:
        assert len(kernel) == oracle_rank(rows) - oracle_rank(first)


def joint_kernel_reference(pairs, width, p):
    """The kernel at a split width the caller names, past every first
    part: the joint rows (a, b shifted by width) go into one echelon, and
    the second parts of the rows that pivot at or past width, re-keyed,
    are the kernel's echelon."""
    echelon = Echelon(
        p, ({**a, **{width + j: x for j, x in b.items()}} for a, b in pairs))
    return {q - width: {j - width: x for j, x in echelon[q].items()}
            for q in sorted(echelon) if q >= width}


@st.composite
def row_pairs(draw):
    """(field, first width, pairs): kernel-row pairs (a, b) with every a
    below the first width, and sometimes every a zero."""
    fld = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(101)]))
    na, nb = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    value = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
    zero_first = draw(st.booleans())

    def kernel_row(n, values):
        return {j: v for j, x in enumerate(draw(st.lists(
            values, min_size=n, max_size=n))) if (v := fld.of(x))}
    pairs = [(kernel_row(na, st.just(0) if zero_first else value),
              kernel_row(nb, value))
             for _ in range(draw(st.integers(0, 7)))]
    return fld, na, pairs


@common
@given(row_pairs())
@example((QQ, 0, []))
@example((PrimeField(7), 2, [({}, {0: 1}), ({}, {}), ({}, {1: 3})]))
def test_joint_kernel_finds_its_own_split(case):
    # any split at or past one beyond the last first-part column gives
    # the same kernel, which joint_kernel finds without being told
    fld, na, pairs = case
    derived = max((max(a) + 1 for a, _ in pairs if a), default=0)
    kernel = joint_kernel(iter(pairs), fld.p)
    assert list(kernel) == sorted(kernel)
    for width in range(derived, na + 3):
        assert joint_kernel_reference(pairs, width, fld.p) == kernel
    if not any(a for a, _ in pairs):
        assert kernel == Echelon(fld.p, (b for _, b in pairs))


@common
@given(matrices(), st.data())
def test_span_tracker_expresses_what_it_was_given(case, data):
    fld, rows = case
    if not rows:
        return
    ncols = len(rows[0])
    sparse = [sparse_row(r, fld) for r in rows]
    tracker = SpanTracker(fld, ncols)
    added = [tracker.add(r, i) for i, r in enumerate(sparse)]
    # add and express leave their kernel rows as they were
    assert sparse == [sparse_row(r, fld) for r in rows]
    pivots = rref(rows, fld)[1]
    assert tracker.dim == sum(added) == len(pivots)
    # zero and dependent adds, interleaved, are refused and change nothing
    extra = data.draw(st.permutations(sparse[:3] + [{}] * 2))
    assert not any(tracker.add(r, ("extra", i))
                   for i, r in enumerate(extra))
    assert tracker.dim == len(pivots)
    # the accepted vectors are independent, so a combination of them is
    # expressed as exactly that combination
    kept = [t for t, ok in enumerate(added) if ok]
    coeffs = [entry(fld, data.draw(st.sampled_from((0, 100, -3, 1, 2))))
              for _ in kept]
    target = combine(fld, coeffs, [rows[t] for t in kept], ncols)
    assert tracker.express(sparse_row(target, fld)) == {
        t: c for t, c in zip(kept, coeffs) if c}
    for r, v in zip(rows, sparse):
        combo = tracker.express(v)
        assert combo is not None
        assert all(added[t] for t in combo)
        terms = [rows[t] for t in combo]
        assert combine(fld, list(combo.values()), terms, ncols) == list(r)
    assert sparse == [sparse_row(r, fld) for r in rows]
    for j in set(range(ncols)) - set(pivots):
        unit = [fld.zero] * ncols
        unit[j] = fld.one
        assert tracker.express(sparse_row(unit, fld)) is None


@common
@given(matrices(), st.data())
def test_combine_rows_matches_dense_accumulation(case, data):
    fld, rows = case
    ncols = len(rows[0]) if rows else data.draw(st.integers(0, 4))
    coeffs = [entry(fld, data.draw(st.sampled_from((0, 100, -2, 1, 3))))
              for _ in rows]
    sparse = [sparse_row(r, fld) for r in rows]
    out = combine_rows(sparse_row(coeffs, fld), sparse, fld.p)
    assert dense_row(out, ncols, fld) == combine(fld, coeffs, rows, ncols)
    # a kernel row: nonzero values in the kernel's representation
    assert all(out.values()) and all(0 <= j < ncols for j in out)
    if fld.p:
        assert all(type(v) is int and v < fld.p for v in out.values())
    # rows indexed by dict keys read only the rows the coefficients name
    named = {i: r for i, r in enumerate(sparse) if coeffs[i]}
    assert combine_rows(sparse_row(coeffs, fld), named,
                        fld.p) == out


@common
@given(matrices())
def test_row_echelon_is_the_rref(case):
    fld, rows = case
    ncols = len(rows[0]) if rows else 0
    echelon = Echelon(fld.p, [sparse_row(r, fld) for r in rows])
    red, pivots = rref(rows, fld)
    assert sorted(echelon) == pivots
    assert [tuple(dense_row(echelon[q], ncols, fld)) for q in pivots] == red
    # rref stops once ncols pivots are held: the rank, and the rows, of
    # the full Echelon above; a row past that point is never read
    if rows and len(pivots) == ncols:
        assert rref(list(rows) + [None], fld) == (red, pivots)


@pytest.mark.parametrize("fld", FIELDS, ids=lambda f: f.name)
def test_edge_cases(fld):
    zero, one = fld.zero, fld.one
    assert rref([], fld) == ([], [])
    assert rref([(zero, zero), (fld.of(0), zero)], fld) == ([], [])
    column = [(fld.of(3),), (zero,), (fld.of(-2),)]
    assert rref(column, fld) == ([(one,)], [0])
    assert nullspace(column, fld) == []
    assert nullspace([(zero,)], fld) == [(one,)]
    assert nullspace([(zero, zero)], fld) == [(one, zero), (zero, one)]
    with pytest.raises(ValueError):
        nullspace([], fld)
    assert kernel_combos([], fld) == []
    assert kernel_combos([(), ()], fld) == [(one, zero), (zero, one)]
    assert reduce_by_rref([fld.of(5)], [], [], fld) == [fld.of(5)]
    assert coords_in_rref([zero], [], [], fld) == []
    tracker = SpanTracker(fld, 1)
    assert tracker.express({}) == {}
    assert not tracker.add({}, "z")
    assert tracker.add(sparse_row((fld.of(2),), fld), "a")
    assert tracker.express(sparse_row((fld.of(6),), fld)) == {"a": fld.of(3)}
    assert combine_rows({}, [], fld.p) == {}
    assert Echelon(fld.p) == {}
