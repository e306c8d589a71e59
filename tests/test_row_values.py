"""Kernel rows are values: no function changes a row it did not just make.

Every row handed to the echelon engine and every row an echelon holds is
snapshot deeply before the engine runs, and must equal its snapshot after
Echelon's reduce, insert, copy and constructor, Subspace.extend,
residual, contains and kernel, sum_spaces, intersect,
QuotientContext.image and SpanTracker.add and express have read it, over
Q, F_7 and F_101.
"""

import copy
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from grfilt.fields import QQ, PrimeField
from grfilt.linalg import Echelon, SpanTracker
from grfilt.linspace import (Ambient, QuotientContext, intersect,
                             sum_spaces, zero_space)

FIELDS = [QQ, PrimeField(7), PrimeField(101)]


def ambient(fld):
    """2 x 2 matrices over k[x] up to degree 2: 12 columns."""
    return Ambient(2, 1, 2, fld)


@st.composite
def row_lists(draw):
    """(field, three lists of kernel rows): rows with a few nonzero
    entries, some Fractions, repeats and shared objects among them."""
    fld = draw(st.sampled_from(FIELDS))
    ncols = ambient(fld).dim
    value = st.sampled_from([1, -1, 2, 3, -4, Fraction(1, 2),
                             Fraction(-2, 3)]).map(fld.of)
    row = st.dictionaries(st.integers(0, ncols - 1), value, max_size=5)
    lists = [draw(st.lists(row, max_size=5)) for _ in range(3)]
    # the same row object twice, in one list and across two
    if lists[0]:
        lists[1].append(lists[0][0])
        lists[0].append(lists[0][-1])
    return fld, lists


class Snapshots:
    """(object, deep copy) pairs; unchanged() compares each again."""

    def __init__(self):
        self.pairs = []

    def take(self, *rows):
        self.pairs += [(r, copy.deepcopy(r)) for r in rows]

    def unchanged(self):
        return all(obj == snap for obj, snap in self.pairs)


@settings(max_examples=80, deadline=None)
@given(row_lists())
def test_no_engine_call_changes_a_row_it_was_handed_or_holds(case):
    fld, (rows_a, rows_b, rows_c) = case
    amb, p = ambient(fld), fld.p
    snaps = Snapshots()
    snaps.take(*rows_a, *rows_b, *rows_c)
    u = zero_space(amb).extend(rows_a)
    v = zero_space(amb).extend(rows_b)
    ideal = zero_space(amb).extend(rows_c)
    spaces = (u, v, ideal)
    echelons = [dict(s.echelon) for s in spaces]
    for s in spaces:
        snaps.take(*s.echelon.values())
    held = [r for s in spaces for r in s.echelon.values()]
    handed = rows_a + rows_b + rows_c + held

    for r in handed:
        u.echelon.reduce(r)
        u.residual(r)
    grown = v.echelon.copy()
    for r in handed:
        grown.insert(r)
    snaps.take(*grown.values())
    Echelon(p, handed)
    u.extend(handed)
    v.extend(u.echelon.values())
    for x, y in ((u, v), (v, u), (v, ideal)):
        x.contains(y)
        assert sum_spaces(x, y) == sum_spaces(y, x)
        assert intersect(x, y) == intersect(y, x)
    assert u.contains(u) and v.contains(v)
    u.kernel([held[i % len(held)] for i in range(u.dim)])
    QuotientContext(ideal).image(u)
    for r in held:
        grown.insert(r)
    tracker = SpanTracker(fld, amb.dim)
    for i, r in enumerate(handed):
        tracker.add(r, i)
        snaps.take(*tracker.rows.values())
        tracker.express(r)
    for r in handed:
        assert tracker.express(r) is not None

    assert snaps.unchanged()
    assert [dict(s.echelon) for s in spaces] == echelons
    # a subspace's own rows reduce to zero against it
    assert not any(s.residual(r) for s in spaces for r in s.echelon.values())


def test_a_row_a_subspace_holds_survives_another_extend():
    amb = ambient(QQ)
    r = {0: 1, 5: 1}
    u = zero_space(amb).extend([r])
    zero_space(amb).extend([{5: 1}, r])
    assert u.echelon == {0: {0: 1, 5: 1}}
    assert r == {0: 1, 5: 1}


def test_a_row_a_subspace_holds_survives_an_insert():
    amb = ambient(QQ)
    r = {0: 1, 5: 1}
    u = zero_space(amb).extend([r])
    echelon = Echelon(None, [{5: 1}])
    assert echelon.insert(r)
    assert echelon == {0: {0: 1}, 5: {5: 1}}
    assert u.echelon == {0: {0: 1, 5: 1}}


def test_a_subspace_reduces_its_own_row_to_zero():
    amb = ambient(QQ)
    r = {0: 1, 5: 1}
    u = zero_space(amb).extend([r])
    assert u.residual(r) == {}
    assert u.echelon == {0: {0: 1, 5: 1}}
