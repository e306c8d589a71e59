"""linalg.Echelon against the bare-dict engine it replaced.

reduce_row, insert_row and row_echelon below are the engine as it was
before Echelon: an echelon was a plain {pivot: row} dict passed beside
its field's p, and every insert that enlarged the span scanned every held
row for the new pivot.  Echelon runs that scan only when the new pivot
lies in cols, the columns of the rows inserted so far.  The properties
check, over Q, F_7 and F_101 and on rows built to cancel, that after every
insert the Echelon equals the reference dict, key order included, that
the two agree on every return value and every reduction, and that cols
covers every column of every held row; that a copy grows without
touching its original; and that every Subspace the catalog rings' spans,
filtrations, graded pieces and quotients are built from holds an
Echelon with that invariant.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grfilt.fields import QQ, PrimeField
from grfilt.filtration import (full_span, induced_quotient_filtration,
                               standard_filtration, two_sided_closure,
                               weak_adic_filtration)
from grfilt.graded import GradedTrunc
from grfilt.linalg import Echelon, _axpy, _normalize, combine_rows
from grfilt.linspace import (QuotientContext, complement_section,
                             intersect, prefix_space, restrict_degree, span,
                             subspace_product, sum_spaces, zero_space)
from grfilt.workbench import CATALOG, make

FIELDS = [QQ, PrimeField(7), PrimeField(101)]


# ------------------------------------------------------------ reference

def reduce_row(vec, echelon, p):
    """vec modulo a canonical echelon {pivot: row}: vec itself when no
    pivot column meets it, else a new row."""
    hits = [j for j in vec if j in echelon]
    out = dict(vec) if hits else vec
    for j in hits:
        _axpy(out, vec[j], echelon[j], p)
    return out


def insert_row(echelon, vec, p):
    """Insert the kernel row vec into the canonical echelon {pivot: row},
    in place, scanning every held row for the new pivot.  True if it
    enlarged the span."""
    vec = reduce_row(vec, echelon, p)
    if vec:
        lead = min(vec)
        if vec[lead] != 1:
            vec = _normalize(vec, vec[lead], p)
        for q in [q for q, held in echelon.items() if lead in held]:
            held = dict(echelon[q])
            _axpy(held, held[lead], vec, p)
            echelon[q] = held
        echelon[lead] = vec
    return bool(vec)


def row_echelon(rows, p):
    """The canonical echelon {pivot: row} of the kernel rows, inserted
    one at a time."""
    echelon = {}
    for vec in rows:
        insert_row(echelon, vec, p)
    return echelon


# ------------------------------------------------------------ properties

def covered(echelon):
    """Whether cols holds every column of every held row."""
    return all(j in echelon.cols for row in echelon.values() for j in row)


@st.composite
def insert_runs(draw):
    """(field, rows): sparse rows over a few columns, so new pivots often
    meet held rows, with combinations of them spliced in anywhere, so
    rows cancel against rows inserted before or after them."""
    fld = draw(st.sampled_from(FIELDS))
    ncols = draw(st.integers(1, 8))
    value = st.sampled_from([1, -1, 2, 3, -4, Fraction(1, 2),
                             Fraction(-2, 3)]).map(fld.of)
    row = st.dictionaries(st.integers(0, ncols - 1), value, max_size=4)
    rows = draw(st.lists(row, max_size=8))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                              max_size=3))
        combo = combine_rows({i: draw(value) for i in picks}, rows, fld.p)
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return fld, rows


@settings(max_examples=200, deadline=None)
@given(insert_runs())
def test_echelon_grows_as_the_bare_dict_engine(case):
    fld, rows = case
    p = fld.p
    echelon, reference = Echelon(p), {}
    for row in rows + rows[::-1]:
        assert echelon.reduce(row) == reduce_row(row, reference, p)
        assert echelon.insert(row) == insert_row(reference, row, p)
        assert echelon == reference
        assert list(echelon) == list(reference)
        assert covered(echelon)
    built = Echelon(p, rows)
    assert built == row_echelon(rows, p) and covered(built)
    assert built.p == p and type(built) is Echelon


@settings(max_examples=100, deadline=None)
@given(insert_runs())
def test_a_copy_grows_without_touching_its_original(case):
    fld, rows = case
    original = Echelon(fld.p, rows)
    rows_before = {q: dict(r) for q, r in original.items()}
    cols_before = set(original.cols)
    twin = original.copy()
    assert type(twin) is Echelon and twin.p == original.p
    assert twin == original and twin.cols == original.cols
    # every unit row: each clears its column from the held rows
    for j in range(9):
        twin.insert({j: fld.one})
    assert twin == {j: {j: fld.one} for j in range(9)} and covered(twin)
    assert original == rows_before and original.cols == cols_before


def test_canonical_rows_are_inserted_as_they_are():
    rows = [{0: 1, 3: 2}, {1: 1, 3: -1}, {2: 1}]
    for order in (rows, rows[::-1]):
        echelon = Echelon(None, order)
        assert echelon == {0: rows[0], 1: rows[1], 2: rows[2]}
        assert all(echelon[q] is r for q, r in zip((0, 1, 2), rows))
    assert Echelon(None).reduce(rows[0]) is rows[0]


# ------------------------------------------- every Subspace holds one

def catalog_spaces(name, fld):
    """The Subspaces built on a catalog ring at depth 3: its layers and
    word span, a two-sided ideal and its quotient layers, the graded
    pieces, and linspace's builders on its layers."""
    pres = make(name, field=fld, depth=3).pres
    amb = pres.ambient
    if amb.series:
        filt = weak_adic_filtration(pres, 2)
        spaces = [full_span(pres)]
    else:
        filt = standard_filtration(pres, 3)
        spaces = []
    spaces += list(filt.layers.values())
    spaces += list(GradedTrunc(filt).sections.values())
    ideal = two_sided_closure(pres, [pres.gens[-1][1]])
    spaces.append(ideal)
    if not amb.series:
        spaces += induced_quotient_filtration(
            pres, ideal, standard_filtration(pres, 1)).layers.values()
    one, top = span(amb, [amb.one()]), filt.layer(filt.hi)
    gens = zero_space(amb).extend(pres.gen_rows)
    spaces += [one, gens, top, zero_space(amb), prefix_space(amb, 1),
               sum_spaces(one, gens), intersect(top, gens),
               subspace_product(one, gens), restrict_degree(top, 1),
               complement_section(top, one),
               QuotientContext(ideal).image(top),
               top.kernel([{}] * top.dim)]
    return spaces


@pytest.mark.parametrize("fld", FIELDS, ids=str)
@pytest.mark.parametrize("name", CATALOG)
def test_every_catalog_subspace_holds_an_echelon(name, fld):
    for space in catalog_spaces(name, fld):
        assert type(space.echelon) is Echelon
        assert space.echelon.p == fld.p and covered(space.echelon)
