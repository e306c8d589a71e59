"""Catalog rings, shape predicates, op twist, staircase quotient."""

from functools import partial

import pytest

from grfilt import workbench
from grfilt.fields import QQ, PrimeField
from grfilt.linspace import Ambient, QuotientContext, zero_space
from grfilt.workbench import (make, CATALOG, op_transpose,
                              op_involution_report, y_kill,
                              collapse_to_one_variable,
                              quotient_iso_check, staircase_mod_y,
                              staircase_quotient_context)
from grfilt.poly import Poly, PolyMatrix
from paper_checks import right_ideal_escape_witness


@pytest.mark.parametrize("name", CATALOG)
def test_generators_and_short_words_satisfy_shape(name):
    ring = make(name)
    amb = ring.ambient
    gens = ring.pres.gen_rows
    words = [amb.one()] + ring.pres.gen_mats()
    for g in gens[:4]:
        for h in gens[:4]:
            words.append(amb.decode_sparse(amb.mul(g, h)))
    assert all(ring.shape_member(w) for w in words)


@pytest.mark.parametrize("depth", range(7))
@pytest.mark.parametrize("name", CATALOG)
def test_make_for_depth_builds_the_sized_ring_once(monkeypatch, name, depth):
    """make(name, depth=d) runs its row's builder once and reads the cap
    off the generators it built: d times their top degree plus slack for
    a polynomial row, the row's own cap for a series row."""
    row, built = workbench._TABLE[name], []

    def counted(*args):
        built.append(args)
        return row.build(*args)
    for slack in (2, 4):
        expected = make(name)
        if not expected.ambient.series:
            step = max(g.degree() for g in expected.pres.gen_mats())
            expected = make(name, degcap=step * depth + slack)
        monkeypatch.setitem(workbench._TABLE, name, row.replace(build=counted))
        ring = make(name, depth=depth, slack=slack)
        monkeypatch.undo()
        assert len(built) == 1
        built.clear()
        assert (ring.ambient, ring.pres, ring.elements, ring.description) \
            == (expected.ambient, expected.pres, expected.elements,
                expected.description)


def test_shape_rejects_outsiders():
    ring = make("R_2x2")
    x = Poly.variable(QQ, 1, 0)
    rows = [list(r) for r in ring.el("alpha").rows]
    rows[1][1] = x  # diag(x, x), breaking the f(x^2) tie
    assert not ring.shape_member(PolyMatrix(rows))
    lower = PolyMatrix([[Poly.zero(QQ, 1), Poly.zero(QQ, 1)], [x, Poly.zero(QQ, 1)]])
    assert not ring.shape_member(lower)


def test_c_diag_shape_rejects_the_corner_and_a_broken_tie():
    ring = make("C_diag")
    x, c = Poly.variable(QQ, 1, 0), ring.el("c")
    assert ring.shape_member(c * c + c)
    assert not ring.shape_member(make("R_2x2").el("e12"))
    bad = [list(r) for r in c.rows]
    bad[1][1] = x  # diag(x, x), breaking the f(x^2) tie
    assert not ring.shape_member(PolyMatrix(bad))


def test_diagonal_shape_truncates_in_series_mode():
    # over k[x]/(x^6), f(x^2) is compared modulo x^6 as well
    amb = Ambient(2, 1, 5, QQ, series=True)
    x, z = Poly.variable(QQ, 1, 0), Poly.zero(QQ, 1)
    check = partial(workbench._shape_triangular, amb, corner=False)
    f = x * x * x + x
    assert check(PolyMatrix([[f, z], [z, x * x]]))
    assert check(PolyMatrix([[f, z], [z, f.dilate(2)]]))
    assert not check(PolyMatrix([[f, z], [z, x]]))
    assert not check(PolyMatrix([[f, x], [z, x * x]]))


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=str)
@pytest.mark.parametrize("name", CATALOG + ("R_perturbed",))
def test_a_ring_equals_itself_rebuilt(name, field):
    assert make(name, field=field) == make(name, field=field)


def test_a_ring_holds_its_name_and_ambient_once():
    ring = make("R_2x2", degcap=8)
    assert (ring.name, ring.ambient) == ("R_2x2", ring.pres.ambient)
    with pytest.raises(TypeError):
        ring.replace(name="R_copy")
    with pytest.raises(TypeError):
        ring.replace(ambient=make("R_2x2").ambient)
    copy = ring.replace(pres=ring.pres.replace(name="R_copy"))
    assert (copy.name, copy.pres.name, copy.ambient) == \
        ("R_copy", "R_copy", ring.ambient)


def test_perturbed_ring_excluded_from_catalog():
    assert "R_perturbed" not in CATALOG
    with pytest.raises(KeyError):
        make("no_such_ring")


def test_op_twist_fixes_staircase_but_not_triangular():
    rep = op_involution_report(make("T"))
    assert rep["shape_preserved"] and rep["anti_multiplicative"]
    # the 2x2 ring is not tau-stable: tau(alpha) = diag(x^2, x)
    rep2 = op_involution_report(make("R_2x2"))
    assert rep2["anti_multiplicative"] and not rep2["shape_preserved"]


def test_op_transpose_is_an_involution():
    ring = make("T")
    for g in ring.pres.gen_mats():
        assert op_transpose(op_transpose(g)) == g


def test_right_ideal_is_not_left_stable():
    prod, in_rows_12 = right_ideal_escape_witness(make("T"))
    assert not in_rows_12
    assert not prod.entry(2, 2).is_zero()


def test_y_kill_then_collapse():
    ring = make("T")
    m = ring.el("ye12")
    assert y_kill(m).is_zero()
    a = y_kill(ring.el("alpha"))
    c = collapse_to_one_variable(a)
    assert c.arity == 1 and c.entry(1, 1).degree() == 2


def test_staircase_mod_y_presents_three_nilpotents():
    pres = staircase_mod_y(make("T"), degcap=8)
    assert {nm for nm, _ in pres.gens} == {"alpha", "e12", "e13", "e23"}
    assert pres.ambient.arity == 1 and pres.ambient.n == 3


def test_quotient_iso_holds_on_word_span():
    ring_t = make("T")
    pres, ctx = staircase_quotient_context(ring_t, degcap=12)
    r = make("R_2x2", degcap=12)
    rep = quotient_iso_check(
        ctx, QuotientContext(zero_space(r.ambient)),
        [(pres.gen("alpha"), r.el("alpha")), (pres.gen("e12"), r.el("beta"))],
        max_len=4)
    assert rep.consistent
    assert rep.dim_a == rep.dim_b == rep.dim_joint


def test_quotient_iso_detects_wrong_pairing():
    ring_t = make("T")
    pres, ctx = staircase_quotient_context(ring_t, degcap=12)
    r = make("R_2x2", degcap=12)
    rep = quotient_iso_check(
        ctx, QuotientContext(zero_space(r.ambient)),
        [(pres.gen("alpha"), r.el("beta")), (pres.gen("e12"), r.el("alpha"))],
        max_len=3)
    assert not rep.consistent


@pytest.mark.parametrize("fld", [QQ, PrimeField(101)], ids=str)
def test_staircase_quotient_reads_the_field_of_its_ring(fld):
    pres, ctx = staircase_quotient_context(make("T", field=fld), degcap=12)
    assert pres.ambient.field == ctx.ambient.field == fld
    assert pres.closed_degree == 10
    r = make("R_2x2", degcap=12, field=fld)
    rep = quotient_iso_check(
        ctx, QuotientContext(zero_space(r.ambient)),
        [(pres.gen("alpha"), r.el("alpha")), (pres.gen("e12"), r.el("beta"))],
        max_len=4)
    assert rep.consistent
