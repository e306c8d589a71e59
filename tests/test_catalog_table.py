"""The catalog table against the chain of branches it replaced.

reference_make below is the catalog as it was written before the table:
one branch per ring, each building x, alpha and the corner itself, and a
degcap that may be a function of the top generator degree, which is how
reference_make_sized sizes a polynomial window for a depth.  The tests
compare every row, the off-catalog control included, with it: the name,
the ambient, the generators in order, the named elements, the
description, and the shape verdicts on a depth-2 layer's basis, on the
elements and on matrices outside the ring.
"""

from collections import namedtuple

import pytest

from grfilt.fields import QQ, PrimeField
from grfilt.filtration import AlgebraPresentation, standard_filtration
from grfilt.linspace import Ambient
from grfilt.poly import Poly, PolyMatrix
from grfilt.workbench import CATALOG, SERIES_RINGS, make

FIELDS = (QQ, PrimeField(2), PrimeField(101))
ROWS = CATALOG + ("R_perturbed",)

# ------------------------------------------------------------ reference

OldRing = namedtuple("OldRing", "name ambient pres description elements "
                                "shape_member")


def _unit_mat(n, arity, i, j, p):
    z = Poly.zero(p.field, arity)
    rows = [[z] * n for _ in range(n)]
    rows[i][j] = p
    return PolyMatrix(rows)


def _y0_part(p):
    return Poly(p.field, p.arity,
                {e: c for e, c in p.terms.items() if e[1] == 0})


def _sub_x_squared(p, series_cap=None):
    q = p.dilate(2)
    return q if series_cap is None else q.truncate(series_cap)


def _shape_triangular(amb, corner=True):
    cap = amb.degcap if amb.series else None

    def check(mat):
        if not mat.entry(1, 0).is_zero():
            return False
        if not (corner or mat.entry(0, 1).is_zero()):
            return False
        f = mat.entry(0, 0)
        d = mat.entry(1, 1).truncate(cap) if cap is not None else \
            mat.entry(1, 1)
        return d == _sub_x_squared(f, cap)
    return check


def _shape_s(amb):
    def check(mat):
        if not _y0_part(mat.entry(1, 0)).is_zero():
            return False
        f = _y0_part(mat.entry(0, 0))
        return _y0_part(mat.entry(1, 1)) == _sub_x_squared(f)
    return check


def _shape_t(amb):
    def check(mat):
        for (i, j) in ((1, 0), (2, 0), (2, 1)):
            if not _y0_part(mat.entry(i, j)).is_zero():
                return False
        f = _y0_part(mat.entry(0, 0))
        if _y0_part(mat.entry(2, 2)) != f:
            return False
        return _y0_part(mat.entry(1, 1)) == _sub_x_squared(f)
    return check


def _cap(degcap, default, gens):
    if degcap is None:
        return default
    if callable(degcap):
        return degcap(max([g.degree() for _, g in gens] + [1]))
    return degcap


def reference_make(name, degcap=None, field=QQ):
    if name in ("R_2x2", "R_perturbed"):
        x, z = Poly.variable(field, 1, 0), Poly.zero(field, 1)
        alpha = PolyMatrix([[x, z], [z, x * x]])
        beta = _unit_mat(2, 1, 0, 1, Poly.const(field, 1, field.one))
        xbeta = _unit_mat(2, 1, 0, 1, x)
        gens = (("alpha", alpha),
                ("beta", beta) if name == "R_2x2" else ("xbeta", xbeta))
        amb = Ambient(2, 1, _cap(degcap, 12, gens), field)
        pres = AlgebraPresentation(name, amb, gens)
        if name == "R_2x2":
            return OldRing(
                name, amb, pres,
                "triangular subring {[[f(x), g(x)], [0, f(x^2)]]} of "
                "M_2(k[x]); generators alpha = diag(x, x^2) and beta = e12",
                {"alpha": alpha, "beta": beta, "e12": beta, "xe12": xbeta},
                _shape_triangular(amb))
        return OldRing(
            name, amb, pres,
            "same shape with the nilpotent generator moved up one degree: "
            "generators alpha and x*e12; misses the constant at e12",
            {"alpha": alpha, "beta": beta, "e12": beta, "xe12": xbeta,
             "x2e12": _unit_mat(2, 1, 0, 1, x * x)},
            _shape_triangular(amb))
    if name == "S":
        x, y = Poly.variable(field, 2, 0), Poly.variable(field, 2, 1)
        z = Poly.zero(field, 2)
        alpha = PolyMatrix([[x, z], [z, x * x]])
        beta = _unit_mat(2, 2, 0, 1, Poly.const(field, 2, field.one))
        ygens = [(f"ye{i + 1}{j + 1}", _unit_mat(2, 2, i, j, y))
                 for i in range(2) for j in range(2)]
        gens = (("alpha", alpha), ("beta", beta)) + tuple(ygens)
        amb = Ambient(2, 2, _cap(degcap, 6, gens), field)
        pres = AlgebraPresentation("S", amb, gens)
        return OldRing(
            name, amb, pres,
            "two-variable thickening: triangular x-shape plus y*M_2(k[x,y])",
            {"alpha": alpha, "beta": beta, **dict(ygens)},
            _shape_s(amb))
    if name == "T":
        x, y = Poly.variable(field, 2, 0), Poly.variable(field, 2, 1)
        z = Poly.zero(field, 2)
        alpha = PolyMatrix([[x, z, z], [z, x * x, z], [z, z, x]])
        one2 = Poly.const(field, 2, field.one)
        eij = {(i, j): _unit_mat(3, 2, i, j, one2)
               for (i, j) in ((0, 1), (0, 2), (1, 2))}
        ygens = [(f"ye{i + 1}{j + 1}", _unit_mat(3, 2, i, j, y))
                 for i in range(3) for j in range(3)]
        gens = (("alpha", alpha), ("e12", eij[(0, 1)]), ("e13", eij[(0, 2)]),
                ("e23", eij[(1, 2)])) + tuple(ygens)
        amb = Ambient(3, 2, _cap(degcap, 6, gens), field)
        pres = AlgebraPresentation("T", amb, gens)
        return OldRing(
            name, amb, pres,
            "3x3 staircase: diag(f(x), f(x^2), f(x)) plus free upper "
            "triangle over k[x], plus y*M_3(k[x,y])",
            {"alpha": alpha, "e12": eij[(0, 1)], "e13": eij[(0, 2)],
             "e23": eij[(1, 2)], **dict(ygens)},
            _shape_t(amb))
    if name in ("R_prime", "R_hat"):
        cap = 9 if degcap is None or callable(degcap) else degcap
        amb = Ambient(2, 1, cap, field, series=True)
        x, z = Poly.variable(field, 1, 0), Poly.zero(field, 1)
        alpha = PolyMatrix([[x, z], [z, x * x]])
        beta = _unit_mat(2, 1, 0, 1, Poly.const(field, 1, field.one))
        pres = AlgebraPresentation(name, amb, (("alpha", alpha),
                                               ("beta", beta)))
        what = ("localized at the ideal (alpha, beta)"
                if name == "R_prime" else "x-adically completed")
        return OldRing(
            name, amb, pres,
            f"triangular ring {what}, modeled as the finite quotient over "
            f"k[x]/(x^{cap + 1})",
            {"alpha": alpha, "beta": beta, "e12": beta},
            _shape_triangular(amb))
    if name == "C_diag":
        x, z = Poly.variable(field, 1, 0), Poly.zero(field, 1)
        c = PolyMatrix([[x, z], [z, x * x]])
        gens = (("c", c),)
        amb = Ambient(2, 1, _cap(degcap, 12, gens), field)
        pres = AlgebraPresentation("C_diag", amb, gens)
        return OldRing(
            name, amb, pres,
            "commutative diagonal subring {diag(c(x), c(x^2))}, isomorphic "
            "to k[x]; the triangular ring is module-finite over it",
            {"c": c},
            _shape_triangular(amb, corner=False))
    raise KeyError(f"unknown example ring {name!r}; "
                   f"catalog: {', '.join(CATALOG)} (+ R_perturbed)")


def reference_make_sized(name, depth, degcap=None, field=QQ, slack=2):
    def sized(step):
        return step * depth + slack
    return reference_make(name, degcap=sized if degcap is None else degcap,
                          field=field)


# -------------------------------------------------------------- helpers

def described(ring):
    """Everything a ring says about itself but its shape predicate."""
    return (ring.name, ring.ambient, ring.pres.name, ring.pres.ambient,
            [nm for nm, _ in ring.pres.gens], ring.pres.gen_mats(),
            list(ring.elements.items()), ring.description)


def probes(ring):
    """Matrices to ask the shape about: a depth-2 layer's basis, the
    elements, and every x^a y^b e_ij (a <= 2, b <= 1) alone and added to
    the first generator, most of which lie outside the ring."""
    amb, field = ring.ambient, ring.ambient.field
    layer = standard_filtration(ring.pres, 2).layer(2).basis_matrices()
    z = Poly.zero(field, amb.arity)
    units = []
    for a in range(3):
        for b in range(2 if amb.arity == 2 else 1):
            e = (a, b)[:amb.arity]
            mono = Poly(field, amb.arity, {e: field.one})
            units += [PolyMatrix([[mono if (r, s) == (i, j) else z
                                   for s in range(amb.n)]
                                  for r in range(amb.n)])
                      for i in range(amb.n) for j in range(amb.n)]
    first = ring.pres.gen_mats()[0]
    return (layer + list(ring.elements.values()) + units
            + [first + u for u in units])


# ---------------------------------------------------------------- tests

@pytest.mark.parametrize("fld", FIELDS, ids=str)
@pytest.mark.parametrize("cap", [None, 5, 8, 20])
@pytest.mark.parametrize("name", ROWS)
def test_every_row_builds_the_ring_the_branches_built(name, cap, fld):
    old = reference_make(name, degcap=cap, field=fld)
    new = make(name, degcap=cap, field=fld)
    assert described(new) == described(old)
    verdicts = [new.shape_member(m) for m in probes(new)]
    assert verdicts == [old.shape_member(m) for m in probes(new)]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("fld", FIELDS, ids=str)
@pytest.mark.parametrize("name", ROWS)
def test_make_for_depth_sizes_as_the_sizing_function_did(name, fld):
    for depth in range(8):
        for slack in (2, 4):
            assert described(make(name, field=fld, depth=depth,
                                  slack=slack)) == \
                described(reference_make_sized(name, depth, field=fld,
                                               slack=slack))
    # an explicit cap wins, series or not
    assert described(make(name, degcap=7, field=fld, depth=3)) == \
        described(reference_make(name, degcap=7, field=fld))


def test_an_unknown_name_is_refused_with_the_catalog():
    with pytest.raises(KeyError) as old:
        reference_make("nope")
    for build in (lambda: make("nope"), lambda: make("nope", depth=3)):
        with pytest.raises(KeyError) as new:
            build()
        assert str(new.value) == str(old.value)
        assert "catalog: R_2x2, S, T, R_prime, R_hat, C_diag" in \
            str(new.value)


def test_the_series_rings_are_the_series_rows():
    assert SERIES_RINGS == ("R_prime", "R_hat")
    assert all(make(name).ambient.series == (name in SERIES_RINGS)
               for name in ROWS)
