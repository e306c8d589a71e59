"""Catalog of the worked example rings and their structural checks.

Every ring here is a subalgebra of a matrix ring over k[x] or k[x,y],
described by generators plus a closed-form shape predicate.  The shape is
what the generators are supposed to span in each degree; tests confirm the
two views agree on truncated windows.

Series-mode entries model the x-adically truncated ring: an ambient with
series=True and degree cap d is M_n(k[x]/(x^(d+1))), so products reduce
modulo x^(d+1) by ring structure rather than by silent truncation.
"""

from .fields import QQ
from .linalg import insert_row, joint_row, row_echelon, split_joint
from .linspace import Ambient, QuotientContext
from .filtration import (AlgebraPresentation, standard_filtration,
                         two_sided_closure, WindowExceeded)
from .poly import Poly, PolyMatrix
from .record import Record


CATALOG = ("R_2x2", "S", "T", "R_prime", "R_hat", "C_diag")


def _unit_mat(n, arity, i, j, p):
    z = Poly.zero(p.field, arity)
    rows = [[z] * n for _ in range(n)]
    rows[i][j] = p
    return PolyMatrix(rows)


def _y0_part(p):
    """Terms of a two-variable polynomial with no y factor."""
    return Poly(p.field, p.arity,
                {e: c for e, c in p.terms.items() if e[1] == 0})


def _sub_x_squared(p, series_cap=None):
    q = p.dilate(2)
    return q if series_cap is None else q.truncate(series_cap)


class ExampleRing(Record):
    fields = ("name", "ambient", "pres", "description", "elements",
              "shape_member")

    def el(self, name):
        return self.elements[name]


def _shape_triangular(amb, corner=True):
    """Membership in {[[f(x), g(x)], [0, f(x^2)]]}; without corner, g is
    0 as well."""
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
    """R-shape modulo y: arbitrary y-multiples are allowed everywhere."""
    def check(mat):
        if not _y0_part(mat.entry(1, 0)).is_zero():
            return False
        f = _y0_part(mat.entry(0, 0))
        return _y0_part(mat.entry(1, 1)) == _sub_x_squared(f)
    return check


def _shape_t(amb):
    """y-free part must be [[f, g, h], [0, f(x^2), l], [0, 0, f]]."""
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
    """A polynomial window's degree cap: the catalog default for None, a
    function's value at the top generator degree, or degcap itself."""
    if degcap is None:
        return default
    if callable(degcap):
        return degcap(max([g.degree() for _, g in gens] + [1]))
    return degcap


def make(name, degcap=None, field=QQ):
    """Build a catalog ring.  degcap defaults to a size adequate for the
    standard windows used in the tests and reports; a function of the top
    generator degree sizes a polynomial window from its generators."""
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
            return ExampleRing(
                name, amb, pres,
                "triangular subring {[[f(x), g(x)], [0, f(x^2)]]} of "
                "M_2(k[x]); generators alpha = diag(x, x^2) and beta = e12",
                {"alpha": alpha, "beta": beta, "e12": beta, "xe12": xbeta},
                _shape_triangular(amb))
        return ExampleRing(
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
        return ExampleRing(
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
        return ExampleRing(
            name, amb, pres,
            "3x3 staircase: diag(f(x), f(x^2), f(x)) plus free upper "
            "triangle over k[x], plus y*M_3(k[x,y])",
            {"alpha": alpha, "e12": eij[(0, 1)], "e13": eij[(0, 2)],
             "e23": eij[(1, 2)], **dict(ygens)},
            _shape_t(amb))
    if name in ("R_prime", "R_hat"):
        # a series window truncates instead of overflowing, so a sizing
        # function leaves it at its default
        cap = 9 if degcap is None or callable(degcap) else degcap
        amb = Ambient(2, 1, cap, field, series=True)
        x, z = Poly.variable(field, 1, 0), Poly.zero(field, 1)
        alpha = PolyMatrix([[x, z], [z, x * x]])
        beta = _unit_mat(2, 1, 0, 1, Poly.const(field, 1, field.one))
        pres = AlgebraPresentation(name, amb, (("alpha", alpha),
                                               ("beta", beta)))
        what = ("localized at the ideal (alpha, beta)"
                if name == "R_prime" else "x-adically completed")
        return ExampleRing(
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
        return ExampleRing(
            name, amb, pres,
            "commutative diagonal subring {diag(c(x), c(x^2))}, isomorphic "
            "to k[x]; the triangular ring is module-finite over it",
            {"c": c},
            _shape_triangular(amb, corner=False))
    raise KeyError(f"unknown example ring {name!r}; "
                   f"catalog: {', '.join(CATALOG)} (+ R_perturbed)")


def make_for_depth(name, depth, degcap=None, field=QQ, slack=2):
    """Build a catalog ring whose window holds depth-n filtration layers.

    Depth-n layers hold words of n generators, so a polynomial window's
    cap has to reach n times the top generator degree, plus slack, or the
    products overflow.  Series windows truncate instead of overflowing
    and keep their catalog default.  An explicit degcap always wins.
    """
    def sized(step):
        return step * depth + slack
    return make(name, degcap=sized if degcap is None else degcap,
                field=field)


# ---------------------------------------------------------------- op twist

def op_transpose(mat):
    """Antidiagonal transpose tau(M)[i][j] = M[n-1-j][n-1-i].

    tau is an anti-automorphism of the full matrix ring; what is specific
    to a subring is whether tau maps it into itself.
    """
    n = mat.n
    return PolyMatrix([[mat.entry(n - 1 - j, n - 1 - i) for j in range(n)]
                       for i in range(n)])


def op_involution_report(ring, word_len=3):
    """Check tau preserves the shape on all words of length <= word_len
    and reverses products on all generator pairs.  The words span the
    standard layer Gamma_word_len and the shape and tau are linear, so
    the shape is checked on its basis; words_checked counts the words."""
    gens = ring.pres.gen_mats()
    layer = standard_filtration(ring.pres, word_len).layer(word_len)
    shape_ok = all(ring.shape_member(op_transpose(m))
                   for m in layer.basis_matrices())
    anti_ok = all(op_transpose(a * b) == op_transpose(b) * op_transpose(a)
                  for a in gens for b in gens)
    return {"shape_preserved": shape_ok, "anti_multiplicative": anti_ok,
            "words_checked": sum(len(gens) ** k
                                 for k in range(word_len + 1))}


# ------------------------------------------------- quotient comparison kit

def y_kill(mat):
    """Entrywise y -> 0, a ring map when the y-multiples form an ideal."""
    return PolyMatrix([[_y0_part(p) for p in row] for row in mat.rows])


def collapse_to_one_variable(mat):
    """Reinterpret a y-free two-variable matrix inside M_n(k[x])."""
    out = []
    for row in mat.rows:
        new = []
        for p in row:
            if any(e[1] for e in p.terms):
                raise ValueError("matrix still involves y")
            new.append(Poly(p.field, 1,
                            {(e[0],): c for e, c in p.terms.items()}))
        out.append(new)
    return PolyMatrix(out)


class IsoReport(Record):
    fields = ("consistent", "dim_a", "dim_b", "dim_joint", "words_checked",
              "max_len")


def quotient_iso_check(ctx_a, ctx_b, pairs, max_len=4):
    """Does elt_a -> elt_b extend to an algebra isomorphism of word spans?

    A and B are quotient rings given by their QuotientContexts, whose mul
    multiplies canonical representatives; a plain ring is its quotient by
    zero_space.  The span of the joint kernel rows (value in A
    concatenated with value in B) of the words of length <= max_len in
    the generator pairs, given as matrices, grows by the rule of
    grfilt.filtration: each of max_len rounds multiplies only the rows
    the round before added, read as they stood when the round began.
    A word overflows the degree cap exactly when some such row does.
    The correspondence extends to a well-defined bijective multiplicative
    linear map between the word spans iff the joint span has the same
    dimension as each side alone; words_checked counts the words.  With
    max_len < 1 the span holds only the unit and says nothing, so that
    window raises WindowExceeded instead of passing.
    """
    amb_a, amb_b = ctx_a.ambient, ctx_b.ambient
    if amb_a.field != amb_b.field:
        raise ValueError("quotients must share a coefficient field")
    if max_len < 1:
        raise WindowExceeded(
            f"words up to length {max_len} span only the unit; the "
            f"comparison needs max_len >= 1")
    pairs = [(amb_a.encode_sparse(ga), amb_b.encode_sparse(gb))
             for ga, gb in pairs]
    p, width = amb_a.field.p, amb_a.dim
    one_a, one_b = (ctx.ideal.residual(amb.encode_sparse(amb.one()))
                    for ctx, amb in ((ctx_a, amb_a), (ctx_b, amb_b)))
    echelon = {}
    insert_row(echelon, joint_row(one_a, one_b, width), p)
    new = list(echelon)
    for _ in range(max_len):
        halves = [split_joint(echelon[q], width) for q in new]
        before = set(echelon)
        for a, b in halves:
            for ga, gb in pairs:
                insert_row(echelon, joint_row(ctx_a.mul(a, ga),
                                              ctx_b.mul(b, gb), width), p)
        new = [q for q in echelon if q not in before]
    dim_a = sum(q < width for q in echelon)
    dim_b = len(row_echelon(
        (split_joint(r, width)[1] for r in echelon.values()), p))
    return IsoReport(len(echelon) == dim_a == dim_b, dim_a, dim_b,
                     len(echelon),
                     sum(len(pairs) ** k for k in range(max_len + 1)),
                     max_len)


def staircase_mod_y(ring_t, degcap):
    """The y-free model T0 of the staircase ring inside M_3(k[x]), over
    ring_t's field and with degree cap degcap.

    Passing to y -> 0 entrywise is the quotient by the ideal of y-multiples;
    it is multiplicative because that set absorbs products on both sides.
    """
    amb = Ambient(3, 1, degcap, ring_t.ambient.field)
    gens = tuple(
        (nm, collapse_to_one_variable(y_kill(ring_t.el(nm))))
        for nm in ("alpha", "e12", "e13", "e23"))
    return AlgebraPresentation("T0", amb, gens)


def staircase_quotient_context(ring_t, degcap):
    """Quotient of T0 (staircase_mod_y) by the two-sided ideal generated
    by e13 and e23.

    Returns (presentation of T0, quotient context, closed_degree); the
    ideal is the context's ctx.ideal.
    """
    pres = staircase_mod_y(ring_t, degcap)
    ideal, closed = two_sided_closure(
        pres, [pres.gen("e13"), pres.gen("e23")])
    return pres, QuotientContext(pres.ambient, ideal), closed
