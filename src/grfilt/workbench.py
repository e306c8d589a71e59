"""Catalog of the worked example rings and their structural checks.

The catalog is a table of presentations, one row per ring: a generator
builder and its argument, the series flag, the default degree cap, the
description and the shape predicate, what the generators are supposed
to span in each degree (tests confirm the two views agree on truncated
windows).  _triangular builds alpha = diag(x, x^2) with a corner x^k e12
(R_2x2, R_perturbed, R_prime, R_hat) or without one (C_diag);
_staircase adds y-multiples over k[x,y] (S, T).  make sizes a
polynomial row's cap from its generators and a depth.

Series-mode entries model the x-adically truncated ring: an ambient with
series=True and degree cap d is M_n(k[x]/(x^(d+1))), so products reduce
modulo x^(d+1) by ring structure rather than by silent truncation.
"""

from functools import partial
from itertools import islice

from .fields import QQ
from .linalg import Echelon, grow, joint_row, split_joint
from .linspace import Ambient, QuotientContext
from .filtration import (AlgebraPresentation, standard_filtration,
                         two_sided_closure, WindowExceeded)
from .poly import Poly, PolyMatrix
from .record import Record, OK, FAIL


def _matrix(n, entries):
    """The n x n matrix with the given {(i, j): polynomial} entries and 0
    elsewhere."""
    p = next(iter(entries.values()))
    z = Poly.zero(p.field, p.arity)
    return PolyMatrix([[entries.get((i, j), z) for j in range(n)]
                       for i in range(n)])


def _y0_part(p):
    """Terms of a two-variable polynomial with no y factor."""
    return Poly(p.field, p.arity,
                {e: c for e, c in p.terms.items() if e[1] == 0})


def _sub_x_squared(p, series_cap=None):
    q = p.dilate(2)
    return q if series_cap is None else q.truncate(series_cap)


def _x_power(j):
    """x^j as an element's name spells it: "", "x", "x2", ..."""
    return "x" * j if j < 2 else f"x{j}"


def _triangular(field, row):
    """alpha = diag(x, x^2) and the corner generator x^k e12, k = row.arg,
    or alpha alone, named c, when row.arg is None.  The elements add e12,
    also named beta, and in a polynomial window x^j e12 for j up to
    k + 1, one degree past the corner generator."""
    x, k = Poly.variable(field, 1, 0), row.arg
    alpha = _matrix(2, {(0, 0): x, (1, 1): x * x})
    if k is None:
        return (("c", alpha),), {"c": alpha}
    xj = [Poly.const(field, 1, field.one)]
    while len(xj) <= k + (not row.series):
        xj.append(xj[-1] * x)
    units = [_matrix(2, {(0, 1): p}) for p in xj]
    gens = (("alpha", alpha), (_x_power(k) + "beta", units[k]))
    return gens, {"alpha": alpha, "beta": units[0],
                  **{_x_power(j) + "e12": u for j, u in enumerate(units)}}


def _staircase(field, row):
    """The n x n staircase over k[x,y], n = row.arg: alpha = diag(x, x^2,
    x, ...), the strictly upper units (the 2x2 one named beta, as in R)
    and every y e_ij.  Its elements are its generators."""
    n = row.arg
    x, y = Poly.variable(field, 2, 0), Poly.variable(field, 2, 1)
    one = Poly.const(field, 2, field.one)
    alpha = _matrix(n, {(i, i): x * x if i == 1 else x for i in range(n)})
    upper = [("beta", _matrix(2, {(0, 1): one}))] if n == 2 else [
        (f"e{i + 1}{j + 1}", _matrix(n, {(i, j): one}))
        for i in range(n) for j in range(i + 1, n)]
    gens = (("alpha", alpha), *upper,
            *((f"ye{i + 1}{j + 1}", _matrix(n, {(i, j): y}))
              for i in range(n) for j in range(n)))
    return gens, dict(gens)


def _shape_triangular(amb, mat, corner=True):
    """Membership in {[[f(x), g(x)], [0, f(x^2)]]}; without corner, g is
    0 as well."""
    if not mat.entry(1, 0).is_zero():
        return False
    if not (corner or mat.entry(0, 1).is_zero()):
        return False
    cap = amb.degcap if amb.series else None
    f = mat.entry(0, 0)
    d = mat.entry(1, 1).truncate(cap) if cap is not None else mat.entry(1, 1)
    return d == _sub_x_squared(f, cap)


def _shape_staircase(amb, mat):
    """The y-free part is upper triangular, with diagonal f(x) except
    f(x^2) at index 1, as in alpha; y-multiples are free everywhere."""
    m = y_kill(mat)
    f = m.entry(0, 0)
    return (all(m.entry(i, j).is_zero()
                for i in range(amb.n) for j in range(i))
            and all(m.entry(i, i) == (_sub_x_squared(f) if i == 1 else f)
                    for i in range(1, amb.n)))


class _Row(Record):
    """build(field, row) gives the generators and named elements; the
    ambient's size and variables are the generators', and shape(ambient,
    mat) is the membership predicate."""
    fields = ("build", "arg", "series", "cap", "shape", "description")


_TABLE = {
    "R_2x2": _Row(
        _triangular, 0, False, 12, _shape_triangular,
        "triangular subring {[[f(x), g(x)], [0, f(x^2)]]} of M_2(k[x]); "
        "generators alpha = diag(x, x^2) and beta = e12"),
    "R_perturbed": _Row(
        _triangular, 1, False, 12, _shape_triangular,
        "same shape with the nilpotent generator moved up one degree: "
        "generators alpha and x*e12; misses the constant at e12"),
    "S": _Row(
        _staircase, 2, False, 6, _shape_staircase,
        "two-variable thickening: triangular x-shape plus y*M_2(k[x,y])"),
    "T": _Row(
        _staircase, 3, False, 6, _shape_staircase,
        "3x3 staircase: diag(f(x), f(x^2), f(x)) plus free upper triangle "
        "over k[x], plus y*M_3(k[x,y])"),
    "R_prime": _Row(
        _triangular, 0, True, 9, _shape_triangular,
        "triangular ring localized at the ideal (alpha, beta)"),
    "R_hat": _Row(_triangular, 0, True, 9, _shape_triangular,
                  "triangular ring x-adically completed"),
    "C_diag": _Row(
        _triangular, None, False, 12,
        partial(_shape_triangular, corner=False),
        "commutative diagonal subring {diag(c(x), c(x^2))}, isomorphic to "
        "k[x]; the triangular ring is module-finite over it"),
}
# R_perturbed is the dualizing chain's control, built by name only
CATALOG = tuple(name for name in _TABLE if name != "R_perturbed")
SERIES_RINGS = tuple(name for name, row in _TABLE.items() if row.series)


class ExampleRing(Record):
    """A built catalog ring.  Its name and ambient are its presentation's,
    so a renamed copy is ring.replace(pres=ring.pres.replace(name=...)).
    shape is its table row's rule, so a ring equals itself rebuilt."""
    fields = ("pres", "description", "elements", "shape")

    name = property(lambda self: self.pres.name)
    ambient = property(lambda self: self.pres.ambient)

    def el(self, name):
        return self.elements[name]

    def shape_member(self, mat):
        return self.shape(self.ambient, mat)


def make(name, degcap=None, field=QQ, depth=None, slack=2):
    """Build a catalog ring from its row, at degcap when given.  Else a
    depth sizes a polynomial window for depth-n layers, which hold words
    of n generators: n times the top degree of the generators just
    built, plus slack, or the products overflow.  Series windows
    truncate instead, so a series row keeps its own cap, as does every
    row built without a depth."""
    if name not in _TABLE:
        raise KeyError(f"unknown example ring {name!r}; "
                       f"catalog: {', '.join(CATALOG)} (+ R_perturbed)")
    row = _TABLE[name]
    gens, elements = row.build(field, row)
    cap = (degcap if degcap is not None else
           row.cap if depth is None or row.series else
           max(g.degree() for _, g in gens) * depth + slack)
    first = gens[0][1]
    amb = Ambient(first.n, first.arity, cap, field, series=row.series)
    description = row.description + (
        f", modeled as the finite quotient over k[x]/(x^{cap + 1})"
        if row.series else "")
    return ExampleRing(AlgebraPresentation(name, amb, gens), description,
                       elements, row.shape)


# ---------------------------------------------------------------- op twist

def op_transpose(mat):
    """Antidiagonal transpose tau(M)[i][j] = M[n-1-j][n-1-i].

    tau is an anti-automorphism of the full matrix ring; what is specific
    to a subring is whether tau maps it into itself.
    """
    n = mat.n
    return PolyMatrix([[mat.entry(n - 1 - j, n - 1 - i) for j in range(n)]
                       for i in range(n)])


class OpInvolutionReport(dict):
    """op_involution_report's payload; passes when both checks hold."""
    decision = property(lambda self: OK if self["shape_preserved"]
                        and self["anti_multiplicative"] else FAIL)


def op_involution_report(ring):
    """Check tau preserves the shape on all words of length <= 3 and
    reverses products on all generator pairs.  The words span the
    standard layer Gamma_3 and the shape and tau are linear, so the
    shape is checked on its basis; words_checked counts the words."""
    gens = ring.pres.gen_mats()
    layer = standard_filtration(ring.pres, 3).layer(3)
    shape_ok = all(ring.shape_member(op_transpose(m))
                   for m in layer.basis_matrices())
    anti_ok = all(op_transpose(a * b) == op_transpose(b) * op_transpose(a)
                  for a in gens for b in gens)
    return OpInvolutionReport(
        shape_preserved=shape_ok, anti_multiplicative=anti_ok,
        words_checked=sum(len(gens) ** k for k in range(4)))


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
    decision = property(lambda self: OK if self.consistent else FAIL)


def quotient_iso_check(ctx_a, ctx_b, pairs, max_len=4):
    """Does elt_a -> elt_b extend to an algebra isomorphism of word spans?

    A and B are quotient rings given by their QuotientContexts, whose mul
    multiplies canonical representatives; a plain ring is its quotient by
    zero_space.  The span of the joint kernel rows (value in A
    concatenated with value in B) of the words of length <= max_len in
    the generator pairs, given as matrices, is max_len rounds of
    linalg.grow from the unit's row: each round multiplies only the rows
    the round before added, each half in its own quotient.  A word
    overflows the degree cap exactly when some such row does.
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

    def step(row):
        a, b = split_joint(row, width)
        return (joint_row(ctx_a.mul(a, ga), ctx_b.mul(b, gb), width)
                for ga, gb in pairs)
    rounds = grow(Echelon(p, [joint_row(one_a, one_b, width)]), step)
    echelon = next(islice(rounds, max_len - 1, None))   # round max_len
    dim_a = sum(q < width for q in echelon)
    dim_b = len(Echelon(
        p, (split_joint(r, width)[1] for r in echelon.values())))
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

    Returns (presentation of T0, quotient context); the ideal is the
    context's ctx.ideal, exact through pres.closed_degree.
    """
    pres = staircase_mod_y(ring_t, degcap)
    return pres, QuotientContext(two_sided_closure(
        pres, [pres.gen("e13"), pres.gen("e23")]))
