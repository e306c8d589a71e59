"""Coordinatized truncations of matrix-polynomial rings, with canonical
subspace arithmetic.

An Ambient fixes n, the number of variables, a degree cap, and the field.
Coordinates are (matrix entry, monomial) pairs ordered degree-major: total
degree first, then graded-lex on the exponent, then entry position.  With
that order "all elements of degree <= m" is a coordinate prefix, which keeps
degree filtrations nested by construction and makes greedy lowest-degree
searches canonical.

Subspaces store their reduced-row-echelon basis; two subspaces are equal iff
the stored bases are identical tuples.

Degree-cap overflow is a hard error in polynomial mode.  In series mode the
ambient is the quotient ring modulo all monomials of degree > degcap, so
products reduce instead of erroring; that is the ring structure, not silent
truncation.
"""

from .fields import QQ
from .linalg import (combine_rows, kernel_combos, rref, reduce_by_rref,
                     coords_in_rref)
from .poly import Poly, PolyMatrix


class Inconclusive(Exception):
    """The window is too small to decide: raise the depth or the degree
    cap.  Never a verdict that the statement is false."""


class DegreeOverflowError(Inconclusive):
    pass


class ContainmentError(Exception):
    pass


def _monomials(arity, degcap):
    if arity == 1:
        return [(d,) for d in range(degcap + 1)]
    out = []
    for total in range(degcap + 1):
        for a in range(total + 1):
            out.append((a, total - a))
    out.sort(key=lambda e: (sum(e), e))
    return out


class Ambient:
    def __init__(self, n, arity, degcap, field=QQ, series=False):
        if arity not in (1, 2):
            raise ValueError("arity must be 1 or 2")
        self.n = n
        self.arity = arity
        self.degcap = degcap
        self.field = field
        self.series = series
        self.monomials = _monomials(arity, degcap)
        self.coords = [(e, i, j)
                       for e in self.monomials
                       for i in range(n) for j in range(n)]
        self.index = {c: k for k, c in enumerate(self.coords)}
        self.dim = len(self.coords)
        self._prefix = {}
        running = 0
        deg = 0
        for k, (e, i, j) in enumerate(self.coords):
            while sum(e) > deg:
                self._prefix[deg] = running
                deg += 1
            running = k + 1
        self._prefix[deg] = running

    def key(self):
        return (self.n, self.arity, self.degcap, self.field, self.series)

    def __eq__(self, other):
        return isinstance(other, Ambient) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        tag = "series" if self.series else "poly"
        return (f"Ambient(M_{self.n}(k[{'x' if self.arity == 1 else 'x,y'}])"
                f", degcap={self.degcap}, {self.field.name}, {tag})")

    def prefix_dim(self, maxdeg):
        """Number of coordinates of total degree <= maxdeg."""
        if maxdeg < 0:
            return 0
        return self._prefix[min(maxdeg, self.degcap)]

    def one(self):
        return PolyMatrix.identity(self.n, self.arity, self.field.one)

    def encode(self, mat):
        if mat.n != self.n or mat.arity != self.arity:
            raise ValueError("matrix does not live in this ambient")
        if self.series:
            mat = mat.truncate(self.degcap)
        vec = [self.field.zero] * self.dim
        for i in range(self.n):
            for j in range(self.n):
                for e, c in mat.entry(i, j).terms.items():
                    k = self.index.get((e, i, j))
                    if k is None:
                        raise DegreeOverflowError(
                            f"monomial {e} at entry ({i},{j}) exceeds "
                            f"degcap {self.degcap}")
                    vec[k] = c
        return tuple(vec)

    def decode(self, vec):
        entries = [[{} for _ in range(self.n)] for _ in range(self.n)]
        for k, c in enumerate(vec):
            if c:
                e, i, j = self.coords[k]
                entries[i][j][e] = c
        return PolyMatrix([[Poly(self.arity, entries[i][j])
                            for j in range(self.n)] for i in range(self.n)])

    def mul(self, a, b):
        c = a * b
        if self.series:
            return c.truncate(self.degcap)
        if c.degree() > self.degcap:
            raise DegreeOverflowError(
                f"product degree {c.degree()} exceeds degcap {self.degcap}")
        return c


class PolyTupleSpace:
    """Coordinate space for r-tuples of one-variable polynomials.

    Duck-types the parts of Ambient that Subspace needs, with the same
    degree-major coordinate order, so degree windows stay coordinate
    prefixes.  Used for Hom-module elements (tuples of coefficients over a
    commutative coefficient ring identified with k[x])."""

    def __init__(self, r, degcap, field=QQ):
        self.r = r
        self.degcap = degcap
        self.field = field
        self.series = False
        self.coords = [((d,), i, 0)
                       for d in range(degcap + 1) for i in range(r)]
        self.index = {(d, i): k
                      for k, ((d,), i, _) in enumerate(self.coords)}
        self.dim = (degcap + 1) * r

    def key(self):
        return ("tuples", self.r, self.degcap, self.field)

    def __eq__(self, other):
        return isinstance(other, PolyTupleSpace) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return (f"PolyTupleSpace(r={self.r}, degcap={self.degcap}, "
                f"{self.field.name})")

    def prefix_dim(self, maxdeg):
        if maxdeg < 0:
            return 0
        return (min(maxdeg, self.degcap) + 1) * self.r

    def encode(self, polys):
        if len(polys) != self.r:
            raise ValueError(f"expected a {self.r}-tuple")
        vec = [self.field.zero] * self.dim
        for i, p in enumerate(polys):
            if p.arity != 1:
                raise ValueError("tuple entries must be one-variable")
            for (d,), c in p.terms.items():
                if d > self.degcap:
                    raise DegreeOverflowError(
                        f"degree {d} exceeds tuple-space cap {self.degcap}")
                vec[self.index[(d, i)]] = c
        return tuple(vec)

    def decode(self, vec):
        terms = [{} for _ in range(self.r)]
        for k, c in enumerate(vec):
            if c:
                (d,), i, _ = self.coords[k]
                terms[i][(d,)] = c
        return tuple(Poly(1, t) for t in terms)


class Subspace:
    """Canonical subspace of an ambient coordinate space."""

    def __init__(self, ambient, rows, pivots):
        self.ambient = ambient
        self.rows = tuple(tuple(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, ambient, vectors):
        rows, pivots = rref(list(vectors), ambient.field)
        return cls(ambient, rows, pivots)

    @classmethod
    def from_matrices(cls, ambient, mats):
        return cls.from_vectors(ambient, [ambient.encode(m) for m in mats])

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        return reduce_by_rref(vec, self.rows, self.pivots)

    def member_vec(self, vec):
        return not any(self.reduce(vec))

    def member(self, mat):
        return self.member_vec(self.ambient.encode(mat))

    def coords_of(self, vec):
        return coords_in_rref(vec, self.rows, self.pivots)

    def contains(self, other):
        if other.ambient != self.ambient:
            raise ValueError("subspaces live in different ambients")
        return all(self.member_vec(r) for r in other.rows)

    def basis_matrices(self):
        return [self.ambient.decode(r) for r in self.rows]

    def maxdeg(self):
        """Largest total degree appearing in any basis vector (-1 if zero)."""
        best = -1
        for r in self.rows:
            for k in range(len(r) - 1, -1, -1):
                if r[k]:
                    best = max(best, sum(self.ambient.coords[k][0]))
                    break
        return best

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.ambient == self.ambient
                and other.rows == self.rows)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient!r})"


def span(ambient, mats):
    return Subspace.from_matrices(ambient, mats)


def zero_space(ambient):
    return Subspace(ambient, [], [])


def sum_spaces(u, v):
    _match(u, v)
    return Subspace.from_vectors(u.ambient, list(u.rows) + list(v.rows))


def intersect(u, v):
    """Zassenhaus intersection of two subspaces."""
    _match(u, v)
    d = u.ambient.dim
    zero = u.ambient.field.zero
    joint = [list(r) + list(r) for r in u.rows]
    joint += [list(r) + [zero] * d for r in v.rows]
    red, _ = rref(joint, u.ambient.field)
    vecs = [r[d:] for r in red if not any(r[:d])]
    return Subspace.from_vectors(u.ambient, vecs)


def subspace_product(u, v):
    """Span of all pairwise products of basis elements."""
    _match(u, v)
    amb = u.ambient
    mats_u = u.basis_matrices()
    mats_v = v.basis_matrices()
    prods = [amb.mul(a, b) for a in mats_u for b in mats_v]
    return span(amb, prods)


def quotient_dim(u, v):
    """dim(u/v); v must be contained in u."""
    _match(u, v)
    if not u.contains(v):
        raise ContainmentError("quotient_dim: second space not inside first")
    return u.dim - v.dim


def prefix_space(ambient, maxdeg):
    """All matrices with entries of total degree <= maxdeg."""
    k = ambient.prefix_dim(maxdeg)
    zero, one = ambient.field.zero, ambient.field.one
    rows = []
    for idx in range(k):
        r = [zero] * ambient.dim
        r[idx] = one
        rows.append(tuple(r))
    return Subspace(ambient, rows, list(range(k)))


def restrict_degree(u, maxdeg):
    """Subspace of elements of u with entry degrees <= maxdeg."""
    k = u.ambient.prefix_dim(maxdeg)
    if k >= u.ambient.dim:
        return u
    tails = [row[k:] for row in u.rows]
    if not any(any(t) for t in tails):
        return u
    amb = u.ambient
    combos = kernel_combos([list(t) for t in tails], amb.field)
    return Subspace.from_vectors(
        amb, [combine_rows(c, u.rows, amb.dim, amb.field) for c in combos])


def complement_section(sup, sub):
    """Canonical complement of sub inside sup (echelon section).

    Pivot columns of sub are always pivot columns of sup, so the rows of
    sup's basis with the remaining pivots span a complement.
    """
    if not sup.contains(sub):
        raise ContainmentError("section: second space not inside first")
    dead = set(sub.pivots)
    rows = [r for r, p in zip(sup.rows, sup.pivots) if p not in dead]
    pivots = [p for p in sup.pivots if p not in dead]
    return Subspace(sup.ambient, rows, pivots)


class QuotientContext:
    """Projection along an ideal: canonical representatives, image spaces,
    and reduced multiplication.  Representatives are ambient vectors with the
    ideal's pivot coordinates cleared, so images of equal cosets are equal
    vectors."""

    def __init__(self, ambient, ideal):
        if ideal.ambient != ambient:
            raise ValueError("ideal lives in a different ambient")
        self.ambient = ambient
        self.ideal = ideal

    def reduce_vec(self, vec):
        return self.ideal.reduce(vec)

    def reduce_mat(self, mat):
        return self.ambient.decode(self.reduce_vec(self.ambient.encode(mat)))

    def image(self, sub):
        return Subspace.from_vectors(
            self.ambient, [self.reduce_vec(r) for r in sub.rows])

    def mul(self, a, b):
        return self.reduce_mat(self.ambient.mul(a, b))


def _match(u, v):
    if u.ambient != v.ambient:
        raise ValueError("subspaces live in different ambients")
