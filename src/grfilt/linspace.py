"""Coordinatized truncations of matrix-polynomial rings and of their
tuple modules, with canonical subspace arithmetic.

Ambient is the one coordinate space.  It fixes the shape rows x n of its
matrices, the number of variables, a degree cap, and the field: the
square shape n x n is a ring, and the shape 1 x r the r-tuples over k[x]
that the dualizing chain's Hom modules live in.  Coordinates are
(monomial, matrix entry) triples (e, i, j) ordered degree-major: total
degree first, then graded-lex on the exponent, then entry position.  With
that order "all elements of degree <= m" is a coordinate prefix, which keeps
degree filtrations nested by construction and makes greedy lowest-degree
searches canonical.  Only this module knows the index layout: callers
spell terms as coordinates and read a column's back from coords.

Elements live in the linear-algebra kernel as kernel rows {index: value}.
The one constructor, row(terms), sums (coordinate, value) terms; it and
the product mul end in one window rule (values reduce mod p, terms that
cancel are dropped, and a term past the cap is handled as below).
Matrices cross in and out only where entries are read (encode_sparse, a
call to row, and decode_sparse).  The coordinate (e, i, j) is the basis
element x^e E_ij, so Ambient.mul multiplies two kernel rows of a square
ambient by index arithmetic, x^e E_ij * x^f E_jl = x^(e+f) E_il, with no
matrix built.  Subspaces store their reduced-row-echelon basis as the
kernel's sparse echelon and grow by inserting rows into a copy of it; two
subspaces are equal iff their canonical echelons are equal.

Degree-cap overflow is a hard error in polynomial mode.  In series mode the
ambient is the quotient ring modulo all monomials of degree > degcap, so
products reduce instead of erroring; that is the ring structure, not silent
truncation.
"""

from .fields import QQ
from .linalg import (dense_row, insert_row, joint_kernel, reduce_row, rref,
                     sparse_row)
from .poly import Poly, PolyMatrix


class Inconclusive(Exception):
    """The window is too small to decide: raise the depth or the degree
    cap.  Never a verdict that the statement is false."""


class DegreeOverflowError(Inconclusive):
    pass


class ContainmentError(Exception):
    pass


def _monomials(arity, degcap):
    """Exponents of total degree <= degcap, by degree, then graded-lex."""
    if arity == 1:
        return [(d,) for d in range(degcap + 1)]
    return [(a, total - a) for total in range(degcap + 1)
            for a in range(total + 1)]


class Ambient:
    """The coordinate space of rows x n matrices over k[x] or k[x, y]
    truncated at a degree cap: the ring M_n(k[x]) when rows is n (the
    default), and the r-tuples k[x]^r when rows is 1 and n is r.

    The coordinate (e, i, j) is the basis element x^e E_ij, at column
    index[(e, i, j)]; a tuple's term x^d in slot s is ((d,), 0, s), at
    column d * r + s.  Only a square ambient has a product."""

    def __init__(self, n, arity, degcap, field=QQ, series=False, rows=None):
        if arity not in (1, 2):
            raise ValueError("arity must be 1 or 2")
        self.n = n
        self.rows = n if rows is None else rows
        self.arity = arity
        self.degcap = degcap
        self.field = field
        self.series = series
        self._p = field.p
        self.monomials = _monomials(arity, degcap)
        self.coords = [(e, i, j)
                       for e in self.monomials
                       for i in range(self.rows) for j in range(n)]
        self.index = {c: k for k, c in enumerate(self.coords)}
        self.dim = len(self.coords)
        self._prefix = [self.rows * n * sum(sum(e) <= d
                                            for e in self.monomials)
                        for d in range(degcap + 1)]
        if self.rows != n:
            return
        # mul's keys: x^e E_ij is (v n + i) n + j with v = e0 b + e1 and
        # b past every exponent sum, so the key of x^(e+f) E_il is the sum
        # of a left part (v n + i) n and a right part v(f) n^2 + l
        self._left, self._right, self._slot = [], [], {}
        for k, (e, i, j) in enumerate(self.coords):
            v = (e[0] * (2 * degcap + 1) + sum(e[1:])) * n * n
            self._left.append((j, v + i * n))
            self._right.append((i, v + j))
            self._slot[v + i * n + j] = k

    def key(self):
        return (self.n, self.arity, self.degcap, self.field, self.series,
                self.rows)

    def __eq__(self, other):
        return isinstance(other, Ambient) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        tag = "series" if self.series else "poly"
        shape = self.n if self.rows == self.n else f"{self.rows}x{self.n}"
        return (f"Ambient(M_{shape}(k[{'x' if self.arity == 1 else 'x,y'}])"
                f", degcap={self.degcap}, {self.field.name}, {tag})")

    def prefix_dim(self, maxdeg):
        """Number of coordinates of total degree <= maxdeg."""
        if maxdeg < 0:
            return 0
        return self._prefix[min(maxdeg, self.degcap)]

    def one(self):
        return PolyMatrix.identity(self.field, self.n, self.arity)

    def row(self, terms):
        """The kernel row of the terms (coordinate (e, i, j), value),
        summed, under the window rule; a coordinate outside the shape,
        or with a negative exponent, raises ValueError."""
        acc = {}
        for key, c in terms:
            acc[key] = acc.get(key, 0) + c
        for e, i, j in [key for key in acc if key not in self.index]:
            if not (0 <= i < self.rows and 0 <= j < self.n
                    and len(e) == self.arity and min(e) >= 0):
                raise ValueError(f"no coordinate {(e, i, j)} in {self!r}")
        return self._window(acc, self.index)

    def _window(self, acc, index):
        """The window rule, from summed terms {key: value} to a kernel
        row: a value reduces mod p and a term that cancels is dropped; a
        key in index lands on its coordinate, and one past the degree cap
        is dropped in series mode (the ring is the quotient by those
        monomials) and raises DegreeOverflowError in polynomial mode."""
        p, out = self._p, {}
        for key, c in acc.items():
            if p is not None:
                c %= p
            if not c:
                continue
            k = index.get(key)
            if k is not None:
                out[k] = c
            elif not self.series:
                raise DegreeOverflowError(
                    f"a term exceeds degcap {self.degcap}")
        return out

    def encode_sparse(self, mat):
        """The coordinates of mat as a kernel row {index: value}, read
        straight from its entries' terms."""
        if (mat.n != self.n or mat.arity != self.arity
                or mat.field != self.field):
            raise ValueError("matrix does not live in this ambient")
        return self.row(((e, i, j), c)
                        for i in range(self.n) for j in range(self.n)
                        for e, c in mat.entry(i, j).terms.items())

    def encode(self, mat):
        return tuple(dense_row(self.encode_sparse(mat), self.dim, self.field))

    def decode_sparse(self, row):
        """The matrix with the coordinates of a kernel row."""
        entries = [[{} for _ in range(self.n)] for _ in range(self.n)]
        for k, c in row.items():
            e, i, j = self.coords[k]
            entries[i][j][e] = c
        return PolyMatrix([[Poly(self.field, self.arity, entries[i][j])
                            for j in range(self.n)] for i in range(self.n)])

    def decode(self, vec):
        return self.decode_sparse(sparse_row(vec, self.field))

    def degree(self, row):
        """Total degree of a kernel row; -1 for the zero row.
        Coordinates are degree-major, so it is its last column's."""
        return sum(self.coords[max(row)][0]) if row else -1

    def mul(self, a, b):
        """The product of two kernel rows of a square ambient, as a new
        kernel row, by index arithmetic on the matrix-unit basis, under
        the window rule."""
        if self.rows != self.n:
            raise ValueError(f"{self!r} has no product")
        left = self._left
        right = {}
        for k, y in b.items():
            i, v = self._right[k]
            right.setdefault(i, []).append((v, y))
        acc = {}
        for k, x in a.items():
            j, u = left[k]
            for v, y in right.get(j, ()):
                acc[u + v] = acc.get(u + v, 0) + x * y
        return self._window(acc, self._slot)


class Subspace:
    """Canonical subspace of an ambient coordinate space.

    The basis is held as the kernel's canonical sparse echelon, echelon =
    {pivot: row} (see grfilt.linalg); every query reduces against it, and
    equality compares it, since it is unique for the span.  A Subspace is
    never changed once built: extend() inserts into a copy of the
    echelon.  Queries and extend take kernel rows; from_vectors, and span
    on top of it, are the one dense entry, through rref.
    """

    def __init__(self, ambient, echelon):
        self.ambient = ambient
        self.echelon = echelon
        self.pivots = tuple(sorted(echelon))
        self._p = ambient.field.p

    @classmethod
    def from_vectors(cls, ambient, vectors):
        field = ambient.field
        rows, pivots = rref(list(vectors), field)
        return cls(ambient, {q: sparse_row(r, field)
                             for q, r in zip(pivots, rows)})

    def extend(self, rows):
        """Span of this subspace and the given kernel rows (consumed),
        built by inserting them into a copy of this echelon."""
        p = self._p
        echelon = {q: dict(r) for q, r in self.echelon.items()}
        for row in rows:
            insert_row(echelon, row, p)
        return Subspace(self.ambient, echelon)

    @property
    def dim(self):
        return len(self.pivots)

    def residual(self, row):
        """A kernel row (consumed) modulo this subspace."""
        return reduce_row(row, self.echelon, self._p)

    def member(self, mat):
        return not self.residual(self.ambient.encode_sparse(mat))

    def contains(self, other):
        if other.ambient != self.ambient:
            raise ValueError("subspaces live in different ambients")
        return not any(self.residual(dict(r))
                       for r in other.echelon.values())

    def kernel(self, images, width):
        """Kernel of the map sending the i-th canonical basis row, in
        pivot order, to the kernel row images[i] (columns below width),
        read off one joint_kernel."""
        rows = joint_kernel(zip(images, map(self.echelon.get, self.pivots)),
                            width, self._p)
        return Subspace(self.ambient, {min(r): r for r in rows})

    def basis_rows(self):
        """The canonical basis in pivot order, as the echelon's own kernel
        rows: read them, never consume them."""
        return [self.echelon[q] for q in self.pivots]

    def basis_matrices(self):
        return [self.ambient.decode_sparse(self.echelon[q])
                for q in self.pivots]

    def maxdeg(self):
        """Largest total degree of a basis row (-1 if zero)."""
        return max(map(self.ambient.degree, self.echelon.values()),
                   default=-1)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and other.ambient == self.ambient
                and other.echelon == self.echelon)

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient!r})"


def span(ambient, mats):
    return Subspace.from_vectors(ambient, [ambient.encode(m) for m in mats])


def zero_space(ambient):
    return Subspace(ambient, {})


def sum_spaces(u, v):
    _match(u, v)
    return u.extend(dict(r) for r in v.echelon.values())


def intersect(u, v):
    """Zassenhaus intersection of two subspaces: the kernel of the joint
    rows (r, r) for r in u and (r, 0) for r in v, whose second parts sum
    to an element of u that is also in v."""
    _match(u, v)
    pairs = [(r, r) for r in u.echelon.values()]
    pairs += [(r, {}) for r in v.echelon.values()]
    return Subspace(u.ambient, {
        min(r): r for r in joint_kernel(pairs, u.ambient.dim, u._p)})


def subspace_product(u, v):
    """Span of all pairwise products of basis elements."""
    _match(u, v)
    amb = u.ambient
    return zero_space(amb).extend(amb.mul(a, b) for a in u.basis_rows()
                                  for b in v.basis_rows())


def quotient_dim(u, v):
    """dim(u/v); v must be contained in u."""
    _match(u, v)
    if not u.contains(v):
        raise ContainmentError("quotient_dim: second space not inside first")
    return u.dim - v.dim


def prefix_space(ambient, maxdeg):
    """All matrices with entries of total degree <= maxdeg."""
    one = ambient.field.one
    return Subspace(ambient, {k: {k: one}
                              for k in range(ambient.prefix_dim(maxdeg))})


def restrict_degree(u, maxdeg):
    """Subspace of elements of u with entry degrees <= maxdeg: the kernel
    of cutting u's basis rows down to their columns of higher degree."""
    k = u.ambient.prefix_dim(maxdeg)
    tails = [{j: x for j, x in u.echelon[q].items() if j >= k}
             for q in u.pivots]
    if not any(tails):
        return u
    return u.kernel(tails, u.ambient.dim)


def complement_section(sup, sub):
    """Canonical complement of sub inside sup (echelon section).

    Pivot columns of sub are always pivot columns of sup, so the rows of
    sup's basis with the remaining pivots span a complement.
    """
    if not sup.contains(sub):
        raise ContainmentError("section: second space not inside first")
    return Subspace(sup.ambient, {q: r for q, r in sup.echelon.items()
                                  if q not in sub.echelon})


class QuotientContext:
    """Projection along an ideal: canonical representatives, image spaces,
    and reduced multiplication.  Representatives are kernel rows with the
    ideal's pivot coordinates cleared, so images of equal cosets are equal
    rows."""

    def __init__(self, ambient, ideal):
        if ideal.ambient != ambient:
            raise ValueError("ideal lives in a different ambient")
        self.ambient = ambient
        self.ideal = ideal

    def image(self, sub):
        return zero_space(self.ambient).extend(
            self.ideal.residual(dict(r)) for r in sub.echelon.values())

    def mul(self, a, b):
        """The representative of the product of two kernel rows."""
        return self.ideal.residual(self.ambient.mul(a, b))


def _match(u, v):
    if u.ambient != v.ambient:
        raise ValueError("subspaces live in different ambients")
