"""Sparse exact polynomials and square polynomial matrices.

A Poly is a sparse map from exponent vectors (length = arity, 1 or 2) to
nonzero coefficients in its field: rationals in lowest form over Q, ints
in [0, p) over F_p (see grfilt.fields).  The constructor reduces every
coefficient mod p, or to lowest form, refuses a float and drops the
zero ones, so the operators below only add and multiply and leave that
to it.  A PolyMatrix is an n x n grid of Polys of equal arity and
field.  Both are immutable value objects: every operation returns a
fresh instance and never mutates inputs, so they can be hashed, cached,
and shared freely.  Arithmetic across two fields raises TypeError.
"""


class Poly:
    __slots__ = ("field", "arity", "terms")

    def __init__(self, field, arity, terms=None):
        self.field = field
        self.arity = arity
        p = field.p
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != arity:
                    raise ValueError(f"exponent {e} has wrong arity")
                if any(k < 0 for k in e):
                    raise ValueError(f"negative exponent in {e}")
                if c.__class__ is not int:
                    c = field.of(c)
                elif p is not None:
                    c %= p
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    # -------------------------------------------------------- constructors

    @classmethod
    def zero(cls, field, arity):
        return cls(field, arity, {})

    @classmethod
    def const(cls, field, arity, c):
        return cls(field, arity, {(0,) * arity: c})

    @classmethod
    def variable(cls, field, arity, index):
        e = [0] * arity
        e[index] = 1
        return cls(field, arity, {tuple(e): field.one})

    # -------------------------------------------------------------- queries

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    # ------------------------------------------------------------ operators

    def __add__(self, other):
        self._match(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.field, self.arity, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.field, self.arity,
                    {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        self._match(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(self.field, self.arity, terms)

    def dilate(self, k):
        """f(x) -> f(x^k), any other variable left alone: the algebra map
        multiplying the first exponent of every term by k >= 1."""
        return Poly(self.field, self.arity, {(e[0] * k,) + e[1:]: c
                                             for e, c in self.terms.items()})

    def truncate(self, maxdeg):
        """Drop all terms of total degree above maxdeg."""
        return Poly(self.field, self.arity,
                    {e: c for e, c in self.terms.items() if sum(e) <= maxdeg})

    # ------------------------------------------------------------- plumbing

    def _match(self, other):
        if not isinstance(other, Poly) or other.arity != self.arity:
            raise TypeError("arity mismatch")
        if other.field != self.field:
            raise TypeError("mixed-field arithmetic")

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.arity == self.arity
                and other.field == self.field and other.terms == self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __hash__(self):
        return hash((self.field, self.arity, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        names = "xy"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.field.text(self.terms[e])
            mono = "".join(
                f"{names[i]}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e) if k)
            if not mono:
                bits.append(c)
            elif c == "1":
                bits.append(mono)
            else:
                bits.append(f"{c}*{mono}")
        return " + ".join(bits)


class PolyMatrix:
    __slots__ = ("n", "arity", "field", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("matrix must be square")
        arity, field = rows[0][0].arity, rows[0][0].field
        for r in rows:
            for p in r:
                if p.arity != arity or p.field != field:
                    raise ValueError("mixed arities or fields in matrix")
        self.n = n
        self.arity = arity
        self.field = field
        self.rows = rows

    @classmethod
    def identity(cls, field, n, arity):
        z = Poly.zero(field, arity)
        c = Poly.const(field, arity, field.one)
        return cls([[c if i == j else z for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        return self.rows[i][j]

    def __add__(self, other):
        self._match(other)
        return PolyMatrix([[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return PolyMatrix([[-p for p in r] for r in self.rows])

    def __mul__(self, other):
        self._match(other)
        n = self.n
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = Poly.zero(self.field, self.arity)
                for k in range(n):
                    p = self.rows[i][k]
                    q = other.rows[k][j]
                    if p and q:
                        acc = acc + p * q
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def degree(self):
        """Max total degree over entries; -1 for the zero matrix."""
        return max(p.degree() for r in self.rows for p in r)

    def is_zero(self):
        return all(p.is_zero() for r in self.rows for p in r)

    def _match(self, other):
        if (not isinstance(other, PolyMatrix) or other.n != self.n
                or other.arity != self.arity):
            raise TypeError("matrix shape/arity mismatch")
        if other.field != self.field:
            raise TypeError("mixed-field arithmetic")

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and other.n == self.n
                and other.rows == self.rows)

    def __hash__(self):
        return hash((self.n, self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(repr(p) for p in r) for r in self.rows)
        return f"[{body}]"
