"""Exact sparse linear algebra over a field.

A row is a kernel row: a dict {column: value} holding only its nonzero
entries.  The values are the field's own elements (grfilt.fields): ints
in [0, p) over F_p, lowest-form ints or Fractions over Q; field.p, None
over Q, says which, and every Echelon carries its own.  Kernel rows are
the one row format between grfilt's modules.  One step, _axpy (row -=
c * other row, touching only the other row's nonzeros, and keeping the
form), does all the elimination, and one engine built on it, Echelon, is
a canonical echelon {pivot column: row} that grows by one row with
insert and reduces a row with reduce.  Every echelon is an Echelon built
by insertion, so the type owns the invariant; combine_rows forms the
combination sum c * rows[i] of a coefficient row {i: c}.  grow runs the
one growth rule for every span grown round by round by products: each
round inserts the images of only the rows the round before added, the
new_rows of one echelon over another.  SpanTracker is the same echelon
with one more column per tag: the row added under a tag is held as (row,
unit at the tag's column), so reducing a member leaves minus its
combination in the tag columns.  Kernel rows are values: no function
changes a row it did not just make, so callers and echelons share rows
freely and none copies a row to protect it.

joint_kernel is the one kernel route: it inserts the joint rows (a_i,
b_i), split one past the last column of any a_i, into one Echelon and
reads the canonical echelon of {sum c_i b_i : sum c_i a_i = 0} off the
rows whose pivot lies in the second part.  joint_row and split_joint know
the joint-row layout; SpanTracker's tag columns are the one other place
that writes it, by hand.

The echelon an Echelon keeps is the canonical reduced row echelon form
(pivot entries 1, pivot columns cleared), which is what makes Subspace
equality a plain comparison.  That form is unique for the row space, so
it does not depend on the order of elimination or of insertion.

Dense rows (sequences of field elements, field.zero in every zero
position) enter and leave only through sparse_row and dense_row.  rref,
the dense face of Echelon, returns dense rows sorted by pivot;
reduce_by_rref and coords_in_rref query them, and kernel_rows,
kernel_combos and nullspace are dense faces of joint_kernel.
"""

from fractions import Fraction

from .fields import lowest


def sparse_row(row, field):
    """A dense row of field elements as a kernel row {col: value}.

    Entries that are field.zero itself, most of them, are skipped; every
    other value goes through field.of, so it leaves in the field's own
    form, and one that is zero there is dropped."""
    zero, of = field.zero, field.of
    pairs = ((j, of(x)) for j, x in enumerate(row) if x is not zero)
    return {j: x for j, x in pairs if x}


def dense_row(row, ncols, field):
    """A kernel row as a dense list of ncols field elements."""
    out = [field.zero] * ncols
    for j, v in row.items():
        out[j] = v
    return out


def _axpy(vec, c, row, p):
    """vec -= c * row in place; entries that cancel are dropped.

    A column missing from vec cannot cancel (c and the row's entries are
    nonzero), so del only ever meets a present key."""
    get = vec.get
    if p is None:
        for j, b in row.items():
            s = get(j, 0) - c * b
            if s:
                vec[j] = s if s.__class__ is int else lowest(s)
            else:
                del vec[j]
    else:
        for j, b in row.items():
            s = (get(j, 0) - c * b) % p
            if s:
                vec[j] = s
            else:
                del vec[j]


def _normalize(vec, c, p):
    """vec scaled by 1/c (c nonzero), as a new dict."""
    if p:
        inv = pow(c, -1, p)
        return {j: v * inv % p for j, v in vec.items()}
    if c == -1:
        return {j: -v for j, v in vec.items()}
    inv = Fraction(1, c)
    return {j: lowest(v * inv) for j, v in vec.items()}


def combine_rows(coeffs, rows, p):
    """The kernel row sum c * rows[i] over the entries i: c of coeffs.

    coeffs is a kernel row (its values nonzero); rows is indexed by its
    keys, a list or a dict, and only the rows it names are read."""
    acc = {}
    for i, c in coeffs.items():
        _axpy(acc, -c, rows[i], p)
    return acc


class Echelon(dict):
    """The canonical echelon {pivot: row} of the kernel rows inserted
    into it, over the field of p (None over Q); readers see a plain dict.

    insert is Gauss-Jordan: it reduces the row, scales it to 1 at its
    lowest column and replaces each held row meeting that column by a
    copy with it cleared.  A held row changes only by reduction against
    an inserted row, so cols, the columns of the rows inserted, covers
    every held row, and the clearing scan runs only when the new pivot
    lies in cols: never, when the rows inserted are already canonical."""

    __slots__ = ("p", "cols")

    def __init__(self, p, rows=()):
        self.p = p
        self.cols = set()
        for row in rows:
            self.insert(row)

    def copy(self):
        """A new Echelon sharing the rows, with its own cols."""
        out = Echelon(self.p)
        out.update(self)
        out.cols = set(self.cols)
        return out

    def reduce(self, vec):
        """vec modulo the echelon: vec itself when no pivot column meets
        it, else a new row.

        One pass over the pivot columns vec starts with suffices: entries
        of vec at pivot columns do not change while reducing, because
        every held row is zero at every other pivot column."""
        hits = [j for j in vec if j in self]
        out = dict(vec) if hits else vec
        for j in hits:
            _axpy(out, vec[j], self[j], self.p)
        return out

    def insert(self, vec):
        """Insert the kernel row vec; True if it enlarged the span."""
        vec = self.reduce(vec)
        if not vec:
            return False
        p, lead = self.p, min(vec)
        if vec[lead] != 1:
            vec = _normalize(vec, vec[lead], p)
        if lead in self.cols:
            for q in [q for q, held in self.items() if lead in held]:
                held = dict(self[q])
                _axpy(held, held[lead], vec, p)
                self[q] = held
        self.cols.update(vec)
        self[lead] = vec
        return True


def new_rows(echelon, before):
    """The new part of echelon over before: its rows whose pivots before
    lacks, a canonical echelon's rows.  With before's span inside
    echelon's, these rows and before span echelon's."""
    return [row for q, row in echelon.items() if q not in before]


def grow(echelon, step):
    """The rounds of growth from an echelon: each yields a fresh echelon,
    the one before with step(row) inserted for each of its new_rows over
    the one before that (every row, in the first round).

    With step row -> row G, round n from Gamma_0 is Gamma_n = Gamma_{n-1}
    + C_{n-1} G, since Gamma_{n-2} G lies in Gamma_{n-1}.  A step whose
    part past a degree cap is linear in the row overflows on some new
    row whenever it would on the span, so rounds fail where a rebuild
    would."""
    before = {}
    while True:
        cur = echelon.copy()
        for row in new_rows(echelon, before):
            for out in step(row):
                cur.insert(out)
        before, echelon = echelon, cur
        yield echelon


def rref(rows, field):
    """Canonical RREF of a list of dense rows, inserted until ncols
    pivots are held.  Returns (rows, pivots), sorted by pivot column."""
    ncols = len(rows[0]) if rows else 0
    echelon = Echelon(field.p)
    for r in rows:
        echelon.insert(sparse_row(r, field))
        if len(echelon) == ncols:
            break
    pivots = sorted(echelon)
    return ([tuple(dense_row(echelon[j], ncols, field)) for j in pivots],
            pivots)


def _residual(vec, rows, pivots, field):
    """Sparse residual of vec modulo canonical RREF rows."""
    res = sparse_row(vec, field)
    for row, q in zip(rows, pivots):
        # rows are zero at each other's pivots, so res[q] is still vec[q]
        c = res.get(q)
        if c is not None:
            _axpy(res, c, sparse_row(row, field), field.p)
    return res


def reduce_by_rref(vec, rows, pivots, field):
    """Residual of vec modulo the row space (rows must be canonical RREF)."""
    return dense_row(_residual(vec, rows, pivots, field), len(vec), field)


def coords_in_rref(vec, rows, pivots, field):
    """Coefficients of vec over RREF rows, or None if not in the span."""
    if _residual(vec, rows, pivots, field):
        return None
    return [vec[p] for p in pivots]


def joint_row(a, b, width):
    """The kernel row (a, b): a below column width, b shifted past it."""
    row = dict(a)
    row.update((width + j, x) for j, x in b.items())
    return row


def split_joint(row, width):
    """The parts (a, b) of a joint row: the inverse of joint_row."""
    return ({j: x for j, x in row.items() if j < width},
            {j - width: x for j, x in row.items() if j >= width})


def joint_kernel(pairs, p):
    """{sum c_i b_i : sum c_i a_i = 0} for kernel-row pairs (a_i, b_i),
    as its Echelon, keyed in increasing order.

    The joint rows (a_i, b_i) go into one Echelon, split one past the
    last column of any a_i; any later split gives the same kernel.  Its
    rows with pivot at or past the split are zero in the first part, and
    their second parts are the kernel's rows, already canonical."""
    pairs = list(pairs)
    width = max((max(a) + 1 for a, _ in pairs if a), default=0)
    echelon = Echelon(p, (joint_row(a, b, width) for a, b in pairs))
    return Echelon(p, (split_joint(echelon[q], width)[1]
                       for q in sorted(echelon) if q >= width))


def kernel_rows(images, rows, field):
    """The kernel of the map sending rows[i] to images[i], as dense rows
    in canonical RREF."""
    if not rows:
        return []
    pairs = [(sparse_row(a, field), sparse_row(r, field))
             for a, r in zip(images, rows)]
    return [dense_row(r, len(rows[0]), field)
            for r in joint_kernel(pairs, field.p).values()]


def kernel_combos(vectors, field):
    """Combinations c with sum c_i * vectors_i = 0 (vectors as columns),
    as tuples: the kernel of the unit rows mapped to the vectors."""
    n = len(vectors)
    units = [[field.one if j == i else field.zero for j in range(n)]
             for i in range(n)]
    return [tuple(c) for c in kernel_rows(vectors, units, field)]


def nullspace(rows, field):
    """Basis of {x : M x = 0} where rows are the equations of M: the
    kernel combinations of the columns of M."""
    if not rows:
        raise ValueError("nullspace needs at least the column count; pass "
                         "explicit rows (possibly zero rows)")
    return kernel_combos(list(zip(*rows)), field)


class SpanTracker:
    """Incremental span of kernel rows that expresses members as tagged
    combinations.

    A tagged echelon: the row v added under the i-th tag is held as the
    row (v, e_i) of an Echelon, e_i the unit in column ncols + i.  add()
    stores a row only if something below ncols survives its reduction,
    so every pivot lies below ncols, and express(w) is one reduce of
    (w, 0), which leaves (0, -c) exactly when w = sum c_i v_i.  The held
    rows are independent, so c is unique.  Tags must be distinct.  insert
    reduces again the row add() reduced, a spare pass that finds no pivot."""

    def __init__(self, field, ncols):
        self.ncols = ncols
        self._one = field.one
        self.rows = Echelon(field.p)    # pivots below ncols
        self.tags = []      # tags[i] labels column ncols + i

    def add(self, vec, tag):
        """Insert a tagged kernel row; True if it enlarged the span."""
        row = self.rows.reduce(
            {**vec, self.ncols + len(self.tags): self._one})
        if min(row) >= self.ncols:
            return False
        self.tags.append(tag)
        return self.rows.insert(row)

    def express(self, vec):
        """{tag: coeff} with vec = sum coeff * tagged row, or None."""
        row, n, p = self.rows.reduce(vec), self.ncols, self.rows.p
        if row and min(row) < n:
            return None
        return {self.tags[j - n]: -c % p if p else -c
                for j, c in row.items()}

    @property
    def dim(self):
        return len(self.rows)
