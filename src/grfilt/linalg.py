"""Exact sparse linear algebra over a field.

A row is a kernel row: a dict {column: value} holding only its nonzero
entries.  Over F_p the values are plain ints in [0, p), over Q they are
Fractions; modulus(field) names the representation (p, or None over Q).
Kernel rows are the one row format between grfilt's modules.  One step,
_axpy (row -= c * other row, touching only the other row's nonzeros),
does all the elimination, and one engine built on it, insert_row with
reduce_row, grows a canonical echelon {pivot column: row} by one row.
row_echelon inserts rows into an empty echelon; combine_rows forms the
combination sum c * rows[i] of a coefficient row {i: c}.  SpanTracker is
the same echelon with one more column per tag: the row added under a tag
is held as (row, unit at the tag's column), so reducing a member leaves
minus its combination in the tag columns.

joint_kernel is the one kernel route: it inserts the joint rows (a_i,
b_i) into one insert_row echelon and reads the canonical RREF of {sum c_i
b_i : sum c_i a_i = 0} off the rows whose pivot lies in the second part.

The echelon insert_row keeps is the canonical reduced row echelon form
(pivot entries 1, pivot columns cleared), which is what makes Subspace
equality a plain comparison.  That form is unique for the row space, so
it does not depend on the order of elimination or of insertion.

Dense rows (sequences of field elements, holding the field's own zero
object in every zero position) enter and leave only through sparse_row
and dense_row.  rref, the dense face of row_echelon, returns dense rows
sorted by pivot; reduce_by_rref and coords_in_rref query them, and
kernel_rows, kernel_combos and nullspace are dense faces of joint_kernel.
"""

from .fields import FpElement, PrimeField, QQ


def modulus(field):
    """The kernel's representation of field: p over F_p, None over Q."""
    return field.p if isinstance(field, PrimeField) else None


def _entry_kind(x):
    """(modulus, zero) for the field a vector entry x belongs to."""
    if isinstance(x, FpElement):
        return x.p, FpElement(x.p, 0)
    return None, QQ.zero


def _sparse(row, zero, p):
    """Nonzero entries of a dense row of field elements, as {col: value}.

    Entries that are the zero object itself are skipped before their truth
    value is asked, which is most of them."""
    if p is None:
        return {j: x for j, x in enumerate(row) if x is not zero and x}
    return {j: x.v for j, x in enumerate(row) if x is not zero and x.v}


def _dense(row, ncols, zero, p):
    out = [zero] * ncols
    if p is None:
        for j, v in row.items():
            out[j] = v
    else:
        for j, v in row.items():
            out[j] = FpElement(p, v)
    return out


def sparse_row(row, field):
    """A dense row of field elements as a kernel row {col: value}."""
    return _sparse(row, field.zero, modulus(field))


def dense_row(row, ncols, field):
    """A kernel row as a dense list of ncols field elements."""
    return _dense(row, ncols, field.zero, modulus(field))


def _axpy(vec, c, row, p):
    """vec -= c * row in place; entries that cancel are dropped.

    A column missing from vec cannot cancel (c and the row's entries are
    nonzero), so del only ever meets a present key."""
    get = vec.get
    if p is None:
        for j, b in row.items():
            s = get(j, 0) - c * b
            if s:
                vec[j] = s
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
    inv = pow(c, -1, p) if p else QQ.one / c
    if p is None:
        return {j: v * inv for j, v in vec.items()}
    return {j: v * inv % p for j, v in vec.items()}


def combine_rows(coeffs, rows, p):
    """The kernel row sum c * rows[i] over the entries i: c of coeffs.

    coeffs is a kernel row (its values nonzero); rows is indexed by its
    keys, a list or a dict, and only the rows it names are read."""
    acc = {}
    for i, c in coeffs.items():
        _axpy(acc, -c, rows[i], p)
    return acc


def reduce_row(vec, echelon, p):
    """vec modulo a canonical echelon {pivot: row}, in place; returns vec.

    One pass over the pivot columns vec starts with suffices: entries of
    vec at pivot columns do not change while reducing, because every held
    row is zero at every other pivot column."""
    for j in [j for j in vec if j in echelon]:
        _axpy(vec, vec[j], echelon[j], p)
    return vec


def insert_row(echelon, vec, p):
    """Insert the kernel row vec (consumed) into the canonical echelon
    {pivot: row}, in place.  True if it enlarged the span.

    Gauss-Jordan: vec is reduced against the held rows, scaled to 1 at
    its lowest column, and that column is cleared from the held rows, so
    the echelon stays fully reduced and needs one pass per insertion."""
    reduce_row(vec, echelon, p)
    if not vec:
        return False
    lead = min(vec)
    if vec[lead] != 1:
        vec = _normalize(vec, vec[lead], p)
    for held in echelon.values():
        c = held.get(lead)
        if c is not None:
            _axpy(held, c, vec, p)
    echelon[lead] = vec
    return True


def row_echelon(rows, p, ncols=None):
    """The canonical echelon {pivot: row} of the kernel rows (consumed),
    inserted one at a time; insertion stops once ncols pivots are held,
    so len() of it is the rank."""
    echelon = {}
    for vec in rows:
        insert_row(echelon, vec, p)
        if len(echelon) == ncols:
            break
    return echelon


def rref(rows, field):
    """Canonical RREF of a list of dense rows.  Returns (rows, pivots),
    rows sorted by pivot column."""
    p = modulus(field)
    zero = field.zero
    ncols = len(rows[0]) if rows else 0
    echelon = row_echelon((_sparse(r, zero, p) for r in rows), p, ncols)
    pivots = sorted(echelon)
    return [tuple(_dense(echelon[j], ncols, zero, p)) for j in pivots], pivots


def _residual(vec, rows, pivots):
    """Sparse residual of vec modulo canonical RREF rows, with the modulus
    and zero object of vec's field."""
    p, zero = _entry_kind(vec[0]) if len(vec) else (None, QQ.zero)
    res = _sparse(vec, zero, p)
    for row, q in zip(rows, pivots):
        # rows are zero at each other's pivots, so res[q] is still vec[q]
        c = res.get(q)
        if c is not None:
            _axpy(res, c, _sparse(row, zero, p), p)
    return res, p, zero


def reduce_by_rref(vec, rows, pivots):
    """Residual of vec modulo the row space (rows must be canonical RREF)."""
    res, p, zero = _residual(vec, rows, pivots)
    return _dense(res, len(vec), zero, p)


def coords_in_rref(vec, rows, pivots):
    """Coefficients of vec over RREF rows, or None if not in the span."""
    if _residual(vec, rows, pivots)[0]:
        return None
    return [vec[p] for p in pivots]


def joint_row(a, b, width):
    """The kernel row (a, b): a below column width, b shifted past it."""
    row = dict(a)
    row.update((width + j, x) for j, x in b.items())
    return row


def joint_kernel(pairs, width, p):
    """{sum c_i b_i : sum c_i a_i = 0} for kernel-row pairs (a_i, b_i),
    every a_i below column width, as its canonical RREF sorted by pivot.

    The joint rows (a_i, b_i shifted by width) go into one insert_row
    echelon; its rows with pivot at or past width are zero in the first
    part, and their second parts span the kernel, fully reduced."""
    echelon = row_echelon((joint_row(a, b, width) for a, b in pairs), p)
    return [{j - width: x for j, x in echelon[q].items()}
            for q in sorted(echelon) if q >= width]


def kernel_rows(images, rows, field):
    """The kernel of the map sending rows[i] to images[i], as dense rows
    in canonical RREF."""
    if not rows:
        return []
    pairs = [(sparse_row(a, field), sparse_row(r, field))
             for a, r in zip(images, rows)]
    return [dense_row(r, len(rows[0]), field)
            for r in joint_kernel(pairs, len(images[0]), modulus(field))]


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
    row (v, e_i) of an insert_row echelon, e_i the unit in column
    ncols + i.  add() stores a row only if something below ncols survives
    its reduction, so every pivot lies below ncols, and express(w) is one
    reduce_row of (w, 0), which leaves (0, -c) exactly when w = sum c_i
    v_i.  The held rows are independent, so c is unique.  Tags must be
    distinct; add and express leave their argument as it was, and
    express() hands back field elements.
    """

    def __init__(self, field, ncols):
        self.ncols = ncols
        self._p = modulus(field)
        self._one = 1 if self._p else field.one
        self.rows = {}      # pivot column (< ncols) -> tagged kernel row
        self.tags = []      # tags[i] labels column ncols + i

    def add(self, vec, tag):
        """Insert a tagged kernel row; True if it enlarged the span."""
        p = self._p
        row = dict(vec)
        row[self.ncols + len(self.tags)] = self._one
        if min(reduce_row(row, self.rows, p)) >= self.ncols:
            return False
        self.tags.append(tag)
        insert_row(self.rows, row, p)
        return True

    def express(self, vec):
        """{tag: coeff} with vec = sum coeff * tagged row, or None."""
        p = self._p
        row = reduce_row(dict(vec), self.rows, p)
        n = self.ncols
        if row and min(row) < n:
            return None
        if p is None:
            return {self.tags[j - n]: -c for j, c in row.items()}
        return {self.tags[j - n]: FpElement(p, -c) for j, c in row.items()}

    @property
    def dim(self):
        return len(self.rows)
