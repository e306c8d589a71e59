"""Exact sparse linear algebra over a field.

Inside, a row is a dict {column: value} holding only its nonzero entries.
Over F_p the values are plain ints in [0, p), over Q they are Fractions;
modulus(field) names the representation (p, or None over Q), sparse_row
and dense_row convert to and from dense sequences of field elements.  One
step, _axpy (row -= c * other row, touching only the other row's
nonzeros), does all the elimination, and one helper built on it,
insert_row, grows a canonical echelon {pivot column: row} by one row.
rref, reduce_by_rref, coords_in_rref, nullspace and SpanTracker are built
on _axpy, and so is combine_rows, the one place that forms linear
combinations of dense rows for callers.

The echelon insert_row keeps is the canonical reduced row echelon form
(pivot entries 1, pivot columns cleared), which is what makes Subspace
equality a plain tuple comparison.  That form is unique for the row space,
so it does not depend on the order of elimination or of insertion.  rref
returns it as dense rows sorted by pivot, holding the field's own zero
object in every zero position.
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


def combine_rows(coeffs, rows, ncols, field):
    """sum coeffs[i] * rows[i] as a dense list of ncols field elements.

    Only nonzero coefficients and the rows' nonzero entries are touched."""
    p = modulus(field)
    zero = field.zero
    acc = {}
    for c, row in zip(coeffs, rows):
        if c is zero or not c:
            continue
        # _axpy subtracts, so hand it -c in the kernel's representation
        _axpy(acc, -c if p is None else p - c.v, _sparse(row, zero, p), p)
    return _dense(acc, ncols, zero, p)


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


def rref(rows, field):
    """Canonical RREF.  Returns (rows, pivots), rows sorted by pivot column.

    The dense rows are inserted one at a time into an empty echelon."""
    p = modulus(field)
    zero = field.zero
    echelon = {}        # pivot column -> sparse row with 1 at the pivot
    ncols = None
    for r in rows:
        vec = _sparse(r, zero, p)
        if not vec:
            continue
        if ncols is None:
            ncols = len(r)
        insert_row(echelon, vec, p)
        if len(echelon) == ncols:
            break
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


def nullspace(rows, field):
    """Basis of {x : M x = 0} where rows are the equations of M."""
    if not rows:
        raise ValueError("nullspace needs at least the column count; pass "
                         "explicit rows (possibly zero rows)")
    ncols = len(rows[0])
    red, pivots = rref(rows, field)
    pivset = set(pivots)
    zero = field.zero
    basis = {}
    for j in range(ncols):
        if j not in pivset:
            basis[j] = [zero] * ncols
            basis[j][j] = field.one
    for row, p in zip(red, pivots):
        for j, x in enumerate(row):
            # rref's rows hold the zero object itself; the only nonzero
            # pivot-column entry of a row is its own pivot
            if x is not zero and j != p:
                basis[j][p] = -x
    return [tuple(v) for v in basis.values()]


def kernel_combos(vectors, field):
    """Combinations c with sum c_i * vectors_i = 0 (vectors as columns)."""
    if not vectors:
        return []
    ncoords = len(vectors[0])
    if ncoords == 0:
        out = []
        for i in range(len(vectors)):
            v = [field.zero] * len(vectors)
            v[i] = field.one
            out.append(tuple(v))
        return out
    rows = [[v[i] for v in vectors] for i in range(ncoords)]
    return nullspace(rows, field)


class SpanTracker:
    """Incremental span with expression of members as tagged combinations.

    add() keeps rows forward-reduced (leading column unique per row), so
    express() can read off the combination while reducing.  Rows and
    combinations are sparse and hold the kernel's values (ints mod p over
    F_p); express() hands back field elements.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self._p = modulus(field)
        self.rows = {}      # leading column -> (sparse row, sparse combo)

    def _reduce(self, vec, combo):
        """Reduce vec and its combo in place, lowest column first, until
        the leading column is not held; returns it (None when vec is 0)."""
        p = self._p
        while vec:
            lead = min(vec)
            held = self.rows.get(lead)
            if held is None:
                return lead
            row, rcombo = held
            c = vec[lead]
            _axpy(vec, c, row, p)
            _axpy(combo, c, rcombo, p)
        return None

    def add(self, vec, tag):
        """Insert a tagged vector; True if it enlarged the span."""
        p = self._p
        vec = _sparse(vec, self.field.zero, p)
        combo = {tag: 1 if p else self.field.one}
        lead = self._reduce(vec, combo)
        if lead is None:
            return False
        c = vec[lead]
        self.rows[lead] = (_normalize(vec, c, p), _normalize(combo, c, p))
        return True

    def express(self, vec):
        """{tag: coeff} with vec = sum coeff * tagged vector, or None."""
        p = self._p
        combo = {}
        if self._reduce(_sparse(vec, self.field.zero, p), combo) is not None:
            return None
        if p is None:
            return {t: -c for t, c in combo.items()}
        return {t: FpElement(p, -c) for t, c in combo.items()}

    @property
    def dim(self):
        return len(self.rows)
