"""Independent brute-force reference computations.

Everything here is deliberately primitive: dense word enumeration, dict-based
polynomial arithmetic, and a one-pass echelon accumulator over Fraction.  The
package under test is never imported here; tests compare its answers against
these numbers, so this file has to stay dumb and self-contained.

Conventions: a polynomial is {exponent_tuple: Fraction} with no zero values,
a matrix is {(i, j): poly} with no zero polynomials, and a "word" is any
product of generator matrices.  Span dimensions are computed by feeding
coordinate vectors {(i, j, expo): Fraction} into an echelon accumulator.
"""

from fractions import Fraction

ONE = Fraction(1)


# ---------------------------------------------------------------- arithmetic

def padd(p, q):
    r = dict(p)
    for e, c in q.items():
        s = r.get(e, 0) + c
        if s:
            r[e] = s
        else:
            r.pop(e, None)
    return r


def pmul(p, q, maxdeg=None):
    r = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if maxdeg is not None and sum(e) > maxdeg:
                continue
            s = r.get(e, 0) + c1 * c2
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return r


def mmul(a, b, maxdeg=None):
    c = {}
    for (i, k), p in a.items():
        for (k2, j), q in b.items():
            if k != k2:
                continue
            r = pmul(p, q, maxdeg)
            if r:
                c[(i, j)] = padd(c.get((i, j), {}), r)
                if not c[(i, j)]:
                    del c[(i, j)]
    return c


def mat_coords(m):
    vec = {}
    for (i, j), p in m.items():
        for e, c in p.items():
            vec[(i, j, e)] = c
    return vec


def _mod(v, p):
    """An int or Fraction v as an int mod the prime p."""
    v = Fraction(v)
    return v.numerator * pow(v.denominator, -1, p) % p


class Echelon:
    """Row space accumulator keyed by arbitrary orderable coordinates,
    over Q, or over F_p when a prime p is given: values then come in as
    ints or Fractions and are held as ints mod p."""

    def __init__(self, p=None):
        self.rows = {}
        self.p = p

    def add(self, vec):
        p = self.p
        if p is None:
            vec = dict(vec)
        else:
            vec = {k: m for k, v in vec.items() if (m := _mod(v, p))}
        while vec:
            piv = max(vec)
            if piv not in self.rows:
                inv = ONE / vec[piv] if p is None else pow(vec[piv], -1, p)
                self.rows[piv] = {k: v * inv if p is None else v * inv % p
                                  for k, v in vec.items()}
                return True
            coef = vec[piv]
            for k, v in self.rows[piv].items():
                s = vec.get(k, 0) - coef * v
                if p is not None:
                    s %= p
                if s:
                    vec[k] = s
                else:
                    vec.pop(k, None)
        return False

    @property
    def dim(self):
        return len(self.rows)


def span_dim(mats):
    ech = Echelon()
    for m in mats:
        ech.add(mat_coords(m))
    return ech.dim


# ------------------------------------------------------------------- words

def identity(n, arity):
    e0 = (0,) * arity
    return {(i, i): {e0: ONE} for i in range(n)}


def words_by_length(gens, n, arity, upto, maxdeg=None):
    """Lists of all products of exactly L generators, L = 0..upto."""
    levels = [[identity(n, arity)]]
    for _ in range(upto):
        prev = levels[-1]
        levels.append([mmul(w, g, maxdeg) for w in prev for g in gens])
    return levels


def word_span_dims(gens, n, arity, upto, maxdeg=None, project=None,
                   p=None):
    """dim span(words of length <= L) for L = 0..upto, over Q, or over
    F_p when a prime p is given (the words' rational coefficients are
    reduced mod p).

    project, if given, maps a coordinate vector to another vector before
    accumulation (used for quotient dimensions).
    """
    dims = []
    ech = Echelon(p)
    level = [identity(n, arity)]
    for length in range(upto + 1):
        if length > 0:
            level = [mmul(w, g, maxdeg) for w in level for g in gens]
        for w in level:
            vec = mat_coords(w)
            if project is not None:
                vec = project(vec)
            ech.add(vec)
        dims.append(ech.dim)
    return dims


def kill_entries(entries):
    dead = set(entries)
    def project(vec):
        return {k: v for k, v in vec.items() if (k[0], k[1]) not in dead}
    return project


# ----------------------------------------------------- the 2x2 example ring

def r2x2_gens():
    alpha = {(0, 0): {(1,): ONE}, (1, 1): {(2,): ONE}}
    beta = {(0, 1): {(0,): ONE}}
    return alpha, beta


def r2x2_standard_dims(upto):
    alpha, beta = r2x2_gens()
    return word_span_dims([alpha, beta], 2, 1, upto)


def r2x2_quotient_dims(upto):
    """Images of the word spans in R/N, N = strictly upper triangular."""
    alpha, beta = r2x2_gens()
    return word_span_dims([alpha, beta], 2, 1, upto, project=kill_entries([(0, 1)]))


def r2x2_intrinsic_n_dims(upto):
    """dim(Gamma_n intersect N) by rank-nullity: dim Gamma_n - dim image."""
    full = r2x2_standard_dims(upto)
    quot = r2x2_quotient_dims(upto)
    return [f - q for f, q in zip(full, quot)]


def r2x2_left_good_dims(upto):
    """dim(Gamma_{n-1} . beta): the left module filtration from generator beta."""
    alpha, beta = r2x2_gens()
    dims = [0]
    ech = Echelon()
    level = [identity(2, 1)]
    for length in range(upto):
        if length > 0:
            level = [mmul(w, g) for w in level for g in [alpha, beta]]
        for w in level:
            ech.add(mat_coords(mmul(w, beta)))
        dims.append(ech.dim)
    return dims


def r2x2_right_good_dims(upto):
    """dim(beta . Gamma_{n-1} + alpha beta . Gamma_{n-2})."""
    alpha, beta = r2x2_gens()
    ab = mmul(alpha, beta)
    words = words_by_length([alpha, beta], 2, 1, upto)
    dims = []
    for n in range(upto + 1):
        mats = []
        for ln in range(n):
            mats += [mmul(beta, w) for w in words[ln]]
        for ln in range(max(n - 1, 0)):
            mats += [mmul(ab, w) for w in words[ln]]
        dims.append(span_dim(mats))
    return dims


def gamma1_products_dim():
    alpha, beta = r2x2_gens()
    one = identity(2, 1)
    g1 = [one, alpha, beta]
    return span_dim([mmul(u, v) for u in g1 for v in g1])


# ------------------------------------------------- truncated series version

def series_full_span(gens, n, arity, maxdeg, p=None):
    """Echelon basis of the whole truncated subalgebra (word closure),
    over Q, or over F_p when a prime p is given."""
    ech = Echelon(p)
    mats = [identity(n, arity)]
    for m in mats:
        ech.add(mat_coords(m))
    frontier = [identity(n, arity)]
    while frontier:
        new = []
        for w in frontier:
            for g in gens:
                m = mmul(w, g, maxdeg)
                if m and ech.add(mat_coords(m)):
                    new.append(m)
        frontier = new
    return ech


def rprime_madic_dims(trunc, upto):
    """[dim m^i] for i = 0..upto in the 2x2 ring over k[x]/(x^trunc).

    m is the left ideal generated by alpha, beta (verified two-sided on the
    basis closure), powers computed with truncating products.
    """
    maxdeg = trunc - 1
    alpha, beta = r2x2_gens()
    full = series_full_span([alpha, beta], 2, 1, maxdeg)
    # brute basis of the full ring as matrices, replayed from scratch:
    basis = []
    ech = Echelon()
    mats = [identity(2, 1)]
    frontier = [identity(2, 1)]
    if ech.add(mat_coords(mats[0])):
        basis.append(mats[0])
    while frontier:
        new = []
        for w in frontier:
            for g in [alpha, beta]:
                m = mmul(w, g, maxdeg)
                if m and ech.add(mat_coords(m)):
                    basis.append(m)
                    new.append(m)
        frontier = new
    assert ech.dim == full.dim

    def ideal_product(abasis, bbasis):
        out = []
        for u in abasis:
            for v in bbasis:
                m = mmul(u, v, maxdeg)
                if m:
                    out.append(m)
        return out

    m1 = ideal_product(basis, [alpha, beta])
    dims = [full.dim]
    power = m1
    power_basis = None
    for _ in range(upto):
        ech = Echelon()
        pb = []
        for m in power:
            if ech.add(mat_coords(m)):
                pb.append(m)
        dims.append(ech.dim)
        power_basis = pb
        power = ideal_product(power_basis, m1_basis(m1))
    return dims


def m1_basis(mats):
    ech = Echelon()
    out = []
    for m in mats:
        if ech.add(mat_coords(m)):
            out.append(m)
    return out


def rprime_madic_quotient_dims(trunc, upto):
    """[dim image of m^i in R'/N] for i = 0..upto (kill the (0,1) entry)."""
    maxdeg = trunc - 1
    alpha, beta = r2x2_gens()
    proj = kill_entries([(0, 1)])

    basis = []
    ech = Echelon()
    frontier = [identity(2, 1)]
    ech.add(mat_coords(frontier[0]))
    basis.append(frontier[0])
    while frontier:
        new = []
        for w in frontier:
            for g in [alpha, beta]:
                m = mmul(w, g, maxdeg)
                if m and ech.add(mat_coords(m)):
                    basis.append(m)
                    new.append(m)
        frontier = new

    def proj_dim(mats):
        e = Echelon()
        for m in mats:
            e.add(proj(mat_coords(m)))
        return e.dim

    dims = [proj_dim(basis)]
    power = m1_basis([mmul(u, v, maxdeg) for u in basis for v in [alpha, beta]])
    for _ in range(upto):
        dims.append(proj_dim(power))
        power = m1_basis([mmul(u, v, maxdeg) for u in power
                          for v in [alpha, beta]])
    return dims


# --------------------------------------------------------- the 3x3 example

def t3x3_gens():
    """Displayed generators + the nine y-matrix-unit generators."""
    e0 = (0, 0)
    x = (1, 0)
    x2 = (2, 0)
    y = (0, 1)
    alpha = {(0, 0): {x: ONE}, (1, 1): {x2: ONE}, (2, 2): {x: ONE}}
    e12 = {(0, 1): {e0: ONE}}
    e13 = {(0, 2): {e0: ONE}}
    e23 = {(1, 2): {e0: ONE}}
    units = [{(i, j): {y: ONE}} for i in range(3) for j in range(3)]
    return [alpha, e12, e13, e23] + units


def t3x3_standard_dims(upto):
    return word_span_dims(t3x3_gens(), 3, 2, upto)


if __name__ == "__main__":
    print("R 2x2, standard filtration dims:", r2x2_standard_dims(12))
    print("R/N quotient dims:", r2x2_quotient_dims(12))
    print("Gamma_n intersect N dims:", r2x2_intrinsic_n_dims(12))
    print("left good (Gamma_{n-1} beta) dims:", r2x2_left_good_dims(12))
    print("right good (beta Gamma + ab Gamma) dims:", r2x2_right_good_dims(12))
    print("Gamma_1 * Gamma_1 dim:", gamma1_products_dim())
    print("R' trunc x^10, dim m^i:", rprime_madic_dims(10, 12))
    print("R' trunc x^10, quotient image dims:", rprime_madic_quotient_dims(10, 12))
    print("T 3x3, standard dims to length 2:", t3x3_standard_dims(2))
