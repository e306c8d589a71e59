"""Filtrations of matrix-polynomial algebras and of their modules.

Two kinds are supported, indexed so that layers increase with the index in
both cases.  An ascending filtration is a chain Gamma_0 <= Gamma_1 <= ...
with Gamma_m Gamma_n <= Gamma_{m+n}; the standard one takes Gamma_n to be
the span of all products of at most n generators.  A weak-adic filtration
on a ring with a distinguished ideal m puts Gamma_i = R for i >= 0 and
Gamma_{-i} = m^i, so its stored layers sit at indices lo..0.  The kind is
read in one place, class Filtration: sign is +1 ascending and -1
weak-adic, the degree of a generator, so depth n is layer sign * n;
degrees are the window's ring-side indices, the n with sign * n >= 0; and
known(n) holds in the window and past its outer edge, where an ascending
filtration is zero (below lo) and a weak-adic one is R (above 0).  Every
other reader takes these; only the input dispatchers name a kind.  A
Filtration takes no ambient: it reads its layers'.

Layers are grown, not rebuilt.  The standard layers satisfy

    Gamma_n = Gamma_{n-1} + C_{n-1} G,

where G is the generator set and C_{n-1} the canonical basis rows of
Gamma_{n-1} whose pivots Gamma_{n-2} lacks (linalg.new_rows): Gamma_{n-1}
is Gamma_{n-2} plus the span of C_{n-1}, and Gamma_{n-2} G already lies
in Gamma_{n-1}.  So each layer multiplies only the new part of the one
before and inserts the products into a copy of that layer's sparse
echelon; linalg.grow runs these rounds, and standard_filtration takes
upto of them.  _closure takes them until a round adds nothing, which
grows the word span (full_span) and the two-sided ideal of seeds
(two_sided_closure, whose step multiplies by G on both sides and skips
products past the cap).  A good module filtration grows from the same new
parts: Omega_n = Omega_{n-1} + sum_i C_{n-s_i} m_i (see
induced_good_filtration).  The weak-adic powers, which descend, satisfy
m^i = span(m^{i-1} G); see weak_adic_filtration.

Layers outside the computed window are reported honestly: below an
ascending window they are zero, above it (or below a weak-adic window) the
accessor raises WindowExceeded rather than guessing.  An ideal is a plain
Subspace; quotient layers that would need it saturated past the
presentation's closed_degree raise TruncationError; rebuild with a
larger degree cap.
"""

from functools import cached_property
from itertools import islice

from .linalg import grow, new_rows
from .linspace import (Subspace, span, zero_space, intersect, quotient_dim,
                       subspace_product, QuotientContext,
                       DegreeOverflowError, Inconclusive)
from .record import Record


class WindowExceeded(Inconclusive):
    pass


class TruncationError(Inconclusive):
    pass


class AlgebraPresentation(Record):
    """A named list of generators inside an ambient matrix ring.  The unit
    is always implicit."""

    fields = ("name", "ambient", "gens")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gen_rows   # encoding checks that every generator fits

    @cached_property
    def gen_rows(self):
        """The generators as kernel rows, encoded once."""
        return [self.ambient.encode_sparse(g) for _, g in self.gens]

    @cached_property
    def closed_degree(self):
        """The degree through which a two-sided closure inside the cap is
        exact (see two_sided_closure): the cap less the top generator
        degree, or the whole cap in series mode."""
        amb = self.ambient
        if amb.series:
            return amb.degcap
        return amb.degcap - max(map(amb.degree, self.gen_rows))

    def times_gens(self, row):
        """The products row g of a kernel row by the generator rows g."""
        return [self.ambient.mul(row, g) for g in self.gen_rows]

    def gen(self, name):
        for nm, g in self.gens:
            if nm == name:
                return g
        raise KeyError(name)

    def gen_mats(self):
        return [g for _, g in self.gens]


class Filtration:
    def __init__(self, kind, layers, name=""):
        if kind not in ("ascending", "weak-adic"):
            raise ValueError(f"unknown filtration kind {kind!r}")
        self.kind = kind
        self.layers = dict(layers)
        self.name = name
        idx = sorted(self.layers)
        if not idx:
            raise ValueError("a filtration needs at least one layer")
        self.lo, self.hi = idx[0], idx[-1]
        if idx != list(range(self.lo, self.hi + 1)):
            raise ValueError("layer indices must be contiguous")
        if kind == "weak-adic" and self.hi != 0:
            raise ValueError("weak-adic layers are indexed lo..0")

    ambient = property(lambda self: self.layers[self.lo].ambient)

    @property
    def sign(self):
        """+1 ascending, -1 weak-adic (see the module notes)."""
        return 1 if self.kind == "ascending" else -1

    @property
    def degrees(self):
        """The window's ring-side indices n, sign * n >= 0, in order."""
        return [n for n in range(self.lo, self.hi + 1) if self.sign * n >= 0]

    def layer(self, n):
        if n in self.layers:
            return self.layers[n]
        if self.known(n):
            # past the outer edge: zero below lo, the ring above hi = 0
            return zero_space(self.ambient) if n < self.lo \
                else self.layers[self.hi]
        raise WindowExceeded(
            f"layer {n} of {self.name or 'filtration'} is outside the "
            f"computed window [{self.lo}, {self.hi}]")

    def known(self, n):
        """Whether layer n is in the window or past its outer edge."""
        if n in self.layers:
            return True
        return n < self.lo if self.sign > 0 else n > self.hi

    def dims(self):
        return {n: self.layers[n].dim for n in sorted(self.layers)}

    def to_json(self):
        return {"kind": self.kind, "name": self.name,
                "window": [self.lo, self.hi], "dims": self.dims()}

    def __repr__(self):
        return (f"Filtration({self.kind}, {self.name!r}, "
                f"window=[{self.lo},{self.hi}])")


class HilbertTable(Record):
    fields = ("kind", "name", "values")


def hilbert(filt):
    """Hilbert function of a filtration, H(0..depth) for the depth of its
    window: hi when ascending, -lo when weak-adic.

    Ascending: H(n) = dim Gamma_n.  Weak-adic: H(n) = dim Gamma_0/Gamma_{-n},
    so H(0) = 0 and H grows with the codimension of the ideal powers.
    """
    if filt.sign > 0:
        vals = [filt.layer(n).dim for n in range(filt.hi + 1)]
    else:
        vals = [quotient_dim(filt.layer(0), filt.layer(-n))
                for n in range(-filt.lo + 1)]
    return HilbertTable(filt.kind, filt.name, tuple(vals))


def _closure(cur, step):
    """The least span holding cur and closed under step: linalg.grow's
    rounds until one adds nothing.  They end, because every round but the
    last raises the dimension."""
    last = cur.echelon
    for echelon in grow(last, step):
        if len(echelon) == len(last):
            return Subspace(cur.ambient, echelon)
        last = echelon


def standard_filtration(pres, upto):
    """Gamma_n = span of products of at most n generators (Gamma_0 = k),
    grown as Gamma_n = Gamma_{n-1} + C_{n-1} G (see the module notes)."""
    amb = pres.ambient
    one = span(amb, [amb.one()])
    rounds = grow(one.echelon, pres.times_gens)
    layers = {0: one}
    layers.update((n, Subspace(amb, echelon))
                  for n, echelon in enumerate(islice(rounds, upto), 1))
    return Filtration("ascending", layers, name=f"standard:{pres.name}")


def full_span(pres):
    """Span of all words in the generators: the closure of the unit under
    right multiplication by them.  Finite in series mode; in polynomial
    mode a word past the degree cap raises DegreeOverflowError."""
    return _closure(span(pres.ambient, [pres.ambient.one()]),
                    pres.times_gens)


def weak_adic_filtration(pres, depth):
    """Gamma_0 = R, Gamma_{-i} = m^i where m is the two-sided ideal
    generated by the presentation's generators.

    Built over a series ambient only.  The ideal is assembled as the left
    ideal m = R G.  As R is spanned by words in the generators, m is also
    a right ideal, and with 1 in R the powers are built as

        m^i = m^{i-1} m = (m^{i-1} R) G = span(m^{i-1} G),

    the subspace_product of m^{i-1} and span(G), so not by the whole
    basis of m.  The first, m^2 = span(m G), is also checked to lie in m;
    only an engine fault can fail that check, which raises ValueError.

    The series window models a ring whose powers m^i never vanish, so a
    zero m^i with i <= depth is the truncation speaking: the window is
    saturated from there on and H(n) would stall at dim R.  That raises
    WindowExceeded; raise the degree cap.
    """
    amb = pres.ambient
    if not amb.series:
        raise ValueError("weak-adic filtrations need a series ambient")
    ring = full_span(pres)
    gens = zero_space(amb).extend(pres.gen_rows)
    m1 = subspace_product(ring, gens)
    m2 = subspace_product(m1, gens)
    if not m1.contains(m2):
        raise ValueError("generated left ideal is not two-sided")
    powers = [ring, m1, m2]
    while len(powers) <= depth:
        powers.append(subspace_product(powers[-1], gens))
    # the window is -depth..0, so depth 0 keeps only R
    layers = {-i: powers[i] for i in range(depth + 1)}
    zero = [i for i in range(1, depth + 1) if not layers[-i].dim]
    if zero:
        raise WindowExceeded(
            f"m^{zero[0]} is zero in the series window of degree cap "
            f"{amb.degcap}, by truncation and not in the ring; raise the "
            f"degree cap for depth {depth}")
    return Filtration("weak-adic", layers, name=f"weak-adic:{pres.name}")


def two_sided_closure(pres, seeds):
    """Two-sided ideal generated by the seed matrices, as a subspace.

    The ideal is the _closure of the seeds under m -> g m, m g over the
    generator rows g, skipping products that would exceed the degree cap,
    so it is exact only through pres.closed_degree = degcap - max
    generator degree (everything in series mode); it is a genuine subset
    of the ideal in all degrees.  Exactness through closed_degree
    additionally needs the ideal to be spanned degreewise by
    generator-times-word products of no larger degree, which holds for
    the monomial-shaped ideals this toolkit works with.
    """
    amb = pres.ambient
    gens = pres.gen_rows

    def step(m):
        for g in gens:
            for left, right in ((g, m), (m, g)):
                try:
                    yield amb.mul(left, right)
                except DegreeOverflowError:
                    pass
    return _closure(span(amb, seeds), step)


def induced_quotient_filtration(pres, ideal, base):
    """Image of the filtration base of R in R/ideal, on base's window
    lo..hi and of base's kind; ideal is a two-sided ideal of R, as
    two_sided_closure(pres, seeds) returns it.

    Layer images are canonical representatives inside the same ambient.  A
    layer whose basis reaches beyond pres.closed_degree raises
    TruncationError rather than reporting an unreliable dimension.
    """
    ctx = QuotientContext(ideal)
    layers = {}
    for n in range(base.lo, base.hi + 1):
        lay = base.layer(n)
        if lay.maxdeg() > pres.closed_degree:
            raise TruncationError(
                f"quotient layer {n} reaches degree {lay.maxdeg()} but the "
                f"ideal is only saturated through degree "
                f"{pres.closed_degree}; rebuild with a larger degree cap")
        layers[n] = ctx.image(lay)
    return Filtration(base.kind, layers, name=f"quotient:{pres.name}")


def induced_good_filtration(ring_filt, generators, side, name=""):
    """Module filtration Omega_n = sum_i Gamma_{n-s_i} m_i, n in lo..hi.

    generators: list of (matrix, shift) pairs.  side 'left' means the ring
    acts on the left, so Omega_n collects Gamma_{n-s} * m; 'right' collects
    m * Gamma_{n-s}.  The window lo..hi and the ring layers are
    ring_filt's; asking beyond its window raises WindowExceeded.

    The layers grow from their new part: Omega_lo takes all of each
    Gamma_{lo-s_i} (on the weak-adic side the layer below lo is not
    zero), and then Omega_n = Omega_{n-1} + sum_i C_{n-s_i} m_i, where
    C_k is linalg.new_rows of Gamma_k over Gamma_{k-1}.
    """
    amb, lo = ring_filt.ambient, ring_filt.lo
    rows = [(amb.encode_sparse(mat), shift) for mat, shift in generators]

    def part(n, shift):
        """Gamma_{n-s}'s new part over Gamma_{n-s-1}, whose products
        Omega_{n-1} holds; all of Gamma_{n-s} at lo."""
        return new_rows(ring_filt.layer(n - shift).echelon,
                        ring_filt.layer(n - shift - 1).echelon
                        if n > lo else {})
    layers, below = {}, zero_space(amb)
    for n in range(lo, ring_filt.hi + 1):
        below = layers[n] = below.extend(
            amb.mul(b, m) if side == "left" else amb.mul(m, b)
            for m, shift in rows for b in part(n, shift))
    return Filtration(ring_filt.kind, layers, name=name)


def intrinsic_module_filtration(module_span, ring_filt, name=""):
    """Lambda_n = M intersect Gamma_n for a module sitting inside the ring,
    on ring_filt's window."""
    layers = {n: intersect(module_span, ring_filt.layer(n))
              for n in range(ring_filt.lo, ring_filt.hi + 1)}
    return Filtration(ring_filt.kind, layers, name=name)


class OffsetReport(Record):
    """a and b are the names of the two compared filtrations."""
    fields = ("a", "b", "a_in_b", "b_in_a", "equivalent", "offset",
              "max_offset", "pairs_checked")


def _least_offset(fa, fb, max_offset, lo, hi):
    """Least q <= max_offset with A_n <= B_{n+q} for every n in the fixed
    range [lo, hi], or None."""
    for q in range(max_offset + 1):
        if all(fb.layer(n + q).contains(fa.layer(n))
               for n in range(lo, hi + 1)):
            return q
    return None


def equivalence_offset(fa, fb, max_offset=3):
    """Smallest q with A_n <= B_{n+q} and B_n <= A_{n+q} on a fixed range.

    Every offset is tested on the same index range, cut down so that all
    shifted layers up to max_offset are computed; checking each q on
    whatever pairs happen to survive would let large offsets pass vacuously
    at the window edge.  A side with no admissible q is reported as None,
    which witnesses divergence on the compared range, not a proof for all
    n.  Choose the window deep enough that the range [lo, hi] reaches past
    where divergence is expected to show.  A negative max_offset tests
    no offset, so it raises ValueError rather than report divergence.
    """
    if max_offset < 0:
        raise ValueError(f"max_offset must be >= 0, got {max_offset}")
    lo = max(fa.lo, fb.lo)
    hi = min(fa.hi, fb.hi) - max_offset
    if hi < lo:
        raise WindowExceeded(
            f"windows too small to compare at offsets up to {max_offset}")
    a_in_b = _least_offset(fa, fb, max_offset, lo, hi)
    b_in_a = _least_offset(fb, fa, max_offset, lo, hi)
    equivalent = a_in_b is not None and b_in_a is not None
    return OffsetReport(fa.name, fb.name, a_in_b, b_in_a, equivalent,
                        max(a_in_b, b_in_a) if equivalent else None,
                        max_offset, hi - lo + 1)

