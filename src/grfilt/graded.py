"""Associated graded of a filtration, truncated to the computed window.

The degree-m piece is Gamma_m / Gamma_{m-1}.  A coset is its canonical
representative row, exactly as QuotientContext represents one: the
residual of a layer element's kernel row modulo the echelon of the layer
below, which is cleared at that layer's pivots and so is a combination
of the rows of the piece's complement section (whose rows are the
piece's basis cosets).  Two elements of the same coset always produce
the same row, so piece arithmetic is exact.  GrElement.coords holds
that row frozen as its (column, c) pairs sorted by column, every c
nonzero (ints or Fractions in lowest form over Q, ints in [0, p) over
F_p); equal cosets have equal GrElements, and dict(el.coords) is the
row again.

Products of pieces land in the piece at the summed degree.  Asking for a
product outside the window raises WindowExceeded rather than truncating.

There are two product paths with equal values.  lift_mul is the
definition: lift both cosets to their canonical representative matrices,
multiply them as matrices (PolyMatrix's own product), and take the class
of the product.  mul stays on kernel rows: it multiplies the two
representative rows once with Ambient.mul and takes the coset of the
product.  Nothing is cached, so a GradedTrunc never changes once
built.

ideal_chain_witness builds its ideals with mul and grows one Echelon per
degree as generators are added.  verify_chain_report uses lift_mul alone
and keeps pieces of its own, so a slip in the row product or in the
producer cannot vouch for itself: a certificate is rechecked by a path
other than the one that produced it, down to the product of the ring.
Each reads every piece's basis cosets once, at its start.
"""

from .linalg import Echelon
from .linspace import complement_section
from .filtration import WindowExceeded
from .record import Record


class GrElement(Record):
    fields = ("degree", "coords")


class GradedTrunc:
    def __init__(self, filt):
        self.filt = filt
        self.ambient = filt.ambient
        # piece m is Gamma_m / Gamma_{m-1}, so Gamma_{m-1} must be known
        self.degrees = [m for m in filt.degrees if filt.known(m - 1)]
        self.gen_degree = filt.sign
        self.sections = {m: complement_section(filt.layer(m),
                                               filt.layer(m - 1))
                         for m in self.degrees}

    def piece(self, m):
        if m not in self.sections:
            window = (f"[{self.degrees[0]}, {self.degrees[-1]}]"
                      if self.degrees else "(empty)")
            raise WindowExceeded(f"graded piece {m} outside window {window}")
        return self.sections[m]

    def piece_dims(self):
        return {m: self.sections[m].dim for m in self.degrees}

    def piece_basis(self, m):
        """The basis cosets of piece m: its complement section's rows."""
        return [self._element(m, r) for r in self.piece(m).basis_rows()]

    def class_of(self, mat, m):
        """Coset of a layer-m element in the degree-m piece."""
        return self._element(m, self._coset(
            self.ambient.encode_sparse(mat), m))

    def _coset(self, row, m):
        """The coset in piece m of a layer-m kernel row: its residual
        modulo layer m - 1."""
        if self.filt.layer(m).residual(row):
            raise ValueError(f"element does not lie in layer {m}")
        self.piece(m)
        return self.filt.layer(m - 1).residual(row)

    def _element(self, m, row):
        return GrElement(m, tuple(sorted(row.items())))

    def lift(self, el):
        """Canonical representative matrix of a coset."""
        self.piece(el.degree)
        return self.ambient.decode_sparse(dict(el.coords))

    def lift_mul(self, e1, e2):
        """Product by definition: lift, multiply the matrices, reduce.
        class_of encodes the product under the ambient's window rule."""
        target = e1.degree + e2.degree
        self.piece(target)
        return self.class_of(self.lift(e1) * self.lift(e2), target)

    def mul(self, e1, e2):
        """Product of the two representative rows, multiplied once with
        Ambient.mul (same values as lift_mul)."""
        target = e1.degree + e2.degree
        self.piece(target)
        return self._element(target, self._coset(self.ambient.mul(
            dict(e1.coords), dict(e2.coords)), target))

    def generator_classes(self, pres):
        """Principal symbols of the presentation's generators."""
        return {nm: self.class_of(g, self.gen_degree)
                for nm, g in pres.gens}

    def one(self):
        return self.class_of(self.ambient.one(), 0)

    def word(self, classes, letters, product=None):
        """Product of generator symbols; [] gives the unit coset.

        product defaults to mul; verifiers pass lift_mul."""
        if not letters:
            return self.one()
        product = product or self.mul
        out = classes[letters[0]]
        for nm in letters[1:]:
            out = product(out, classes[nm])
        return out

    def to_json(self):
        return {"kind": self.filt.kind, "name": self.filt.name,
                "piece_dims": self.piece_dims()}


# ------------------------------------------------------------ ideal chains

class ChainReport(Record):
    fields = ("side", "words", "ideal_dims", "strictly_ascending",
              "witnesses", "window")


def chain_sides(filt):
    """(diverging, matching): the side with an endless ascending chain of
    one-sided ideals in gr(filt), left when ascending, then the other."""
    return ("left", "right")[::filt.sign]


def chain_words(side, steps):
    """The chain's generators beta alpha^i (side left) or alpha^i beta
    (side right) for i < steps."""
    return [["beta"] + ["alpha"] * i if side == "left"
            else ["alpha"] * i + ["beta"] for i in range(steps)]


def _generator_products(bases, g, side, m, product):
    """Coset rows of u*g (left) or g*u (right) in piece m, for u over the
    basis cosets, in bases, of the piece that lands these products in
    degree m; none when that piece is outside the window."""
    return [dict((product(u, g) if side == "left"
                  else product(g, u)).coords)
            for u in bases.get(m - g.degree, ())]


def ideal_chain_witness(gr, classes, words, side="left"):
    """Strictness certificate for the chain of one-sided ideals generated
    by growing prefixes of the word list.

    Step k uses words[0..k].  The witness for strictness at step k is the
    new generator itself: it must lie outside the previous ideal's piece at
    its own degree.  Dimensions are totals over the window.  The ideal is
    one echelon per degree; step k tests its generator against them, then
    inserts only that generator's products.  Fewer than two words make
    no step to witness, so they raise WindowExceeded.
    """
    if len(words) < 2:
        raise WindowExceeded(
            f"a chain needs at least 2 words to ascend, got {len(words)}")
    gens = [gr.word(classes, list(w)) for w in words]
    bases = {m: gr.piece_basis(m) for m in gr.degrees}
    pieces = {m: Echelon(gr.ambient.field.p) for m in gr.degrees}
    dims = []
    witnesses = []
    strict = True
    for k, g in enumerate(gens):
        if k > 0:
            if not pieces[g.degree].reduce(dict(g.coords)):
                strict = False
            else:
                witnesses.append({"step": k, "degree": g.degree,
                                  "word": list(words[k])})
        for m, piece in pieces.items():
            for row in _generator_products(bases, g, side, m, gr.mul):
                piece.insert(row)
        dims.append(sum(map(len, pieces.values())))
    return ChainReport(side, tuple(tuple(w) for w in words), tuple(dims),
                       strict, tuple(witnesses),
                       (gr.degrees[0], gr.degrees[-1]))


def verify_chain_report(gr, classes, report):
    """Recheck every witness of a chain report from scratch.

    Words and products come from lift_mul only, never from mul or the
    producer's echelons.  Only the witnessed degrees are built: each
    keeps its own echelon, extended by the generators added since its
    previous witness.  Witness steps must increase, a strict
    chain needs one witness for every step 1..len-1, and each witness's
    degree and word must be those of the generator it names.
    """
    gens = [gr.word(classes, list(w), gr.lift_mul) for w in report.words]
    steps = [wit["step"] for wit in report.witnesses]
    if report.strictly_ascending and steps != list(range(1, len(gens))):
        return False
    bases = {m: gr.piece_basis(m) for m in gr.degrees}
    pieces = {}     # degree -> (Echelon, generators inserted so far)
    last = 0
    for wit in report.witnesses:
        k = wit["step"]
        if not last < k < len(gens):
            return False
        last = k
        g = gens[k]
        if (wit["degree"] != g.degree
                or list(wit["word"]) != list(report.words[k])):
            return False
        piece, done = pieces.get(g.degree, (Echelon(gr.ambient.field.p), 0))
        for i in range(done, k):
            for row in _generator_products(
                    bases, gens[i], report.side, g.degree, gr.lift_mul):
                piece.insert(row)
        pieces[g.degree] = (piece, k)
        if not piece.reduce(dict(g.coords)):
            return False
    return True


def checked_chain(filt, pres, side, steps):
    """ideal_chain_witness's report on the chain_words(side, steps) of
    pres's generator symbols in gr(filt), and its verify_chain_report."""
    gr = GradedTrunc(filt)
    classes = gr.generator_classes(pres)
    report = ideal_chain_witness(gr, classes, chain_words(side, steps),
                                 side=side)
    return report, verify_chain_report(gr, classes, report)

