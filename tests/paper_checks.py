"""The paper's facts about the catalog rings, as checks on grfilt's objects.

No subcommand reports these checks: the tests pin them.  They cover the
filtrations (nesting, unit and submultiplicativity on the window, and
goodness of a module filtration with its stability bound), the
associated graded (relations between words, the sandwich g * u * g = 0,
pattern families that span each piece, and the Rees dimensions), and the
staircase ring T, whose right ideal e13*T + e23*T is not a left ideal.
"""

from itertools import accumulate

from grfilt.linalg import Echelon
from grfilt.linspace import subspace_product
from grfilt.record import Record


# ------------------------------------------------------------ filtrations

class GoodnessReport(Record):
    fields = ("side", "submultiplicative_ok", "first_violation",
              "stable_from", "pairs_checked", "pairs_skipped")


def is_good(ring_filt, mod_filt, side="left"):
    """Check Gamma_a Omega_b <= Omega_{a+b} and locate a stability bound.

    stable_from is the first module index n0, scanned in the direction of
    sign (ascending lo..hi, weak-adic 0..lo), such that every checkable
    product with sign * a >= 1 and sign * b >= sign * n0 lands exactly on
    the target layer; None when no such bound shows up in the window.
    """
    amb = ring_filt.ambient
    sign = ring_filt.sign
    checked = skipped = 0
    violation = None
    ok = True
    exact = {}
    for a in ring_filt.degrees:
        ga = ring_filt.layer(a)
        for b in range(mod_filt.lo, mod_filt.hi + 1):
            if not mod_filt.known(a + b):
                continue
            ob = mod_filt.layer(b)
            if (not amb.series and
                    ga.maxdeg() + max(ob.maxdeg(), 0) > amb.degcap):
                skipped += 1
                continue
            target = mod_filt.layer(a + b)
            prod = (subspace_product(ga, ob) if side == "left"
                    else subspace_product(ob, ga))
            checked += 1
            if not target.contains(prod):
                ok = False
                if violation is None:
                    violation = f"Gamma_{a} * Omega_{b} not inside " \
                                f"Omega_{a + b}"
            exact[(a, b)] = (prod == target)
    stable_from = None
    if ok:
        for n0 in range(mod_filt.lo, mod_filt.hi + 1)[::sign]:
            pairs = [(a, b) for (a, b) in exact
                     if sign * a >= 1 and sign * b >= sign * n0]
            if pairs and all(exact[p] for p in pairs):
                stable_from = n0
                break
    return GoodnessReport(side, ok, violation, stable_from, checked, skipped)


class AxiomReport(Record):
    fields = ("nested_ok", "unit_ok", "multiplicative_ok", "pairs_checked",
              "pairs_skipped", "detail")

    @property
    def ok(self):
        return self.nested_ok and self.unit_ok and self.multiplicative_ok


def verify_filtration_axioms(filt):
    """Nesting, unit membership, and submultiplicativity on the window."""
    amb = filt.ambient
    detail = None
    nested_ok = True
    for n in range(filt.lo, filt.hi):
        if not filt.layer(n + 1).contains(filt.layer(n)):
            nested_ok = False
            detail = f"layer {n} not inside layer {n + 1}"
            break
    unit_ok = filt.layer(0).member(amb.one())
    if not unit_ok and detail is None:
        detail = "unit missing from layer 0"
    checked = skipped = 0
    mult_ok = True
    idx = filt.degrees
    for m in idx:
        for n in idx:
            if not filt.known(m + n):
                skipped += 1
                continue
            lm, ln = filt.layer(m), filt.layer(n)
            if (not amb.series and
                    max(lm.maxdeg(), 0) + max(ln.maxdeg(), 0) > amb.degcap):
                skipped += 1
                continue
            checked += 1
            if not filt.layer(m + n).contains(subspace_product(lm, ln)):
                mult_ok = False
                if detail is None:
                    detail = f"layer {m} * layer {n} escapes layer {m + n}"
    return AxiomReport(nested_ok, unit_ok, mult_ok, checked, skipped, detail)


# ------------------------------------------------------- associated graded

def check_relation(gr, classes, word_a, word_b=None):
    """Whether two words in the symbols agree (or word_a vanishes).
    Coset rows are canonical, so agreeing is being equal, and the zero
    coset is the empty row."""
    ea = gr.word(classes, list(word_a))
    if word_b is None:
        return not ea.coords
    return ea == gr.word(classes, list(word_b))


def sandwich_zero_sweep(gr, classes, name):
    """Check g * (every piece basis coset) * g == 0 across the window.

    Returns (all_zero, products_checked); degrees whose target piece falls
    outside the window are skipped, not assumed.
    """
    g = classes[name]
    checked = 0
    for m in gr.degrees:
        target = g.degree + m + g.degree
        if target not in gr.sections:
            continue
        for u in gr.piece_basis(m):
            prod = gr.mul(gr.mul(g, u), g)
            checked += 1
            if prod.coords:
                return False, checked
    return True, checked


class SpanningReport(Record):
    fields = ("patterns", "degrees", "covered", "all_covered")


def spanning_check(gr, classes, patterns):
    """Do the pattern families span every piece in the window?

    A pattern (pre, star, post) denotes the elements pre * star^k * post
    for k >= 0.  This certifies statements like "the graded ring is
    generated over k[a] by {1, b, ab}" degree by degree.
    """
    covered = []
    for m in gr.degrees:
        sec = gr.piece(m)
        vecs = []
        for pre, star, post in patterns:
            fixed = len(pre) + len(post)
            k = abs(m) - fixed
            if k < 0:
                continue
            word = list(pre) + [star] * k + list(post)
            if len(word) == 0 and m != 0:
                continue
            el = gr.word(classes, word)
            if el.degree != m:
                raise ValueError("pattern degree bookkeeping is off")
            vecs.append(dict(el.coords))
        echelon = Echelon(gr.ambient.field.p)
        for vec in vecs:
            echelon.insert(vec)
            if len(echelon) == sec.dim:
                break
        covered.append(len(echelon) == sec.dim)
    return SpanningReport(tuple(tuple(map(tuple, p)) for p in patterns),
                          tuple(gr.degrees), tuple(covered), all(covered))


def rees_dims(filt, upto):
    """Dimensions of the layered sum, degree by degree (partial sums)."""
    return list(accumulate(filt.layer(filt.sign * n).dim
                           for n in range(upto + 1)))


# ------------------------------------------------------------ staircase

def right_ideal_escape_witness(ring):
    """Product showing e13*T + e23*T is not a left ideal of T.

    Left-multiplying e13 by y*e31 lands in row 3, while the right ideal
    generated by e13 and e23 lives entirely in rows 1 and 2.
    """
    prod = ring.el("ye31") * ring.el("e13")
    in_rows_12 = all(prod.entry(2, j).is_zero() for j in range(3))
    return prod, in_rows_12
