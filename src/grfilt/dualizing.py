"""Four-stage verification that the triangular ring has a dualizing
module presented by its own corner ideal.

The ring R = {[[f(x), g(x)], [0, f(x^2)]]} contains the commutative
diagonal subring C = {diag(c(x), c(x^2))}, a copy of k[x] generated by the
catalog's alpha = diag(x, x^2), over which R is a finitely generated free
module on both sides (with different ranks).  C is not the center of R
(only scalars commute with the corner); the chain uses only that R is
free over C on both sides.  The two C-linear duals

    D2 = Hom_C(R_C, C),  a right R-module via (phi.a)(v) = phi(a v),
    D1 = Hom_C(_C R, C), a left  R-module via (a.phi)(w) = phi(w a),

carry the whole story.  The chain below verifies, inside an exact finite
degree window:

  (i)   free-module-structure: R is free over C on both sides, with the
        bases found by the greedy rank scan, whose tagged span of their
        alpha-orbits is each dual's coordinate solver (HomModule);
  (ii)  cyclic-dual-generator: D2 is cyclic, generated by the last dual
        basis functional, and its annihilator is the right ideal
        generated by the corner generator, so D2 = R/K for that ideal K;
  (iii) endomorphism-ring: End_R(D2) = idealizer(K)/K is again a copy of
        R, via the explicit degree-doubling candidate map;
  (iv)  dual-identification: D1 is presented by two explicit generators
        with the expected relation module, and the slot-rearranging map
        Psi identifies D2 with D1 compatibly with both actions.

The window is grown from the presentation, and the predictions of
stages (iii) and (iv) read its corner.  Each stage either verifies its
claim on the window or aborts the chain, and the report records the
stage name it stopped at.  The perturbed ring (corner generator moved up
one degree) is the intended control: it passes (i) and (ii) with shifted
data and fails (iii).

A stage whose own degree window holds only constants (its bound is below
1), or whose rank scan is inconclusive, raises WindowExceeded instead of
reporting: for the triangular ring every cap below 8 is undecided, not
verified, and for the control every cap below 6.
"""

from collections import Counter

from .linalg import Echelon, joint_kernel, joint_row
from .linspace import (Ambient, DegreeOverflowError, degree_cuts,
                       prefix_space, restrict_degree, zero_space)
from .filtration import WindowExceeded, two_sided_closure
from .bimodule import ModuleAction, free_rank
from .record import Record, jsonable, OK, FAIL, INCONCLUSIVE

STAGES = ("free-module-structure", "cyclic-dual-generator",
          "endomorphism-ring", "dual-identification")


def _require_window(stage, what, bound):
    """Refuse a stage whose degree window holds only constants: checked
    there, its claim would pass without testing any degree bookkeeping."""
    if bound < 1:
        raise WindowExceeded(
            f"{stage}: {what} is {bound}, below 1; raise the degree cap")


def ring_window(ring):
    """Every element of the ring whose encoding fits the cap: the unit's
    two-sided closure under the generators, inside the cap.

    The closure skips products past the cap, yet for the triangular rings
    it is the whole window: every element of degree <= cap is reached
    through products of degree <= cap, because alpha (x^j e12) =
    x^(j+1) e12 and alpha^k = diag(x^k, x^(2k)) has degree 2k.
    """
    return two_sided_closure(ring.pres, [ring.ambient.one()])


def _corner_rows(window):
    """The window's basis rows supported on the e12 entry: its corner, as
    no diagonal row of the canonical echelon has an e12 term."""
    coords = window.ambient.coords
    return [r for r in window.basis_rows()
            if all(coords[k][1:] == (0, 1) for k in r)]


# ------------------------------------------------------- free C-structure

class FreeStructureReport(Record):
    fields = ("ring", "ok", "left", "right")


def free_structure_report(ring, window):
    """Stage (i): rank scans, up to the degree cap, for the module
    structure over the diagonal subring (acting by alpha) on both sides;
    the later stages rely on freeness of both (the duals are then free
    C-modules of the same ranks)."""
    amb = ring.ambient
    reps = {}
    for side in ("left", "right"):
        act = ModuleAction(f"{ring.name} over diagonal", window,
                           ring.el("alpha"), side)
        reps[side] = free_rank(act, amb.degcap)
        if reps[side].decision == INCONCLUSIVE:
            raise WindowExceeded(f"{STAGES[0]}: the {side} rank scan is "
                                 f"inconclusive at depth {amb.degcap}")
    ok = all(r.decision == OK for r in reps.values())
    return FreeStructureReport(ring.name, ok, reps["left"], reps["right"])


class HomModule:
    """C-linear dual Hom_C(M, C) of the ring window M, free over C on the
    basis of a free stage (i) rank report, as kernel rows.

    The report's side "left" decomposes elements of M as sum c_i(alpha) *
    v_i, side "right" as sum v_i * c_i(alpha); solve() recovers the
    coefficients from the report's span, the scan's tagged span of the
    orbits alpha^k v_i (or v_i alpha^k), which covers the whole window.

    An element of the dual is (phi(v_1), ..., phi(v_r)) in k[x]^r, held
    as a kernel row of `space`, the Ambient of 1 x r tuples: x^d in slot
    i is the coordinate ((d,), 0, i).  The right dual carries a right
    action, (phi.a)(v_j) = phi(a v_j); the left dual a left one,
    (a.phi)(w_j) = phi(w_j a).  Either way act() routes the translated
    basis through solve() and pairs each coefficient c x^k of slot i with
    phi's terms in slot i; a is a kernel row of the ring's ambient.
    """

    def __init__(self, ring, report, space_cap):
        self.ring = ring
        self.ambient = ring.ambient
        self.side = report.side
        self.basis = report.generators
        self._tracker = report.span
        self.space = Ambient(len(self.basis), 1, space_cap,
                             ring.ambient.field, rows=1)

    def solve(self, row):
        """The combination {(slot, power): c} of a kernel row: the row is
        the sum of c times v_slot and alpha^power, multiplied on this
        module's side."""
        combo = self._tracker.express(row)
        if combo is None:
            raise ValueError("element is outside the free C-span window")
        return combo

    def dual_basis(self):
        """The unit functionals: the constant tuples, slot by slot."""
        return prefix_space(self.space, 0).basis_rows()

    def act(self, phi, a):
        amb = self.ambient
        slots = {}      # slot i -> phi's terms (degree, value) there
        for k, x in phi.items():
            (d,), _, i = self.space.coords[k]
            slots.setdefault(i, []).append((d, x))
        terms = []
        for j, v in enumerate(self.basis):
            w = amb.mul(a, v) if self.side == "right" else amb.mul(v, a)
            for (i, k), c in self.solve(w).items():
                terms += [(((d + k,), 0, j), x * c)
                          for d, x in slots.get(i, ())]
        return self.space.row(terms)


# ------------------------------------------------------ stage (ii): cyclic

class CyclicReport(Record):
    fields = ("ring", "candidates", "generator_index", "orbit_dim",
              "acceptance_degree", "annihilator_dim", "annihilator_matches",
              "dims_consistent", "ok")


def cyclic_presentation(hom, window, expected_ann):
    """Stage (ii): deterministic cyclic-generator search in the dual.

    Dual basis functionals are tried in index order; the first whose
    orbit under the ring window covers every dual tuple of coordinate
    degree <= acceptance_degree = (degcap // 2 - 1) // 2, for the ring's
    degree cap, is accepted.  Its annihilator inside the window is then
    computed exactly and compared with the expected right ideal, which
    exhibits the dual as the cyclic module ring/ideal.
    """
    acceptance_degree = (hom.ambient.degcap // 2 - 1) // 2
    _require_window(STAGES[1], "the acceptance degree", acceptance_degree)
    space = hom.space
    basis = window.basis_rows()
    target = prefix_space(space, acceptance_degree)
    tried = []
    for idx, phi in enumerate(hom.dual_basis()):
        images = [hom.act(phi, b) for b in basis]
        orbit = zero_space(space).extend(images)
        hit = orbit.contains(target)
        tried.append({"candidate": idx, "orbit_dim": orbit.dim,
                      "target_dim": target.dim, "accepted": hit})
        if hit:
            break
    else:
        return CyclicReport(hom.ring.name, tuple(tried), None, 0,
                            acceptance_degree, 0, False, False, False)
    ann = window.kernel(images)
    matches = ann == expected_ann
    consistent = window.dim - ann.dim == orbit.dim
    return CyclicReport(hom.ring.name, tuple(tried), idx, orbit.dim,
                        acceptance_degree, ann.dim, matches, consistent,
                        matches and consistent)


def right_ideal_window(gen, window):
    """Window of the right ideal gen * ring (products that fit the cap)."""
    amb = window.ambient
    g = amb.encode_sparse(gen)
    rows = []
    for b in window.basis_rows():
        try:
            rows.append(amb.mul(g, b))
        except DegreeOverflowError:
            continue
    return zero_space(amb).extend(rows)


def nilpotent_generator(pres):
    """The presentation generator with zero diagonal (the corner seed).
    ValueError for a presentation the chain cannot read: one not 2x2
    over k[x] in polynomial mode, or without such a generator."""
    amb = pres.ambient
    if (amb.n, amb.arity, amb.series) != (2, 1, False):
        raise ValueError(f"the dualizing chain reads 2x2 rings over k[x] "
                         f"in polynomial mode, not {amb!r}")
    for name, mat in pres.gens:
        if mat.entry(0, 0).is_zero() and mat.entry(1, 1).is_zero():
            return name, mat
    raise ValueError("presentation has no strictly upper generator")


# --------------------------------------------- stage (iii): endomorphisms

class IdealizerReport(Record):
    fields = ("ring", "window_degree", "ideal_dim", "idealizer_dim",
              "ideal_inside", "right_closed", "right_closed_pairs",
              "product_closed", "product_pairs", "matches_predicted", "ok")


def _survey(checks):
    """(every check held, (checked, skipped)) over checks that are True,
    False, or None for a pair skipped past the window, not failed."""
    tally = Counter(checks)
    return not tally[False], (tally[True] + tally[False], tally[None])


def _product_stability(budget, left_rows, right_rows, sub):
    """Survey a.b in sub for all degree-feasible pairs of kernel rows.

    Pairs whose degree sum exceeds the budget are skipped; beyond the
    budget a membership test against a window span would produce false
    negatives.
    """
    amb = sub.ambient
    left, right = ([(amb.degree(r), r) for r in rows]
                   for rows in (left_rows, right_rows))
    return _survey(None if da + db > budget
                   else not sub.residual(amb.mul(a, b))
                   for da, a in left for db, b in right)


def _covered_through(sub, part, limit):
    """Largest m <= limit with the elements of part of degree <= m inside
    sub; -1 when its constants are not: one below the lowest degree cut
    of part outside sub."""
    degree = part.ambient.degree
    outside = (degree(r) for r in degree_cuts(part) if sub.residual(r))
    return min(limit, next(outside, limit + 1) - 1)


def idealizer(ring, window, ideal, gen):
    """{r in window : r * gen inside the ideal}, exactly.

    For the right ideal gen * ring, testing gen suffices: r(gs) = (rg)s
    stays inside once rg does, and right-closedness of the ideal window
    is surveyed separately, and the result compared with
    predicted_idealizer(window).  Returns (report, subspace).
    """
    amb = ring.ambient
    wcap = amb.degcap - gen.degree()
    domain = restrict_degree(window, wcap)
    g = amb.encode_sparse(gen)
    ide = domain.kernel(ideal.residual(amb.mul(b, g))
                        for b in domain.basis_rows())
    inside = ide.contains(restrict_degree(ideal, wcap))
    right_closed, rc_pairs = _product_stability(
        amb.degcap, ideal.basis_rows(), ring.pres.gen_rows, ideal)
    closed, pc_pairs = _product_stability(
        wcap, ide.basis_rows(), ide.basis_rows(), ide)
    matches = ide == restrict_degree(predicted_idealizer(window), wcap)
    ok = inside and right_closed and closed and matches
    return IdealizerReport(ring.name, wcap, ideal.dim, ide.dim, inside,
                           right_closed, rc_pairs, closed, pc_pairs,
                           matches, ok), ide


def predicted_idealizer(window):
    """Even diagonal part and the window's whole corner: [[h(x^2), g],
    [0, h(x^4)]] for every g of the ring."""
    amb = window.ambient
    return zero_space(amb).extend(
        [amb.row([(((2 * k,), 0, 0), 1), (((4 * k,), 1, 1), 1)])
         for k in range(amb.degcap // 4 + 1)] + _corner_rows(window))


def corner_double(amb, row):
    """Candidate map (f, g) -> [[f(x^2), x g(x^2)], [0, f(x^4)]] on a
    kernel row of the ring, as an index map: x^d E_00 goes to x^(2d) E_00
    + x^(4d) E_11 and x^d E_01 to x^(2d+1) E_01; the bottom row is read
    from f alone.

    The diagonal slot rides the degree-doubling identification of the
    diagonal subring twice; the corner slot lands on the odd part.  This
    is a ring homomorphism on the nose; stage (iii) checks it induces an
    isomorphism onto idealizer/ideal.
    """
    terms = []
    for k, c in row.items():
        (d,), i, j = amb.coords[k]
        if (i, j) == (0, 0):
            terms += [(((2 * d,), 0, 0), c), (((4 * d,), 1, 1), c)]
        elif (i, j) == (0, 1):
            terms.append((((2 * d + 1,), 0, 1), c))
    return amb.row(terms)


class EndRingReport(Record):
    fields = ("ring", "idealizer", "domain_degree", "unital",
              "lands_in_idealizer", "multiplicative", "multiplicative_pairs",
              "injective", "kernel_witness", "surjective_through",
              "required_through", "ok")


def end_ring(ring, window, ideal, gen):
    """Stage (iii): the ring maps isomorphically onto End of the cyclic
    dual, realized as idealizer/ideal.

    corner_double is checked to be unital, to land in the idealizer, to
    be multiplicative modulo the ideal, to have zero kernel modulo the
    ideal, and to hit every idealizer class through degree degcap // 2.
    """
    amb = ring.ambient
    ide_rep, ide = idealizer(ring, window, ideal, gen)
    dcap = (ide_rep.window_degree - 1) // 2
    _require_window(STAGES[2], "the domain degree", dcap)
    required = amb.degcap // 2
    domain = restrict_degree(window, dcap)
    basis = domain.basis_rows()
    images = [corner_double(amb, b) for b in basis]
    lands = not any(map(ide.residual, images))
    one = amb.encode_sparse(amb.one())
    unital = corner_double(amb, one) == one
    kernel = domain.kernel(map(ideal.residual, images))
    witness = repr(kernel.basis_matrices()[0]) if kernel.dim else None
    # the degree bounds keep both sides inside the cap; two rows are equal
    # modulo the ideal when their residuals are
    graded = [(amb.degree(a), a, ca) for a, ca in zip(basis, images)]
    mult_ok, mult_pairs = _survey(
        None if 2 * (da + db) + 2 > amb.degcap
        else ideal.residual(corner_double(amb, amb.mul(a, b)))
        == ideal.residual(amb.mul(ca, cb))
        for da, a, ca in graded for db, b, cb in graded)
    through = _covered_through(ideal.extend(images), ide, amb.degcap)
    ok = (ide_rep.ok and unital and lands and mult_ok and not kernel.dim
          and through >= required)
    return EndRingReport(ring.name, ide_rep, dcap, unital, lands, mult_ok,
                         mult_pairs, not kernel.dim, witness, through,
                         required, ok)


# ------------------------------------------ stage (iv): dual identification

class DualIdentificationReport(Record):
    fields = ("ring", "presents_through", "presentation_kernel_matches",
              "psi_kills_ideal", "psi_kernel_matches", "psi_onto_through",
              "left_equivariant", "left_pairs", "right_c_equivariant",
              "required_presentation", "required_onto", "ok")


def slot_shift(amb, space, row):
    """(f, g) -> (u, f) with g = g_ev(x^2) + x u(x^2): the corner's odd
    slot moves to the front, the diagonal slot to the back.  An index map
    from a kernel row of the ring to a row of the 2-tuple ambient: x^d E_01
    with d odd goes to x^((d-1)/2) in slot 0, x^d E_00 to x^d in slot 1,
    and the other terms are dropped."""
    terms = []
    for k, c in row.items():
        (d,), i, j = amb.coords[k]
        if (i, j) == (0, 0):
            terms.append((((d,), 0, 1), c))
        elif (i, j) == (0, 1) and d % 2:
            terms.append(((((d - 1) // 2,), 0, 0), c))
    return space.row(terms)


def dual_identification(window, ideal, hom):
    """Stage (iv): present the left dual, hom, and identify it with the
    cyclic model of the right dual.

    The left dual D1 is shown to be generated by the functionals (0, 1)
    and (0, -x) with relation module generated by (x e12, e12), through
    degree required_presentation = degcap // 2; the map slot_shift then
    identifies ring/ideal with D1, onto through degree required_onto =
    degcap // 4, compatibly with the left action transported through
    corner_double and with the right action of the diagonal subring.
    """
    ring, amb = hom.ring, hom.ambient
    cap = amb.degcap
    req_p, req_o = cap // 2, cap // 4
    rho_cap = 3
    a_cap = cap - (2 * rho_cap + 1)
    _require_window(STAGES[3], "the left-action degree", a_cap)
    space = hom.space
    phi1 = space.row([(((0,), 0, 1), 1)])
    phi2 = space.row([(((1,), 0, 1), -1)])
    basis = window.basis_rows()

    imgs = [hom.act(phi, b) for phi in (phi1, phi2) for b in basis]
    prefix = prefix_space(space, cap)
    presents_through = _covered_through(
        zero_space(space).extend(imgs), prefix, cap)

    # the relation module, kernel of (b, 0) -> b.phi1, (0, b) -> b.phi2
    kernel = joint_kernel(
        zip(imgs, basis + [joint_row({}, r, amb.dim) for r in basis]),
        amb.field.p)
    t = amb.encode_sparse(ring.el("alpha"))
    kernel_matches = kernel == _corner_relations(window, t)

    kills = not any(slot_shift(amb, space, b) for b in ideal.basis_rows())
    psi_imgs = [slot_shift(amb, space, b) for b in basis]
    psi_kernel_matches = window.kernel(psi_imgs) == ideal
    psi_onto_through = _covered_through(
        zero_space(space).extend(psi_imgs), prefix, cap)

    # a_cap leaves room for corner_double(rho), of degree at most
    # 2 * rho_cap + 1, so no product sig * a leaves the cap
    acts = restrict_degree(window, a_cap).basis_rows()
    doubled = [(rho, corner_double(amb, rho))
               for rho in restrict_degree(window, rho_cap).basis_rows()]
    left_ok, left_pairs = _survey(
        slot_shift(amb, space, amb.mul(sig, a))
        == hom.act(slot_shift(amb, space, a), rho)
        for rho, sig in doubled for a in acts)
    # times t, the tuple (u, f) becomes (u x, f x)
    right_ok = all(
        slot_shift(amb, space, amb.mul(a, t))
        == space.row((((d + 1,), 0, s), c)
                     for k, c in slot_shift(amb, space, a).items()
                     for (d,), _, s in [space.coords[k]])
        for a in restrict_degree(window, cap - amb.degree(t)).basis_rows())
    ok = (presents_through >= req_p and kernel_matches and kills
          and psi_kernel_matches and psi_onto_through >= req_o
          and left_ok and right_ok)
    return DualIdentificationReport(
        ring.name, presents_through, kernel_matches, kills,
        psi_kernel_matches, psi_onto_through, left_ok, left_pairs,
        right_ok, req_p, req_o, ok)


def _corner_relations(window, t):
    """Stage (iv)'s expected relation module as a canonical echelon: the
    joint rows (t c, c) = (x c, c), t = alpha, over the corner rows c of
    degree below the cap."""
    amb = window.ambient
    return Echelon(amb.field.p, (joint_row(amb.mul(t, c), c, amb.dim)
                                 for c in _corner_rows(window)
                                 if amb.degree(c) < amb.degcap))


# ------------------------------------------------------------ full chain

class DualizingReport(Record):
    """Each stage's report, None after the first that failed."""
    fields = ("ring", "degcap", "free", "cyclic", "endo", "ident")

    def stage_results(self):
        return [(name, "skipped" if rep is None else
                 "ok" if rep.ok else "failed") for name, rep in
                zip(STAGES, (self.free, self.cyclic, self.endo, self.ident))]

    @property
    def aborted_at(self):
        return next((name for name, state in self.stage_results()
                     if state == "failed"), None)

    @property
    def ok(self):
        return self.ident is not None and self.ident.ok

    decision = property(lambda self: OK if self.ok else FAIL)
    # the perturbed control passes when its chain aborts at stage three
    control_decision = property(
        lambda self: OK if self.aborted_at == STAGES[2] else FAIL)

    def to_json(self):
        stages = {"free": self.free, "cyclic": self.cyclic,
                  "endo": self.endo, "ident": self.ident}
        return {"ring": self.ring, "degcap": self.degcap,
                "stages": jsonable(stages),
                "stage_results": jsonable(self.stage_results()),
                "aborted_at": self.aborted_at, "ok": self.ok}


def _stage_reports(ring):
    """The four stages' reports, in order, each computed when asked."""
    amb = ring.ambient
    _, gen = nilpotent_generator(ring.pres)
    window = ring_window(ring)
    free_rep = free_structure_report(ring, window)
    yield free_rep
    ideal = right_ideal_window(gen, window)
    yield cyclic_presentation(HomModule(ring, free_rep.right, amb.degcap),
                              window, ideal)
    yield end_ring(ring, window, ideal, gen)
    yield dual_identification(window, ideal,
                              HomModule(ring, free_rep.left, amb.degcap + 1))


def verify_dualizing(ring):
    """Run the four-stage chain on the ring, make("R_2x2") or
    make("R_perturbed") at some degree cap, stopping at the first
    failing stage; a ring it cannot read raises ValueError first.

    The triangular ring verifies at a window wide enough for every
    stage's degree bookkeeping (the command line's default cap is 20).
    The perturbed ring is the control: stage (iii) fails, as its corner
    candidate map collapses the corner classes into the ideal.
    """
    reports = []
    for rep in _stage_reports(ring):
        reports.append(rep)
        if not rep.ok:
            break
    reports += [None] * (len(STAGES) - len(reports))
    return DualizingReport(ring.name, ring.ambient.degcap, *reports)
