"""Four-stage verification that the triangular ring has a dualizing
module presented by its own corner ideal.

The ring R = {[[f(x), g(x)], [0, f(x^2)]]} contains the commutative
diagonal subring C = {diag(c(x), c(x^2))}, a copy of k[x] over which R is
a finitely generated free module on both sides (with different ranks).
The two C-linear duals

    D2 = Hom_C(R_C, C),  a right R-module via (phi.a)(v) = phi(a v),
    D1 = Hom_C(_C R, C), a left  R-module via (a.phi)(w) = phi(w a),

carry the whole story.  The chain below verifies, inside an exact finite
degree window:

  (i)   free-module-structure: R is free over C on both sides, with the
        bases found by the greedy rank scan;
  (ii)  cyclic-dual-generator: D2 is cyclic, generated by the last dual
        basis functional, and its annihilator is the right ideal
        generated by the corner generator, so D2 = R/K for that ideal K;
  (iii) endomorphism-ring: End_R(D2) = idealizer(K)/K is again a copy of
        R, via the explicit degree-doubling candidate map;
  (iv)  dual-identification: D1 is presented by two explicit generators
        with the expected relation module, and the slot-rearranging map
        Psi identifies D2 with D1 compatibly with both actions.

Each stage either verifies its claim on the window or aborts the chain,
and the report records the stage name it stopped at.  The perturbed ring
(corner generator moved up one degree) is the intended control: it passes
(i) and (ii) with shifted data and fails (iii).

A stage whose own degree window holds only constants (its bound is below
1), or whose rank scan is inconclusive, raises WindowExceeded instead of
reporting: for the triangular ring every cap below 8 is undecided, not
verified, and for the control every cap below 6.
"""

from functools import partial

from .fields import QQ
from .poly import Poly
from .linalg import SpanTracker, joint_kernel, joint_row, row_echelon
from .linspace import (Ambient, DegreeOverflowError, prefix_space,
                       restrict_degree, zero_space)
from .filtration import WindowExceeded
from .workbench import make, diagonal_embed
from .bimodule import ModuleAction, free_rank
from .record import Record, jsonable

STAGES = ("free-module-structure", "cyclic-dual-generator",
          "endomorphism-ring", "dual-identification")

# rings the window recipe knows; the value is the lowest corner degree
_CORNER_LO = {"R_2x2": 0, "R_perturbed": 1}


def _require_window(stage, what, bound):
    """Refuse a stage whose degree window holds only constants: checked
    there, its claim would pass without testing any degree bookkeeping."""
    if bound < 1:
        raise WindowExceeded(
            f"{stage}: {what} is {bound}, below 1; raise the degree cap")


def _basis_sum(amb, *coords):
    """The kernel row of the sum of the basis elements x^e E_ij named by
    their coordinates (e, i, j)."""
    return amb.row((c, amb.field.one) for c in coords)


def _diagonal_corner_span(ring, step):
    """Span of diag(x^(step k), x^(2 step k)) for every k that fits the
    cap and of the whole corner the ring allows."""
    amb = ring.ambient
    if ring.name not in _CORNER_LO:
        raise KeyError(f"no window recipe for {ring.name!r}")
    if amb.series:
        raise ValueError("dualizing chain runs in polynomial mode only")
    rows = [_basis_sum(amb, ((step * k,), 0, 0), ((2 * step * k,), 1, 1))
            for k in range(amb.degcap // (2 * step) + 1)]
    rows += [_basis_sum(amb, ((j,), 0, 1))
             for j in range(_CORNER_LO[ring.name], amb.degcap + 1)]
    return zero_space(amb).extend(rows)


def ring_window(ring):
    """Every shape element of the ring whose encoding fits the cap.

    Knows R_2x2 (corner k[x] e12) and R_perturbed (corner x k[x] e12).
    The diagonal part diag(f, f(x^2)) fits only for deg f <= cap/2.
    """
    return _diagonal_corner_span(ring, 1)


class CenterEmbedding(Record):
    """The commutative diagonal subring C = {diag(c(x), c(x^2))} = k[x].

    Not the center of the triangular ring (only scalars commute with the
    corner); what the chain uses is that the ring is module-finite and
    free over C on both sides.
    """
    fields = ("ambient",)

    def actor(self):
        """x in C, the matrix diag(x, x^2)."""
        amb = self.ambient
        return diagonal_embed(amb, Poly.variable(amb.field, 1, 0))


# ------------------------------------------------------- free C-structure

class FreeStructureReport(Record):
    fields = ("ring", "ok", "left", "right")


def free_structure_report(ring, center, window, depth=None):
    """Stage (i): rank scans for the module structure over the diagonal
    subring on both sides.  Freeness of both is what the later stages
    consume (the duals are then free C-modules of the same ranks)."""
    amb = ring.ambient
    depth = amb.degcap if depth is None else depth
    reps = {}
    for side in ("left", "right"):
        act = ModuleAction(f"{ring.name} over diagonal", amb, window,
                           center.actor(), side)
        reps[side] = free_rank(act, depth)
        if reps[side].verdict == "inconclusive":
            raise WindowExceeded(f"{STAGES[0]}: the {side} rank scan is "
                                 f"inconclusive at depth {depth}")
    ok = all(r.verdict == "free" for r in reps.values())
    return FreeStructureReport(ring.name, ok, reps["left"], reps["right"])


class FreeModuleStructure:
    """The ring window as a free C-module on an explicit ordered basis.

    side "left" decomposes elements as sum sigma(c_i) * v_i, side "right"
    as sum v_i * sigma(c_i).  solve() recovers the coefficients from the
    tagged span of the ladders v_i * sigma(x^k); it covers the whole
    window exactly when the basis passed the stage (i) scan.  The basis
    is given as matrices and kept as kernel rows.
    """

    def __init__(self, ring, center, side, basis):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.ring = ring
        self.ambient = amb = ring.ambient
        self.center = center
        self.side = side
        self.basis = tuple(map(amb.encode_sparse, basis))
        self.rank = len(self.basis)
        ladder = ModuleAction("ladder", amb, None, center.actor(), side)
        self._tracker = SpanTracker(amb.field, amb.dim)
        for i, v in enumerate(self.basis):
            for k, w in enumerate(ladder.power_orbit(v)):
                self._tracker.add(w, (i, k))

    def solve(self, row):
        """The combination {(slot, power): c} of a kernel row: the row is
        the sum of c times v_slot and sigma(x^power), multiplied on this
        structure's side."""
        combo = self._tracker.express(row)
        if combo is None:
            raise ValueError("element is outside the free C-span window")
        return combo


class HomModule:
    """C-linear dual Hom_C(M, C) of a free structure, as tuple rows.

    An element is (phi(v_1), ..., phi(v_r)) in k[x]^r, held as a kernel
    row of `space`, the Ambient of 1 x r tuples: x^d in slot i is the
    coordinate ((d,), 0, i).  The dual of the right structure carries a
    right action, (phi.a)(v_j) = phi(a v_j); the dual of the left
    structure a left one, (a.phi)(w_j) = phi(w_j a).  Either way act()
    routes the translated basis through solve() and pairs each
    coefficient c x^k of slot i with phi's terms in slot i; a is a kernel
    row of the ring's ambient.
    """

    def __init__(self, structure, space_cap):
        self.structure = structure
        self.space = Ambient(structure.rank, 1, space_cap,
                             structure.ambient.field, rows=1)

    def dual_basis(self):
        """The unit functionals: the constant tuples, slot by slot."""
        return prefix_space(self.space, 0).basis_rows()

    def act(self, phi, a):
        st = self.structure
        amb = st.ambient
        slots = {}      # slot i -> phi's terms (degree, value) there
        for k, x in phi.items():
            (d,), _, i = self.space.coords[k]
            slots.setdefault(i, []).append((d, x))
        terms = []
        for j, v in enumerate(st.basis):
            w = amb.mul(a, v) if st.side == "right" else amb.mul(v, a)
            for (i, k), c in st.solve(w).items():
                terms += [(((d + k,), 0, j), x * c)
                          for d, x in slots.get(i, ())]
        return self.space.row(terms)


# ------------------------------------------------------ stage (ii): cyclic

class CyclicReport(Record):
    fields = ("ring", "candidates", "generator_index", "orbit_dim",
              "acceptance_degree", "annihilator_dim", "annihilator_matches",
              "dims_consistent", "ok")


def cyclic_presentation(hom, window, expected_ann, acceptance_degree):
    """Stage (ii): deterministic cyclic-generator search in the dual.

    Dual basis functionals are tried in index order; the first whose
    orbit under the ring window covers every dual tuple of coordinate
    degree <= acceptance_degree is accepted.  Its annihilator inside the
    window is then computed exactly and compared with the expected right
    ideal, which exhibits the dual as the cyclic module ring/ideal.
    """
    _require_window(STAGES[1], "the acceptance degree", acceptance_degree)
    st = hom.structure
    space = hom.space
    basis = window.basis_rows()
    target = prefix_space(space, acceptance_degree)
    tried = []
    chosen = chosen_orbit = None
    for idx, phi in enumerate(hom.dual_basis()):
        images = [hom.act(phi, b) for b in basis]
        orbit = zero_space(space).extend(dict(r) for r in images)
        hit = orbit.contains(target)
        tried.append({"candidate": idx, "orbit_dim": orbit.dim,
                      "target_dim": target.dim, "accepted": hit})
        if hit:
            chosen, chosen_orbit = idx, orbit
            break
    if chosen is None:
        return CyclicReport(st.ring.name, tuple(tried), None, 0,
                            acceptance_degree, 0, False, False, False)
    ann = window.kernel(images, space.dim)
    matches = ann == expected_ann
    consistent = window.dim - ann.dim == chosen_orbit.dim
    return CyclicReport(st.ring.name, tuple(tried), chosen, chosen_orbit.dim,
                        acceptance_degree, ann.dim, matches, consistent,
                        matches and consistent)


def right_ideal_window(amb, gen, window):
    """Window of the right ideal gen * ring (products that fit the cap)."""
    g = amb.encode_sparse(gen)
    rows = []
    for b in window.basis_rows():
        try:
            rows.append(amb.mul(g, b))
        except DegreeOverflowError:
            continue
    return zero_space(amb).extend(rows)


def nilpotent_generator(pres):
    """The presentation generator with zero diagonal (the corner seed)."""
    for name, mat in pres.gens:
        if mat.entry(0, 0).is_zero() and mat.entry(1, 1).is_zero():
            return name, mat
    raise ValueError("presentation has no strictly upper generator")


# --------------------------------------------- stage (iii): endomorphisms

class IdealizerReport(Record):
    fields = ("ring", "window_degree", "ideal_dim", "idealizer_dim",
              "ideal_inside", "right_closed", "right_closed_pairs",
              "product_closed", "product_pairs", "matches_predicted", "ok")


def _product_stability(amb, budget, left_rows, right_rows, sub):
    """Survey a.b in sub for all degree-feasible pairs of kernel rows.

    Pairs whose degree sum exceeds the budget are skipped, not failed;
    beyond the budget a membership test against a window span would
    produce false negatives.
    """
    checked = skipped = 0
    ok = True
    for a in left_rows:
        for b in right_rows:
            if amb.degree(a) + amb.degree(b) > budget:
                skipped += 1
                continue
            checked += 1
            if sub.residual(amb.mul(a, b)):
                ok = False
    return ok, (checked, skipped)


def _covered_through(sub, part, limit):
    """Largest m <= limit with part(0), ..., part(m) inside sub; -1 when
    part(0) is not."""
    for m in range(limit + 1):
        if not sub.contains(part(m)):
            return m - 1
    return limit


def idealizer(ring, window, ideal, generators, predicted=None):
    """{r in window : r * generators inside the ideal}, exactly.

    For a right ideal the generator condition suffices: r(gs) = (rg)s
    stays inside once rg does, and right-closedness of the ideal window
    is surveyed separately.  Returns (report, subspace).
    """
    amb = ring.ambient
    wcap = amb.degcap - max(g.degree() for g in generators)
    domain = restrict_degree(window, wcap)
    gen_rows = [amb.encode_sparse(g) for g in generators]
    images = []
    for b in domain.basis_rows():
        stacked = {}
        for i, g in enumerate(gen_rows):
            res = ideal.residual(amb.mul(b, g))
            stacked.update((i * amb.dim + j, x) for j, x in res.items())
        images.append(stacked)
    ide = domain.kernel(images, len(generators) * amb.dim)
    inside = ide.contains(restrict_degree(ideal, wcap))
    right_closed, rc_pairs = _product_stability(
        amb, amb.degcap, ideal.basis_rows(), ring.pres.gen_rows, ideal)
    closed, pc_pairs = _product_stability(
        amb, wcap, ide.basis_rows(), ide.basis_rows(), ide)
    matches = (None if predicted is None
               else ide == restrict_degree(predicted, wcap))
    ok = (inside and right_closed and closed
          and (matches is None or matches))
    return IdealizerReport(ring.name, wcap, ideal.dim, ide.dim, inside,
                           right_closed, rc_pairs, closed, pc_pairs,
                           matches, ok), ide


def predicted_idealizer(ring):
    """Even diagonal part, arbitrary corner: [[h(x^2), g], [0, h(x^4)]]."""
    return _diagonal_corner_span(ring, 2)


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


def end_ring(ring, window, ideal, generators, predicted=None,
             required_through=None):
    """Stage (iii): the ring maps isomorphically onto End of the cyclic
    dual, realized as idealizer/ideal.

    corner_double is checked to be unital, to land in the idealizer, to
    be multiplicative modulo the ideal, to have zero kernel modulo the
    ideal, and to hit every idealizer class through the stated degree.
    """
    amb = ring.ambient
    ide_rep, ide = idealizer(ring, window, ideal, generators, predicted)
    dcap = (ide_rep.window_degree - 1) // 2
    _require_window(STAGES[2], "the domain degree", dcap)
    required = (amb.degcap // 2 if required_through is None
                else required_through)
    domain = restrict_degree(window, dcap)
    basis = domain.basis_rows()
    images = [corner_double(amb, b) for b in basis]
    lands = not any(ide.residual(dict(m)) for m in images)
    one = amb.encode_sparse(amb.one())
    unital = corner_double(amb, one) == one
    kernel = domain.kernel([ideal.residual(dict(m)) for m in images],
                           amb.dim)
    witness = repr(kernel.basis_matrices()[0]) if kernel.dim else None
    mult_ok = True
    checked = skipped = 0
    # the degree bounds keep both sides inside the cap; two rows are equal
    # modulo the ideal when their residuals are
    for a, ca in zip(basis, images):
        for b, cb in zip(basis, images):
            da, db = amb.degree(a), amb.degree(b)
            if 2 * (da + db) + 1 > amb.degcap or \
                    (2 * da + 1) + (2 * db + 1) > amb.degcap:
                skipped += 1
                continue
            checked += 1
            if (ideal.residual(corner_double(amb, amb.mul(a, b)))
                    != ideal.residual(amb.mul(ca, cb))):
                mult_ok = False
    through = _covered_through(ideal.extend(map(dict, images)),
                               lambda m: restrict_degree(ide, m), amb.degcap)
    ok = (ide_rep.ok and unital and lands and mult_ok and not kernel.dim
          and through >= required)
    return EndRingReport(ring.name, ide_rep, dcap, unital, lands, mult_ok,
                         (checked, skipped), not kernel.dim, witness, through,
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


def dual_identification(ring, window, ideal, left_struct, center,
                        required_presentation=None, required_onto=None):
    """Stage (iv): present the left dual and identify it with the cyclic
    model of the right dual.

    The left dual D1 is shown to be generated by the functionals (0, 1)
    and (0, -x) with relation module generated by (x e12, e12); the map
    slot_shift then identifies ring/ideal with D1, compatibly with the
    left action transported through corner_double and with the right
    action of the diagonal subring.
    """
    amb = ring.ambient
    one = amb.field.one
    cap = amb.degcap
    req_p = cap // 2 if required_presentation is None else \
        required_presentation
    req_o = cap // 4 if required_onto is None else required_onto
    rho_cap = 3
    a_cap = cap - (2 * rho_cap + 1)
    _require_window(STAGES[3], "the left-action degree", a_cap)
    hom1 = HomModule(left_struct, cap + 1)
    space = hom1.space
    phi1 = space.row([(((0,), 0, 1), one)])
    phi2 = space.row([(((1,), 0, 1), -one)])
    basis = window.basis_rows()

    imgs = [hom1.act(phi, b) for phi in (phi1, phi2) for b in basis]
    prefix = partial(prefix_space, space)
    presents_through = _covered_through(
        zero_space(space).extend(map(dict, imgs)), prefix, cap)

    # the relation module (kernel of (b, 0) -> b.phi1, (0, b) -> b.phi2)
    # against the span of the (x^(j+1) e12, x^j e12), as canonical echelons
    p, n = amb.field.p, amb.dim
    kernel = joint_kernel(
        zip(imgs, basis + [joint_row({}, r, n) for r in basis]), space.dim,
        p)
    expected = row_echelon(
        (joint_row(_basis_sum(amb, ((j + 1,), 0, 1)),
                   _basis_sum(amb, ((j,), 0, 1)), n)
         for j in range(_CORNER_LO[ring.name], cap)), p)
    kernel_matches = {min(r): r for r in kernel} == expected

    kills = not any(slot_shift(amb, space, b) for b in ideal.basis_rows())
    psi_imgs = [slot_shift(amb, space, b) for b in basis]
    psi_kernel_matches = window.kernel(psi_imgs, space.dim) == ideal
    psi_onto_through = _covered_through(
        zero_space(space).extend(psi_imgs), prefix, cap)

    left_ok = True
    checked = skipped = 0
    acts = restrict_degree(window, a_cap).basis_rows()
    for rho in restrict_degree(window, rho_cap).basis_rows():
        sig = corner_double(amb, rho)
        for a in acts:
            try:
                prod = amb.mul(sig, a)
            except DegreeOverflowError:
                skipped += 1
                continue
            checked += 1
            lhs = slot_shift(amb, space, prod)
            if lhs != hom1.act(slot_shift(amb, space, a), rho):
                left_ok = False
    t = amb.encode_sparse(center.actor())
    right_ok = True
    # times t, the tuple (u, f) becomes (u x, f x)
    for a in restrict_degree(window, cap - amb.degree(t)).basis_rows():
        lhs = slot_shift(amb, space, amb.mul(a, t))
        rhs = space.row((((d + 1,), 0, s), c)
                        for k, c in slot_shift(amb, space, a).items()
                        for (d,), _, s in [space.coords[k]])
        if lhs != rhs:
            right_ok = False
    ok = (presents_through >= req_p and kernel_matches and kills
          and psi_kernel_matches and psi_onto_through >= req_o
          and left_ok and right_ok)
    return DualIdentificationReport(
        ring.name, presents_through, kernel_matches, kills,
        psi_kernel_matches, psi_onto_through, left_ok, (checked, skipped),
        right_ok, req_p, req_o, ok)


# ------------------------------------------------------------ full chain

class DualizingReport(Record):
    fields = ("ring", "degcap", "free", "cyclic", "endo", "ident",
              "aborted_at", "ok")

    def stage_results(self):
        out = []
        for name, rep in zip(STAGES, (self.free, self.cyclic,
                                      self.endo, self.ident)):
            state = "skipped" if rep is None else \
                ("ok" if rep.ok else "failed")
            out.append((name, state))
        return out

    def to_json(self):
        stages = {"free": self.free, "cyclic": self.cyclic,
                  "endo": self.endo, "ident": self.ident}
        return {"ring": self.ring, "degcap": self.degcap,
                "stages": jsonable(stages),
                "stage_results": jsonable(self.stage_results()),
                "aborted_at": self.aborted_at, "ok": self.ok}


def verify_dualizing(ring=None, degcap=20, field=QQ):
    """Run the four-stage chain; stop at the first failing stage.

    With no arguments this verifies the triangular ring at a window wide
    enough for every stage's degree bookkeeping.  Pass the perturbed ring
    to watch stage (iii) fail: its corner candidate map collapses the
    corner classes into the ideal.
    """
    if ring is None:
        ring = make("R_2x2", degcap=degcap, field=field)
    amb = ring.ambient
    center = CenterEmbedding(amb)
    window = ring_window(ring)

    free_rep = free_structure_report(ring, center, window)
    if not free_rep.ok:
        return DualizingReport(ring.name, amb.degcap, free_rep, None, None,
                               None, STAGES[0], False)
    right_st = FreeModuleStructure(ring, center, "right",
                                   free_rep.right.generators)
    left_st = FreeModuleStructure(ring, center, "left",
                                  free_rep.left.generators)

    _, gen = nilpotent_generator(ring.pres)
    ideal = right_ideal_window(amb, gen, window)
    hom2 = HomModule(right_st, amb.degcap)
    cyc = cyclic_presentation(hom2, window, ideal,
                              (amb.degcap // 2 - 1) // 2)
    if not cyc.ok:
        return DualizingReport(ring.name, amb.degcap, free_rep, cyc, None,
                               None, STAGES[1], False)

    endo = end_ring(ring, window, ideal, [gen],
                    predicted=predicted_idealizer(ring))
    if not endo.ok:
        return DualizingReport(ring.name, amb.degcap, free_rep, cyc, endo,
                               None, STAGES[2], False)

    ident = dual_identification(ring, window, ideal, left_st, center)
    aborted = None if ident.ok else STAGES[3]
    return DualizingReport(ring.name, amb.degcap, free_rep, cyc, endo,
                           ident, aborted, ident.ok)
