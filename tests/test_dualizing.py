"""Four-stage dualizing-bimodule verification chain.

The honest control is the perturbed ring (nilpotent generator lifted one
degree): its module structure and cyclic dual still work out, and the
chain must break exactly at the endomorphism-ring stage.  Both chains run
over Q, F_2 and F_101: the row maps reduce mod p, and in characteristic 2
the functional (0, -x) is (0, x), yet every stage reads the same.

The matrix and Poly-tuple forms of corner_double, slot_shift and
HomModule.act are kept here as reference functions, and the kernel-row
maps are checked against them; so is the span HomModule once rebuilt
from a report's generators, which it now reads off the stage (i) scan,
and so is the per-degree coverage loop that
_covered_through's one pass over the degree cuts replaced, and so are
the window recipes, keyed by ring name, that the window grown from the
presentation and the predictions read off its corner replaced.
"""

import json
import random

import pytest

from grfilt.fields import QQ, PrimeField
from grfilt.poly import Poly, PolyMatrix
from grfilt.linalg import SpanTracker, combine_rows, joint_row, row_echelon
from grfilt.linspace import (Ambient, DegreeOverflowError, prefix_space,
                             restrict_degree, zero_space)
from grfilt.filtration import hilbert, standard_filtration
from grfilt.workbench import make
from grfilt.bimodule import ModuleAction
from grfilt import dualizing
from grfilt.dualizing import (STAGES, verify_dualizing, ring_window,
                              free_structure_report, HomModule,
                              nilpotent_generator, right_ideal_window,
                              idealizer, predicted_idealizer, corner_double,
                              slot_shift, _corner_relations,
                              _covered_through)

FIELDS = (QQ, PrimeField(2), PrimeField(101))


@pytest.fixture(scope="module")
def full_report():
    """The chain at degcap 20 over each of FIELDS, in that order."""
    return [verify_dualizing(make("R_2x2", degcap=20, field=f))
            for f in FIELDS]


@pytest.fixture(scope="module")
def perturbed_report():
    return [verify_dualizing(make("R_perturbed", degcap=20, field=f))
            for f in FIELDS]


def test_all_four_stages_pass(full_report):
    for rep in full_report:
        assert rep.ok and rep.aborted_at is None
        assert [s for _, s in rep.stage_results()] == ["ok"] * 4


def test_module_structure_ranks(full_report):
    for rep in full_report:
        assert rep.free.left.rank == 2
        assert rep.free.right.rank == 3
        assert list(rep.free.left.generator_degrees) == [0, 0]
        assert list(rep.free.right.generator_degrees) == [0, 0, 1]


def test_cyclic_generator_is_the_third_candidate(full_report):
    for rep in full_report:
        cyc = rep.cyclic
        assert cyc.generator_index == 2
        assert [c["accepted"] for c in cyc.candidates] == [False, False,
                                                           True]
        # orbit dims observed for the three dual functionals
        assert [c["orbit_dim"] for c in cyc.candidates] == [11, 22, 21]
        assert cyc.annihilator_dim == 11
        assert cyc.annihilator_matches and cyc.dims_consistent


def test_idealizer_matches_predicted_shape():
    ring = make("R_2x2", degcap=20)
    window = ring_window(ring)
    _, gen = nilpotent_generator(ring.pres)
    ideal = right_ideal_window(gen, window)
    rep, ide = idealizer(ring, window, ideal, gen)
    assert rep.ok and rep.matches_predicted
    # diag(h(x^2), h(x^4)) block: 6 dims, plus all 21 corner dims
    assert ide.dim == 27


def test_endomorphism_stage_values(full_report):
    for rep in full_report:
        endo = rep.endo
        assert endo.unital and endo.lands_in_idealizer
        assert endo.multiplicative
        assert endo.injective and endo.kernel_witness is None
        assert endo.surjective_through >= endo.required_through == 10
        checked, skipped = endo.multiplicative_pairs
        assert checked > 100


def test_identification_stage_values(full_report):
    for rep in full_report:
        ident = rep.ident
        assert ident.presentation_kernel_matches
        assert ident.psi_kills_ideal and ident.psi_kernel_matches
        assert ident.presents_through >= ident.required_presentation
        assert ident.psi_onto_through >= ident.required_onto
        assert ident.left_equivariant and ident.right_c_equivariant
        pairs, skipped = ident.left_pairs
        assert pairs > 100 and skipped == 0


def test_report_serializes(full_report, perturbed_report):
    for rep in full_report + perturbed_report:
        blob = json.dumps(rep.to_json())
        assert "stage_results" in blob
    # without a kernel witness the payload does not depend on the field
    blobs = [json.dumps(rep.to_json()) for rep in full_report]
    assert blobs == blobs[:1] * len(FIELDS)


def test_perturbed_ring_breaks_at_endomorphisms(perturbed_report):
    for rep in perturbed_report:
        assert not rep.ok
        assert rep.aborted_at == STAGES[2] == "endomorphism-ring"
        states = dict(rep.stage_results())
        assert states["free-module-structure"] == "ok"
        assert states["cyclic-dual-generator"] == "ok"
        assert states["endomorphism-ring"] == "failed"
        assert states["dual-identification"] == "skipped"


@pytest.mark.parametrize("failing", range(len(STAGES)))
def test_the_verdict_is_read_off_the_first_failed_stage(failing, full_report,
                                                        monkeypatch):
    fn = ("free_structure_report", "cyclic_presentation", "end_ring",
          "dual_identification")[failing]
    real = getattr(dualizing, fn)
    monkeypatch.setattr(dualizing, fn,
                        lambda *args: real(*args).replace(ok=False))
    rep = verify_dualizing(make("R_2x2", degcap=20))
    assert not rep.ok and rep.aborted_at == STAGES[failing]
    stages = (rep.free, rep.cyclic, rep.endo, rep.ident)
    passed = (full_report[0].free, full_report[0].cyclic,
              full_report[0].endo, full_report[0].ident)
    assert [r.to_json() for r in stages[:failing]] == \
        [r.to_json() for r in passed[:failing]]
    assert stages[failing].to_json() == \
        passed[failing].replace(ok=False).to_json()
    assert stages[failing + 1:] == (None,) * (len(STAGES) - failing - 1)
    assert [s for _, s in rep.stage_results()] == \
        ["ok"] * failing + ["failed"] + \
        ["skipped"] * (len(STAGES) - failing - 1)
    payload = rep.to_json()
    assert list(payload) == ["ring", "degcap", "stages", "stage_results",
                             "aborted_at", "ok"]
    assert (payload["aborted_at"], payload["ok"]) == (STAGES[failing], False)
    # the verdict is read off the stages, never stored beside them
    for field in ("aborted_at", "ok"):
        with pytest.raises(TypeError):
            rep.replace(**{field: None})


def test_perturbed_module_structure(perturbed_report):
    for rep in perturbed_report:
        # right basis climbs to degree 2: {1, x e12, x^2 e12}
        assert list(rep.free.right.generator_degrees) == [0, 1, 2]
        assert rep.cyclic.annihilator_dim == 10


def test_perturbed_kernel_witness_is_the_corner(perturbed_report):
    for fld, rep in zip(FIELDS, perturbed_report):
        endo = rep.endo
        assert not endo.injective
        # the witness is a matrix repr, so F_p spells its unit coefficient
        unit = "" if fld is QQ else f"1~{fld.p}*"
        assert endo.kernel_witness == f"[0, {unit}x; 0, 0]"
        assert endo.surjective_through < endo.required_through


def test_corner_double_is_multiplicative():
    for fld in FIELDS:
        ring = make("R_2x2", degcap=20, field=fld)
        amb = ring.ambient
        a, b = (amb.encode_sparse(ring.el(nm)) for nm in ("alpha", "beta"))
        pairs = [(a, b), (b, a), (a, a), (amb.mul(a, b), b)]
        for u, v in pairs:
            lhs = corner_double(amb, amb.mul(u, v))
            rhs = amb.mul(corner_double(amb, u), corner_double(amb, v))
            assert lhs == rhs
        one = amb.encode_sparse(amb.one())
        assert corner_double(amb, one) == one


def test_slot_shift_splits_odd_part():
    amb = make("R_2x2", degcap=6).ambient
    space = Ambient(2, 1, 7, rows=1)
    x = Poly.variable(QQ, 1, 0)
    g = x + x * x + x * x * x  # odd part x + x^3 = x(1 + x^2)
    m = PolyMatrix([[x * x, g], [Poly.zero(QQ, 1), Poly.zero(QQ, 1)]])
    # (u, f) = (1 + x, x^2): slot 0 holds u, slot 1 holds f
    assert slot_shift(amb, space, amb.encode_sparse(m)) == space.row(
        [(((0,), 0, 0), QQ.one), (((1,), 0, 0), QQ.one),
         (((2,), 0, 1), QQ.one)])


def test_free_structure_from_parts():
    ring = make("R_2x2", degcap=20)
    window = ring_window(ring)
    rep = free_structure_report(ring, window)
    assert rep.ok
    hom = HomModule(ring, rep.right, ring.ambient.degcap)
    # the unit functionals, in the tuple space's slots 0, 1, 2
    assert hom.dual_basis() == [{0: QQ.one}, {1: QQ.one}, {2: QQ.one}]
    amb = ring.ambient
    combo = hom.solve(amb.mul(amb.encode_sparse(ring.el("alpha")),
                              amb.encode_sparse(ring.el("beta"))))
    # alpha*beta = x e12 sits in the odd corner slot, power 0
    assert combo == {(2, 0): QQ.one}


def test_a_side_other_than_left_or_right_is_refused():
    ring = make("R_2x2", degcap=8)
    side_error = "side must be 'left' or 'right'"
    with pytest.raises(ValueError, match=side_error):
        ModuleAction("m", None, ring.el("alpha"), "middle")


@pytest.mark.parametrize("fld", [QQ, PrimeField(101)], ids=str)
def test_survey_counts_add_up_to_the_pairs_surveyed(fld):
    """Each (checked, skipped) pair of the chain sums to the pairs its
    survey ranges over, and stage (iv)'s left survey skips none: its
    acting window leaves room for the doubled rho."""
    for cap in range(8, 25):
        ring = make("R_2x2", degcap=cap, field=fld)
        window = ring_window(ring)
        rep = verify_dualizing(ring)
        endo, ident = rep.endo, rep.ident
        ide = endo.idealizer
        domain = restrict_degree(window, endo.domain_degree)
        # stage (iv) doubles each rho of degree <= 3 and acts on degree
        # <= cap - 7
        n_rho = restrict_degree(window, 3).dim
        n_acts = restrict_degree(window, cap - 7).dim
        assert sum(endo.multiplicative_pairs) == domain.dim ** 2
        assert sum(ide.right_closed_pairs) == \
            ide.ideal_dim * len(ring.pres.gen_rows)
        assert sum(ide.product_pairs) == ide.idealizer_dim ** 2
        assert sum(ident.left_pairs) == n_rho * n_acts
        assert ident.left_pairs[1] == 0


# ------------------------------------- row maps against matrix references

def ref_corner_double(mat, field):
    """(f, g) -> [[f(x^2), x g(x^2)], [0, f(x^4)]] on matrices."""
    f, g = mat.entry(0, 0), mat.entry(0, 1)
    x = Poly.variable(field, 1, 0)
    return PolyMatrix([[f.dilate(2), x * g.dilate(2)],
                       [Poly.zero(field, 1), f.dilate(4)]])


def ref_slot_shift(mat, field):
    """(f, g) -> (u, f) with g = g_ev(x^2) + x u(x^2), as Poly tuples."""
    u = Poly(field, 1, {((d - 1) // 2,): c
                        for (d,), c in mat.entry(0, 1).terms.items()
                        if d % 2})
    return (u, mat.entry(0, 0))


def ref_act(hom, phi, a):
    """HomModule.act on Poly tuples: slot j of the image pairs phi with
    the coefficient polynomials of the translated basis element v_j."""
    amb, fld = hom.ambient, hom.ambient.field
    rank = len(hom.basis)
    out = [Poly.zero(fld, 1)] * rank
    for j, v in enumerate(hom.basis):
        w = amb.mul(a, v) if hom.side == "right" else amb.mul(v, a)
        coords = [Poly.zero(fld, 1)] * rank
        for (i, k), c in hom.solve(w).items():
            coords[i] = coords[i] + Poly(fld, 1, {(k,): c})
        for i in range(rank):
            out[j] = out[j] + phi[i] * coords[i]
    return tuple(out)


def tuple_row(space, polys):
    """The tuple ambient's row of a Poly tuple."""
    return space.row(((e, 0, s), c) for s, poly in enumerate(polys)
                     for e, c in poly.terms.items())


def encoded_or_overflow(fn):
    try:
        return fn()
    except DegreeOverflowError:
        return DegreeOverflowError


@pytest.mark.parametrize("fld", [QQ, PrimeField(101)], ids=str)
def test_row_maps_match_matrix_references(fld):
    ring = make("R_2x2", degcap=12, field=fld)
    amb = ring.ambient
    window = ring_window(ring)
    space = Ambient(2, 1, amb.degcap + 1, fld, rows=1)
    for b in window.basis_rows():
        mat = amb.decode_sparse(b)
        # past the cap both forms overflow (the doubled diagonal, f(x^4))
        assert encoded_or_overflow(lambda: corner_double(amb, b)) == \
            encoded_or_overflow(
                lambda: amb.encode_sparse(ref_corner_double(mat, fld)))
        assert slot_shift(amb, space, b) == \
            tuple_row(space, ref_slot_shift(mat, fld))


@pytest.mark.parametrize("fld", [QQ, PrimeField(101)], ids=str)
def test_hom_action_matches_poly_tuple_reference(fld):
    ring = make("R_2x2", degcap=12, field=fld)
    amb = ring.ambient
    window = ring_window(ring)
    rep = free_structure_report(ring, window)
    x, one = Poly.variable(fld, 1, 0), Poly.const(fld, 1, fld.one)
    for side in ("left", "right"):
        hom = HomModule(ring, getattr(rep, side), amb.degcap + 1)
        rank = len(hom.basis)
        phis = [tuple(x * x if i == k else one for i in range(rank))
                for k in range(rank)]
        phis += [tuple(Poly.zero(fld, 1) if i else -x - Poly.const(fld, 1, fld.of(3))
                       for i in range(rank))]
        rows = restrict_degree(window, 6).basis_rows()
        # and one combination, so that solve's coefficients are not units
        rows += [combine_rows({i: fld.of(i + 2) for i in range(len(rows))},
                              rows, fld.p)]
        for phi in phis:
            for a in rows:
                assert hom.act(tuple_row(hom.space, phi), a) == \
                    tuple_row(hom.space, ref_act(hom, phi, a))


def test_tuple_row_applies_the_cap_and_reduces_mod_p():
    f101 = PrimeField(101)
    sp = Ambient(2, 1, 5, f101, rows=1)
    with pytest.raises(DegreeOverflowError):
        sp.row([(((6,), 0, 0), 1)])
    # terms that cancel mod p vanish, past the cap too, before the cap
    # is applied
    assert sp.row([(((1,), 0, 1), 101), (((6,), 0, 0), 50),
                   (((6,), 0, 0), 51)]) == {}
    assert sp.row([(((1,), 0, 1), 3), (((1,), 0, 1), -1),
                   (((0,), 0, 0), 102)]) == {1 * 2 + 1: 2, 0: 1}


# ------------------------------------- the dual's span against its rebuild

def hom_span_reference(ring, side, basis):
    """The tagged span HomModule built from a basis of matrices: each
    basis element re-encoded, and its alpha-ladder on the given side
    added under the tag (slot, power)."""
    amb = ring.ambient
    ladder = ModuleAction("ladder", zero_space(amb), ring.el("alpha"), side)
    tracker = SpanTracker(amb.field, amb.dim)
    for i, v in enumerate(map(amb.encode_sparse, basis)):
        for k, w in enumerate(ladder.power_orbit(v)):
            tracker.add(w, (i, k))
    return tracker


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_the_scan_span_is_the_rebuilt_span(fld):
    for name in ("R_2x2", "R_perturbed"):
        for cap in range(8, 41):
            ring = make(name, degcap=cap, field=fld)
            rep = free_structure_report(ring, ring_window(ring))
            for side in ("left", "right"):
                sub = getattr(rep, side)
                assert HomModule(ring, sub, cap)._tracker is sub.span
                basis = map(ring.ambient.decode_sparse, sub.generators)
                ref = hom_span_reference(ring, side, basis)
                assert (sub.span.rows, sub.span.tags) == \
                    (ref.rows, ref.tags), (name, cap, side)


# ------------------------------------- coverage scan against its old loop

def covered_through_reference(sub, part, limit):
    """Largest m <= limit with the cuts of part through degree 0, ..., m
    inside sub, one restrict_degree per m; -1 when degree 0's is not."""
    for m in range(limit + 1):
        if not sub.contains(restrict_degree(part, m)):
            return m - 1
    return limit


def random_space(amb, rng, nrows):
    """The span of nrows sparse rows with small nonzero coefficients."""
    return zero_space(amb).extend(
        amb.row((amb.coords[rng.randrange(amb.dim)], rng.choice((-2, 1, 3)))
                for _ in range(rng.randint(1, 3)))
        for _ in range(nrows))


@pytest.mark.parametrize("fld", [QQ, PrimeField(7), PrimeField(101)],
                         ids=str)
def test_covered_through_matches_the_per_degree_loop(fld):
    rng = random.Random(29)
    for shape in ("ring", "tuple"):
        amb = Ambient(2, 1, 5, fld, rows=None if shape == "ring" else 1)
        zero = zero_space(amb)
        cases = [(zero, zero), (zero, prefix_space(amb, 5)),
                 (prefix_space(amb, 2), prefix_space(amb, 5)),
                 (prefix_space(amb, 5), prefix_space(amb, 3))]
        for _ in range(40):
            part = random_space(amb, rng, rng.randint(0, 8))
            sub = random_space(amb, rng, rng.randint(0, 12))
            cases += [(sub, part), (sub.extend(
                restrict_degree(part, rng.randint(0, 4)).basis_rows()),
                part)]
        results = set()
        for sub, part in cases:
            # limits below, at and past the part's top degree
            for limit in range(-1, amb.degcap + 2):
                got = _covered_through(sub, part, limit)
                assert got == covered_through_reference(sub, part, limit)
                results.add(got)
        assert -1 in results and amb.degcap in results
        assert set(range(amb.degcap)) <= results


@pytest.mark.parametrize("fld", [QQ, PrimeField(101)], ids=str)
def test_chain_coverage_matches_the_per_degree_loop(fld):
    # end_ring's idealizer cut and dual_identification's prefix spaces,
    # as the chain builds them
    ring = make("R_2x2", degcap=12, field=fld)
    amb = ring.ambient
    window = ring_window(ring)
    _, gen = nilpotent_generator(ring.pres)
    ideal = right_ideal_window(gen, window)
    _, ide = idealizer(ring, window, ideal, gen)
    dcap = (amb.degcap - gen.degree() - 1) // 2
    images = ideal.extend(corner_double(amb, b) for b in
                          restrict_degree(window, dcap).basis_rows())
    rep = free_structure_report(ring, window)
    hom = HomModule(ring, rep.left, amb.degcap + 1)
    space = hom.space
    psi = zero_space(space).extend(
        slot_shift(amb, space, b) for b in window.basis_rows())
    for sub, part in ((images, ide), (ideal, ide),
                      (psi, prefix_space(space, amb.degcap))):
        for limit in (amb.degcap // 4, amb.degcap):
            assert _covered_through(sub, part, limit) == \
                covered_through_reference(sub, part, limit)


# ---------------------------------- window recipes against the grown window

CORNER_LO = {"R_2x2": 0, "R_perturbed": 1}


def recipe_span(ring, step):
    """The span the chain once listed by ring name: diag(x^(step k),
    x^(2 step k)) for every k that fits the cap, and x^j e12 from the
    ring's lowest corner degree up to the cap.  Step 1 was the window,
    step 2 the predicted idealizer."""
    amb = ring.ambient
    rows = [amb.row([(((step * k,), 0, 0), 1), (((2 * step * k,), 1, 1), 1)])
            for k in range(amb.degcap // (2 * step) + 1)]
    rows += [amb.row([(((j,), 0, 1), 1)])
             for j in range(CORNER_LO[ring.name], amb.degcap + 1)]
    return zero_space(amb).extend(rows)


def recipe_relations(ring):
    """Stage (iv)'s relation module as once listed by ring name: the
    joint rows (x^(j+1) e12, x^j e12) from the lowest corner degree."""
    amb = ring.ambient
    return row_echelon(
        (joint_row(amb.row([(((j + 1,), 0, 1), 1)]),
                   amb.row([(((j,), 0, 1), 1)]), amb.dim)
         for j in range(CORNER_LO[ring.name], amb.degcap)), amb.field.p)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_grown_window_equals_the_named_recipe(fld):
    for name in CORNER_LO:
        for cap in range(2, 41):
            ring = make(name, degcap=cap, field=fld)
            assert ring_window(ring) == recipe_span(ring, 1), (name, cap)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_corner_predictions_equal_the_named_recipe(fld):
    for name in CORNER_LO:
        for cap in range(8, 41):
            ring = make(name, degcap=cap, field=fld)
            window = ring_window(ring)
            t = ring.ambient.encode_sparse(ring.el("alpha"))
            assert predicted_idealizer(window) == recipe_span(ring, 2)
            assert _corner_relations(window, t) == recipe_relations(ring)


def test_a_renamed_ring_runs_the_same_chain(full_report):
    ring = make("R_2x2", degcap=20)
    ring = ring.replace(pres=ring.pres.replace(name="R_copy"))
    assert ring.name == "R_copy"
    filt = standard_filtration(ring.pres, 3)
    assert filt.name == hilbert(filt).name == "standard:R_copy"
    copy = verify_dualizing(ring)
    assert copy.ok and copy.ring == "R_copy"
    assert copy.stage_results() == full_report[0].stage_results()
    blob = json.dumps(copy.to_json())
    assert "R_2x2" not in blob
    assert blob.replace("R_copy", "R_2x2") == \
        json.dumps(full_report[0].to_json())


@pytest.mark.parametrize("name, why", [
    ("S", "2x2 rings over k"), ("T", "2x2 rings over k"),
    ("R_prime", "polynomial mode"), ("C_diag", "no strictly upper")])
def test_a_ring_the_chain_cannot_read_is_refused_first(name, why,
                                                       monkeypatch):
    def stage(*args):
        raise AssertionError("a stage ran")
    for fn in ("ring_window", "free_structure_report", "cyclic_presentation",
               "end_ring", "dual_identification"):
        monkeypatch.setattr(dualizing, fn, stage)
    with pytest.raises(ValueError, match=why):
        verify_dualizing(make(name))
