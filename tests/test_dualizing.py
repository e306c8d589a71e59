"""Four-stage dualizing-bimodule verification chain.

The honest control is the perturbed ring (nilpotent generator lifted one
degree): its module structure and cyclic dual still work out, and the
chain must break exactly at the endomorphism-ring stage.  Both chains run
over Q, F_2 and F_101: the row maps reduce mod p, and in characteristic 2
the functional (0, -x) is (0, x), yet every stage reads the same.

The matrix and Poly-tuple forms of corner_double, slot_shift and
HomModule.act are kept here as reference functions, and the kernel-row
maps are checked against them.
"""

import json

import pytest

from grfilt.fields import QQ, PrimeField
from grfilt.poly import Poly, PolyMatrix
from grfilt.linalg import combine_rows
from grfilt.linspace import Ambient, DegreeOverflowError, restrict_degree
from grfilt.workbench import make
from grfilt.dualizing import (STAGES, verify_dualizing, ring_window,
                              CenterEmbedding, free_structure_report,
                              FreeModuleStructure, HomModule,
                              nilpotent_generator, right_ideal_window,
                              idealizer, predicted_idealizer, corner_double,
                              slot_shift)

FIELDS = (QQ, PrimeField(2), PrimeField(101))


@pytest.fixture(scope="module")
def full_report():
    """The chain at degcap 20 over each of FIELDS, in that order."""
    return [verify_dualizing(degcap=20, field=f) for f in FIELDS]


@pytest.fixture(scope="module")
def perturbed_report():
    return [verify_dualizing(ring=make("R_perturbed", degcap=20, field=f))
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
    ideal = right_ideal_window(ring.ambient, gen, window)
    rep, ide = idealizer(ring, window, ideal, [gen],
                         predicted=predicted_idealizer(ring))
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
    center = CenterEmbedding(ring.ambient)
    window = ring_window(ring)
    rep = free_structure_report(ring, center, window, depth=8)
    assert rep.ok
    st = FreeModuleStructure(ring, center, "right", rep.right.generators)
    hom = HomModule(st, ring.ambient.degcap)
    # the unit functionals, in the tuple space's slots 0, 1, 2
    assert hom.dual_basis() == [{0: QQ.one}, {1: QQ.one}, {2: QQ.one}]
    amb = ring.ambient
    combo = st.solve(amb.mul(amb.encode_sparse(ring.el("alpha")),
                             amb.encode_sparse(ring.el("beta"))))
    # alpha*beta = x e12 sits in the odd corner slot, power 0
    assert combo == {(2, 0): QQ.one}


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
    st = hom.structure
    amb, fld = st.ambient, st.ambient.field
    out = [Poly.zero(fld, 1)] * st.rank
    for j, v in enumerate(st.basis):
        w = amb.mul(a, v) if st.side == "right" else amb.mul(v, a)
        coords = [Poly.zero(fld, 1)] * st.rank
        for (i, k), c in st.solve(w).items():
            coords[i] = coords[i] + Poly(fld, 1, {(k,): c})
        for i in range(st.rank):
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
    center = CenterEmbedding(amb)
    window = ring_window(ring)
    rep = free_structure_report(ring, center, window)
    x, one = Poly.variable(fld, 1, 0), Poly.const(fld, 1, fld.one)
    for side in ("left", "right"):
        st = FreeModuleStructure(ring, center, side,
                                 getattr(rep, side).generators)
        hom = HomModule(st, amb.degcap + 1)
        phis = [tuple(x * x if i == k else one for i in range(st.rank))
                for k in range(st.rank)]
        phis += [tuple(Poly.zero(fld, 1) if i else -x - Poly.const(fld, 1, fld.of(3))
                       for i in range(st.rank))]
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
