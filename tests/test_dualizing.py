"""Four-stage dualizing-bimodule verification chain.

The honest control is the perturbed ring (nilpotent generator lifted one
degree): its module structure and cyclic dual still work out, and the
chain must break exactly at the endomorphism-ring stage.
"""

import json

import pytest

from grfilt.fields import QQ
from grfilt.poly import Poly, PolyMatrix
from grfilt.workbench import make
from grfilt.dualizing import (STAGES, verify_dualizing, ring_window,
                              CenterEmbedding, free_structure_report,
                              FreeModuleStructure, HomModule,
                              nilpotent_generator, right_ideal_window,
                              idealizer, predicted_idealizer, corner_double,
                              slot_shift)


@pytest.fixture(scope="module")
def full_report():
    return verify_dualizing(degcap=20)


@pytest.fixture(scope="module")
def perturbed_report():
    return verify_dualizing(ring=make("R_perturbed", degcap=20))


def test_all_four_stages_pass(full_report):
    assert full_report.ok and full_report.aborted_at is None
    assert [s for _, s in full_report.stage_results()] == ["ok"] * 4


def test_module_structure_ranks(full_report):
    assert full_report.free.left.rank == 2
    assert full_report.free.right.rank == 3
    assert list(full_report.free.left.generator_degrees) == [0, 0]
    assert list(full_report.free.right.generator_degrees) == [0, 0, 1]


def test_cyclic_generator_is_the_third_candidate(full_report):
    cyc = full_report.cyclic
    assert cyc.generator_index == 2
    assert [c["accepted"] for c in cyc.candidates] == [False, False, True]
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
    endo = full_report.endo
    assert endo.unital and endo.lands_in_idealizer and endo.multiplicative
    assert endo.injective and endo.kernel_witness is None
    assert endo.surjective_through >= endo.required_through == 10
    checked, skipped = endo.multiplicative_pairs
    assert checked > 100


def test_identification_stage_values(full_report):
    ident = full_report.ident
    assert ident.presentation_kernel_matches
    assert ident.psi_kills_ideal and ident.psi_kernel_matches
    assert ident.presents_through >= ident.required_presentation
    assert ident.psi_onto_through >= ident.required_onto
    assert ident.left_equivariant and ident.right_c_equivariant
    pairs, skipped = ident.left_pairs
    assert pairs > 100 and skipped == 0


def test_report_serializes(full_report, perturbed_report):
    for rep in (full_report, perturbed_report):
        blob = json.dumps(rep.to_json())
        assert "stage_results" in blob


def test_perturbed_ring_breaks_at_endomorphisms(perturbed_report):
    rep = perturbed_report
    assert not rep.ok
    assert rep.aborted_at == STAGES[2] == "endomorphism-ring"
    states = dict(rep.stage_results())
    assert states["free-module-structure"] == "ok"
    assert states["cyclic-dual-generator"] == "ok"
    assert states["endomorphism-ring"] == "failed"
    assert states["dual-identification"] == "skipped"


def test_perturbed_module_structure(perturbed_report):
    # right basis climbs to degree 2: {1, x e12, x^2 e12}
    assert list(perturbed_report.free.right.generator_degrees) == [0, 1, 2]
    assert perturbed_report.cyclic.annihilator_dim == 10


def test_perturbed_kernel_witness_is_the_corner(perturbed_report):
    endo = perturbed_report.endo
    assert not endo.injective
    assert endo.kernel_witness == "[0, x; 0, 0]"
    assert endo.surjective_through < endo.required_through


def test_corner_double_is_multiplicative():
    ring = make("R_2x2", degcap=20)
    amb = ring.ambient
    a, b = ring.el("alpha"), ring.el("beta")
    pairs = [(a, b), (b, a), (a, a), (a * b, b)]
    for u, v in pairs:
        lhs = corner_double(u * v, QQ)
        rhs = corner_double(u, QQ) * corner_double(v, QQ)
        assert lhs == rhs
    assert corner_double(amb.one(), QQ) == amb.one()


def test_slot_shift_splits_odd_part():
    x = Poly.variable(QQ, 1, 0)
    g = x + x * x + x * x * x  # odd part x + x^3 = x(1 + x^2)
    m = PolyMatrix([[x * x, g], [Poly.zero(QQ, 1), Poly.zero(QQ, 1)]])
    u, f = slot_shift(m, QQ)
    assert u == Poly(QQ, 1, {(0,): QQ.one, (1,): QQ.one})
    assert f == x * x


def test_free_structure_from_parts():
    ring = make("R_2x2", degcap=20)
    center = CenterEmbedding(ring.ambient)
    window = ring_window(ring)
    rep = free_structure_report(ring, center, window, depth=8)
    assert rep.ok
    st = FreeModuleStructure(ring, center, "right", rep.right.generators)
    hom = HomModule(st, ring.ambient.degcap)
    assert len(hom.dual_basis()) == 3
    amb = ring.ambient
    coords = st.solve(amb.mul(amb.encode_sparse(ring.el("alpha")),
                              amb.encode_sparse(ring.el("beta"))))
    # alpha*beta = x e12 sits in the odd corner slot
    assert [repr(c) for c in coords] == ["0", "0", "1"]
