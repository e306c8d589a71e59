"""Acceptance gate: the nine headline checks, one test per line of the
verbose run.  Everything is exact arithmetic; there are no tolerances.

Criterion 3 recomputes its expected values through tests/oracle.py, an
independent dense implementation that shares no code with the package.
Criterion 9 executes the randomized suites from test_properties directly.
"""

import json

import oracle
import test_properties
from paper_checks import check_relation, sandwich_zero_sweep, spanning_check

from grfilt.linspace import QuotientContext, zero_space
from grfilt.workbench import (make, staircase_quotient_context,
                              quotient_iso_check, op_involution_report)
from grfilt.filtration import (standard_filtration, weak_adic_filtration,
                               hilbert, induced_quotient_filtration,
                               two_sided_closure)
from grfilt.graded import (GradedTrunc, ideal_chain_witness,
                           verify_chain_report)
from grfilt.bimodule import free_rank, ModuleAction, verify_rank_certificate
from grfilt.certifier import growth_obstruction, verify_certificate
from grfilt.dualizing import (verify_dualizing, free_structure_report,
                              ring_window)

RIGHT_PATTERNS = (((), "alpha", ()), (("beta",), "alpha", ()),
                  (("alpha", "beta"), "alpha", ()))


def test_1_corner_ideal_is_free_of_rank_one_left_and_two_right():
    ring = make("R_2x2", degcap=18)
    carrier = two_sided_closure(ring.pres, [ring.el("beta")])
    expected = {"left": 1, "right": 2}
    for side in ("left", "right"):
        action = ModuleAction(f"corner-ideal:{side}", carrier,
                              ring.el("alpha"), side)
        rep = free_rank(action, 8)
        assert rep.verdict == "free"
        assert rep.rank == expected[side]
        assert verify_rank_certificate(action, rep)


def test_2_ring_is_free_over_the_diagonal_subring_of_rank_two_and_three():
    ring = make("R_2x2", degcap=18)
    window = ring_window(ring)
    rep = free_structure_report(ring, window)
    assert rep.ok
    assert rep.left.rank == 2 and rep.right.rank == 3
    for side, sub in (("left", rep.left), ("right", rep.right)):
        action = ModuleAction("ring over diagonal", window,
                              ring.el("alpha"), side)
        assert verify_rank_certificate(action, sub)


def test_3_hilbert_values_match_the_independent_oracle():
    ring = make("R_2x2", degcap=26)
    filt = standard_filtration(ring.pres, 12)
    vals = list(hilbert(filt).values)
    assert vals == [1] + [3 * n for n in range(1, 13)]
    assert vals == oracle.r2x2_standard_dims(12)
    quo = induced_quotient_filtration(
        ring.pres, two_sided_closure(ring.pres, [ring.el("beta")]), filt)
    qvals = list(hilbert(quo).values)
    assert qvals == [n + 1 for n in range(13)]
    assert qvals == oracle.r2x2_quotient_dims(12)


def test_4_graded_relations_hold_and_three_families_span():
    ring = make("R_2x2", degcap=26)
    filt = standard_filtration(ring.pres, 12)
    gr = GradedTrunc(filt)
    classes = gr.generator_classes(ring.pres)
    assert check_relation(gr, classes, ["alpha", "alpha", "beta"])
    assert not check_relation(gr, classes, ["beta", "alpha", "alpha"])
    all_zero, checked = sandwich_zero_sweep(gr, classes, "beta")
    assert all_zero and checked > 0
    assert spanning_check(gr, classes, RIGHT_PATTERNS).all_covered


def test_5_growth_obstruction_certified_for_every_offset_through_ten():
    ring = make("R_2x2", degcap=44)
    filt = standard_filtration(ring.pres, 21)
    quo = induced_quotient_filtration(
        ring.pres, two_sided_closure(ring.pres, [ring.el("beta")]), filt)
    assert ring.pres.closed_degree >= 2 * 21
    vals = list(hilbert(quo).values)
    assert vals == [n + 1 for n in range(22)]
    cert = growth_obstruction(vals, 1, 2, 10)
    assert hasattr(cert, "rows")
    assert sorted(r["p"] for r in cert.rows) == list(range(1, 11))
    assert verify_certificate(cert)
    blob = json.loads(json.dumps(cert.to_json()))
    assert verify_certificate(blob)


def test_6_one_sided_chains_ascend_in_both_graded_models():
    ring = make("R_2x2", degcap=26)
    filt = standard_filtration(ring.pres, 12)
    gr = GradedTrunc(filt)
    classes = gr.generator_classes(ring.pres)
    words = [["beta"] + ["alpha"] * i for i in range(11)]
    chain = ideal_chain_witness(gr, classes, words, side="left")
    assert chain.strictly_ascending
    assert len(chain.ideal_dims) == 11
    assert verify_chain_report(gr, classes, chain)
    assert spanning_check(gr, classes, RIGHT_PATTERNS).all_covered

    rprime = make("R_prime")
    adic = weak_adic_filtration(rprime.pres, 10)
    gra = GradedTrunc(adic)
    ca = gra.generator_classes(rprime.pres)
    assert check_relation(gra, ca, ["beta", "alpha"])
    assert check_relation(gra, ca, ["beta", "beta"])
    assert not check_relation(gra, ca, ["alpha", "beta"])
    left_patterns = (((), "alpha", ()), ((), "alpha", ("beta",)))
    assert spanning_check(gra, ca, left_patterns).all_covered
    rwords = [["alpha"] * i + ["beta"] for i in range(7)]
    rchain = ideal_chain_witness(gra, ca, rwords, side="right")
    assert rchain.strictly_ascending
    assert list(rchain.ideal_dims) == [1, 2, 3, 4, 5, 6, 7]
    assert verify_chain_report(gra, ca, rchain)


def test_7_dualizing_chain_verifies_and_the_perturbed_control_aborts():
    rep = verify_dualizing(make("R_2x2", degcap=20))
    assert rep.ok and rep.aborted_at is None
    assert [state for _, state in rep.stage_results()] == ["ok"] * 4
    bad = verify_dualizing(make("R_perturbed", degcap=20))
    assert not bad.ok
    assert bad.aborted_at == "endomorphism-ring"
    assert bad.endo is not None and not bad.endo.injective


def test_8_staircase_quotient_matches_the_triangular_ring():
    ring_t = make("T")
    pres, ctx = staircase_quotient_context(ring_t, degcap=12)
    ring_r = make("R_2x2", degcap=12)
    pairs = [(pres.gen("alpha"), ring_r.el("alpha")),
             (pres.gen("e12"), ring_r.el("beta"))]
    plain = QuotientContext(zero_space(ring_r.ambient))
    rep = quotient_iso_check(ctx, plain, pairs, max_len=4)
    assert rep.consistent
    assert rep.dim_a == rep.dim_b == rep.dim_joint
    invol = op_involution_report(ring_t)
    assert invol["shape_preserved"] and invol["anti_multiplicative"]


def test_9_randomized_invariant_suites_pass():
    test_properties.test_products_respect_the_filtration()
    test_properties.test_layers_are_linear_windows()
    test_properties.test_hilbert_transport_along_offsets()
    test_properties.test_symbol_map_is_multiplicative()
    test_properties.test_corner_rank_certificates_reverify()
    test_properties.test_random_action_reports_reverify()
    test_properties.test_growth_certificates_verify()
    test_properties.test_tampered_growth_certificates_fail()
    test_properties.test_dilation_is_an_algebra_map()
