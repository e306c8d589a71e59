"""One-sided rank certificates over k[t] windows.

torsion_window_reference is the torsion window that _has_kernel reads
at power 1, as bimodule once computed it for any power; _has_kernel is
checked against it."""

import pytest

from grfilt.fields import QQ, PrimeField
from grfilt.workbench import make
from grfilt.filtration import two_sided_closure, WindowExceeded
from grfilt.bimodule import (ModuleAction, free_rank,
                             verify_rank_certificate, _has_kernel,
                             slope_table, goldie_rank,
                             verify_goldie_certificate, bimodule_ranks,
                             GoldieReport, corner_ideal,
                             KERNEL_VERDICT as _KERNEL_VERDICT)
from grfilt.linspace import (span, restrict_degree, intersect, sum_spaces,
                             zero_space)
from grfilt.dualizing import ring_window


def torsion_window_reference(action, max_power):
    """Window part of the torsion submodule: elements killed by t^K, K =
    max_power, among the carrier elements whose K products fit the cap."""
    amb = action.ambient
    dt = max(action.actor.degree(), 1)
    domain = restrict_degree(action.carrier, amb.degcap - max_power * dt) \
        if not amb.series else action.carrier
    if domain.dim == 0:
        return zero_space(amb)
    images = []
    for m in domain.basis_rows():
        for _ in range(max_power):
            m = action.apply(m)
        images.append(m)
    return domain.kernel(images)


@pytest.fixture(scope="module")
def corner():
    ring, actions = corner_ideal("corner", 8, QQ)
    assert ring.ambient.degcap == 18
    return ring, actions


def test_an_action_reads_its_ambient_off_its_carrier(corner):
    ring, actions = corner
    act = actions["left"]
    assert act.ambient is act.carrier.ambient
    with pytest.raises(TypeError):
        act.replace(ambient=make("R_2x2").ambient)


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=str)
def test_corner_ideal_is_one_actor_on_one_carrier_from_both_sides(field):
    ring, actions = corner_ideal("corner", 6, field)
    left, right = actions["left"], actions["right"]
    assert (left.name, left.side) == ("corner:left", "left")
    assert (right.name, right.side) == ("corner:right", "right")
    assert left.carrier is right.carrier
    assert left.actor is right.actor
    assert left.actor == ring.el("alpha")


def test_corner_ranks_one_and_two(corner):
    ring, actions = corner
    left = free_rank(actions["left"], 8)
    right = free_rank(actions["right"], 8)
    assert (left.verdict, left.rank) == ("free", 1)
    assert (right.verdict, right.rank) == ("free", 2)
    assert list(left.generator_degrees) == [0]
    assert list(right.generator_degrees) == [0, 1]
    # alpha raises corner degree by 1 from the left, 2 from the right
    assert left.effective_step == 1 and right.effective_step == 2


def test_rank_certificates_reverify(corner):
    ring, actions = corner
    for side in ("left", "right"):
        act = actions[side]
        rep = free_rank(act, 8)
        assert verify_rank_certificate(act, rep)


def test_shallow_depth_is_inconclusive(corner):
    ring, actions = corner
    rep = free_rank(actions["right"], 1)
    assert rep.verdict == "inconclusive" and rep.rank is None


def test_nilpotent_actor_gives_not_free(corner):
    ring, actions = corner
    amb = ring.ambient
    act = ModuleAction("corner-by-beta", span(amb, [amb.one()]),
                       ring.el("beta"), "right")
    rep = free_rank(act, 4)
    assert rep.verdict == "not free"
    assert rep.relation["kind"] == "nilpotent"
    assert verify_rank_certificate(act, rep)


def test_collision_relation_is_caught(corner):
    ring, actions = corner
    amb = ring.ambient
    fld = amb.field
    # t = 2 + beta satisfies (t - 2)^2 = 0, so t^2 = 4t - 4 and the orbit
    # of 1 collides at the second power
    actor = amb.one() + amb.one() + ring.el("beta")
    act = ModuleAction("unipotent-shift", span(amb, [amb.one()]), actor,
                       "left")
    rep = free_rank(act, 6)
    assert rep.verdict == "not free"
    assert rep.relation["kind"] == "collision"
    assert rep.relation["power"] == 2
    assert verify_rank_certificate(act, rep)


def test_verifier_rejects_tampered_rank(corner):
    ring, actions = corner
    act = actions["left"]
    rep = free_rank(act, 8)
    forged = rep.replace(generators=rep.generators + (
        ring.ambient.encode_sparse(ring.el("xe12")),))
    assert not verify_rank_certificate(act, forged)


def test_torsion_window_under_corner_action(corner):
    ring, actions = corner
    amb = ring.ambient
    # right multiplication by beta kills the whole corner
    act = ModuleAction("corner-killed", actions["right"].carrier,
                       ring.el("beta"), "right")
    tor = torsion_window_reference(act, 1)
    assert tor.dim == restrict_degree(actions["right"].carrier,
                                      amb.degcap - 1).dim
    assert _has_kernel(act)
    # the alpha action is torsion free
    assert not _has_kernel(actions["right"])


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=str)
def test_has_kernel_reads_the_power_one_torsion_window(field):
    # the corner ideal and the ring window, acted on by alpha (the
    # diagonal action) and by beta, which kills the corner
    seen = set()
    for cap in (4, 9, 14):
        ring = make("R_2x2", degcap=cap, field=field)
        amb = ring.ambient
        carrier = two_sided_closure(ring.pres, [ring.el("beta")])
        for space in (carrier, ring_window(ring)):
            for actor in ("alpha", "beta"):
                for side in ("left", "right"):
                    act = ModuleAction("probe", space,
                                       ring.el(actor), side)
                    got = _has_kernel(act)
                    assert got == bool(torsion_window_reference(act, 1).dim)
                    seen.add((actor, got))
    assert seen == {("alpha", False), ("beta", True)}


def test_slope_probe_shows_twist_factor(corner):
    ring, actions = corner
    tab = slope_table(actions["right"], 8)
    assert tab["effective_step"] == 2
    last = tab["rows"][-1]
    assert last["raw_slope"] == 1.0 and last["twist_corrected"] == 2.0


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=str)
def test_slope_table_counts_each_degree_cut(field):
    # depth runs past the window's cap, where every cut is the carrier
    ring, actions = corner_ideal("corner", 10, field)
    depth = ring.ambient.degcap + 2
    for side in ("left", "right"):
        action = actions[side]
        rows = slope_table(action, depth)["rows"]
        ns = range(1, depth + 1)
        assert [r["n"] for r in rows] == list(ns)
        assert [r["carrier_dim"] for r in rows] == [
            restrict_degree(action.carrier, n).dim for n in ns]


def test_goldie_ranks_and_certificates(corner):
    ring, actions = corner
    for side, expected in (("left", 1), ("right", 2)):
        act = actions[side]
        rep = goldie_rank(act, 8)
        assert rep.verdict == "certified" and rep.rank == expected
        assert verify_goldie_certificate(act, rep)


def test_a_goldie_family_is_kernel_rows_of_the_carrier(corner):
    ring, actions = corner
    for act in actions.values():
        rep = goldie_rank(act, 8)
        assert rep.family and not any(map(act.carrier.residual, rep.family))
        assert rep.family_degrees == tuple(map(ring.ambient.degree,
                                               rep.family))


def test_goldie_refuses_series_mode():
    ring = make("R_prime")
    carrier = two_sided_closure(ring.pres, [ring.el("beta")])
    act = ModuleAction("series-corner", carrier,
                       ring.el("alpha"), "right")
    with pytest.raises(ValueError, match="polynomial mode"):
        goldie_rank(act, 4)
    # the verifier refuses the series carrier as well, whatever the report
    for verdict in ("certified", _KERNEL_VERDICT):
        report = GoldieReport(act.name, act.side, verdict, None, (), (),
                              False, False, False, 4, None)
        with pytest.raises(ValueError, match="polynomial mode"):
            verify_goldie_certificate(act, report)


def test_bimodule_ranks_bundle(corner):
    ring, actions = corner
    both = bimodule_ranks(actions, 8)
    assert both["actions_commute"]
    assert both["left"].rank == 1 and both["right"].rank == 2


@pytest.mark.parametrize("combo", [[[0, 0, "1"]], [[0, -1, "1"]]],
                         ids=["self", "negative-power"])
def test_verifier_rejects_relation_outside_scan_order(corner, combo):
    # "g = g" is no relation: a combo may only use orbit vectors the scan
    # met before the colliding one
    ring, actions = corner
    act = actions["left"]
    rep = free_rank(act, 8)
    relation = {"kind": "collision", "generator": 0, "power": 0,
                "combo": combo}
    forged = rep.replace(verdict="not free", rank=None, relation=relation)
    assert not verify_rank_certificate(act, forged)


@pytest.mark.parametrize("combo", [[[0, 50, "1"]], [[0, 0, "one"]],
                                   [[0, 0, "1/0"]]],
                         ids=["power-past-orbit", "unreadable-coefficient",
                              "zero-denominator"])
def test_verifier_rejects_relation_naming_no_orbit_vector(corner,
                                                          combo):
    # the terms come before (1, 0) in scan order, but the first names a
    # power the orbit of generator 0 never reaches and the others a
    # coefficient that spells no field element: False, not an exception
    ring, actions = corner
    act = actions["right"]
    rep = free_rank(act, 8)
    assert rep.rank == 2
    relation = {"kind": "collision", "generator": 1, "power": 0,
                "combo": combo}
    forged = rep.replace(verdict="not free", rank=None, relation=relation)
    assert not verify_rank_certificate(act, forged)


@pytest.mark.parametrize("change", [
    {"generator": "1"}, {"combo": [["0", 0, "1"]]}, {"combo": [[0, 0]]},
    {"power": "0"}, {"combo": "x"}],
    ids=["text-generator", "text-term-index", "short-term", "text-power",
         "text-combo"])
def test_verifier_rejects_malformed_relation(corner, change):
    # keys of the wrong type or terms of the wrong shape: False, not an
    # exception from the scan-order check or from unpacking
    ring, actions = corner
    act = actions["right"]
    rep = free_rank(act, 8)
    relation = {"kind": "collision", "generator": 1, "power": 0,
                "combo": [[0, 0, "1"]], **change}
    forged = rep.replace(verdict="not free", rank=None, relation=relation)
    assert not verify_rank_certificate(act, forged)


@pytest.fixture(scope="module")
def fp_collision():
    # the unipotent shift t = 2 + beta over F_101: t^2 = 4t - 4
    ring = make("R_2x2", degcap=18, field=PrimeField(101))
    amb = ring.ambient
    actor = amb.one() + amb.one() + ring.el("beta")
    act = ModuleAction("unipotent-shift", span(amb, [amb.one()]),
                       actor, "left")
    return act, free_rank(act, 6)


def test_prime_field_relation_is_spelled_and_reread(fp_collision):
    act, rep = fp_collision
    assert rep.relation["combo"] == [[0, 0, "97~101"], [0, 1, "4~101"]]
    assert verify_rank_certificate(act, rep)


@pytest.mark.parametrize("text", ["97", "97~7", "198~101", "97~101 ", 97])
def test_verifier_rejects_misspelled_prime_coefficient(fp_collision, text):
    # the right value in a spelling text(c) never writes is no relation
    act, rep = fp_collision
    combo = [[0, 0, text], [0, 1, "4~101"]]
    forged = rep.replace(relation={**rep.relation, "combo": combo})
    assert not verify_rank_certificate(act, forged)


def test_goldie_verifier_rejects_wrong_rank_and_foreign_family(corner):
    ring, actions = corner
    act = actions["left"]
    rep = goldie_rank(act, 8)
    assert verify_goldie_certificate(act, rep)

    def forged(rank, family):
        return type(rep)(rep.name, rep.side, rep.verdict, rank,
                         tuple(map(ring.ambient.degree, family)), family,
                         rep.essential_ok, rep.budget_ok, rep.regular_ok,
                         rep.depth, rep.slope)

    assert not verify_goldie_certificate(act, forged(7, rep.family))
    # the identity is not in the corner ideal
    outside = (ring.ambient.encode_sparse(ring.ambient.one()),) + rep.family
    assert not verify_goldie_certificate(act, forged(len(outside), outside))


@pytest.mark.parametrize("side", ("left", "right"))
def test_verifiers_refuse_forged_verdicts_and_ranks(corner, side):
    # a verdict the producer never writes, a rank that does not fit its
    # verdict, the other side's action, or a certified uniform rank short
    # of one of its three checks is a false claim; a name is a label
    ring, actions = corner
    act = actions[side]
    other = "right" if side == "left" else "left"
    rep = free_rank(act, 8)
    assert verify_rank_certificate(act, rep)
    assert verify_rank_certificate(act, rep.replace(name="renamed"))
    assert not verify_rank_certificate(act, rep.replace(verdict="Free",
                                                        rank=7))
    assert not verify_rank_certificate(act, rep.replace(rank=99))
    assert not verify_rank_certificate(act, rep.replace(side=other))
    gold = goldie_rank(act, 8)
    assert verify_goldie_certificate(act, gold)
    assert verify_goldie_certificate(act, gold.replace(name="renamed"))
    assert not verify_goldie_certificate(
        act, gold.replace(verdict="Certified", rank=42))
    assert not verify_goldie_certificate(act, gold.replace(side=other))
    for forged in ({"budget_ok": False},
                   {"essential_ok": False, "regular_ok": False}):
        assert not verify_goldie_certificate(act, gold.replace(**forged))


def test_verifier_refuses_a_rank_beside_not_free(corner):
    ring, actions = corner
    amb = ring.ambient
    act = ModuleAction("corner-by-beta", span(amb, [amb.one()]),
                       ring.el("beta"), "right")
    rep = free_rank(act, 4)
    assert rep.verdict == "not free" and verify_rank_certificate(act, rep)
    assert not verify_rank_certificate(act, rep.replace(rank=1))


def test_goldie_kernel_verdict_is_recomputed(corner):
    ring, actions = corner
    # right multiplication by beta kills the whole corner
    killed = ModuleAction("corner-killed", actions["right"].carrier,
                          ring.el("beta"), "right")
    regular = actions["right"]
    kernel, cert = goldie_rank(killed, 8), goldie_rank(regular, 8)
    assert kernel.verdict.startswith("not certified")
    assert verify_goldie_certificate(killed, kernel)
    assert not verify_goldie_certificate(killed, kernel.replace(rank=2))
    # the kernel verdict claims none of the three checks
    assert not verify_goldie_certificate(killed, kernel.replace(
        essential_ok=True, budget_ok=True, regular_ok=True))
    assert not verify_goldie_certificate(killed, kernel.replace(
        side="left"))
    # the kernel claim is false for the regular actor, and a certificate
    # is false for an actor with a kernel
    assert not verify_goldie_certificate(regular, kernel)
    assert not verify_goldie_certificate(killed, cert)


def goldie_by_intersect(action, report):
    """The certified-report check as it was: directness and essentiality
    by one Zassenhaus intersection per family member and scan orbit."""
    amb = action.ambient

    def orbit_span(row):
        return zero_space(amb).extend(action.power_orbit(row))
    total = zero_space(amb)
    for m in report.family:
        sb = orbit_span(m)
        if intersect(total, sb).dim:
            return False
        total = sum_spaces(total, sb)
    return all(intersect(total, orbit_span(b)).dim
               for b in action.carrier.basis_rows()
               if amb.degree(b) <= report.depth)


@pytest.mark.parametrize("field", (QQ, PrimeField(101)),
                         ids=("QQ", "GF(101)"))
@pytest.mark.parametrize("side", ("left", "right"))
def test_goldie_verifier_refuses_a_family_not_direct_or_not_essential(
        side, field):
    # the verifier tests by the dimension of a sum what the intersections
    # tested; every forged family is refused by both
    ring, actions = corner_ideal("corner", 8, field)
    act = actions[side]
    rep = goldie_rank(act, 8)
    first = rep.family[0]
    moved = act.apply(first)
    families = {"stored": (rep.family, True),
                "repeated": (rep.family + (first,), False),
                "inside an orbit": (rep.family + (moved,), False),
                "one short": (rep.family[:-1], False)}
    for name, (family, holds) in families.items():
        forged = rep.replace(rank=len(family), family=family,
                             family_degrees=tuple(
                                 map(act.ambient.degree, family)))
        assert verify_goldie_certificate(act, forged) is holds, name
        assert goldie_by_intersect(act, forged) is holds, name


def test_verifiers_refuse_an_inconclusive_report(corner):
    ring, actions = corner
    act = actions["right"]
    rep = free_rank(act, 1)
    assert rep.verdict == "inconclusive"
    with pytest.raises(WindowExceeded):
        verify_rank_certificate(act, rep)
    gold = goldie_rank(act, 8).replace(verdict="inconclusive", rank=None)
    with pytest.raises(WindowExceeded):
        verify_goldie_certificate(act, gold)


# Reports free_rank never writes.  Each forgery keeps the stored degrees
# in step with its generators, so only the rule it names is broken.

def test_verifier_refuses_a_generator_outside_the_carrier(corner):
    ring, actions = corner
    amb = ring.ambient
    act = actions["left"]
    rep = free_rank(act, 8)
    e11 = amb.row([(((0,), 0, 0), 1)])
    assert act.carrier.residual(e11)
    forged = rep.replace(rank=2, generators=rep.generators + (e11,),
                         generator_degrees=rep.generator_degrees + (0,))
    assert not verify_rank_certificate(act, forged)


@pytest.mark.parametrize("side", ("left", "right"))
def test_verifier_refuses_spanned_through_other_than_depth(corner, side):
    # restrict_degree(carrier, -1) is zero, so coverage would hold
    ring, actions = corner
    act = actions[side]
    rep = free_rank(act, 8)
    forged = rep.replace(spanned_through=-1, rank=1,
                         generators=rep.generators[:1],
                         generator_degrees=rep.generator_degrees[:1])
    assert not verify_rank_certificate(act, forged)


def test_verifier_refuses_free_outside_a_quiet_window():
    # at depth 0 the right scan's generator sits within the step of 2
    ring, actions = corner_ideal("corner", 0, QQ)
    act = actions["right"]
    rep = free_rank(act, 0)
    assert rep.verdict == "inconclusive" and rep.generator_degrees == (0,)
    assert not verify_rank_certificate(act,
                                       rep.replace(verdict="free", rank=1))


def test_verifier_refuses_a_generator_inside_earlier_orbits(corner):
    # (b, t b) with "generator 1 is t times generator 0": free_rank never
    # adopts t b, and the left side is free of rank 1
    ring, actions = corner
    act = actions["left"]
    rep = free_rank(act, 8)
    b = rep.generators[0]
    gens = (b, act.apply(b))
    relation = {"kind": "collision", "generator": 1, "power": 0,
                "combo": [[0, 1, "1"]]}
    forged = rep.replace(verdict="not free", rank=None, generators=gens,
                         generator_degrees=tuple(map(ring.ambient.degree,
                                                     gens)),
                         relation=relation)
    assert not verify_rank_certificate(act, forged)


def test_verifier_refuses_generators_out_of_degree_order(corner):
    ring, actions = corner
    act = actions["right"]
    rep = free_rank(act, 8)
    assert rep.generator_degrees == (0, 1)
    forged = rep.replace(generators=rep.generators[::-1],
                         generator_degrees=rep.generator_degrees[::-1])
    assert not verify_rank_certificate(act, forged)


def test_verifier_refuses_a_generator_past_the_depth(corner):
    ring, actions = corner
    amb = ring.ambient
    act = ModuleAction("corner-by-beta", span(amb, [amb.one()]),
                       ring.el("beta"), "right")
    rep = free_rank(act, 4)
    assert rep.verdict == "not free" and rep.generator_degrees == (0,)
    forged = rep.replace(depth=-1, spanned_through=-1)
    assert not verify_rank_certificate(act, forged)


@pytest.mark.parametrize("change", [{"generator_degrees": (5,)},
                                    {"effective_step": 3}],
                         ids=["degrees", "step"])
def test_verifier_refuses_stored_numbers_the_scan_did_not_find(corner,
                                                               change):
    ring, actions = corner
    act = actions["left"]
    rep = free_rank(act, 8)
    assert not verify_rank_certificate(act, rep.replace(**change))


def perturbed_corner(seed, depth):
    """R_perturbed's corner generated by seed, which starts in degree
    1 (xe12) or 2 (x2e12), as alpha acts on it from both sides."""
    ring = make("R_perturbed", field=QQ, depth=depth)
    carrier = two_sided_closure(ring.pres, [ring.el(seed)])
    return [ModuleAction(f"{seed}:{side}", carrier, ring.el("alpha"), side)
            for side in ("left", "right")]


def test_a_window_below_the_carrier_certifies_no_free_rank():
    for act in perturbed_corner("xe12", 0):
        assert act.carrier.dim
        rep = free_rank(act, 0)
        assert (rep.verdict, rep.rank, rep.generators) == (
            "inconclusive", None, ())
        forged = rep.replace(verdict="free", rank=0)
        assert not verify_rank_certificate(act, forged)


def test_a_window_below_the_carrier_certifies_no_uniform_rank():
    for act in perturbed_corner("x2e12", 1):
        gold = goldie_rank(act, 1)
        assert (gold.verdict, gold.rank, gold.family) == (
            "inconclusive", None, ())
        forged = gold.replace(verdict="certified", rank=0)
        assert not verify_goldie_certificate(act, forged)


def test_goldie_verifier_refuses_an_empty_family_on_a_nonzero_carrier(
        corner):
    ring, actions = corner
    act = actions["left"]
    rep = goldie_rank(act, 8)
    forged = rep.replace(depth=-1, family=(), family_degrees=(), rank=0)
    assert not verify_goldie_certificate(act, forged)
    assert not verify_goldie_certificate(act, rep.replace(
        family_degrees=(3,)))


@pytest.mark.parametrize("field", (QQ, PrimeField(101)), ids=str)
def test_a_zero_carrier_has_rank_zero(field):
    ring = make("R_2x2", degcap=6, field=field)
    for side in ("left", "right"):
        act = ModuleAction("zero", zero_space(ring.ambient),
                           ring.el("alpha"), side)
        rep, gold = free_rank(act, 4), goldie_rank(act, 4)
        assert (rep.verdict, rep.rank) == ("free", 0)
        assert (gold.verdict, gold.rank) == ("certified", 0)
        assert verify_rank_certificate(act, rep)
        assert verify_goldie_certificate(act, gold)
