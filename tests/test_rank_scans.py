"""Each rank scan decides each scanned row once.

The reference functions below are the scans as they were written before:
free_rank_reference tests each scanned row with express() before add()
reduces it again, and goldie_rank_reference builds the span of every
scanned orbit up front and then tests every orbit a second time against
the final family (its essential_ok).  The tests compare the reports of
free_rank and goldie_rank with them, payload, hidden rows and the scan's
tagged span, on the corner ideal and on whole ring windows over four
fields, and check that the reference's second pass never fails where the
actor has no kernel.
"""

import pytest

from grfilt.bimodule import (GoldieReport, RankReport, _KERNEL_VERDICT,
                             _has_kernel, corner_ideal, free_rank,
                             goldie_rank, slope_table, ModuleAction)
from grfilt.dualizing import ring_window
from grfilt.fields import QQ, PrimeField
from grfilt.filtration import WindowExceeded
from grfilt.linalg import SpanTracker
from grfilt.linspace import sum_spaces, zero_space
from grfilt.workbench import make

FIELDS = (QQ, PrimeField(2), PrimeField(7), PrimeField(101))


# ------------------------------------------------------------ references

def scan_basis_reference(action, depth):
    amb = action.ambient
    return sorted((b for b in action.carrier.basis_rows()
                   if amb.degree(b) <= depth), key=amb.degree)


def free_rank_reference(action, depth):
    """free_rank with an express() test before each add()."""
    amb = action.ambient
    tracker = SpanTracker(amb.field, amb.dim)
    gens = []
    relation = None
    step = action.effective_step()
    for b in scan_basis_reference(action, depth):
        if tracker.express(b) is not None:
            continue
        gi = len(gens)
        gens.append(b)
        for k, v in enumerate(action.power_orbit(b)):
            if not v:
                relation = relation or {
                    "kind": "nilpotent", "generator": gi, "power": k,
                    "combo": []}
                break
            if not tracker.add(v, (gi, k)):
                combo = tracker.express(v)
                relation = relation or {
                    "kind": "collision", "generator": gi, "power": k,
                    "combo": sorted(
                        [[j, l, amb.field.text(c)]
                         for (j, l), c in combo.items()])}
                break
    if relation is not None:
        verdict, rank = "not free", None
    elif gens and amb.degree(gens[-1]) > depth - max(step, 1):
        verdict, rank = "inconclusive", None
    else:
        verdict, rank = "free", len(gens)
    return RankReport(action.name, action.side, verdict, rank, depth,
                      step, tuple(map(amb.degree, gens)), tuple(gens),
                      relation, depth, tracker)


def goldie_rank_reference(action, depth):
    """goldie_rank with every orbit span built first and a second pass,
    essential_ok, over all of them against the final family."""
    amb = action.ambient
    if _has_kernel(action):
        return GoldieReport(action.name, action.side, _KERNEL_VERDICT,
                            None, (), (), False, False, False,
                            depth, slope_table(action, depth))
    basis = scan_basis_reference(action, depth)
    orbits = [action.power_orbit(b) for b in basis]
    spans = [zero_space(amb).extend(orbit) for orbit in orbits]
    family = []
    total = zero_space(amb)
    budget_ok = True
    for b, orbit, sb in zip(basis, orbits, spans):
        grown = sum_spaces(total, sb)
        if grown.dim == total.dim + sb.dim:
            family.append(b)
            total = grown
            if len(orbit) < 2:
                budget_ok = False
    essential_ok = all(sum_spaces(total, sb).dim < total.dim + sb.dim
                       for sb in spans)
    verdict = "certified" if (essential_ok and budget_ok) else "inconclusive"
    return GoldieReport(action.name, action.side, verdict,
                        len(family) if verdict == "certified" else None,
                        tuple(map(amb.degree, family)), tuple(family),
                        essential_ok, budget_ok, True, depth,
                        slope_table(action, depth))


# ------------------------------------------------------------ comparison

def assert_scans_match(action, depth):
    """Both scans against their references: payload, hidden rows, the
    tracker's rows and tags, and the second pass where it runs.  The
    window holds a carrier row of degree <= depth.  Returns the free
    report and the Goldie report, None below depth 1."""
    assert scan_basis_reference(action, depth)
    got, want = free_rank(action, depth), free_rank_reference(action, depth)
    assert got.to_json() == want.to_json()
    assert got.generators == want.generators
    assert dict(got.span.rows) == dict(want.span.rows)
    assert got.span.rows.cols == want.span.rows.cols
    assert got.span.tags == want.span.tags
    if depth < 1:
        # the slope table the Goldie report carries has no rows
        for scan in (goldie_rank, goldie_rank_reference):
            with pytest.raises(WindowExceeded, match="depth >= 1"):
                scan(action, depth)
        return got, None
    gold = goldie_rank(action, depth)
    ref = goldie_rank_reference(action, depth)
    assert gold.to_json() == ref.to_json()
    assert gold.family == ref.family
    assert ref.essential_ok is (ref.verdict != _KERNEL_VERDICT)
    return got, gold


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_corner_scans_match_their_references(field):
    seen = set()
    for depth in range(31):
        ring, actions = corner_ideal("corner", depth, field)
        for side, action in actions.items():
            rep, gold = assert_scans_match(action, depth)
            seen.add((side, rep.verdict, rep.rank,
                      gold and (gold.verdict, gold.rank)))
    # depth 0 decides neither side, and the right one needs depth 2
    assert seen == {("left", "inconclusive", None, None),
                    ("left", "free", 1, ("certified", 1)),
                    ("right", "inconclusive", None, None),
                    ("right", "inconclusive", None, ("certified", 2)),
                    ("right", "free", 2, ("certified", 2))}


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("name", ("R_2x2", "R_perturbed", "C_diag"))
def test_ring_window_scans_match_their_references(name, field):
    for cap in (6, 10, 16):
        ring = make(name, degcap=cap, field=field)
        actor = ring.el("c" if name == "C_diag" else "alpha")
        window = ring_window(ring)
        for side in ("left", "right"):
            action = ModuleAction(f"{name} window", window, actor, side)
            assert_scans_match(action, cap)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_scans_with_relations_or_a_kernel_match_their_references(field):
    # beta is nilpotent and has a kernel, 3 + beta collides at its second
    # power ((t - 3)^2 = 0 on every field), and alpha^2 twists by a step
    # of 2 or 4; the scan goes on past the first relation, so later
    # generators meet a cut-off orbit
    ring = make("R_2x2", degcap=8, field=field)
    amb = ring.ambient
    alpha, beta, one = ring.el("alpha"), ring.el("beta"), amb.one()
    corner = corner_ideal("corner", 3, field)[1]["left"].carrier
    seen = set()
    for window in (ring_window(ring), corner):
        for actor in (beta, one + one + one + beta, alpha * alpha):
            for side in ("left", "right"):
                action = ModuleAction("probe", window, actor, side)
                rep, gold = assert_scans_match(action, 6)
                seen.add((rep.relation or {}).get("kind"))
                seen.add(gold.verdict)
    assert seen >= {"nilpotent", "collision", _KERNEL_VERDICT, "certified"}
