"""A filtration's kind is read in one place: Filtration.sign, .degrees
and .known.

The reference functions below keep the per-kind branches that layer,
known, GradedTrunc, the two module filtrations and the chain words and
sides each spelled out before they read those properties.  So do the
references of rees_dims, is_good and verify_filtration_axioms, the paper
checks that tests/paper_checks.py keeps outside the package.  The tests
compare both on the catalog filtrations of both kinds and on hand-built
ascending windows that start below and above 0, over Q and F_101.
"""

import pytest

from grfilt.fields import QQ, PrimeField
from grfilt.filtration import (Filtration, WindowExceeded,
                               induced_good_filtration,
                               intrinsic_module_filtration,
                               standard_filtration, two_sided_closure,
                               weak_adic_filtration)
from grfilt.graded import GradedTrunc, chain_sides, chain_words
from grfilt.linspace import intersect, subspace_product, zero_space
from grfilt.workbench import make
from paper_checks import (AxiomReport, GoodnessReport, is_good, rees_dims,
                          verify_filtration_axioms)

DEPTH = 5


# ------------------------------------------------------------ references

def layer_reference(filt, n):
    if n in filt.layers:
        return filt.layers[n]
    if filt.kind == "ascending":
        if n < filt.lo:
            return zero_space(filt.ambient)
    else:
        if n > 0:
            return filt.layers[0]
    raise WindowExceeded(f"layer {n}")


def known_reference(filt, n):
    if n in filt.layers:
        return True
    if filt.kind == "ascending":
        return n < filt.lo
    return n > 0


def graded_window_reference(filt):
    """(piece degrees, generator degree) of GradedTrunc."""
    if filt.kind == "ascending":
        return list(range(max(filt.lo, 0), filt.hi + 1)), 1
    return list(range(filt.lo + 1, 1)), -1


def rees_dims_reference(filt, upto):
    out = []
    total = 0
    for n in range(upto + 1):
        total += filt.layer(n if filt.kind == "ascending" else -n).dim
        out.append(total)
    return out


def is_good_reference(ring_filt, mod_filt, side):
    amb = ring_filt.ambient
    if ring_filt.kind == "ascending":
        ring_idx = list(range(max(ring_filt.lo, 0), ring_filt.hi + 1))
    else:
        ring_idx = list(range(ring_filt.lo, 1))
    checked = skipped = 0
    violation = None
    ok = True
    exact = {}
    for a in ring_idx:
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
        if ring_filt.kind == "ascending":
            for n0 in range(mod_filt.lo, mod_filt.hi + 1):
                pairs = [(a, b) for (a, b) in exact if a >= 1 and b >= n0]
                if pairs and all(exact[p] for p in pairs):
                    stable_from = n0
                    break
        else:
            for n0 in range(0, mod_filt.lo - 1, -1):
                pairs = [(a, b) for (a, b) in exact
                         if a <= -1 and b <= n0]
                if pairs and all(exact[p] for p in pairs):
                    stable_from = n0
                    break
    return GoodnessReport(side, ok, violation, stable_from, checked, skipped)


def axioms_reference(filt):
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
    if filt.kind == "ascending":
        idx = range(max(filt.lo, 0), filt.hi + 1)
    else:
        idx = range(filt.lo, 1)
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


def good_reference(ring_filt, generators, side, lo, hi, name):
    """induced_good_filtration with the window passed explicitly."""
    amb = ring_filt.ambient
    rows = [(amb.encode_sparse(mat), shift) for mat, shift in generators]
    layers = {}
    for n in range(lo, hi + 1):
        layers[n] = zero_space(amb).extend(
            amb.mul(b, m) if side == "left" else amb.mul(m, b)
            for m, shift in rows
            for b in ring_filt.layer(n - shift).basis_rows())
    return Filtration(ring_filt.kind, layers, name=name)


def intrinsic_reference(module_span, ring_filt, lo, hi, name):
    layers = {n: intersect(module_span, ring_filt.layer(n))
              for n in range(lo, hi + 1)}
    return Filtration(ring_filt.kind, layers, name=name)


def chain_reference(kind, steps):
    """cmd_chain's default side and its words for that side."""
    side = "left" if kind == "ascending" else "right"
    return side, [["beta"] + ["alpha"] * i if side == "left"
                  else ["alpha"] * i + ["beta"] for i in range(steps)]


# ------------------------------------------------------------ the windows

FIELDS = {"Q": QQ, "Fp:101": PrimeField(101)}
CASES = ("standard", "weak-adic", "ascending-from--2", "ascending-from-2")


@pytest.fixture(scope="module", params=list(FIELDS))
def rings(request):
    field = FIELDS[request.param]
    return (make("R_2x2", degcap=2 * DEPTH + 2, field=field),
            make("R_prime", field=field))


def build(case, rings):
    """(ring, filtration) for one case; the hand-built ascending windows
    are the standard layers shifted down by 2 on -2..3, and the standard
    layers themselves on 2..DEPTH."""
    poly, series = rings
    if case == "weak-adic":
        return series, weak_adic_filtration(series.pres, DEPTH)
    std = standard_filtration(poly.pres, DEPTH)
    if case == "standard":
        return poly, std
    if case == "ascending-from--2":
        layers = {n: std.layer(n + 2) for n in range(-2, DEPTH - 1)}
    else:
        layers = {n: std.layer(n) for n in range(2, DEPTH + 1)}
    return poly, Filtration("ascending", layers, name=case)


def module_filtrations(ring, filt):
    """The left-good, right-good and intrinsic filtrations of the corner
    ideal on filt's window, new and reference."""
    beta = ring.el("beta")
    sign = 1 if filt.kind == "ascending" else -1
    gens = [(beta, sign), (ring.el("alpha") * beta, 2 * sign)]
    ideal = two_sided_closure(ring.pres, [beta])
    new = {sd: induced_good_filtration(filt, gens, sd, name=f"{sd}-good")
           for sd in ("left", "right")}
    new["intrinsic"] = intrinsic_module_filtration(ideal, filt,
                                                   name="intrinsic")
    old = {sd: good_reference(filt, gens, sd, filt.lo, filt.hi,
                              f"{sd}-good")
           for sd in ("left", "right")}
    old["intrinsic"] = intrinsic_reference(ideal, filt, filt.lo, filt.hi,
                                           "intrinsic")
    return new, old


# ------------------------------------------------------------------ tests

@pytest.mark.parametrize("case", CASES)
def test_layer_and_known_match_the_per_kind_branches(rings, case):
    _, filt = build(case, rings)
    probes = {filt.lo - 1, filt.lo, filt.hi, filt.hi + 1, 1, 3,
              filt.lo - 3}
    for n in sorted(probes):
        assert filt.known(n) == known_reference(filt, n), n
        try:
            want = layer_reference(filt, n)
        except WindowExceeded:
            with pytest.raises(WindowExceeded):
                filt.layer(n)
        else:
            assert filt.layer(n) == want, n


@pytest.mark.parametrize("case", CASES)
def test_sign_and_degrees(rings, case):
    _, filt = build(case, rings)
    ascending = filt.kind == "ascending"
    assert filt.sign == (1 if ascending else -1)
    assert filt.degrees == (list(range(max(filt.lo, 0), filt.hi + 1))
                            if ascending else list(range(filt.lo, 1)))


@pytest.mark.parametrize("case", CASES)
def test_graded_window_and_rees_dims(rings, case):
    _, filt = build(case, rings)
    gr = GradedTrunc(filt)
    assert (gr.degrees, gr.gen_degree) == graded_window_reference(filt)
    upto = filt.hi if filt.sign > 0 else -filt.lo
    assert rees_dims(filt, upto) == rees_dims_reference(filt, upto)


@pytest.mark.parametrize("case", CASES)
def test_axiom_report_matches(rings, case):
    _, filt = build(case, rings)
    assert verify_filtration_axioms(filt) == axioms_reference(filt)


def goodness_reports(ring, filt):
    """is_good of filt on each module filtration and on itself, both
    sides, checked against the reference; the module filtrations are
    checked against theirs first."""
    new, old = module_filtrations(ring, filt)
    for name in new:
        assert (new[name].lo, new[name].hi) == (filt.lo, filt.hi)
        assert list(new[name].layers) == list(old[name].layers)
        assert new[name].layers == old[name].layers, name
        assert new[name].kind == old[name].kind
    reports = []
    for mod in (*new.values(), filt):
        for side in ("left", "right"):
            got = is_good(filt, mod, side=side)
            assert got == is_good_reference(filt, mod, side), (mod, side)
            reports.append(got)
    return reports


def test_module_filtrations_and_goodness_match(rings):
    reports = [r for case in CASES for r in goodness_reports(*build(case,
                                                                  rings))]
    # the comparison reaches every field of the report
    assert any(r.submultiplicative_ok for r in reports)
    assert any(r.first_violation for r in reports)
    assert {r.stable_from for r in reports} > {None, 0}
    assert any(r.stable_from is not None and r.stable_from < 0
               for r in reports)
    assert any(r.pairs_skipped for r in reports)
    assert all(r.pairs_checked for r in reports)


@pytest.mark.parametrize("case", ("standard", "weak-adic"))
def test_chain_side_and_words_come_from_the_filtration(rings, case):
    _, filt = build(case, rings)
    side, words = chain_reference(filt.kind, 5)
    assert chain_sides(filt) == (side, {"left": "right",
                                        "right": "left"}[side])
    assert chain_words(side, 5) == words
    other = chain_sides(filt)[1]
    assert chain_words(other, 5) == chain_reference(
        "weak-adic" if side == "left" else "ascending", 5)[1]
