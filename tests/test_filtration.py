"""Filtration layers, Hilbert tables, quotients, offsets, axioms.

Dimension literals were frozen from the brute-force word-span oracle
(tests/oracle.py) before this suite was written.
"""

import random

import pytest

from grfilt.fields import QQ, PrimeField
from grfilt.workbench import make, staircase_mod_y
from grfilt.filtration import (standard_filtration, weak_adic_filtration,
                               hilbert, two_sided_closure, full_span,
                               induced_quotient_filtration,
                               induced_good_filtration,
                               intrinsic_module_filtration,
                               equivalence_offset, Filtration,
                               TruncationError, WindowExceeded)
from grfilt.linspace import (DegreeOverflowError, restrict_degree, span,
                             zero_space)
from paper_checks import is_good, verify_filtration_axioms


def test_standard_dims_match_oracle_freeze(filt12):
    assert list(filt12.dims().values()) == [1] + [3 * n for n in
                                                  range(1, 13)]


def test_standard_hilbert_values(filt12):
    assert list(hilbert(filt12).values) == [1] + [3 * n for n in
                                                  range(1, 13)]


@pytest.mark.parametrize("depth", range(5))
def test_hilbert_reads_its_depth_from_the_window(ring_r, rprime, depth):
    for pres, filt in (
            (ring_r.pres, standard_filtration(ring_r.pres, depth)),
            (rprime.pres, weak_adic_filtration(rprime.pres, depth))):
        assert (-filt.lo, filt.hi) in ((0, depth), (depth, 0))
        quo = induced_quotient_filtration(
            pres, two_sided_closure(pres, [pres.gen("beta")]), filt)
        assert len(hilbert(filt).values) == depth + 1
        assert len(hilbert(quo).values) == depth + 1


def test_quotient_of_a_weak_adic_base_keeps_its_window(rprime, adic10):
    quo = induced_quotient_filtration(
        rprime.pres, two_sided_closure(rprime.pres, [rprime.el("beta")]),
        adic10)
    assert quo.kind == "weak-adic"
    assert (quo.lo, quo.hi) == (-10, 0)
    # R_prime mod its corner is k[[x]]: H(n) = n
    assert list(hilbert(quo).values) == list(range(11))


def test_layer_outside_window(filt12):
    assert filt12.layer(-1).dim == 0
    with pytest.raises(WindowExceeded):
        filt12.layer(13)


def test_quotient_filtration_dims(ring_r, filt12):
    quo = induced_quotient_filtration(
        ring_r.pres, two_sided_closure(ring_r.pres, [ring_r.el("beta")]),
        filt12)
    assert list(quo.dims().values()) == list(range(1, 14))
    assert ring_r.pres.closed_degree == 24


def test_quotient_truncation_is_refused():
    ring = make("R_2x2", degcap=8)
    # layer 4 of the standard filtration reaches degree 8 > closed 6
    with pytest.raises(TruncationError):
        induced_quotient_filtration(
            ring.pres, two_sided_closure(ring.pres, [ring.el("beta")]),
            standard_filtration(ring.pres, 4))


def test_two_sided_closure_of_corner(ring_r):
    ideal = two_sided_closure(ring_r.pres, [ring_r.el("beta")])
    assert ring_r.pres.closed_degree == 24
    # all corner polynomials up to the cap: beta, alpha*beta, beta*alpha, ...
    assert ideal.dim == ring_r.ambient.degcap + 1
    assert ideal.member(ring_r.el("xe12"))


def test_closed_degree_is_derived_from_the_presentation(ring_r, rprime):
    # the cap less the top generator degree (alpha's 2), or the whole cap
    # of a series window
    assert ring_r.pres.closed_degree == 26 - 2
    assert rprime.pres.closed_degree == rprime.ambient.degcap
    with pytest.raises(TypeError):
        ring_r.pres.replace(closed_degree=26)


POLYNOMIAL_ROWS = ("R_2x2", "R_perturbed", "S", "T", "C_diag")


@pytest.mark.parametrize("fld", [QQ, PrimeField(101)], ids=str)
@pytest.mark.parametrize("cap", (6, 9))
def test_closure_is_exact_through_the_closed_degree(fld, cap):
    """Inside cap, the two-sided closure agrees degree by degree, through
    pres.closed_degree, with the closure of the same seeds at cap + 6:
    one named element sampled per polynomial-mode row, and T0 (the
    staircase mod y) with e13, e23.  Series rows are left out: there the
    closure is the ideal of the truncated ring R/x^(cap+1), whose degree
    cuts need not match a wider window's.  On these rows the two closures
    agree through the whole cap (every element, both caps, both fields),
    so this pins the claim but cannot catch a closed degree that is too
    large."""
    rng = random.Random(f"{fld.name}:{cap}")
    cases = []
    for name in POLYNOMIAL_ROWS:
        narrow, wide = (make(name, degcap=c, field=fld)
                        for c in (cap, cap + 6))
        el = rng.choice(sorted(narrow.elements))
        cases.append((narrow.pres, [narrow.el(el)], wide.pres,
                      [wide.el(el)]))
    narrow, wide = (staircase_mod_y(make("T", field=fld), c)
                    for c in (cap, cap + 6))
    cases.append((narrow, [narrow.gen("e13"), narrow.gen("e23")],
                  wide, [wide.gen("e13"), wide.gen("e23")]))
    for narrow, seeds, wide, wide_seeds in cases:
        assert narrow.closed_degree == cap - 2
        ideals = (two_sided_closure(narrow, seeds),
                  two_sided_closure(wide, wide_seeds))
        dims = [[restrict_degree(ideal, d).dim
                 for d in range(narrow.closed_degree + 1)]
                for ideal in ideals]
        assert dims[0] == dims[1], (narrow.name, seeds)


@pytest.mark.parametrize("name, cap, depth", [
    ("R_2x2", 9, 5), ("S", 5, 3), ("T", 7, 4), ("C_diag", 7, 4)])
def test_undersized_cap_overflows_at_the_first_word_beyond_it(name, cap,
                                                              depth):
    # depth-n words reach n times the top generator degree; the first
    # depth whose words pass the cap raises, the one before it does not
    pres = make(name, degcap=cap).pres
    assert standard_filtration(pres, depth - 1).hi == depth - 1
    with pytest.raises(DegreeOverflowError):
        standard_filtration(pres, depth)
    with pytest.raises(DegreeOverflowError):
        full_span(pres)


def test_weak_adic_dims_match_oracle_freeze(adic10):
    dims = adic10.dims()
    assert [dims[-i] for i in range(11)] == [20, 19, 17, 15, 13, 11,
                                             9, 7, 5, 3, 1]


def test_weak_adic_hilbert(adic10):
    # H(n) = codim of m^n: 0, 1, then odd numbers
    assert list(hilbert(adic10).values) == [0, 1] + \
        [2 * n - 1 for n in range(2, 11)]


def test_weak_adic_layer_conventions(adic10):
    assert adic10.layer(3) is adic10.layer(0)
    with pytest.raises(WindowExceeded):
        adic10.layer(-11)


def test_weak_adic_needs_series_ambient():
    ring = make("R_2x2")
    with pytest.raises(ValueError):
        weak_adic_filtration(ring.pres, 4)


@pytest.mark.parametrize("depth", (0, 1, 4))
def test_weak_adic_refuses_a_one_sided_ideal(rprime, monkeypatch, depth):
    # only an engine fault leaves R G one-sided; with the unit's span in
    # place of R, m = span(G) misses alpha^2, at every depth
    import grfilt.filtration
    amb = rprime.ambient
    monkeypatch.setattr(grfilt.filtration, "full_span",
                        lambda pres: span(amb, [amb.one()]))
    with pytest.raises(ValueError,
                       match="generated left ideal is not two-sided"):
        weak_adic_filtration(rprime.pres, depth)


def test_full_span_stabilizes_in_series_mode(rprime):
    ring = full_span(rprime.pres)
    assert ring.dim == 20
    assert ring.member(rprime.ambient.one())


def test_axioms_hold_for_both_kinds(filt12, adic10):
    assert verify_filtration_axioms(filt12).ok
    assert verify_filtration_axioms(adic10).ok


def test_axiom_checker_catches_broken_nesting(ring_r, filt12):
    amb = ring_r.ambient
    layers = {0: filt12.layer(1), 1: zero_space(amb), 2: filt12.layer(2)}
    rep = verify_filtration_axioms(Filtration("ascending", layers))
    assert not rep.nested_ok and not rep.ok


def test_a_filtration_reads_its_ambient_off_its_layers(ring_r, filt12,
                                                       adic10):
    for filt in (filt12, adic10):
        assert filt.ambient is filt.layer(filt.lo).ambient
    shifted = Filtration("ascending",
                         {n: filt12.layer(n + 2) for n in range(-2, 4)})
    assert shifted.ambient is filt12.layer(0).ambient
    # below the window an ascending filtration is zero in that ambient
    assert shifted.layer(-3) == zero_space(ring_r.ambient)


def test_equivalence_offset_finds_shift(ring_r, filt12):
    shifted = Filtration("ascending", {n: filt12.layer(min(n + 2, 12))
                                       for n in range(11)}, name="shifted")
    base = Filtration("ascending", {n: filt12.layer(n) for n in range(11)})
    rep = equivalence_offset(base, shifted, max_offset=3)
    assert rep.equivalent and rep.a_in_b == 0 and rep.b_in_a == 2
    assert rep.offset == 2


def test_equivalence_offset_window_guard(filt12):
    with pytest.raises(WindowExceeded, match="windows too small"):
        equivalence_offset(filt12, filt12, max_offset=13)


def test_equivalence_offset_refuses_a_negative_bound(filt12):
    """No offset q in 0..max_offset exists to test, so there is no
    divergence to report."""
    with pytest.raises(ValueError, match="max_offset"):
        equivalence_offset(filt12, filt12, max_offset=-1)


def test_good_filtration_divergence(ring_r, filt12):
    """The left-good filtration on the corner ideal falls strictly behind
    the intrinsic one, with no uniform catch-up offset in the window."""
    beta = ring_r.el("beta")
    albe = ring_r.el("alpha") * beta
    carrier = two_sided_closure(ring_r.pres, [beta])
    gens = [(beta, 1), (albe, 2)]
    left = induced_good_filtration(filt12, gens, "left",
                                   name="left-good")
    right = induced_good_filtration(filt12, gens, "right",
                                    name="right-good")
    intrinsic = intrinsic_module_filtration(carrier, filt12,
                                            name="intrinsic")
    div = equivalence_offset(left, intrinsic, max_offset=2)
    assert not div.equivalent and div.a_in_b == 0 and div.b_in_a is None
    match = equivalence_offset(right, intrinsic, max_offset=2)
    assert match.equivalent and match.offset == 0
    assert is_good(filt12, left, side="left").submultiplicative_ok
    assert is_good(filt12, right, side="right").submultiplicative_ok
