"""The one growth rule for spans closed under generator products.

linalg.grow runs it: each round multiplies only the rows the round before
added, its new_rows.  standard_filtration takes its rounds, _closure
(under full_span and two_sided_closure) takes them until one adds
nothing, quotient_iso_check takes max_len of them on joint rows, and
op_involution_report checks the standard layer of length-3 words;
induced_good_filtration grows each layer from the new parts of the ring
layers.  The reference functions below are the loops those replace: the
round written out on Subspaces (next_layer, as filtration._next_layer
had it), the good filtration rebuilt from whole ring layers, a frontier
closure over raw products, the evaluation of every word in both
quotients, and the shape check on every word.  The tests compare the
grown spans with them, echelon by echelon and exceptions included, and
count the products the grown comparison makes.
"""

from itertools import combinations

import pytest

from grfilt.fields import QQ, PrimeField
from grfilt.linalg import Echelon, joint_row
from grfilt.linspace import (DegreeOverflowError, QuotientContext, span,
                             zero_space)
from grfilt.filtration import (Filtration, full_span,
                               induced_good_filtration, standard_filtration,
                               two_sided_closure, weak_adic_filtration,
                               WindowExceeded)
from grfilt.workbench import (CATALOG, IsoReport, make,
                              op_involution_report, op_transpose,
                              quotient_iso_check, staircase_quotient_context)

FIELDS = (QQ, PrimeField(7), PrimeField(101))


# ------------------------------------------------------------ references

def next_layer(before, cur, step):
    """One round on Subspaces: cur plus step(row) for each row of cur
    whose pivot before lacks."""
    new = [row for q, row in cur.echelon.items() if q not in before.echelon]
    return cur.extend(out for row in new for out in step(row))


def standard_reference(pres):
    """Gamma_0, Gamma_1, ... one next_layer at a time, without end."""
    amb = pres.ambient
    before, cur = zero_space(amb), span(amb, [amb.one()])
    while True:
        yield cur
        before, cur = cur, next_layer(before, cur, pres.times_gens)


def closure_rounds_reference(cur, step):
    """next_layer repeated until a round adds nothing."""
    before = zero_space(cur.ambient)
    while True:
        before, cur = cur, next_layer(before, cur, step)
        if cur.dim == before.dim:
            return cur


def good_reference(ring_filt, generators, side, name=""):
    """Omega_n = sum_i Gamma_{n-s_i} m_i, each layer rebuilt from the
    whole of every Gamma_{n-s_i}."""
    amb = ring_filt.ambient
    rows = [(amb.encode_sparse(mat), shift) for mat, shift in generators]
    layers = {}
    for n in range(ring_filt.lo, ring_filt.hi + 1):
        layers[n] = zero_space(amb).extend(
            amb.mul(b, m) if side == "left" else amb.mul(m, b)
            for m, shift in rows
            for b in ring_filt.layer(n - shift).basis_rows())
    return Filtration(ring_filt.kind, layers, name=name)


def closure_reference(pres, seeds):
    """The ideal of the seeds by a frontier loop: multiply every fresh
    product by each generator on both sides, skip products past the cap,
    and keep the products that are new modulo the span so far."""
    amb = pres.ambient
    gens = pres.gen_rows
    gmax = max(amb.degree(g) for g in gens)
    cur = span(amb, seeds)
    frontier = cur.basis_rows()
    while frontier:
        fresh = {}
        for m in frontier:
            for g in gens:
                for left, right in ((g, m), (m, g)):
                    try:
                        row = amb.mul(left, right)
                    except DegreeOverflowError:
                        continue
                    key = frozenset(row.items())
                    if key not in fresh and cur.residual(row):
                        fresh[key] = row
        frontier = list(fresh.values())
        cur = cur.extend(frontier)
    closed_degree = amb.degcap if amb.series else amb.degcap - gmax
    return cur, closed_degree


def iso_reference(ctx_a, ctx_b, pairs, max_len):
    """The word-span comparison by evaluating every word of length <=
    max_len in both quotients."""
    if max_len < 1:
        raise WindowExceeded("words span only the unit")
    amb_a, amb_b = ctx_a.ambient, ctx_b.ambient
    pairs = [(amb_a.encode_sparse(ga), amb_b.encode_sparse(gb))
             for ga, gb in pairs]
    level = [(ctx_a.ideal.residual(amb_a.encode_sparse(amb_a.one())),
              ctx_b.ideal.residual(amb_b.encode_sparse(amb_b.one())))]
    words = list(level)
    for _ in range(max_len):
        level = [(ctx_a.mul(a, ga), ctx_b.mul(b, gb))
                 for (a, b) in level for (ga, gb) in pairs]
        words.extend(level)
    p = amb_a.field.p
    dim_a = len(Echelon(p, (a for a, _ in words)))
    dim_b = len(Echelon(p, (b for _, b in words)))
    dim_joint = len(Echelon(
        p, (joint_row(a, b, amb_a.dim) for a, b in words)))
    return IsoReport(dim_joint == dim_a == dim_b, dim_a, dim_b, dim_joint,
                     len(words), max_len)


def op_reference(ring, word_len):
    """The op-twist check with the shape tested on every word."""
    amb = ring.ambient
    gens = ring.pres.gen_mats()
    words = [amb.encode_sparse(amb.one())]
    frontier = list(words)
    for _ in range(word_len):
        frontier = [amb.mul(w, g) for w in frontier
                    for g in ring.pres.gen_rows]
        words.extend(frontier)
    shape_ok = all(ring.shape_member(op_transpose(amb.decode_sparse(w)))
                   for w in words)
    anti_ok = all(op_transpose(a * b) == op_transpose(b) * op_transpose(a)
                  for a in gens for b in gens)
    return {"shape_preserved": shape_ok, "anti_multiplicative": anti_ok,
            "words_checked": len(words)}


def outcome(fn, *args):
    """fn's result, or the type of the Inconclusive it raised."""
    try:
        return fn(*args)
    except (DegreeOverflowError, WindowExceeded) as exc:
        return type(exc)


# ------------------------------------------------------------ comparisons

def seed_sets(ring, pairs=True):
    els = list(ring.elements.values())
    return [[e] for e in els] + ([list(c) for c in combinations(els, 2)]
                                 if pairs else [])


@pytest.mark.parametrize("fld", FIELDS, ids=str)
@pytest.mark.parametrize("name", CATALOG)
def test_ideal_closure_matches_the_frontier_loop(name, fld):
    ring = make(name, field=fld)
    # the staircase ring's 78 paired seeds are compared over F_101 only
    for seeds in seed_sets(ring, pairs=name != "T" or fld.p == 101):
        assert ((two_sided_closure(ring.pres, seeds),
                 ring.pres.closed_degree)
                == closure_reference(ring.pres, seeds))


def _staircase_quotients(cap, fld):
    pres, ctx = staircase_quotient_context(make("T", field=fld), degcap=cap)
    r = make("R_2x2", degcap=cap, field=fld)
    right = [(pres.gen("alpha"), r.el("alpha")),
             (pres.gen("e12"), r.el("beta"))]
    swapped = [(pres.gen("alpha"), r.el("beta")),
               (pres.gen("e12"), r.el("alpha"))]
    # one side's word span collapses, so dim_a and dim_b differ
    collapsed = [[(pres.gen("alpha"), r.el("alpha")),
                  (pres.gen("e12"), r.el("alpha"))],
                 [(pres.gen("alpha"), r.el("alpha")),
                  (pres.gen("alpha"), r.el("beta"))]]
    return (ctx, QuotientContext(zero_space(r.ambient)),
            right, swapped, collapsed)


@pytest.mark.parametrize("fld, caps", [
    (QQ, range(4, 29)), (PrimeField(7), range(4, 29, 4)),
    (PrimeField(101), range(5, 29, 4))], ids=("Q", "Fp:7", "Fp:101"))
def test_quotient_comparison_matches_every_word(fld, caps):
    seen = set()
    for cap in caps:
        ctx_a, ctx_b, right, swapped, collapsed = _staircase_quotients(
            cap, fld)
        # the collapsed pairings stop at length 6, as their reference is slow
        for pairs, lens in ((right, 12), (swapped, 12), (collapsed[0], 7),
                            (collapsed[1], 7)):
            for max_len in range(lens):
                got = outcome(quotient_iso_check, ctx_a, ctx_b, pairs,
                              max_len)
                assert got == outcome(iso_reference, ctx_a, ctx_b, pairs,
                                      max_len), (cap, max_len)
                seen.add(got if isinstance(got, type) else
                         (got.consistent, (got.dim_a > got.dim_b)
                          - (got.dim_a < got.dim_b)))
    # every exit is exercised: consistent, refuted with either side the
    # larger or both equal, overflow, refusal
    assert seen == {(True, 0), (False, 0), (False, 1), (False, -1),
                    DegreeOverflowError, WindowExceeded}


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_op_twist_matches_the_check_on_every_word(fld):
    rings = [make(name, field=fld) for name in CATALOG]
    # a cap too small for the staircase's length-3 words overflows
    rings.append(make("T", degcap=4, field=fld))
    for ring in rings:
        assert (outcome(op_involution_report, ring)
                == outcome(op_reference, ring, 3))
    with pytest.raises(DegreeOverflowError):
        op_involution_report(rings[-1])


@pytest.mark.parametrize("name", ("R_prime", "R_hat"))
def test_full_span_is_the_stable_standard_layer(name):
    pres = make(name).pres
    filt = standard_filtration(pres, 12)
    assert filt.layer(11) == filt.layer(12) == full_span(pres)


def test_quotient_comparison_multiplies_only_new_rows():
    ctx_a, ctx_b, right, _, _ = _staircase_quotients(28, QQ)
    calls = {}
    for key, ctx in (("a", ctx_a), ("b", ctx_b)):
        calls[key] = 0

        def counted(x, y, key=key, mul=ctx.mul):
            calls[key] += 1
            return mul(x, y)
        ctx.mul = counted
    rep = quotient_iso_check(ctx_a, ctx_b, right, max_len=9)
    assert rep.consistent and rep.dim_joint == 27
    # all words would take 2 + 4 + ... + 2^9 = 1022 products per quotient
    assert 0 < calls["a"] == calls["b"] <= len(right) * rep.dim_joint


# ------------------------------------------- grown layers against rounds

def error(fn, *args):
    """(type, message) of the Inconclusive fn raises, or None."""
    try:
        fn(*args)
    except (DegreeOverflowError, WindowExceeded) as exc:
        return type(exc), str(exc)
    return None


def echelon_or_error(fn, *args):
    """The echelon of the span fn returns, or error's pair."""
    try:
        return fn(*args).echelon
    except (DegreeOverflowError, WindowExceeded) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
@pytest.mark.parametrize("name", CATALOG)
def test_standard_layers_match_next_layer_rounds(name, fld):
    """Every layer's echelon through depth 8, and at the default cap of a
    polynomial row the same DegreeOverflowError at the same layer."""
    pres = make(name, field=fld, depth=8).pres
    got = standard_filtration(pres, 8)
    for n, want in zip(range(9), standard_reference(pres)):
        assert got.layer(n).echelon == want.echelon, n
    # a polynomial word span overflows any cap
    assert echelon_or_error(full_span, pres) == echelon_or_error(
        closure_rounds_reference, span(pres.ambient, [pres.ambient.one()]),
        pres.times_gens)
    if pres.ambient.series:
        return
    pres = make(name, field=fld).pres
    ref = standard_reference(pres)
    for top in range(pres.ambient.degcap + 2):
        try:
            want = next(ref)
        except DegreeOverflowError as exc:
            assert error(standard_filtration, pres, top) == (
                DegreeOverflowError, str(exc))
            return
        assert standard_filtration(pres, top).layer(top) == want
    pytest.fail("the default cap never overflowed")


def _good_case(kind, depth, fld):
    """(ring, filtration) of the certificate case of that kind at depth."""
    if kind == "ascending":
        ring = make("R_2x2", field=fld, depth=depth)
        return ring, standard_filtration(ring.pres, depth)
    ring = make("R_prime", degcap=depth + 2, field=fld)
    return ring, weak_adic_filtration(ring.pres, depth)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
@pytest.mark.parametrize("kind", ("ascending", "weak-adic"))
def test_good_filtration_matches_the_rebuild(kind, fld):
    """The corner ideal's generators at the certificates' shifts, and at
    shifts 0 and 3 along the kind, on both sides at depths 2-20."""
    for depth in range(2, 21):
        ring, filt = _good_case(kind, depth, fld)
        beta = ring.el("beta")
        alpha_beta = ring.el("alpha") * beta
        for shifts in ((1, 2), (0, 3)):
            gens = [(beta, shifts[0] * filt.sign),
                    (alpha_beta, shifts[1] * filt.sign)]
            for side in ("left", "right"):
                got = induced_good_filtration(filt, gens, side, name=side)
                want = good_reference(filt, gens, side, name=side)
                assert got.name == want.name and got.kind == want.kind
                assert ({n: lay.echelon for n, lay in got.layers.items()}
                        == {n: lay.echelon
                            for n, lay in want.layers.items()}), (depth,
                                                                   shifts)


@pytest.mark.parametrize("fld", FIELDS, ids=str)
@pytest.mark.parametrize("kind", ("ascending", "weak-adic"))
def test_good_filtration_refuses_a_shift_past_the_window_alike(kind, fld):
    """A shift against the kind reaches past the window's inner edge:
    the same WindowExceeded, by message, as the rebuild, whether the
    first generator or only the second reaches out."""
    ring, filt = _good_case(kind, 6, fld)
    beta = ring.el("beta")
    for shifts in ((-1, 2), (1, -2), (1, -7)):
        gens = [(beta, shifts[0] * filt.sign),
                (ring.el("alpha") * beta, shifts[1] * filt.sign)]
        for side in ("left", "right"):
            want = error(good_reference, filt, gens, side)
            assert want is not None and want[0] is WindowExceeded
            assert error(induced_good_filtration, filt, gens, side) == want


@pytest.mark.parametrize("fld", FIELDS, ids=str)
def test_good_filtration_overflows_alike(fld):
    """In a polynomial window too small for the products, the same
    DegreeOverflowError as the rebuild, and on a window that holds them
    the same layers."""
    ring = make("R_2x2", degcap=6, field=fld)
    filt = Filtration("ascending", {
        n: lay for n, lay in standard_filtration(ring.pres, 3).layers.items()
        if n >= 1})
    beta = ring.el("beta")
    for shift in range(-3, 4):
        gens = [(beta, 0), (ring.el("alpha") * ring.el("alpha") * beta, shift)]
        for side in ("left", "right"):
            want = error(good_reference, filt, gens, side)
            assert error(induced_good_filtration, filt, gens, side) == want
            if want is None:
                assert (induced_good_filtration(filt, gens, side).layers
                        == good_reference(filt, gens, side).layers)
