"""The one growth rule for spans closed under generator products.

two_sided_closure, full_span, quotient_iso_check and op_involution_report
grow their spans by multiplying only each round's new rows (see
grfilt.filtration).  The reference functions below are the direct loops
that rule replaces: a frontier closure over raw products, the evaluation
of every word in both quotients, and the shape check on every word.  The
tests compare the grown spans with them, exceptions included, and count
the products the grown comparison makes.
"""

from itertools import combinations

import pytest

from grfilt.fields import QQ, PrimeField
from grfilt.linalg import joint_row, row_echelon
from grfilt.linspace import (DegreeOverflowError, QuotientContext, span,
                             zero_space)
from grfilt.filtration import (full_span, standard_filtration,
                               two_sided_closure, WindowExceeded)
from grfilt.workbench import (CATALOG, IsoReport, make,
                              op_involution_report, op_transpose,
                              quotient_iso_check, staircase_quotient_context)

FIELDS = (QQ, PrimeField(7), PrimeField(101))


# ------------------------------------------------------------ references

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
    dim_a = len(row_echelon((a for a, _ in words), p))
    dim_b = len(row_echelon((b for _, b in words), p))
    dim_joint = len(row_echelon(
        (joint_row(a, b, amb_a.dim) for a, b in words), p))
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
