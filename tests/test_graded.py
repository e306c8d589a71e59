"""Associated graded pieces, symbol arithmetic, relations, chains."""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from grfilt.fields import QQ, PrimeField
from grfilt.filtration import (WindowExceeded, standard_filtration,
                               weak_adic_filtration)
from grfilt.graded import (GradedTrunc, GrElement, ideal_chain_witness,
                           verify_chain_report, ChainReport, chain_words)
from grfilt.linalg import combine_rows, dense_row, reduce_by_rref, rref
from grfilt.workbench import make
from paper_checks import (check_relation, rees_dims, sandwich_zero_sweep,
                          spanning_check)


RIGHT_MODULE_PATTERNS = (((), "alpha", ()),
                         (("beta",), "alpha", ()),
                         (("alpha", "beta"), "alpha", ()))


def test_standard_piece_dims(gr12):
    dims = gr12.piece_dims()
    assert dims[0] == 1 and dims[1] == 2
    assert all(dims[m] == 3 for m in range(2, 13))


def test_weak_adic_piece_dims(gr_adic):
    dims = gr_adic.piece_dims()
    assert dims[0] == 1
    assert all(dims[-i] == 2 for i in range(1, 10))


def test_class_is_coset_invariant(gr12, ring_r):
    beta = ring_r.el("beta")
    ab = ring_r.el("alpha") * beta  # x e12, lies in layer 2
    rep = gr12.class_of(ab, 2)
    # shifting by a layer-1 element does not move the degree-2 coset
    shifted = ab + beta
    assert gr12.class_of(shifted, 2) == rep
    assert gr12.lift(rep) == gr12.lift(gr12.class_of(shifted, 2))


def test_class_of_demands_membership(gr12, ring_r):
    with pytest.raises(ValueError):
        gr12.class_of(ring_r.el("xe12"), 1)  # x e12 is not in layer 1


def test_symbol_degrees(classes12, classes_adic):
    assert all(c.degree == 1 for c in classes12.values())
    assert all(c.degree == -1 for c in classes_adic.values())


def test_product_outside_window_raises(gr12, classes12):
    deep = gr12.word(classes12, ["alpha"] * 12)
    with pytest.raises(WindowExceeded):
        gr12.mul(deep, classes12["alpha"])


def test_lift_outside_the_window_raises(gr12, classes12):
    # a coset of the top piece carried to the degree past the window
    top = gr12.word(classes12, ["alpha"] * 12)
    assert gr12.filt.layer(12).member(gr12.lift(top))
    with pytest.raises(WindowExceeded):
        gr12.lift(top.replace(degree=13))
    with pytest.raises(WindowExceeded):
        gr12.lift(top.replace(degree=-1))


def test_piece_outside_an_empty_window_raises(rprime):
    # depth 0 knows no layer below 0, so there is no graded piece at all
    gr = GradedTrunc(weak_adic_filtration(rprime.pres, 0))
    assert gr.degrees == []
    with pytest.raises(WindowExceeded, match="empty"):
        gr.piece(0)


def test_relations_in_standard_graded(gr12, classes12):
    # alpha^2 beta collapses into the layer below; beta alpha^2 does not
    assert check_relation(gr12, classes12, ["alpha", "alpha", "beta"])
    assert not check_relation(gr12, classes12, ["beta", "alpha", "alpha"])
    # the two degree-2 corner symbols stay independent
    assert not check_relation(gr12, classes12, ["alpha", "beta"],
                              ["beta", "alpha"])


def test_corner_sandwich_vanishes(gr12, classes12):
    ok, checked = sandwich_zero_sweep(gr12, classes12, "beta")
    assert ok and checked > 20


def test_weak_adic_relations(gr_adic, classes_adic):
    assert check_relation(gr_adic, classes_adic, ["beta", "alpha"])
    assert check_relation(gr_adic, classes_adic, ["beta", "beta"])
    assert not check_relation(gr_adic, classes_adic, ["alpha", "beta"])


def test_spanning_over_polynomial_coefficients(gr12, classes12):
    rep = spanning_check(gr12, classes12, RIGHT_MODULE_PATTERNS)
    assert rep.all_covered
    # dropping the corner families loses every degree >= 1
    thin = spanning_check(gr12, classes12, (((), "alpha", ()),))
    assert not thin.all_covered
    assert list(thin.covered)[1:] == [False] * 12


def test_left_ideal_chain_strictly_ascends(gr12, classes12):
    words = [["beta"] + ["alpha"] * i for i in range(6)]
    rep = ideal_chain_witness(gr12, classes12, words, side="left")
    assert rep.strictly_ascending
    assert list(rep.ideal_dims) == [2 * (i + 1) for i in range(6)]
    assert verify_chain_report(gr12, classes12, rep)


def test_right_ideal_chain_in_weak_adic(gr_adic, classes_adic):
    words = [["alpha"] * i + ["beta"] for i in range(5)]
    rep = ideal_chain_witness(gr_adic, classes_adic, words, side="right")
    assert rep.strictly_ascending
    assert list(rep.ideal_dims) == [1, 2, 3, 4, 5]
    assert verify_chain_report(gr_adic, classes_adic, rep)


def test_chain_verifier_rejects_tampering(gr12, classes12):
    words = [["beta"] + ["alpha"] * i for i in range(3)]
    rep = ideal_chain_witness(gr12, classes12, words, side="left")
    fake = ChainReport(rep.side, (("alpha",),) + rep.words[1:],
                       rep.ideal_dims, rep.strictly_ascending,
                       rep.witnesses, rep.window)
    assert not verify_chain_report(gr12, classes12, fake)


def test_chain_flat_when_generator_already_inside(gr12, classes12):
    # beta*alpha lies in the right ideal of beta, so the chain stalls
    words = [["beta"], ["beta", "alpha"]]
    rep = ideal_chain_witness(gr12, classes12, words, side="right")
    assert not rep.strictly_ascending


def test_rees_dims_are_partial_sums(filt12, adic10):
    assert rees_dims(filt12, 4) == [1, 4, 10, 19, 31]
    assert rees_dims(adic10, 3) == [20, 39, 56, 71]


def test_classes_hash_and_match_products(gr12, classes12, ring_r):
    alpha, beta = ring_r.el("alpha"), ring_r.el("beta")
    cls = gr12.class_of(alpha * beta, 2)
    assert isinstance(cls.coords, tuple)
    prod = gr12.mul(classes12["alpha"], classes12["beta"])
    assert {cls: "ab"}[prod] == "ab"
    assert hash(prod) == hash(cls)


# ---------------------------------------- product table against lifting

def coset(gr, m, values):
    """The GrElement of piece m with coefficients values on its basis
    cosets: the combination of the complement section's rows, frozen as
    its (column, value) pairs, sorted."""
    row = combine_rows({i: c for i, c in enumerate(values) if c},
                       gr.piece(m).basis_rows(), gr.ambient.field.p)
    return GrElement(m, tuple(sorted(row.items())))


@lru_cache(maxsize=None)
def small_gr(field_name, kind):
    fld = QQ if field_name == "Q" else PrimeField(101)
    if kind == "standard":
        ring = make("R_2x2", degcap=18, field=fld)
        return GradedTrunc(standard_filtration(ring.pres, 8))
    ring = make("R_prime", degcap=8, field=fld)
    return GradedTrunc(weak_adic_filtration(ring.pres, 6))


@st.composite
def coset_pairs(draw):
    gr = small_gr(draw(st.sampled_from(("Q", "Fp:101"))),
                  draw(st.sampled_from(("standard", "weak-adic"))))
    fld = gr.ambient.field

    def draw_coset():
        m = draw(st.sampled_from(gr.degrees))
        return coset(gr, m, [fld.of(draw(st.integers(-3, 3)))
                             for _ in range(gr.piece(m).dim)])
    return gr, draw_coset(), draw_coset()


@settings(max_examples=150, deadline=None)
@given(coset_pairs())
def test_table_product_equals_lifted_product(case):
    gr, e1, e2 = case
    if e1.degree + e2.degree in gr.sections:
        prod = gr.mul(e1, e2)
        assert prod == gr.lift_mul(e1, e2)
        # coords are the coset row's pairs, sorted, every value nonzero
        keys = [i for i, _ in prod.coords]
        assert keys == sorted(set(keys)) and all(c for _, c in prod.coords)
    else:
        with pytest.raises(WindowExceeded):
            gr.mul(e1, e2)
        with pytest.raises(WindowExceeded):
            gr.lift_mul(e1, e2)


@st.composite
def coset_families(draw):
    """(gr, one coset of random coordinates in every piece)."""
    gr = small_gr(draw(st.sampled_from(("Q", "Fp:101"))),
                  draw(st.sampled_from(("standard", "weak-adic"))))
    fld = gr.ambient.field
    return gr, [coset(gr, m, [fld.of(draw(st.integers(-60, 60)))
                              for _ in range(gr.piece(m).dim)])
                for m in gr.degrees]


@settings(max_examples=60, deadline=None)
@given(coset_families())
def test_class_of_inverts_lift_on_every_piece(case):
    gr, cosets = case
    for e in cosets:
        rep = gr.lift(e)
        assert gr.filt.layer(e.degree).member(rep)
        assert gr.class_of(rep, e.degree) == e


# --------------------------------------- chains against a prefix rebuild

def rebuilt_pieces(gr, gens, side):
    """The per-prefix construction the incremental chain replaced: the
    piece-by-piece span of the one-sided ideal generated by gens, built
    from nothing, with lifted products."""
    pieces = {}
    for m in gr.degrees:
        vecs = []
        for g in gens:
            rest = m - g.degree
            if rest not in gr.sections:
                continue
            for u in gr.piece_basis(rest):
                prod = gr.lift_mul(u, g) if side == "left" \
                    else gr.lift_mul(g, u)
                vecs.append(dense_row(dict(prod.coords),
                                      gr.ambient.dim, gr.ambient.field))
        if vecs:
            rows, pivots = rref(vecs, gr.ambient.field)
        else:
            rows, pivots = (), ()
        pieces[m] = (rows, pivots)
    return pieces


def rebuilt_chain(gr, classes, words, side):
    gens = [gr.word(classes, list(w), gr.lift_mul) for w in words]
    dims, witnesses, strict, prev = [], [], True, None
    for k in range(len(gens)):
        pieces = rebuilt_pieces(gr, gens[:k + 1], side)
        dims.append(sum(len(rows) for rows, _ in pieces.values()))
        if k > 0:
            rows, pivots = prev[gens[k].degree]
            fld = gr.ambient.field
            vec = dense_row(dict(gens[k].coords), gr.ambient.dim, fld)
            if not any(reduce_by_rref(vec, rows, pivots, fld)):
                strict = False
            else:
                witnesses.append({"step": k, "degree": gens[k].degree,
                                  "word": list(words[k])})
        prev = pieces
    return tuple(dims), tuple(witnesses), strict


CHAIN_CASES = [
    ("standard", "left", [["beta"] + ["alpha"] * i for i in range(5)]),
    ("standard", "right", [["alpha"] * i + ["beta"] for i in range(5)]),
    ("standard", "right", [["beta"], ["beta", "alpha"], ["alpha"]]),
    ("standard", "left", [["alpha"], ["beta"], ["alpha", "alpha"]]),
    ("adic", "right", [["alpha"] * i + ["beta"] for i in range(5)]),
    ("adic", "left", [["beta"] + ["alpha"] * i for i in range(5)]),
    ("adic", "left", [["alpha"], ["beta", "alpha"], []]),
]


@pytest.mark.parametrize("kind,side,words", CHAIN_CASES)
def test_incremental_chain_matches_prefix_rebuild(
        kind, side, words, gr12, classes12, gr_adic, classes_adic):
    gr, classes = ((gr12, classes12) if kind == "standard"
                   else (gr_adic, classes_adic))
    rep = ideal_chain_witness(gr, classes, words, side=side)
    dims, witnesses, strict = rebuilt_chain(gr, classes, words, side)
    assert rep.ideal_dims == dims
    assert rep.witnesses == witnesses
    assert rep.strictly_ascending == strict
    assert verify_chain_report(gr, classes, rep) is True


def test_chain_verifier_never_uses_the_product_table(
        gr12, classes12, monkeypatch):
    words = [["beta"] + ["alpha"] * i for i in range(3)]
    rep = ideal_chain_witness(gr12, classes12, words, side="left")
    fake = ChainReport(rep.side, (("alpha",),) + rep.words[1:],
                       rep.ideal_dims, rep.strictly_ascending,
                       rep.witnesses, rep.window)

    def table_product(*_):
        raise AssertionError("verifier reached GradedTrunc.mul")
    monkeypatch.setattr(GradedTrunc, "mul", table_product)
    assert verify_chain_report(gr12, classes12, rep)
    assert not verify_chain_report(gr12, classes12, fake)


def test_chain_verifier_rejects_misordered_witnesses(gr12, classes12):
    words = [["beta"] + ["alpha"] * i for i in range(4)]
    rep = ideal_chain_witness(gr12, classes12, words, side="left")
    for witnesses in (rep.witnesses[::-1],
                      ({"step": 0, "degree": 1, "word": ["beta"]},),
                      ({"step": 4, "degree": 5, "word": ["beta"]},)):
        bad = ChainReport(rep.side, rep.words, rep.ideal_dims,
                          rep.strictly_ascending, witnesses, rep.window)
        assert not verify_chain_report(gr12, classes12, bad)


def test_chain_verifier_rejects_a_forged_witness(gr12, classes12):
    # beta*alpha lies in the right ideal of beta, so no witness exists
    words = [["beta"], ["beta", "alpha"]]
    rep = ideal_chain_witness(gr12, classes12, words, side="right")
    assert rep.witnesses == ()
    forged = ChainReport(rep.side, rep.words, rep.ideal_dims, True,
                         ({"step": 1, "degree": 2,
                           "word": ["beta", "alpha"]},), rep.window)
    assert not verify_chain_report(gr12, classes12, forged)


def test_chain_verifier_demands_a_witness_for_every_claimed_step(
        gr12, classes12):
    # beta*alpha lies in the right ideal of beta: the chain stalls and has
    # no witness, so a strictness claim cannot re-verify from none
    words = [["beta"], ["beta", "alpha"]]
    rep = ideal_chain_witness(gr12, classes12, words, side="right")
    assert not rep.strictly_ascending and rep.witnesses == ()
    relabelled = ChainReport(rep.side, rep.words, rep.ideal_dims, True, (),
                             rep.window)
    assert not verify_chain_report(gr12, classes12, relabelled)
    # an honest strict chain that drops its last witness fails the same way
    words = [["beta"] + ["alpha"] * i for i in range(4)]
    rep = ideal_chain_witness(gr12, classes12, words, side="left")
    short = ChainReport(rep.side, rep.words, rep.ideal_dims, True,
                        rep.witnesses[:-1], rep.window)
    assert not verify_chain_report(gr12, classes12, short)


def test_chain_verifier_checks_witness_degree_and_word(gr12, classes12):
    words = [["beta"] + ["alpha"] * i for i in range(4)]
    rep = ideal_chain_witness(gr12, classes12, words, side="left")
    first = rep.witnesses[0]
    assert first == {"step": 1, "degree": 2, "word": ["beta", "alpha"]}
    for forged in ({**first, "degree": 9, "word": ["alpha"]},
                   {**first, "degree": 9},
                   {**first, "word": ["alpha"]}):
        bad = ChainReport(rep.side, rep.words, rep.ideal_dims,
                          rep.strictly_ascending,
                          (forged,) + rep.witnesses[1:], rep.window)
        assert not verify_chain_report(gr12, classes12, bad)


@pytest.mark.parametrize("field_name", ("Q", "Fp:101"))
@pytest.mark.parametrize("kind,side", (("standard", "left"),
                                       ("weak-adic", "right")))
def test_products_leave_the_truncation_unchanged(field_name, kind, side):
    """mul and lift_mul hold nothing: after a chain and its recheck, every
    attribute of the truncation is the one it was built with, and its
    containers hold what they held."""
    fld = QQ if field_name == "Q" else PrimeField(101)
    if kind == "standard":
        ring = make("R_2x2", degcap=18, field=fld)
        gr = GradedTrunc(standard_filtration(ring.pres, 8))
    else:
        ring = make("R_prime", degcap=8, field=fld)
        gr = GradedTrunc(weak_adic_filtration(ring.pres, 6))
    classes = gr.generator_classes(ring.pres)

    def state():
        return {k: v.copy() if isinstance(v, (dict, list)) else v
                for k, v in vars(gr).items()}
    before = state()
    rep = ideal_chain_witness(gr, classes, chain_words(side, 4), side=side)
    assert rep.strictly_ascending
    assert verify_chain_report(gr, classes, rep)
    assert state() == before
