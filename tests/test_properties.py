"""Randomized invariant checks.

Five families, each run on at least a hundred drawn cases: filtration
axioms, Hilbert monotonicity with transport along an equivalence offset,
multiplicativity of principal symbols in the graded truncation, rank
certificates re-verified for randomly assembled module actions, and
growth certificates surviving verification while tampered copies fail.
Polynomial dilation f(x) -> f(x^k) gets a sixth family since the shapes
and the dualizing candidate map stand on it.

The acceptance suite executes these functions directly, so they are
written to run standalone as well as under pytest collection.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from grfilt.workbench import make
from grfilt.linspace import span
from grfilt.filtration import (Filtration, standard_filtration, hilbert,
                               two_sided_closure, equivalence_offset,
                               WindowExceeded)
from grfilt.graded import GradedTrunc
from grfilt.bimodule import ModuleAction, free_rank, verify_rank_certificate
from grfilt.certifier import growth_obstruction, verify_certificate
from grfilt.poly import Poly, PolyMatrix

RING = make("R_2x2", degcap=26)
AMB = RING.ambient
FLD = AMB.field
FILT = standard_filtration(RING.pres, 12)
GR = GradedTrunc(FILT)
HVALS = list(hilbert(FILT).values)
CORNER = two_sided_closure(RING.pres, [RING.el("beta")])

# pool of carrier seeds and actors for the random-action family; degrees
# stay small so power orbits run long before hitting the degree cap
SEED_POOL = ([m for m in CORNER.basis_matrices() if m.degree() <= 8]
             + [AMB.one(), RING.el("alpha"), RING.el("xe12")])
ACTOR_POOL = [RING.el("alpha"), RING.el("alpha") * RING.el("alpha"),
              RING.el("beta")]

common = settings(max_examples=100, deadline=None)


def scaled(mat, c):
    """c * mat, built entry by entry from the terms."""
    return PolyMatrix([[Poly(p.field, p.arity,
                             {e: c * v for e, v in p.terms.items()})
                        for p in row] for row in mat.rows])


def combo(space, coeffs):
    """Linear combination of a subspace's basis matrices."""
    out = None
    for c, b in zip(coeffs, space.basis_matrices()):
        if c == 0:
            continue
        term = scaled(b, FLD.of(c))
        out = term if out is None else out + term
    if out is None:
        return AMB.decode([FLD.zero] * AMB.dim)
    return out


def layer_element(data, m):
    d = FILT.layer(m).dim
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d))
    return combo(FILT.layer(m), coeffs)


@common
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_products_respect_the_filtration(m, n, data):
    u = layer_element(data, m)
    v = layer_element(data, n)
    assert FILT.layer(0).member(AMB.one())
    assert FILT.layer(m + 1).member(u)
    assert not FILT.layer(m + n).residual(
        AMB.mul(AMB.encode_sparse(u), AMB.encode_sparse(v)))


@common
@given(st.integers(0, 6), st.integers(0, 6), st.integers(-5, 5), st.data())
def test_layers_are_linear_windows(m, n, c, data):
    u = layer_element(data, m)
    v = layer_element(data, n)
    assert FILT.layer(m).member(scaled(u, FLD.of(c)))
    assert FILT.layer(max(m, n)).member(u + v)
    assert FILT.layer(max(m, n)).member(u - v)


def shifted_by(q, name):
    return Filtration("ascending", {n: FILT.layer(n - q) for n in range(13)},
                      name=name)


@common
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
def test_hilbert_transport_along_offsets(q, r, m, data):
    fb = shifted_by(q, "shift-b")
    fc = shifted_by(q + r, "shift-c")
    ab = equivalence_offset(FILT, fb, max_offset=9)
    ac = equivalence_offset(FILT, fc, max_offset=9)
    assert ab.equivalent and ac.equivalent
    assert ab.a_in_b == q and ab.b_in_a == 0
    assert ac.a_in_b == q + r and ac.offset == q + r
    hb = list(hilbert(fb).values)
    hc = list(hilbert(fc).values)
    for vals in (hb, hc):
        assert all(a <= b for a, b in zip(vals, vals[1:]))
    for n in range(13 - q - r):
        assert HVALS[n] <= hb[n + q] and HVALS[n] <= hc[n + q + r]
    u = layer_element(data, m)
    assert fc.layer(m + q + r).member(u)


@common
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_symbol_map_is_multiplicative(m, n, data):
    u = layer_element(data, m)
    v = layer_element(data, n)
    cu = GR.class_of(u, m)
    cv = GR.class_of(v, n)
    direct = GR.class_of(u * v, m + n)
    graded = GR.mul(cu, cv)
    assert graded.degree == direct.degree
    assert graded.coords == direct.coords


@common
@given(st.sampled_from(("left", "right")), st.integers(1, 2),
       st.integers(7, 9), st.integers(1, 20))
def test_corner_rank_certificates_reverify(side, k, depth, c):
    actor = RING.el("alpha")
    for _ in range(k - 1):
        actor = actor * RING.el("alpha")
    action = ModuleAction("corner scan", CORNER,
                          scaled(actor, FLD.of(c)), side)
    rep = free_rank(action, depth)
    assert rep.verdict == "free"
    assert rep.rank == (k if side == "left" else 2 * k)
    assert rep.rank == len(rep.generator_degrees)
    assert verify_rank_certificate(action, rep)


@common
@given(st.sets(st.integers(0, len(SEED_POOL) - 1), min_size=1, max_size=4),
       st.integers(0, len(ACTOR_POOL) - 1),
       st.sampled_from(("left", "right")), st.integers(2, 8))
def test_random_action_reports_reverify(seed_idx, actor_idx, side, depth):
    carrier = span(AMB, [SEED_POOL[i] for i in sorted(seed_idx)])
    action = ModuleAction("random scan", carrier,
                          ACTOR_POOL[actor_idx], side)
    rep = free_rank(action, depth)
    assert rep.verdict in ("free", "not free", "inconclusive")
    if rep.verdict == "inconclusive":
        # it claims nothing, so the verifier refuses it
        with pytest.raises(WindowExceeded):
            verify_rank_certificate(action, rep)
        return
    if rep.verdict == "free":
        assert rep.rank == len(rep.generator_degrees)
    assert verify_rank_certificate(action, rep)


@common
@given(st.integers(1, 5), st.integers(0, 3), st.integers(2, 4), st.data())
def test_growth_certificates_verify(a, b, t, data):
    s = data.draw(st.integers(1, t - 1))
    vals = [a + b * n for n in range(25)]
    cert = growth_obstruction(vals, s, t, 3)
    assert hasattr(cert, "rows")
    assert verify_certificate(cert)
    assert verify_certificate(cert.to_json())
    for row in cert.rows:
        assert t * row["H_n"] > s * row["H_n_plus_p"]


@common
@given(st.integers(1, 5), st.integers(0, 3), st.integers(2, 4),
       st.integers(0, 3), st.data())
def test_tampered_growth_certificates_fail(a, b, t, mode, data):
    s = data.draw(st.integers(1, t - 1))
    vals = [a + b * n for n in range(25)]
    cert = growth_obstruction(vals, s, t, 3)
    blob = copy.deepcopy(cert.to_json())
    if mode == 0:
        i = data.draw(st.integers(0, len(blob["rows"]) - 1))
        blob["rows"][i]["H_n"] += 1
    elif mode == 1:
        i = data.draw(st.integers(0, len(blob["rows"]) - 1))
        blob["rows"][i]["n"] += 1
    elif mode == 2:
        blob["rows"] = blob["rows"][:-1]
    else:
        blob["t"] = blob["s"]
    assert not verify_certificate(blob)


def poly_from(coeffs):
    out = Poly.zero(FLD, 1)
    for e, c in enumerate(coeffs):
        if c:
            out = out + Poly(FLD, 1, {(e,): FLD.of(c)})
    return out


@common
@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
       st.lists(st.integers(-4, 4), min_size=1, max_size=6),
       st.integers(1, 4))
def test_dilation_is_an_algebra_map(ca, cb, k):
    p, q = poly_from(ca), poly_from(cb)
    assert (p * q).dilate(k) == p.dilate(k) * q.dilate(k)
    assert (p + q).dilate(k) == p.dilate(k) + q.dilate(k)
