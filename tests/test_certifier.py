"""Growth-obstruction certificates and the assembled dossiers."""

import pytest

from grfilt.certifier import (growth_obstruction, verify_certificate,
                              subexp_probe, assemble_growth_dossier,
                              GrowthCertificate, ObstructionGap)
from grfilt.filtration import WindowExceeded


def test_linear_table_obstructed_at_every_offset():
    vals = [n + 1 for n in range(22)]
    cert = growth_obstruction(vals, 1, 2, 10)
    assert isinstance(cert, GrowthCertificate)
    # first witness for shift p is n = p: 2(p+1) > (2p+1)
    assert [r["n"] for r in cert.rows] == list(range(1, 11))
    assert verify_certificate(cert)
    assert verify_certificate(cert.to_json())


def test_exponential_table_absorbs_shifts():
    vals = [2 ** n for n in range(12)]
    gap = growth_obstruction(vals, 1, 2, 3)
    assert isinstance(gap, ObstructionGap)
    assert gap.first_failed_p == 1


def test_rank_order_guard():
    with pytest.raises(ValueError):
        growth_obstruction([1, 2, 3], 2, 2, 1)
    with pytest.raises(ValueError):
        growth_obstruction([1, 2, 3], 0, 1, 1)


def test_an_offset_bound_below_one_certifies_nothing():
    vals = [n + 1 for n in range(12)]
    for bound in (0, -3):
        with pytest.raises(WindowExceeded):
            growth_obstruction(vals, 1, 2, bound)
    cert = growth_obstruction(vals, 1, 2, 1).to_json()
    assert verify_certificate(cert)
    # an empty certificate claims every offset up to a bound below one
    for bound in (0, -3):
        assert not verify_certificate(dict(cert, max_offset=bound, rows=[]))
    # the bound must be an int, not a number or text standing for one
    for bound in (True, 1.0, "1", None):
        assert not verify_certificate(dict(cert, max_offset=bound))


def test_verifier_rejects_tampering():
    vals = [n + 1 for n in range(12)]
    cert = growth_obstruction(vals, 1, 2, 4).to_json()
    bad = dict(cert)
    bad["rows"] = [dict(r) for r in cert["rows"]]
    bad["rows"][2]["n"] = 0  # 2*H(0) = 2 is not > H(3) = 4
    assert not verify_certificate(bad)
    # a row claiming wrong table values is also caught
    bad2 = dict(cert)
    bad2["rows"] = [dict(r) for r in cert["rows"]]
    bad2["rows"][0]["H_n"] = 99
    assert not verify_certificate(bad2)
    # missing offsets void the certificate
    bad3 = dict(cert)
    bad3["rows"] = cert["rows"][:-1]
    assert not verify_certificate(bad3)


def test_verifier_refuses_a_malformed_payload():
    # the shape is checked before anything is read, so none of these raises
    vals = [n + 1 for n in range(12)]
    cert = growth_obstruction(vals, 1, 2, 3).to_json()
    for bad in (dict(cert, rows=[{}]),
                dict(cert, rows=[dict(cert["rows"][0], n="0")]),
                dict(cert, s="1"), dict(cert, rows=None),
                dict(cert, hilbert=None), dict(cert, hilbert=["1"] * 12),
                dict(cert, rows=[[1, 1, 2, 3]]), [cert], None):
        assert verify_certificate(bad) is False
    # a row whose offset is not one of the certified shifts
    row = {"p": -1, "n": len(vals), "H_n": 0, "H_n_plus_p": 0}
    assert verify_certificate(dict(cert, rows=cert["rows"] + [row])) is False


def test_verifier_demands_first_witness_minimality():
    vals = [n + 1 for n in range(12)]
    cert = growth_obstruction(vals, 1, 2, 3).to_json()
    cert["rows"] = [dict(r) for r in cert["rows"]]
    row = cert["rows"][0]
    # n = 2 also satisfies the inequality for p = 1 but is not the first
    row["n"], row["H_n"], row["H_n_plus_p"] = 2, vals[2], vals[3]
    assert not verify_certificate(cert)


def test_probe_classifies_polynomial_growth():
    probe = subexp_probe([n + 1 for n in range(10)])
    assert probe["subexponential_consistent"]
    assert probe["fitted_degree"] == 1
    wild = subexp_probe([2 ** n for n in range(10)])
    assert not wild["subexponential_consistent"]


def test_ascending_dossier():
    d = assemble_growth_dossier("ascending", depth=8)
    assert (d.s, d.t) == (1, 2)
    assert list(d.hilbert.values) == list(range(1, 10))
    assert isinstance(d.certificate, GrowthCertificate)
    assert verify_certificate(d.certificate)
    assert not d.offsets["diverging"].equivalent
    assert d.offsets["diverging"].b_in_a is None
    assert d.offsets["matching"].equivalent
    assert d.offsets["matching"].offset == 0
    assert d.chain.side == "left" and d.chain.strictly_ascending
    assert "left-side obstruction" in d.verdict


def test_weak_adic_dossier():
    d = assemble_growth_dossier("weak-adic", depth=8)
    assert (d.s, d.t) == (1, 2)
    # table of the m-adic quotient by the corner ideal: one new dimension
    # per step of depth
    assert list(d.hilbert.values) == list(range(9))
    assert verify_certificate(d.certificate)
    assert d.chain.side == "right" and d.chain.strictly_ascending
    assert not d.offsets["diverging"].equivalent
    assert d.offsets["matching"].equivalent
    assert "right-side obstruction" in d.verdict


def test_two_sided_dossier_consistency():
    d = assemble_growth_dossier("two-sided", depth=8)
    assert d.consistent
    assert all(d.checks.values())
    assert d.ascending.chain.side == "left"
    assert d.weak_adic.chain.side == "right"
    import json
    json.dumps(d.to_json())


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown case"):
        assemble_growth_dossier("sideways", depth=4)


def test_shallow_depth_not_certified():
    with pytest.raises(WindowExceeded, match="not certified at this depth"):
        assemble_growth_dossier("ascending", depth=2)


def test_gap_never_verifies():
    gap = growth_obstruction([2 ** n for n in range(12)], 1, 2, 3)
    assert verify_certificate(gap) is False


def test_gap_payload_never_verifies():
    # the JSON of a gap has no rows; a verifier reading JSON alone must
    # reject it, not crash on the missing key
    gap = growth_obstruction([2 ** n for n in range(12)], 1, 2, 3)
    assert verify_certificate(gap.to_json()) is False


def test_verdicts_and_sides_swap_follow_the_offset_reports(monkeypatch):
    """Make every offset report diverge: the matching side's verdict
    clause and the two-sided swap check must both change with them."""
    import grfilt.certifier
    real = grfilt.certifier.equivalence_offset
    monkeypatch.setattr(
        grfilt.certifier, "equivalence_offset",
        lambda fa, fb, max_offset: real(
            fa, fb, max_offset=max_offset).replace(
            b_in_a=None, equivalent=False, offset=None))
    d = assemble_growth_dossier("two-sided", depth=6)
    assert d.ascending.verdict.endswith("right side diverges too)")
    assert d.weak_adic.verdict.endswith("left side diverges too)")
    assert d.checks["sides_swap"] is False
    assert d.checks["matching_sides_exact"] is False
    assert not d.consistent


def test_verifier_rejects_negative_witness_index():
    # 2^n absorbs every shift, so no certificate exists; rows with n = -p
    # would read H(-p) from the end of the table
    vals = [2 ** n for n in range(10)]
    assert isinstance(growth_obstruction(vals, 1, 2, 3), ObstructionGap)
    forged = {"s": 1, "t": 2, "max_offset": 3, "hilbert": vals,
              "rows": [{"p": p, "n": -p, "H_n": vals[-p],
                        "H_n_plus_p": vals[0]} for p in (1, 2, 3)]}
    assert not verify_certificate(forged)


def test_two_sided_dossier_computes_the_rank_pair_once(monkeypatch):
    # both dossiers read one pair; a single case still computes its own
    import grfilt.certifier
    real, calls = grfilt.certifier._triangular_rank_pair, []

    def counted(depth, field):
        calls.append((depth, field.name))
        return real(depth, field)
    monkeypatch.setattr(grfilt.certifier, "_triangular_rank_pair", counted)
    d = assemble_growth_dossier("two-sided", depth=6)
    assert calls == [(6, "Q")]
    assert d.checks["same_rank_pair"]
    assert (d.ascending.s, d.ascending.t) == (1, 2)
    assemble_growth_dossier("ascending", depth=6)
    assert len(calls) == 2


@pytest.mark.parametrize("s, t", [(0, 1), (-3, -1)])
def test_ranks_below_one_certify_nothing(s, t):
    # growth_obstruction refuses these ranks, so no certificate has them
    cert = {"s": s, "t": t, "max_offset": 1, "hilbert": [1, 1],
            "rows": [{"p": 1, "n": 0, "H_n": 1, "H_n_plus_p": 1}]}
    assert not verify_certificate(cert)
