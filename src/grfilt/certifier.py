"""Growth-obstruction certificates and the dossiers that assemble them.

The core inequality: given rank data s < t and a Hilbert table H, a
certificate records, for every shift p up to a bound, the first n with
t*H(n) > s*H(n+p).  Such a table shows that no offset can reconcile
t-fold growth with s-fold growth across the window: any filtration
comparison that would need H(n+p) to absorb t/s copies of H(n) fails at
the recorded n.  When some shift admits no witness inside the window the
result is an ObstructionGap, not a certificate, and verify_certificate
rejects it by type; exponential tables gap immediately at p = 1.

Dossiers bundle the certificate with its supporting facts for the
triangular worked example: the one-sided ranks feeding (s, t), the induced
quotient Hilbert table, the offset reports of both one-sided good
filtrations against the intrinsic one, and a strictly ascending chain of
one-sided ideals in the associated graded, rechecked by
verify_chain_report.  The ascending filtration is expected to diverge on
the left, the weak-adic one on the right.  A dossier's verdict text is
built from its two offset reports, and the two-sided sides_swap check
reads the same reports: exactly one side diverges in each dossier, a
different side in the two.  A window too small to witness the expected
divergence, to certify the ranks or to hold a two-step chain raises
WindowExceeded (an Inconclusive) rather than returning a dossier.
"""

from .fields import QQ
from .filtration import (standard_filtration, weak_adic_filtration, hilbert,
                         induced_quotient_filtration, two_sided_closure,
                         induced_good_filtration,
                         intrinsic_module_filtration, equivalence_offset,
                         WindowExceeded)
from .graded import GradedTrunc, ideal_chain_witness, verify_chain_report
from .bimodule import BimoduleSpec, free_rank
from .workbench import make
from .record import Record


class GrowthCertificate(Record):
    fields = ("s", "t", "case", "max_offset", "rows", "hilbert", "verdict")


class ObstructionGap(Record):
    fields = ("s", "t", "case", "first_failed_p", "hilbert", "note")


def growth_obstruction(values, s, t, max_offset, case="table"):
    """Certificate that t-scaled growth outruns every shift by p <= bound.

    values: trusted Hilbert numbers H(0..N).  For each p the witness is the
    FIRST n with t*H(n) > s*H(n+p); if some p has none inside the window,
    an ObstructionGap is returned with that p.  Requires s < t: with
    s >= t the inequality family is not a growth statement at all.  A
    bound max_offset < 1 certifies no shift and raises WindowExceeded.
    """
    if s >= t:
        raise ValueError("s < t required")
    if s < 1:
        raise ValueError("ranks must be positive")
    if max_offset < 1:
        raise WindowExceeded(f"offset bound {max_offset} certifies no shift")
    vals = list(values)
    rows = []
    for p in range(1, max_offset + 1):
        hit = None
        for n in range(len(vals) - p):
            if t * vals[n] > s * vals[n + p]:
                hit = n
                break
        if hit is None:
            return ObstructionGap(
                s, t, case, p, tuple(vals),
                f"no n in the window has {t}*H(n) > {s}*H(n+{p}); "
                f"the table's growth absorbs this shift")
        rows.append({"p": p, "n": hit, "H_n": vals[hit],
                     "H_n_plus_p": vals[hit + p]})
    return GrowthCertificate(
        s, t, case, max_offset, tuple(rows), tuple(vals),
        f"growth obstruction through offset {max_offset}: "
        f"{t}-fold growth outruns {s}-fold growth at every shift")


_CERT_KEYS = frozenset(("s", "t", "rows", "hilbert", "max_offset"))
_ROW_KEYS = frozenset(("p", "n", "H_n", "H_n_plus_p"))


def _ints(values):
    return all(type(v) is int for v in values)


def verify_certificate(cert):
    """Recheck a certificate (object or its JSON dict) from its own table.
    Anything else certifies nothing and is False: an ObstructionGap or its
    JSON, a payload without a certificate's shape (int s, t and
    max_offset, a list of int Hilbert values, and a list of rows with int
    p, n, H_n and H_n_plus_p), and one whose max_offset is below 1."""
    if isinstance(cert, GrowthCertificate):
        cert = cert.to_json()
    if not isinstance(cert, dict) or not _CERT_KEYS <= cert.keys():
        return False
    s, t, rows, vals = cert["s"], cert["t"], cert["rows"], cert["hilbert"]
    max_offset = cert["max_offset"]
    if not (_ints((s, t, max_offset)) and s < t and max_offset >= 1
            and isinstance(vals, list) and _ints(vals)
            and isinstance(rows, list) and all(
                isinstance(row, dict) and _ROW_KEYS <= row.keys()
                and _ints(row[k] for k in _ROW_KEYS) for row in rows)):
        return False
    seen = set()
    for row in rows:
        p, n = row["p"], row["n"]
        seen.add(p)
        if not (1 <= p <= max_offset and 0 <= n < len(vals) - p):
            return False
        if row["H_n"] != vals[n] or row["H_n_plus_p"] != vals[n + p]:
            return False
        if not t * vals[n] > s * vals[n + p]:
            return False
        if any(t * vals[m] > s * vals[m + p] for m in range(n)):
            return False
    return seen == set(range(1, max_offset + 1))


def subexp_probe(values):
    """Window probe of growth shape: max consecutive ratio plus the lowest
    finite-difference order whose tail goes constant.  A probe, never a
    proof: any window is consistent with wild behavior beyond it."""
    vals = [v for v in values]
    ratios = [vals[i + 1] / vals[i]
              for i in range(len(vals) - 1) if vals[i]]
    seq = vals
    fitted = None
    for k in range(1, max(len(vals) - 2, 1)):
        seq = [b - a for a, b in zip(seq, seq[1:])]
        if len(seq) >= 2 and len(set(seq[len(seq) // 2:])) == 1:
            fitted = k
            break
    return {"max_ratio": round(max(ratios), 4) if ratios else None,
            "fitted_degree": fitted,
            "subexponential_consistent": fitted is not None,
            "note": "window probe only, not a proof"}


# ------------------------------------------------------------------ dossiers

class ObstructionDossier(Record):
    fields = ("case", "s", "t", "ranks", "hilbert", "certificate",
              "offsets", "chain", "probe", "verdict", "chain_reverified")
    # verify_chain_report's recheck of the chain; not part of the payload
    hidden = ("chain_reverified",)


def _triangular_rank_pair(depth, field):
    """One-sided ranks of the nilpotent ideal over the diagonal image,
    certified on the polynomial model (series truncation cannot carry a
    rank certificate).  An inconclusive rank raises WindowExceeded; a
    side that is not free is a failure."""
    ring = make("R_2x2", degcap=2 * depth + 2, field=field)
    carrier, _ = two_sided_closure(ring.pres, [ring.el("beta")])
    spec = BimoduleSpec("nilpotent-ideal", ring.ambient, carrier,
                        ring.el("alpha"), ring.el("alpha"))
    left = free_rank(spec.action("left"), depth)
    right = free_rank(spec.action("right"), depth)
    verdicts = (left.verdict, right.verdict)
    if "inconclusive" in verdicts:
        raise WindowExceeded("rank pair not certified at this depth")
    if verdicts != ("free", "free"):
        raise ValueError(f"rank pair is not free: left {left.verdict}, "
                         f"right {right.verdict}")
    return ring, left, right


def assemble_growth_dossier(case, depth=8, field=QQ):
    """Build the complete obstruction dossier for one filtration kind."""
    if case == "two-sided":
        return assemble_two_sided(depth, field)
    if case not in ("ascending", "weak-adic"):
        raise ValueError(f"unknown case {case!r}")
    ring_poly, left, right = _triangular_rank_pair(depth, field)
    s, t = left.rank, right.rank
    ranks = {"left": left, "right": right}
    if case == "ascending":
        ring = ring_poly
        filt = standard_filtration(ring.pres, depth)
        lo, hi, shift, max_p = 0, depth, 1, depth // 2
        diverging_side, matching_side = "left", "right"
    else:
        ring = make("R_prime", degcap=depth + 2, field=field)
        filt = weak_adic_filtration(ring.pres, depth)
        lo, hi, shift, max_p = -depth, 0, -1, (depth - 1) // 2
        diverging_side, matching_side = "right", "left"
    alpha, beta = ring.el("alpha"), ring.el("beta")
    quo = induced_quotient_filtration(ring.pres, [beta], hi, base=filt)
    table = hilbert(quo.filtration, depth)
    cert = growth_obstruction(table.values, s, t, max_p, case=case)
    gens = [(beta, shift), (alpha * beta, 2 * shift)]
    goods = {sd: induced_good_filtration(filt, gens, sd, lo, hi,
                                         name=f"{sd}-good")
             for sd in ("left", "right")}
    intrinsic = intrinsic_module_filtration(quo.ideal, filt, lo, hi,
                                            name="intrinsic")
    eq_bound = max((depth - 3) // 2, 1)
    div = equivalence_offset(goods[diverging_side], intrinsic,
                             max_offset=eq_bound)
    if div.equivalent:
        raise WindowExceeded(
            f"{case}: {div.a} and {div.b} filtrations are "
            f"equivalent at offset {div.offset} on this window; divergence "
            f"is not witnessed at this depth")
    match = equivalence_offset(goods[matching_side], intrinsic,
                               max_offset=eq_bound)
    if match.offset == 0:
        matching = "matches exactly"
    elif match.equivalent:
        matching = f"matches at offset {match.offset} only"
    else:
        matching = "diverges too"
    gr = GradedTrunc(filt)
    classes = gr.generator_classes(ring.pres)
    words = [["beta"] + ["alpha"] * i if diverging_side == "left"
             else ["alpha"] * i + ["beta"] for i in range(min(4, depth - 2))]
    chain = ideal_chain_witness(gr, classes, words, side=diverging_side)
    verdict = (f"{case} filtration: {diverging_side}-side obstruction "
               f"({div.a} filtrations diverge from the {div.b} "
               f"one; ranks {s} against {t}; {matching_side} side "
               f"{matching})")
    return ObstructionDossier(case, s, t, ranks, table, cert,
                              {"diverging": div, "matching": match}, chain,
                              subexp_probe(table.values), verdict,
                              verify_chain_report(gr, classes, chain))


class TwoSidedDossier(Record):
    fields = ("ascending", "weak_adic", "consistent", "checks", "verdict")


def assemble_two_sided(depth=8, field=QQ):
    """Both dossiers plus the consistency of their swapped obstructions."""
    asc = assemble_growth_dossier("ascending", depth, field)
    adi = assemble_growth_dossier("weak-adic", depth, field)
    asc_div, adi_div = ({r.a for r in d.offsets.values()
                         if not r.equivalent} for d in (asc, adi))
    checks = {
        "same_rank_pair": (asc.s, asc.t) == (adi.s, adi.t),
        "both_certified": all(verify_certificate(d.certificate)
                              for d in (asc, adi)),
        # one good filtration diverges in each dossier, on opposite sides
        "sides_swap": (len(asc_div) == len(adi_div) == 1
                       and asc_div != adi_div),
        "both_chains_strict": all(d.chain.strictly_ascending
                                  and d.chain_reverified
                                  for d in (asc, adi)),
        "divergence_witnessed": (not asc.offsets["diverging"].equivalent
                                 and not adi.offsets["diverging"].equivalent),
        "matching_sides_exact": (asc.offsets["matching"].offset == 0
                                 and adi.offsets["matching"].offset == 0)}
    consistent = all(checks.values())
    verdict = ("two-sided: obstructions land on opposite sides with the "
               "same rank data" if consistent else
               "two-sided: INCONSISTENT, see checks")
    return TwoSidedDossier(asc, adi, consistent, checks, verdict)
