"""Command line front end.

Subcommands cover the toolkit's standard runs: filtration tables with
Hilbert values, graded truncations, rank certificates for the corner
ideal, growth-obstruction dossiers, graded chain witnesses, the dualizing
chain, and the staircase quotient comparison.

Exit codes: 0 the requested check verified (or the table was produced),
1 a check failed or an unexpected error occurred, 2 the window or depth
was too small to decide, 3 usage error.  Code 2 comes from one place: a
handler raised grfilt.Inconclusive (WindowExceeded, TruncationError,
DegreeOverflowError).  No error text is inspected.
"""

import argparse
import json
import sys

from .fields import field_from_name
from .linspace import Inconclusive
from .workbench import (make, CATALOG, staircase_quotient_context,
                        MulSystem, quotient_iso_check)
from .filtration import (standard_filtration, weak_adic_filtration, hilbert,
                         induced_quotient_filtration, two_sided_closure)
from .graded import GradedTrunc, ideal_chain_witness, verify_chain_report
from .bimodule import BimoduleSpec, goldie_rank, bimodule_ranks
from .certifier import (assemble_growth_dossier, verify_certificate,
                        GrowthCertificate)
from .dualizing import verify_dualizing

EXIT_OK, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE = 0, 1, 2, 3


class UsageError(Exception):
    pass


def _field(args):
    try:
        return field_from_name(args.field)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _sized_ring(args, fld, slack=2):
    """Build the ring, sizing the degree cap to the requested depth when
    the user did not pick one.

    Depth-n layers hold words of n generators, so the cap has to reach
    n times the top generator degree or the products overflow.  Series
    windows truncate instead of overflowing and keep their catalog
    default.  An explicit --degcap always wins.  --ring is limited to
    the catalog by argparse, so make() always finds the name.
    """
    if args.degcap is not None:
        return make(args.ring, degcap=args.degcap, field=fld)
    probe = make(args.ring, field=fld)
    if probe.ambient.series:
        return probe
    step = max([g.degree() for g in probe.pres.gen_mats()] + [1])
    return make(args.ring, degcap=step * args.depth + slack, field=fld)


def _base_filtration(ring, kind, depth):
    if kind == "weak-adic":
        if not ring.ambient.series:
            raise UsageError(
                f"{ring.name} is a polynomial-mode ring; the weak-adic "
                f"filtration needs one of the series models "
                f"(R_prime, R_hat)")
        return weak_adic_filtration(ring.pres, depth)
    return standard_filtration(ring.pres, depth)


def _fmt_dims(dims):
    return ", ".join(f"{n}: {d}" for n, d in sorted(dims.items()))


# ----------------------------------------------------------- subcommands

def cmd_hilbert(args):
    fld = _field(args)
    # quotient runs also need the ideal saturated past the deepest layer
    ring = _sized_ring(args, fld, slack=4 if args.quotient else 2)
    filt = _base_filtration(ring, args.kind, args.depth)
    lines = [f"{ring.name} over {fld.name}, {args.kind} filtration, "
             f"depth {args.depth}"]
    payload = {"ring": ring.name, "field": fld.name,
               "filtration": filt.to_json()}
    if args.quotient:
        seeds = []
        for nm in args.quotient.split(","):
            if nm not in ring.elements:
                raise UsageError(
                    f"{ring.name} has no element {nm!r}; available: "
                    f"{', '.join(sorted(ring.elements))}")
            seeds.append(ring.el(nm))
        upto = args.depth if filt.kind == "ascending" else 0
        quo = induced_quotient_filtration(ring.pres, seeds, upto, base=filt)
        filt = quo.filtration
        lines.append(f"quotient by the two-sided ideal of "
                     f"({args.quotient}), exact through degree "
                     f"{quo.closed_degree}")
        payload["quotient"] = {"seeds": args.quotient.split(","),
                               "closed_degree": quo.closed_degree,
                               "filtration": filt.to_json()}
    table = hilbert(filt, args.depth)
    lines.append("layer dims: " + _fmt_dims(filt.dims()))
    lines.append("hilbert:    " +
                 ", ".join(f"H({n}) = {v}"
                           for n, v in enumerate(table.values)))
    payload["hilbert"] = table.to_json()
    return EXIT_OK, payload, lines


def cmd_gr(args):
    fld = _field(args)
    ring = _sized_ring(args, fld)
    filt = _base_filtration(ring, args.kind, args.depth)
    gr = GradedTrunc(filt)
    classes = gr.generator_classes(ring.pres)
    lines = [f"associated graded of {ring.name} ({args.kind}), "
             f"window {gr.degrees[0]}..{gr.degrees[-1]}",
             "piece dims: " + _fmt_dims(gr.piece_dims()),
             "generator symbols at degree "
             f"{gr.gen_degree}: {', '.join(sorted(classes))}"]
    payload = {"ring": ring.name, "field": fld.name, "gr": gr.to_json(),
               "symbol_degree": gr.gen_degree,
               "symbols": sorted(classes)}
    return EXIT_OK, payload, lines


def cmd_ranks(args):
    fld = _field(args)
    ring = make("R_2x2", degcap=2 * args.depth + 2, field=fld)
    carrier, closed = two_sided_closure(ring.pres, [ring.el("beta")])
    spec = BimoduleSpec("corner-ideal", ring.ambient, carrier,
                        ring.el("alpha"), ring.el("alpha"))
    both = bimodule_ranks(spec, args.depth)
    lines = [f"corner ideal of R_2x2 over {fld.name}, depth {args.depth} "
             f"(ideal exact through degree {closed})"]
    payload = {"ring": "R_2x2", "field": fld.name, "depth": args.depth,
               "actions_commute": both["actions_commute"], "sides": {}}
    verdicts = []
    for side in ("left", "right"):
        rep = both[side]
        gold = goldie_rank(spec.action(side), args.depth)
        slopes = gold.slope
        lines.append(
            f"{side:>5}: free rank {rep.rank} ({rep.verdict}), generator "
            f"degrees {list(rep.generator_degrees)}, step "
            f"{rep.effective_step}; uniform rank {gold.rank} "
            f"({gold.verdict})")
        last = slopes["rows"][-1]
        lines.append(
            f"       slope probe at n={last['n']}: raw {last['raw_slope']}"
            f", twist-corrected {last['twist_corrected']}")
        payload["sides"][side] = {"free": rep.to_json(),
                                  "uniform": gold.to_json(),
                                  "slope": slopes}
        verdicts += [rep.verdict, gold.verdict]
    lines.append(f"actions commute: {both['actions_commute']}")
    # a definite negative on either side fails, whatever the other says
    if (not both["actions_commute"] or set(verdicts)
            - {"free", "certified", "inconclusive"}):
        return EXIT_FAIL, payload, lines
    return (EXIT_INCONCLUSIVE if "inconclusive" in verdicts else EXIT_OK,
            payload, lines)


def cmd_certify(args):
    fld = _field(args)
    dossier = assemble_growth_dossier(args.case, depth=args.depth, field=fld)
    payload = dossier.to_json()
    lines = [dossier.verdict]
    if args.case == "two-sided":
        ok = dossier.consistent
        for nm, sub in (("ascending", dossier.ascending),
                        ("weak-adic", dossier.weak_adic)):
            lines.append(f"  {nm}: {sub.verdict}")
        for k, v in dossier.checks.items():
            lines.append(f"  check {k}: {v}")
        lines.append("certificates re-verified: "
                     f"{dossier.checks['both_certified']}")
    else:
        cert = dossier.certificate
        cert_ok = verify_certificate(cert)
        ok = (cert_ok and dossier.offsets["matching"].offset == 0
              and dossier.chain.strictly_ascending
              and dossier.chain_reverified)
        lines.append(f"ranks: s = {dossier.s} (left), t = {dossier.t} "
                     f"(right)")
        lines.append("hilbert: " + ", ".join(map(str,
                                                 dossier.hilbert.values)))
        if isinstance(cert, GrowthCertificate):
            lines.append("obstruction rows (p, first n): " +
                         ", ".join(f"({r['p']}, {r['n']})"
                                   for r in cert.rows))
        for label, off in dossier.offsets.items():
            lines.append(f"offset[{label}]: {off.a} vs {off.b}: "
                         f"equivalent = {off.equivalent} "
                         f"(a_in_b = {off.a_in_b}, b_in_a = {off.b_in_a})")
        lines.append(f"chain ({dossier.chain.side}): dims "
                     f"{list(dossier.chain.ideal_dims)}, strict = "
                     f"{dossier.chain.strictly_ascending}")
        lines.append(f"certificate re-verified: {cert_ok}")
    payload["verified"] = ok
    return (EXIT_OK if ok else EXIT_FAIL), payload, lines


def cmd_chain(args):
    fld = _field(args)
    if args.kind == "standard":
        ring = make("R_2x2", degcap=2 * args.depth + 2, field=fld)
        filt = standard_filtration(ring.pres, args.depth)
        side = args.side or "left"
    else:
        ring = make("R_prime", degcap=args.depth + 2, field=fld)
        filt = weak_adic_filtration(ring.pres, args.depth)
        side = args.side or "right"
    gr = GradedTrunc(filt)
    classes = gr.generator_classes(ring.pres)
    words = [["beta"] + ["alpha"] * i if side == "left"
             else ["alpha"] * i + ["beta"] for i in range(args.steps)]
    report = ideal_chain_witness(gr, classes, words, side=side)
    reverified = verify_chain_report(gr, classes, report)
    ok = report.strictly_ascending and reverified
    lines = [f"{side} ideal chain in gr {ring.name} ({args.kind}), "
             f"{args.steps} steps",
             "words: " + "; ".join("*".join(w) for w in report.words),
             f"ideal dims: {list(report.ideal_dims)}",
             f"strictly ascending: {report.strictly_ascending}",
             f"witnesses re-verified: {reverified}"]
    payload = report.to_json()
    payload.update({"ring": ring.name, "kind": args.kind,
                    "reverified": reverified})
    return (EXIT_OK if ok else EXIT_FAIL), payload, lines


def cmd_dualize(args):
    fld = _field(args)
    if args.control:
        ring = make("R_perturbed", degcap=args.degcap, field=fld)
        rep = verify_dualizing(ring=ring)
        ok = rep.aborted_at == "endomorphism-ring"
        expect = ("control run: the perturbed ring must abort at the "
                  "endomorphism-ring stage")
    else:
        rep = verify_dualizing(degcap=args.degcap, field=fld)
        ok = rep.ok
        expect = None
    lines = [f"dualizing chain for {rep.ring}, degree cap {rep.degcap}"]
    if expect:
        lines.append(expect)
    for name, state in rep.stage_results():
        lines.append(f"  {name}: {state}")
    lines.append(f"aborted at: {rep.aborted_at}")
    if rep.endo is not None and not rep.endo.injective:
        lines.append(f"endomorphism kernel witness: "
                     f"{rep.endo.kernel_witness}")
    lines.append(f"{'control satisfied' if args.control else 'verified'}: "
                 f"{ok}")
    payload = rep.to_json()
    payload["verified"] = ok
    return (EXIT_OK if ok else EXIT_FAIL), payload, lines


def cmd_quotient_iso(args):
    fld = _field(args)
    ring_t = make("T", field=fld)
    pres, ctx, ideal, closed = staircase_quotient_context(
        ring_t, degcap=args.degcap, fld=fld)
    ring_r = make("R_2x2", degcap=args.degcap, field=fld)
    sys_a = MulSystem.quotient(ctx)
    sys_b = MulSystem.plain(ring_r.ambient)
    pairs = [(pres.gen("alpha"), ring_r.el("alpha")),
             (pres.gen("e12"), ring_r.el("beta"))]
    rep = quotient_iso_check(sys_a, sys_b, pairs, max_len=args.max_len)
    lines = [f"staircase model mod y, then mod (e13, e23), against the "
             f"triangular ring (cap {args.degcap}, words up to length "
             f"{args.max_len})",
             f"ideal exact through degree {closed}; quotient span "
             f"{rep.dim_a}, target span {rep.dim_b}, joint {rep.dim_joint}",
             f"consistent with an isomorphism on the word span: "
             f"{rep.consistent}"]
    payload = rep.to_json()
    payload.update({"closed_degree": closed, "degcap": args.degcap})
    return (EXIT_OK if rep.consistent else EXIT_FAIL), payload, lines


# ------------------------------------------------------------- plumbing

def window_arg(text):
    """argparse type for depths, caps, step counts and word lengths."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser():
    top = argparse.ArgumentParser(
        prog="grfilt",
        description="exact filtration and rank computations for the "
                    "triangular matrix-ring family")
    top.add_argument("--field", default="Q", metavar="Q|Fp:<p>",
                     help="coefficient field (default Q)")
    top.add_argument("--format", choices=("text", "json"), default="text")
    top.add_argument("--out", metavar="FILE",
                     help="write output to FILE instead of stdout")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from stamping its own default over a value parsed above
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--field", default=argparse.SUPPRESS,
                        metavar="Q|Fp:<p>",
                        help="coefficient field (default Q)")
    shared.add_argument("--format", choices=("text", "json"),
                        default=argparse.SUPPRESS)
    shared.add_argument("--out", metavar="FILE", default=argparse.SUPPRESS,
                        help="write output to FILE instead of stdout")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hilbert", parents=[shared],
                       help="filtration layer dims and Hilbert values")
    p.add_argument("--ring", choices=CATALOG, default="R_2x2")
    p.add_argument("--kind", choices=("standard", "weak-adic"),
                   default="standard")
    p.add_argument("--depth", type=window_arg, default=6)
    p.add_argument("--degcap", type=window_arg, default=None,
                   help="ambient degree cap (default per ring)")
    p.add_argument("--quotient", metavar="ELT[,ELT..]",
                   help="pass to the quotient by the two-sided ideal "
                        "these elements generate")
    p.set_defaults(handler=cmd_hilbert)

    p = sub.add_parser("gr", parents=[shared],
                       help="associated graded truncation")
    p.add_argument("--ring", choices=CATALOG, default="R_2x2")
    p.add_argument("--kind", choices=("standard", "weak-adic"),
                   default="standard")
    p.add_argument("--depth", type=window_arg, default=6)
    p.add_argument("--degcap", type=window_arg, default=None)
    p.set_defaults(handler=cmd_gr)

    p = sub.add_parser("ranks", parents=[shared],
                       help="one-sided rank certificates for the corner "
                            "ideal")
    p.add_argument("--depth", type=window_arg, default=8)
    p.set_defaults(handler=cmd_ranks)

    p = sub.add_parser("certify", parents=[shared],
                       help="growth-obstruction dossier")
    p.add_argument("--case", choices=("ascending", "weak-adic", "two-sided"),
                   default="two-sided")
    p.add_argument("--depth", type=window_arg, default=8)
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("chain", parents=[shared],
                       help="strictly ascending one-sided ideal chain in "
                            "the graded ring")
    p.add_argument("--kind", choices=("standard", "weak-adic"),
                   default="standard")
    p.add_argument("--side", choices=("left", "right"), default=None,
                   help="default: left for standard, right for weak-adic")
    p.add_argument("--steps", type=window_arg, default=4)
    p.add_argument("--depth", type=window_arg, default=8)
    p.set_defaults(handler=cmd_chain)

    p = sub.add_parser("dualize", parents=[shared],
                       help="four-stage dualizing-module chain")
    p.add_argument("--degcap", type=window_arg, default=20)
    p.add_argument("--control", action="store_true",
                   help="run the perturbed ring and demand the stage-three "
                        "abort")
    p.set_defaults(handler=cmd_dualize)

    p = sub.add_parser("quotient-iso", parents=[shared],
                       help="staircase quotient against the triangular "
                            "ring")
    p.add_argument("--degcap", type=window_arg, default=12)
    p.add_argument("--max-len", type=window_arg, default=4)
    p.set_defaults(handler=cmd_quotient_iso)
    return top


def _emit(args, payload, lines):
    if args.format == "json":
        text = json.dumps(payload, indent=2)
    else:
        text = "\n".join(lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        code, payload, lines = args.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Inconclusive as exc:
        print(f"inconclusive at this depth: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _emit(args, payload, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
