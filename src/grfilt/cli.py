"""Command line front end.

Subcommands cover the toolkit's standard runs: filtration tables with
Hilbert values, graded truncations, rank certificates for the corner
ideal, growth-obstruction dossiers, graded chain witnesses, the dualizing
chain, and the staircase quotient comparison.

Exit codes: 0 the requested check verified (or the table was produced),
1 a check failed or an unexpected error occurred, 2 the window or depth
was too small to decide, 3 usage error.  A handler returns the decisions
of the reports it ran, and exit_code turns decisions into the code of the
worst one; a raised grfilt.Inconclusive (WindowExceeded, TruncationError,
DegreeOverflowError) decides INCONCLUSIVE.  No error text is inspected.

A subcommand is one row of SUBCOMMANDS plus its cmd_* handler; the
global flags of GLOBAL_OPTIONS are accepted before or after it.

Handlers look up graded, bimodule, certifier and dualizing names when
called, so a job compiles only the on-demand modules its subcommand runs:
hilbert and quotient-iso none, gr and chain graded, ranks bimodule,
dualize dualizing and bimodule, certify all but dualizing.
"""

import argparse
import json
import sys

from .fields import field_from_name
from .linspace import Inconclusive, QuotientContext, zero_space
from .workbench import (make, CATALOG, SERIES_RINGS,
                        staircase_quotient_context, quotient_iso_check)
from .filtration import (standard_filtration, weak_adic_filtration, hilbert,
                         two_sided_closure, induced_quotient_filtration)
from .record import OK, FAIL, INCONCLUSIVE
from . import graded, bimodule, certifier, dualizing

USAGE = "usage"
# every outcome with its exit code, from best to worst
EXIT_CODES = {OK: 0, INCONCLUSIVE: 2, FAIL: 1, USAGE: 3}


def exit_code(*outcomes):
    """The exit code of the worst outcome; 0 when none was decided."""
    return EXIT_CODES[max(outcomes, key=list(EXIT_CODES).index, default=OK)]


class UsageError(Exception):
    pass


def _field(args):
    try:
        return field_from_name(args.field)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _base_filtration(ring, kind, depth):
    if kind == "weak-adic":
        if not ring.ambient.series:
            raise UsageError(
                f"{ring.name} is a polynomial-mode ring; the weak-adic "
                f"filtration needs one of the series models "
                f"({', '.join(SERIES_RINGS)})")
        return weak_adic_filtration(ring.pres, depth)
    return standard_filtration(ring.pres, depth)


def _fmt_dims(dims):
    return ", ".join(f"{n}: {d}" for n, d in sorted(dims.items()))


# ----------------------------------------------------------- subcommands

def cmd_hilbert(args):
    # quotient runs also need the ideal saturated past the deepest layer
    ring = make(args.ring, args.degcap, args.field, depth=args.depth,
                slack=4 if args.quotient else 2)
    filt = _base_filtration(ring, args.kind, args.depth)
    lines = [f"{ring.name} over {args.field.name}, {args.kind} filtration, "
             f"depth {args.depth}"]
    payload = {"ring": ring.name, "field": args.field.name,
               "filtration": filt.to_json()}
    if args.quotient:
        seeds = []
        for nm in args.quotient.split(","):
            if nm not in ring.elements:
                raise UsageError(
                    f"{ring.name} has no element {nm!r}; available: "
                    f"{', '.join(sorted(ring.elements))}")
            seeds.append(ring.el(nm))
        filt = induced_quotient_filtration(
            ring.pres, two_sided_closure(ring.pres, seeds), filt)
        lines.append(f"quotient by the two-sided ideal of "
                     f"({args.quotient}), exact through degree "
                     f"{ring.pres.closed_degree}")
        payload["quotient"] = {"seeds": args.quotient.split(","),
                               "closed_degree": ring.pres.closed_degree,
                               "filtration": filt.to_json()}
    table = hilbert(filt)
    lines.append("layer dims: " + _fmt_dims(filt.dims()))
    lines.append("hilbert:    " +
                 ", ".join(f"H({n}) = {v}"
                           for n, v in enumerate(table.values)))
    payload["hilbert"] = table.to_json()
    return (), payload, lines


def cmd_gr(args):
    ring = make(args.ring, args.degcap, args.field, depth=args.depth)
    filt = _base_filtration(ring, args.kind, args.depth)
    gr = graded.GradedTrunc(filt)
    classes = gr.generator_classes(ring.pres)
    lines = [f"associated graded of {ring.name} ({args.kind}), "
             f"window {gr.degrees[0]}..{gr.degrees[-1]}",
             "piece dims: " + _fmt_dims(gr.piece_dims()),
             "generator symbols at degree "
             f"{gr.gen_degree}: {', '.join(sorted(classes))}"]
    payload = {"ring": ring.name, "field": args.field.name, "gr": gr.to_json(),
               "symbol_degree": gr.gen_degree,
               "symbols": sorted(classes)}
    return (), payload, lines


def cmd_ranks(args):
    ring, actions = bimodule.corner_ideal("corner-ideal", args.depth,
                                          args.field)
    both = bimodule.bimodule_ranks(actions, args.depth)
    lines = [f"corner ideal of R_2x2 over {args.field.name}, depth "
             f"{args.depth} (ideal exact through degree "
             f"{ring.pres.closed_degree})"]
    payload = {"ring": "R_2x2", "field": args.field.name, "depth": args.depth,
               "actions_commute": both["actions_commute"], "sides": {}}
    decisions, refuted = [], []
    for side in ("left", "right"):
        rep = both[side]
        action = actions[side]
        gold = bimodule.goldie_rank(action, args.depth)
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
        # definite verdicts are rechecked; an inconclusive one claims
        # nothing, and its verifier refuses it
        for kind, verify, report in (
                ("free", bimodule.verify_rank_certificate, rep),
                ("uniform", bimodule.verify_goldie_certificate, gold)):
            decisions.append(report.decision)
            if (report.decision != INCONCLUSIVE
                    and not verify(action, report)):
                refuted.append(f"{side} {kind}")
    lines.append(f"actions commute: {both['actions_commute']}")
    if refuted:
        lines.append(f"refuted on recheck: {', '.join(refuted)}")
        payload["refuted"] = refuted
    if refuted or not both["actions_commute"]:
        decisions.append(FAIL)
    return decisions, payload, lines


def cmd_certify(args):
    dossier = certifier.assemble_growth_dossier(args.case, depth=args.depth,
                                                field=args.field)
    payload = dossier.to_json()
    lines = [dossier.verdict]
    if args.case == "two-sided":
        for nm, sub in (("ascending", dossier.ascending),
                        ("weak-adic", dossier.weak_adic)):
            lines.append(f"  {nm}: {sub.verdict}")
        for k, v in dossier.checks.items():
            lines.append(f"  check {k}: {v}")
        lines.append("certificates re-verified: "
                     f"{dossier.checks['both_certified']}")
    else:
        cert = dossier.certificate
        lines.append(f"ranks: s = {dossier.s} (left), t = {dossier.t} "
                     f"(right)")
        lines.append("hilbert: " + ", ".join(map(str,
                                                 dossier.hilbert.values)))
        if isinstance(cert, certifier.GrowthCertificate):
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
        lines.append("certificate re-verified: "
                     f"{dossier.certificate_verified}")
    payload["verified"] = dossier.decision == OK
    return [dossier.decision], payload, lines


def cmd_chain(args):
    if args.kind == "standard":
        ring = make("R_2x2", field=args.field, depth=args.depth)
    else:
        ring = make("R_prime", degcap=args.depth + 2, field=args.field)
    filt = _base_filtration(ring, args.kind, args.depth)
    side = args.side or graded.chain_sides(filt)[0]
    report, reverified = graded.checked_chain(filt, ring.pres, side,
                                              args.steps)
    lines = [f"{side} ideal chain in gr {ring.name} ({args.kind}), "
             f"{args.steps} steps",
             "words: " + "; ".join("*".join(w) for w in report.words),
             f"ideal dims: {list(report.ideal_dims)}",
             f"strictly ascending: {report.strictly_ascending}",
             f"witnesses re-verified: {reverified}"]
    payload = report.to_json()
    payload.update({"ring": ring.name, "kind": args.kind,
                    "reverified": reverified})
    return [graded.chain_decision(report, reverified)], payload, lines


def cmd_dualize(args):
    ring = make("R_perturbed" if args.control else "R_2x2",
                degcap=args.degcap, field=args.field)
    rep = dualizing.verify_dualizing(ring)
    lines = [f"dualizing chain for {rep.ring}, degree cap {rep.degcap}"]
    decision = rep.decision
    if args.control:
        decision = rep.control_decision
        lines.append("control run: the perturbed ring must abort at the "
                     f"{dualizing.STAGES[2]} stage")
    for name, state in rep.stage_results():
        lines.append(f"  {name}: {state}")
    lines.append(f"aborted at: {rep.aborted_at}")
    if rep.endo is not None and not rep.endo.injective:
        lines.append(f"endomorphism kernel witness: "
                     f"{rep.endo.kernel_witness}")
    payload = rep.to_json()
    payload["verified"] = decision == OK
    lines.append(f"{'control satisfied' if args.control else 'verified'}: "
                 f"{payload['verified']}")
    return [decision], payload, lines


def cmd_quotient_iso(args):
    pres, ctx = staircase_quotient_context(make("T", field=args.field),
                                           args.degcap)
    ring_r = make("R_2x2", degcap=args.degcap, field=args.field)
    plain = QuotientContext(zero_space(ring_r.ambient))
    pairs = [(pres.gen("alpha"), ring_r.el("alpha")),
             (pres.gen("e12"), ring_r.el("beta"))]
    rep = quotient_iso_check(ctx, plain, pairs, max_len=args.max_len)
    lines = [f"staircase model mod y, then mod (e13, e23), against the "
             f"triangular ring (cap {args.degcap}, words up to length "
             f"{args.max_len})",
             f"ideal exact through degree {pres.closed_degree}; quotient "
             f"span {rep.dim_a}, target span {rep.dim_b}, joint "
             f"{rep.dim_joint}",
             f"consistent with an isomorphism on the word span: "
             f"{rep.consistent}"]
    payload = rep.to_json()
    payload.update(closed_degree=pres.closed_degree, degcap=args.degcap)
    return [rep.decision], payload, lines


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


# (flag, add_argument keywords); the global flags are accepted before the
# subcommand and after it
GLOBAL_OPTIONS = (
    ("--field", dict(default="Q", metavar="Q|Fp:<p>",
                     help="coefficient field (default Q)")),
    ("--format", dict(choices=("text", "json"), default="text")),
    ("--out", dict(metavar="FILE",
                   help="write output to FILE instead of stdout")),
)
WINDOW_OPTIONS = (
    ("--ring", dict(choices=CATALOG, default="R_2x2")),
    ("--kind", dict(choices=("standard", "weak-adic"), default="standard")),
    ("--depth", dict(type=window_arg, default=6)),
)
# (name, help, handler name, options); one row per subcommand
SUBCOMMANDS = (
    ("hilbert", "filtration layer dims and Hilbert values", "cmd_hilbert",
     WINDOW_OPTIONS + (
         ("--degcap", dict(type=window_arg, default=None,
                           help="ambient degree cap (default per ring)")),
         ("--quotient", dict(metavar="ELT[,ELT..]",
                             help="pass to the quotient by the two-sided "
                                  "ideal these elements generate")))),
    ("gr", "associated graded truncation", "cmd_gr",
     WINDOW_OPTIONS + (("--degcap", dict(type=window_arg, default=None)),)),
    ("ranks", "one-sided rank certificates for the corner ideal",
     "cmd_ranks", (("--depth", dict(type=window_arg, default=8)),)),
    ("certify", "growth-obstruction dossier", "cmd_certify",
     (("--case", dict(choices=("ascending", "weak-adic", "two-sided"),
                      default="two-sided")),
      ("--depth", dict(type=window_arg, default=8)))),
    ("chain", "strictly ascending one-sided ideal chain in the graded ring",
     "cmd_chain",
     (("--kind", dict(choices=("standard", "weak-adic"),
                      default="standard")),
      ("--side", dict(choices=("left", "right"), default=None,
                      help="default: left for standard, right for "
                           "weak-adic")),
      ("--steps", dict(type=window_arg, default=4)),
      ("--depth", dict(type=window_arg, default=8)))),
    ("dualize", "four-stage dualizing-module chain", "cmd_dualize",
     (("--degcap", dict(type=window_arg, default=20)),
      ("--control", dict(action="store_true",
                         help="run the perturbed ring and demand the "
                              "stage-three abort")))),
    ("quotient-iso", "staircase quotient against the triangular ring",
     "cmd_quotient_iso",
     (("--degcap", dict(type=window_arg, default=12)),
      ("--max-len", dict(type=window_arg, default=4)))),
)


def build_parser():
    top = argparse.ArgumentParser(
        prog="grfilt",
        description="exact filtration and rank computations for the "
                    "triangular matrix-ring family")
    for flag, options in GLOBAL_OPTIONS:
        top.add_argument(flag, **options)
    sub = top.add_subparsers(dest="command", required=True)
    for name, help_text, handler, own in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        # SUPPRESS keeps the subparser from stamping its own default over
        # a global flag parsed before the subcommand
        for flag, options in GLOBAL_OPTIONS:
            p.add_argument(flag, **{**options, "default": argparse.SUPPRESS})
        for flag, options in own:
            p.add_argument(flag, **options)
        # looked up by name now, so a handler rebound after import runs
        p.set_defaults(handler=globals()[handler])
    return top


def _emit(args, payload, lines):
    text = (json.dumps(payload, indent=2) if args.format == "json"
            else "\n".join(lines))
    if not args.out:
        print(text)
        return
    try:
        fh = open(args.out, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {args.out}: {exc.strerror}") from exc
    with fh:
        fh.write(text + "\n")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exit_code(USAGE if exc.code else OK)
    try:
        args.field = _field(args)
        decisions, payload, lines = args.handler(args)
        _emit(args, payload, lines)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return exit_code(USAGE)
    except Inconclusive as exc:
        print(f"inconclusive at this depth: {exc}", file=sys.stderr)
        return exit_code(INCONCLUSIVE)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code(FAIL)
    return exit_code(*decisions)


if __name__ == "__main__":
    sys.exit(main())
