"""Run the standard battery through the grfilt command line and drop one
JSON report per check.

Each report is the JSON payload that `grfilt --format json <argv>`
prints for one entry of reports(depth): the filtration tables for the
polynomial and series models, the corner-ideal rank certificates, the
two-sided growth dossier, the dualizing chain with its perturbed control,
the staircase quotient comparison, and the one-sided ideal chains.  The
staircase model's op-involution check has no subcommand; it is run
directly and passes when both of its checks hold.

After the battery, growth_tables.txt is read off hilbert_standard.json
and growth_dossier.json as they lie on disk: the ring's layers beside
the ascending and m-adic quotient tables, the witnesses t*H(n) >
s*H(n+p) for the computed ranks s < t, rechecked from that JSON by
verify_certificate, and the growth probe.

summary.txt gets one line per report: verified, FAILED, inconclusive or
usage error, read off grfilt's exit code or the op-involution report's
decision; the growth_tables line is the recheck's, or the worse of the
two reports' when either did not pass (no table is then written).  The
script exits with grfilt.cli.exit_code of them all, the worst one's;
bad flags and an output directory that cannot be made exit 3 before
anything runs.

    python scripts/make_reports.py --outdir reports --depth 8
"""

import argparse
import json
import sys
from pathlib import Path

from grfilt.certifier import verify_certificate
from grfilt.cli import (main as grfilt_main, window_arg, exit_code,
                        EXIT_CODES, OK, FAIL, INCONCLUSIVE, USAGE)
from grfilt.workbench import make, op_involution_report

VERDICTS = {OK: "verified", FAIL: "FAILED", INCONCLUSIVE: "inconclusive",
            USAGE: "usage error"}
# the outcome each exit code of grfilt reports
OUTCOMES = {code: outcome for outcome, code in EXIT_CODES.items()}


def reports(depth):
    """(report name, grfilt argv) for every report of the battery.  A
    chain's step count stops at 0, so a shallow depth leaves the chain
    inconclusive instead of handing grfilt a negative count."""
    d = depth
    return [(name, argv.split()) for name, argv in (
        ("hilbert_standard", f"hilbert --ring R_2x2 --depth {d}"),
        ("hilbert_quotient", f"hilbert --quotient beta --depth {d}"),
        ("hilbert_weak_adic", f"hilbert --ring R_prime --kind weak-adic "
                              f"--degcap {d + 2} --depth {d}"),
        ("corner_ranks", f"ranks --depth {d}"),
        ("growth_dossier", f"certify --case two-sided --depth {d}"),
        ("dualizing_chain", "dualize --degcap 20"),
        ("dualizing_control", "dualize --control --degcap 20"),
        ("staircase_quotient", "quotient-iso --degcap 12 --max-len 4"),
        ("chain_standard_left", f"chain --kind standard --steps "
                                f"{max(d - 1, 0)} --depth {d}"),
        ("chain_weak_adic_right", f"chain --kind weak-adic --steps "
                                  f"{max(d - 3, 0)} --depth {d}"),
    )]


def growth_tables(outdir):
    """Exit code 0 when growth_dossier.json's ascending certificate
    rechecks against its quotient table, else 1; writes the file."""
    ring, dossier = (json.loads((outdir / f"{name}.json").read_text())
                     for name in ("hilbert_standard", "growth_dossier"))
    asc, madic = dossier["ascending"], dossier["weak_adic"]["hilbert"]
    quot, cert = asc["hilbert"]["values"], asc["certificate"]
    verified = verify_certificate(cert) and cert["hilbert"] == quot
    lines = [f"{'n':>4} {'H_ring':>8} {'H_quot':>8} {'H_madic':>8}"] + [
        f"{n:>4} {ring['hilbert']['values'][n]:>8} {quot[n]:>8} "
        f"{madic['values'][n]:>8}" for n in range(len(quot))]
    if verified:
        lines += [f"\nobstruction witnesses, {cert['t']}*H(n) > "
                  f"{cert['s']}*H(n+p), quotient table:"] + [
            f"  p = {r['p']:>2}: first n = {r['n']} (H = {r['H_n']} vs "
            f"{r['H_n_plus_p']})" for r in cert["rows"]]
    (outdir / "growth_tables.txt").write_text("\n".join(lines + [
        f"re-verified: {verified}",
        "\ngrowth shape probe: max ratio {max_ratio}, fitted degree "
        "{fitted_degree}, subexponential consistent = "
        "{subexponential_consistent}\n".format(**asc["probe"])]))
    return exit_code(OK if verified else FAIL)


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="run the standard battery and write JSON reports")
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--depth", type=window_arg, default=8)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exit_code(USAGE if exc.code else OK)
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"usage error: cannot make {outdir}: {exc.strerror}",
              file=sys.stderr)
        return exit_code(USAGE)
    results = {}
    for name, cli_argv in reports(args.depth):
        path = outdir / f"{name}.json"
        # a stale file must not stand in for a run that wrote nothing
        path.unlink(missing_ok=True)
        results[name] = OUTCOMES[grfilt_main(
            ["--format", "json", "--out", str(path), *cli_argv])]
        print(f"{path}: {VERDICTS[results[name]]} "
              f"(grfilt {' '.join(cli_argv)})")
    op = op_involution_report(make("T"))
    path = outdir / "op_involution.json"
    path.write_text(json.dumps(op, indent=2) + "\n")
    results["op_involution"] = op.decision
    print(f"{path}: {VERDICTS[op.decision]}")
    path = outdir / "growth_tables.txt"
    path.unlink(missing_ok=True)
    code = exit_code(results["hilbert_standard"], results["growth_dossier"])
    results["growth_tables"] = OUTCOMES[
        growth_tables(outdir) if code == exit_code(OK) else code]
    print(f"{path}: {VERDICTS[results['growth_tables']]}")
    (outdir / "summary.txt").write_text(
        "".join(f"{name}: {VERDICTS[outcome]}\n"
                for name, outcome in results.items()))
    print(f"wrote {outdir / 'summary.txt'}")
    return exit_code(*results.values())

if __name__ == "__main__":
    sys.exit(main())
