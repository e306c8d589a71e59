"""Run the standard battery through the grfilt command line and drop one
JSON report per check.

Each report is the JSON payload that `grfilt --format json <argv>`
prints for one entry of reports(depth): the filtration tables for the
polynomial and series models, the corner-ideal rank certificates, the
two-sided growth dossier, the dualizing chain with its perturbed control,
the staircase quotient comparison, and the one-sided ideal chains.  The
staircase model's op-involution check has no subcommand; it is run
directly and passes when both of its checks hold.

summary.txt gets one line per report, with the verdict read from the
command's exit code (0 verified, 1 FAILED, 2 inconclusive, 3 usage
error).  The script exits with the worst code of the battery: usage
error, then failure, then inconclusive.  Bad flags and an output directory
that cannot be made exit 3 before anything runs.

    python scripts/make_reports.py --outdir reports --depth 8
"""

import argparse
import json
import sys
from pathlib import Path

from grfilt.cli import (main as grfilt_main, window_arg, EXIT_OK,
                        EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE)
from grfilt.workbench import make, op_involution_report

VERDICTS = {EXIT_OK: "verified", EXIT_FAIL: "FAILED",
            EXIT_INCONCLUSIVE: "inconclusive", EXIT_USAGE: "usage error"}
SEVERITY = (EXIT_OK, EXIT_INCONCLUSIVE, EXIT_FAIL, EXIT_USAGE)


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


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="run the standard battery and write JSON reports")
    ap.add_argument("--outdir", default="reports")
    ap.add_argument("--depth", type=window_arg, default=8)
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"usage error: cannot make {outdir}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_USAGE
    results = []
    for name, cli_argv in reports(args.depth):
        path = outdir / f"{name}.json"
        # a stale file must not stand in for a run that wrote nothing
        path.unlink(missing_ok=True)
        code = grfilt_main(["--format", "json", "--out", str(path),
                            *cli_argv])
        results.append((name, code))
        print(f"{path}: {VERDICTS[code]} (grfilt {' '.join(cli_argv)})")
    op = op_involution_report(make("T"))
    path = outdir / "op_involution.json"
    path.write_text(json.dumps(op, indent=2) + "\n")
    code = (EXIT_OK if op["shape_preserved"] and op["anti_multiplicative"]
            else EXIT_FAIL)
    results.append(("op_involution", code))
    print(f"{path}: {VERDICTS[code]}")
    (outdir / "summary.txt").write_text(
        "".join(f"{name}: {VERDICTS[code]}\n" for name, code in results))
    print(f"wrote {outdir / 'summary.txt'}")
    return max((code for _, code in results), key=SEVERITY.index)

if __name__ == "__main__":
    sys.exit(main())
