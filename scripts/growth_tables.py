"""Print growth tables side by side and certify the obstruction window.

Columns: the triangular ring's layer dimensions, the quotient table after
killing the corner ideal, and the series model's m-adic quotient table.
Each is read off the JSON that `grfilt hilbert` prints.  The quotient
table is the one the growth certificates run on; the script certifies
t*H(n) > s*H(n+p) witnesses for every offset p up to the bound and shows
a probe of the growth shape.  It exits 0 when the certificate re-verifies,
1 when some offset has no witness in the window, 2 when the window is too
small to certify anything (an offset bound of 0), and 3 on bad input (a
usage error, before anything runs, or a --json file that cannot be
written).  A column grfilt cannot compute stops the script with grfilt's
exit code.

    python scripts/growth_tables.py --depth 16 --max-offset 8 --json out.json
"""

import argparse
import contextlib
import io
import json
import sys

from grfilt import Inconclusive
from grfilt.cli import (main as grfilt_main, window_arg, EXIT_OK, EXIT_FAIL,
                        EXIT_INCONCLUSIVE, EXIT_USAGE)
from grfilt.certifier import (growth_obstruction, verify_certificate,
                              subexp_probe, GrowthCertificate)


def tables(depth):
    """grfilt's exit code and the three columns, each read off the JSON
    that `grfilt hilbert` prints; the first column that exits nonzero
    stops the run with its code and the columns read so far."""
    cols = {}
    for name, argv in (
            ("ring", f"--ring R_2x2 --depth {depth}"),
            ("quotient", f"--quotient beta --depth {depth}"),
            # the series catalog cap 9 saturates the powers past depth 10
            ("madic_quotient",
             f"--ring R_prime --kind weak-adic --degcap {depth + 2} "
             f"--quotient beta --depth {depth}")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = grfilt_main(["--format", "json", "hilbert",
                                *argv.split()])
        if code != EXIT_OK:
            return code, cols
        cols[name] = json.loads(out.getvalue())["hilbert"]["values"]
    return EXIT_OK, cols


def main(argv=None):
    ap = argparse.ArgumentParser(description="growth tables and "
                                             "obstruction certificates")
    ap.add_argument("--depth", type=window_arg, default=16)
    ap.add_argument("--s", type=int, default=1)
    ap.add_argument("--t", type=int, default=2)
    ap.add_argument("--max-offset", type=window_arg, default=None,
                    help="default: depth // 2")
    ap.add_argument("--json", metavar="FILE",
                    help="also write everything to FILE")
    try:
        args = ap.parse_args(argv)
        if not 0 < args.s < args.t:
            ap.error(f"the ranks need 0 < s < t, got s={args.s}, "
                     f"t={args.t}")
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    max_p = args.max_offset if args.max_offset is not None \
        else args.depth // 2

    code, cols = tables(args.depth)
    if code != EXIT_OK:
        return code
    print(f"{'n':>4} {'H_ring':>8} {'H_quot':>8} {'H_madic':>8}")
    for n in range(args.depth + 1):
        print(f"{n:>4} {cols['ring'][n]:>8} {cols['quotient'][n]:>8} "
              f"{cols['madic_quotient'][n]:>8}")

    try:
        cert = growth_obstruction(cols["quotient"], args.s, args.t, max_p)
    except Inconclusive as exc:
        print(f"inconclusive at this window: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    verified = verify_certificate(cert)
    if isinstance(cert, GrowthCertificate):
        print(f"\nobstruction witnesses, {args.t}*H(n) > "
              f"{args.s}*H(n+p), quotient table:")
        for row in cert.rows:
            print(f"  p = {row['p']:>2}: first n = {row['n']} "
                  f"(H = {row['H_n']} vs {row['H_n_plus_p']})")
        print(f"re-verified: {verified}")
    else:
        print(f"\nno witness for p = {cert.first_failed_p}: {cert.note}")

    probe = subexp_probe(cols["quotient"])
    print(f"\ngrowth shape probe: max ratio {probe['max_ratio']}, fitted "
          f"degree {probe['fitted_degree']}, subexponential consistent = "
          f"{probe['subexponential_consistent']}")

    if args.json:
        blob = {"depth": args.depth, "tables": cols,
                "certificate": cert.to_json(),
                "probe": probe}
        try:
            fh = open(args.json, "w")
        except OSError as exc:
            print(f"usage error: cannot write {args.json}: {exc.strerror}",
                  file=sys.stderr)
            return EXIT_USAGE
        with fh:
            json.dump(blob, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return EXIT_OK if verified else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
