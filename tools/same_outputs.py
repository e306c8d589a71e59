"""Check that grfilt prints the same as another checkout, run by run.

    python tools/same_outputs.py PARENT_CHECKOUT

Runs one battery in this checkout and in PARENT_CHECKOUT: every job of
perfbench/workloads.json and its warm-up, plus EDGE_JOBS, each over
FIELDS in json and text.  Each tree runs the whole battery in one child
interpreter with PYTHONPATH=<tree>/src, calling grfilt.cli.main in
process, and records each run's exit code and the sha256 of its stdout
and stderr.  Every argv whose three differ is printed, and the exit code
is 1 if any do."""

import json
import os
import pathlib
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIELDS = ("Q", "Fp:101", "Fp:2147483629", "Fp:7")
# runs that fail (1), are inconclusive (2) or misuse the command line (3),
# then two that pass with more degree cuts than any workload job makes,
# and the control, whose corner starts at degree 1, at the smallest cap
# that decides it and at a wide one; then R_hat, C_diag, gr on S and a
# quotient of T, which no workload job runs, an element that S, T,
# C_diag and R_hat lack, whose usage error lists the ring's elements, and
# the weak-adic windows of depth 0 and 1, which keep no m^2 layer; then
# polynomial windows sized from depth 0 and 1, where the cap is the slack
# alone or one generator degree plus slack 2 or 4; then graded cosets on
# the 3x3 staircase over k[x,y] and on R_hat, off R_2x2 and R_prime; then
# grown layers, good filtrations and a joint word span deeper than any
# workload job grows them: both certificate kinds, and the word
# comparison the installed package runs in CI; then the largest echelons:
# a staircase window of thousands of inserts whose new pivots meet no
# held row, and dualizing tuple spaces whose new pivots do; last, the
# Goldie scan and both rank verifiers on a corner window four times
# deeper than any workload ranks job
EDGE_JOBS = (
    "chain --side right --steps 4",
    "chain --kind weak-adic --side left --steps 4",
    "ranks --depth 2",
    "certify --depth 3",
    "hilbert --depth 40 --degcap 12",
    "quotient-iso --max-len 0",
    "hilbert --kind weak-adic",
    "hilbert --depth -1",
    "hilbert --quotient nope",
    "dualize --degcap 2",
    "dualize --degcap 5",
    "dualize --degcap 7",
    "dualize --degcap 48",
    "ranks --depth 24",
    "dualize --control --degcap 6",
    "dualize --control --degcap 48",
    "hilbert --ring R_hat --kind weak-adic --depth 6 --quotient beta",
    "gr --ring C_diag --depth 6",
    "gr --ring S --depth 4",
    "hilbert --ring T --depth 4 --quotient e13,e23",
    "hilbert --ring S --quotient nope",
    "hilbert --ring T --quotient nope",
    "hilbert --ring C_diag --quotient nope",
    "hilbert --ring R_hat --kind weak-adic --quotient nope",
    "hilbert --ring R_prime --kind weak-adic --depth 0",
    "hilbert --ring R_prime --kind weak-adic --depth 1",
    "hilbert --ring T --depth 0",
    "hilbert --ring S --depth 1",
    "hilbert --ring R_2x2 --depth 1 --quotient beta",
    "gr --ring T --depth 3",
    "gr --ring R_hat --kind weak-adic --depth 5",
    "certify --case ascending --depth 30",
    "certify --case weak-adic --depth 24",
    "quotient-iso --degcap 64 --max-len 30",
    "hilbert --ring T --depth 12",
    "dualize --degcap 120",
    "ranks --depth 60",
)
# reads a JSON list of argvs on stdin, writes [code, stdout sha256,
# stderr sha256] for each
CHILD = """
import contextlib, hashlib, io, json, sys
from grfilt.cli import main
out = []
for argv in json.load(sys.stdin):
    streams = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(streams[0]), \\
            contextlib.redirect_stderr(streams[1]):
        code = main(argv)
    out.append([code] + [hashlib.sha256(s.getvalue().encode()).hexdigest()
                         for s in streams])
json.dump(out, sys.stdout)
"""


def battery():
    """Every workload job and the warm-up, then EDGE_JOBS, each under
    every field and format."""
    with open(ROOT / "perfbench" / "workloads.json") as f:
        spec = json.load(f)
    jobs = [spec["warmup"]] + [job for w in spec["workloads"].values()
                               for job in w["jobs"]] + list(EDGE_JOBS)
    return [["--field", fld, "--format", fmt] + job.split()
            for job in dict.fromkeys(jobs) for fld in FIELDS
            for fmt in ("json", "text")]


def run_tree(tree, argvs):
    """[code, stdout sha256, stderr sha256] of each argv, run by the
    grfilt under tree/src."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(tree) / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-c", CHILD], cwd=tree, env=env,
                          input=json.dumps(argvs), capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout)


def differences(tree_a, tree_b, argvs):
    """The argvs whose exit code, stdout or stderr differ between the
    two trees."""
    return [argv for argv, a, b in zip(argvs, run_tree(tree_a, argvs),
                                       run_tree(tree_b, argvs)) if a != b]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: same_outputs.py PARENT_CHECKOUT")
    argvs = battery()
    diff = differences(ROOT, sys.argv[1], argvs)
    for argv in diff:
        print("differs: " + shlex.join(argv))
    print(f"{len(diff)} of {len(argvs)} runs differ")
    sys.exit(1 if diff else 0)
