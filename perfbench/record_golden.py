"""Record golden.json: the facts every benchmark job must reproduce.

    python3 perfbench/record_golden.py [FIELD ...]

Runs the warm-up job and every job of every workload over each field
(default: Q, Fp:10007, Fp:65521, Fp:1000003 and every prime the fp
workload draws from), requires every field to give the same facts, checks
the facts against the closed forms the package documents, and only then
writes golden.json.  Exits 1, writing nothing, if any of that fails.
"""

import json
import os
import sys
import tempfile

from run import HERE, ROOT, _load, run_job


def closed_form_errors(job, facts):
    """Where the facts contradict a closed form stated for the job."""
    words = job.split()
    errors = []
    if words[0] == "hilbert" and "--ring R_2x2" in job:
        h = facts["hilbert"]
        if "--quotient" in words:
            want = [n + 1 for n in range(len(h))]
        else:
            want = [1] + [3 * n for n in range(1, len(h))]
        if h != want:
            errors.append(f"H(n) is {h}, closed form {want}")
    if words[0] == "ranks":
        if (facts["left"]["free_rank"], facts["right"]["free_rank"]) != (1, 2):
            errors.append("corner ideal ranks are not 1 (left), 2 (right)")
    if words[0] == "certify":
        h = facts["ascending"]["hilbert"]
        if h != [n + 1 for n in range(len(h))]:
            errors.append(f"ascending quotient table {h} is not n+1")
    if words[0] == "dualize":
        want = "endomorphism-ring" if "--control" in words else None
        if facts["aborted_at"] != want:
            errors.append(f"aborted at {facts['aborted_at']}, want {want}")
    return errors


def main(argv):
    spec = _load("workloads.json")
    fields = argv or (["Q", "Fp:10007", "Fp:65521", "Fp:1000003"]
                      + [f"Fp:{p}" for p in spec["fp_primes"]])
    jobs = [spec["warmup"]]
    for wl in spec["workloads"].values():
        jobs += [j for j in wl["jobs"] if j not in jobs]
    golden, problems = {}, []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for job in jobs:
            seen = {}
            for field in fields:
                run = run_job(ROOT, tmp, field, job, None,
                              spec["expect_exit"])
                print(f"{run.wall_s:7.2f} s  {field:<14} {job}"
                      f"{'  ' + run.error if run.error else ''}",
                      flush=True)
                if run.error:
                    problems.append(f"{job} over {field}: {run.error}")
                else:
                    seen[field] = run.facts
            distinct = {json.dumps(f, sort_keys=True) for f in seen.values()}
            if len(distinct) > 1:
                problems.append(f"{job}: facts depend on the field")
            elif distinct:
                facts = json.loads(distinct.pop())
                problems += [f"{job}: {e}"
                             for e in closed_form_errors(job, facts)]
                golden[job] = facts
    if problems:
        print("\n".join(["not written:"] + problems), file=sys.stderr)
        return 1
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        # one job per line, so a changed fact shows as a one-line diff
        fh.write("{\n" + ",\n".join(
            f" {json.dumps(job)}: {json.dumps(golden[job], sort_keys=True)}"
            for job in sorted(golden)) + "\n}\n")
    print(f"wrote {len(golden)} jobs over {len(fields)} fields")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
