"""Benchmark of the grfilt command line.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Each job of a workload is one `grfilt` run in a fresh interpreter, as a
user runs it: one client in a closed loop, so the next job starts when the
previous one has exited and at most two processes (this one and the job)
run at once.  A pass runs the workload's job list once, in an order fixed
by the seed; passes repeat until another would not end within --seconds.
Every job's exit code and mathematical facts are checked against
golden.json.  Each timing comes from every job's fastest run, and seconds
in the result line are scaled by the jobs' start-up (REFERENCE_START_S).

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
passes.  --trace 1 alternates untraced and traced passes (the tracer wraps
grfilt's functions from outside, see tracer.py) and reports the per-layer
metrics.  The last line of standard output is the JSON result; the lines
before it are a readable report with every metric, its unit, sample count,
median and highest percentile that has ten samples beyond it.
--workload all runs every workload in turn, for reading.
"""

import argparse
import hashlib
import json
import math
import os
import random
import signal
import statistics
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import facts as factlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB_TIMEOUT_S = 60
# a run stops starting jobs this long after --seconds, so it always ends
# well within the three minutes a run may take
OVERRUN_S = 90
# Seconds in the result line are scaled to a machine on which a job's
# start-up (the interpreter and the standard modules grfilt imports, timed
# in child.py before grfilt is imported) takes this long.  On a shared
# machine the speed of fresh processes drifts by up to half within minutes,
# and that start-up drifts with it, so scaled times compare across runs
# where raw ones do not.  Nothing in grfilt can move the start-up.
REFERENCE_START_S = 0.065
COMMANDS = ("hilbert", "gr", "ranks", "certify", "chain", "dualize",
            "quotient-iso")


def _load(name, base=HERE):
    with open(os.path.join(base, name)) as fh:
        return json.load(fh)


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def command_metric(command):
    return command.replace("-", "_") + "_s"


@dataclass
class JobRun:
    job: str
    traced: bool
    wall_s: float
    start_s: float  # spawn to the end of start-up, see REFERENCE_START_S
    setup_s: float
    maxrss_mb: float
    error: str      # empty when the job passed
    facts: dict
    trace: dict

    @property
    def command(self):
        return self.job.split()[0]


def run_job(root, tmp, field, job, golden, expect_exit=0, traced=False,
            timeout=JOB_TIMEOUT_S):
    """Run one job in a fresh interpreter; time it and check its facts.

    golden is the job's expected facts, or None to skip the comparison.
    """
    out, err, rec = (os.path.join(tmp, n)
                     for n in ("stdout", "stderr", "record.json"))
    for path in (out, rec):
        if os.path.exists(path):
            os.remove(path)
    argv = [sys.executable, os.path.join(HERE, "child.py"), root, rec,
            "1" if traced else "0", "--field", field, "--format", "json",
            *job.split()]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    start = _clock()
    pid = os.posix_spawn(sys.executable, argv, os.environ,
                         file_actions=actions)
    timer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = _clock() - start
    code = os.waitstatus_to_exitcode(status)

    record, facts, error = {}, None, ""
    try:
        record = _load(rec, tmp)
    except (OSError, ValueError):
        pass    # the job died before writing it; its exit code says why
    if code < 0:
        error = (f"timed out after {timeout:.0f} s" if wall >= timeout
                 else f"killed by signal {-code}")
    elif code != expect_exit:
        with open(err) as fh:
            tail = fh.read().strip().splitlines()[-1:] or [""]
        error = f"exit {code}, expected {expect_exit}: {tail[0][:200]}"
    else:
        try:
            with open(out) as fh:
                facts = factlib.extract(job.split()[0], json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
        if not error and golden is not None:
            diff = factlib.differences(facts, golden)
            if diff:
                error = "facts differ: " + "; ".join(diff[:3])
        if not error and record.get("entry") is None:
            error = "handler entry was not recorded"
    started, entry = record.get("started"), record.get("entry")
    return JobRun(job, traced, wall,
                  started - start if started is not None else float("nan"),
                  entry - start if entry is not None else float("nan"),
                  usage.ru_maxrss / 1024, error, facts, record.get("trace"))


# ----------------------------------------------------------------- stats

def summary(values):
    """(n, median, percentile, value): the percentile is the highest one
    with at least ten samples beyond it, or None below eleven samples."""
    n = len(values)
    med = statistics.median(values)
    pct = math.floor(100 - 1000 / n) if n >= 11 else None
    val = (statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
           if pct else None)
    return n, med, pct, val


def fastest(passes, attr):
    """Each job's fastest value of attr over the passes."""
    best = {}
    for runs in passes:
        for r in runs:
            v = getattr(r, attr)
            if not math.isnan(v):
                best[r.job] = min(v, best.get(r.job, v))
    return best


def end_to_end(passes):
    """End-to-end values of the untraced passes, and their samples.

    Other work on the machine only ever adds time, and it moves a pass by
    10-20% from one pass to the next, so each timing is built from every
    job's fastest run: wall_s and <subcommand>_s sum the fastest wall
    times, setup_s is the median of the fastest set-up times.  The samples
    (each pass's sums, each job run's set-up) give the report's median and
    percentile.
    """
    wall, setup = fastest(passes, "wall_s"), fastest(passes, "setup_s")
    rss = [max(r.maxrss_mb for r in runs) for runs in passes]
    values = {"wall_s": sum(wall.values()),
              # empty only when no job reached its handler
              "setup_s": statistics.median(setup.values() or [0.0]),
              "peak_rss_mb": statistics.median(rss)}
    samples = {"wall_s": [sum(r.wall_s for r in runs) for runs in passes],
               "setup_s": [r.setup_s for runs in passes for r in runs
                           if not math.isnan(r.setup_s)] or [0.0],
               "peak_rss_mb": rss}
    for cmd in sorted({job.split()[0] for job in wall}):
        name = command_metric(cmd)
        values[name] = sum(v for job, v in wall.items()
                           if job.split()[0] == cmd)
        samples[name] = [sum(r.wall_s for r in runs if r.command == cmd)
                         for runs in passes]
    return values, samples


def traced_metrics(passes):
    """Per-pass samples of every traced function and counter."""
    samples = {}
    for runs in passes:
        total = {}
        for r in runs:
            for k, v in (r.trace or {}).items():
                total[k] = total.get(k, 0) + v
        rows = total.get("linalg.rref.rows_in", 0)
        entries = total.get("linalg.rref.entries_in", 0)
        total["linalg.rref.useful_ratio"] = (
            total.get("linalg.rref.pivots_out", 0) / rows if rows else 0.0)
        total["linalg.rref.density"] = (
            total.get("linalg.rref.nonzeros_in", 0) / entries
            if entries else 0.0)
        for k, v in total.items():
            samples.setdefault(k, []).append(v)
    return samples


# ------------------------------------------------------------------ runs

def source_identity(root):
    """Git commit when the tree is a checkout, and a hash of src/grfilt."""
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "grfilt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    commit = "unknown (not a git checkout)"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    return commit, digest.hexdigest()[:16]


def plan(spec, workload, seed):
    """The field and job order a seed gives a workload."""
    rng = random.Random(f"{workload}:{seed}")
    wl = spec["workloads"][workload]
    field = wl["field"]
    if field == "Fp":
        field = f"Fp:{rng.choice(spec['fp_primes'])}"
    jobs = list(wl["jobs"])
    rng.shuffle(jobs)
    return field, jobs


def measure(root, tmp, workload, seed, seconds, trace, spec, golden):
    field, jobs = plan(spec, workload, seed)
    expect = spec["expect_exit"]
    warm = run_job(root, tmp, field, spec["warmup"], golden[spec["warmup"]],
                   expect)
    runs = [warm]
    untraced, traced = [], []
    start = _clock()
    deadline = start + seconds + OVERRUN_S

    def one_pass(as_traced):
        done = []
        for job in jobs:
            left = deadline - _clock()
            if left <= 0:
                break
            done.append(run_job(root, tmp, field, job, golden[job],
                                expect, as_traced,
                                min(JOB_TIMEOUT_S, max(left, 1.0))))
        runs.extend(done)
        return done

    while True:
        untraced.append(one_pass(False))
        if trace:
            traced.append(one_pass(True))
        elapsed = _clock() - start
        if elapsed + elapsed / len(untraced) > seconds \
                or _clock() >= deadline:
            break
    return field, jobs, runs, [p for p in untraced if p], \
        [p for p in traced if p]


def report(workload, seed, seconds, trace, spec, golden, bench, root=ROOT):
    """Measure one workload and print the report; returns the result."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        field, jobs, runs, untraced, traced = measure(
            root, tmp, workload, seed, seconds, trace, spec, golden)
    failed = [r for r in runs if r.error]
    commit, src_hash = source_identity(root)
    print(f"# workload {workload}: seed {seed}, field {field}, "
          f"commit {commit}, src sha256 {src_hash}, python "
          f"{sys.version.split()[0]}, nproc {os.cpu_count()}, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print("# job order: " + " | ".join(jobs))
    for r in failed:
        print(f"# FAILED {'traced ' if r.traced else ''}{r.job}: {r.error}")

    full, samples = end_to_end(untraced)
    full["failed_frac"] = len(failed) / len(runs)
    print("# value: from each job's fastest run; n, median, percentile: "
          "over passes, or over job runs for setup_s")
    print(f"# {'end-to-end, untraced':<24} {'unit':<5} {'value':>10} "
          f"{'n':>4} {'median':>10} {'percentile':>18}")
    for name, values in samples.items():
        n, med, pct, val = summary(values)
        tail = f"p{pct} {val:.6g}" if pct else "- (n < 11)"
        unit = "MB" if name == "peak_rss_mb" else "s"
        print(f"# {name:<24} {unit:<5} {full[name]:>10.6g} {n:>4} "
              f"{med:>10.6g} {tail:>18}")
    print(f"# {'failed_frac':<24} {'1':<5} {full['failed_frac']:>10.6g} "
          f"{len(runs):>4}   ({len(failed)} job runs failed)")
    print(f"# {'job, untraced':<52} {'n':>3} {'fastest_s':>10} "
          f"{'median_s':>10} {'setup_s':>8}")
    best_setup = fastest(untraced, "setup_s")
    for job in jobs:
        walls = [r.wall_s for p in untraced for r in p if r.job == job]
        if walls:
            print(f"# {job:<52} {len(walls):>3} {min(walls):>10.4g} "
                  f"{statistics.median(walls):>10.4g} "
                  f"{best_setup.get(job, float('nan')):>8.3g}")
    if trace:
        layer = traced_metrics(traced)
        full.update({k: statistics.median(v) for k, v in layer.items()})
        full["trace.overhead_s"] = (
            sum(fastest(traced, "wall_s").values()) - full["wall_s"])
        for cmd in COMMANDS:
            full.setdefault(command_metric(cmd), 0.0)
        functions = sorted(k[:-len(".calls")] for k in layer
                           if k.endswith(".calls"))
        print(f"# {'traced, median of %d passes' % len(traced):<44} "
              f"{'calls':>9} {'s':>10} {'self_s':>10} {'raised':>7}")
        for fn in functions:
            print(f"# {fn:<44} {full[fn + '.calls']:>9.0f} "
                  f"{full[fn + '.s']:>10.4f} {full[fn + '.self_s']:>10.4f} "
                  f"{full[fn + '.raised']:>7.0f}")
        stats = {f"{fn}.{k}" for fn in functions
                 for k in ("calls", "s", "self_s", "raised")}
        for name in sorted(set(layer) - stats) \
                + ["trace.overhead_s"]:
            print(f"# {name:<44} {full[name]:>9.6g}")

    starts = [r.start_s for p in untraced + traced for r in p
              if not math.isnan(r.start_s)]
    # empty only when no job got through its start-up
    start = statistics.median(starts) if starts else REFERENCE_START_S
    scale = REFERENCE_START_S / start
    print(f"# start-up: median {1000 * start:.2f} ms over "
          f"{len(starts)} job runs; seconds in the result line are the "
          f"values above times {scale:.6g}")
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": full[m["name"]] * (
                   scale if m["unit"] == "s" else 1), "unit": m["unit"]}
               for m in wanted}
    return {"correct": not failed, "attempted": len(runs),
            "failed": len(failed), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "grfilt", "cli.py")):
        print(f"no grfilt sources under {ROOT}/src; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    spec, golden = _load("workloads.json"), _load("golden.json")
    bench = _load("BENCHMARK.json", ROOT)
    names = list(spec["workloads"])
    if args.workload not in names + ["all"]:
        ap.error(f"--workload must be one of {', '.join(names)} or all")
    # SIGTERM unwinds like Ctrl-C, so the running job is killed and reaped
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    chosen = names if args.workload == "all" else [args.workload]
    results = {w: report(w, args.seed, args.seconds, args.trace, spec,
                         golden, bench) for w in chosen}
    if args.workload == "all":
        for w, res in results.items():
            print(f"# {w}: " + json.dumps(res))
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{k}": v for w, r in results.items()
                              for k, v in r["metrics"].items()}}
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
