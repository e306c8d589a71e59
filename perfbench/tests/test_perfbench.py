"""Self-tests of the grfilt benchmark.

    python3 -m pytest -q perfbench/tests
"""

import os
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

import run  # noqa: E402
from record_golden import closed_form_errors  # noqa: E402
from tracer import Tracer  # noqa: E402

SMALL = "hilbert --ring R_2x2 --depth 4"
SMALL_FACTS = {"layer_dims": {"0": 1, "1": 3, "2": 6, "3": 9, "4": 12},
               "hilbert": [1, 3, 6, 9, 12]}
WARM_FACTS = {"layer_dims": {"0": 1, "1": 3, "2": 6},
              "hilbert": [1, 3, 6]}


@pytest.fixture
def tmp():
    with tempfile.TemporaryDirectory(prefix=".perfbench-",
                                     dir=run.ROOT) as path:
        yield path


def small_spec():
    spec = run._load("workloads.json")
    spec["workloads"] = {"small": {"field": "Q", "jobs": [SMALL]}}
    return spec


def test_changed_golden_fact_makes_failed_frac_positive(capsys):
    golden = {run._load("workloads.json")["warmup"]: WARM_FACTS,
              SMALL: SMALL_FACTS}
    bench = run._load("BENCHMARK.json", run.ROOT)
    good = run.report("small", 1, 0, 0, small_spec(), golden, bench)
    assert good["correct"] and good["failed"] == 0
    assert "(0 job runs failed)" in capsys.readouterr().out

    golden[SMALL] = dict(SMALL_FACTS, hilbert=[1, 3, 6, 9, 13])
    bad = run.report("small", 1, 0, 0, small_spec(), golden, bench)
    assert not bad["correct"] and bad["failed"] == 1
    assert bad["failed"] / bad["attempted"] == 0.5  # failed_frac
    out = capsys.readouterr().out
    assert "(1 job runs failed)" in out
    assert "hilbert: [1, 3, 6, 9, 12] != golden [1, 3, 6, 9, 13]" in out


def test_job_exiting_2_counts_as_failed(tmp):
    # a cap of 10 is too small for the quotient ideal at depth 8
    res = run.run_job(run.ROOT, tmp, "Q",
                      "hilbert --ring R_2x2 --depth 8 --degcap 10 "
                      "--quotient beta", None)
    assert res.error.startswith("exit 2, expected 0")


def test_traced_and_untraced_runs_give_identical_facts(tmp):
    job = "certify --case two-sided --depth 5"
    plain = run.run_job(run.ROOT, tmp, "Fp:10007", job, None)
    traced = run.run_job(run.ROOT, tmp, "Fp:10007", job, None, traced=True)
    assert plain.error == traced.error == ""
    assert plain.facts == traced.facts
    assert plain.trace is None
    t = traced.trace
    # the classmethod survived wrapping and the rebinding reached graded
    assert t["linspace.Subspace.from_vectors.calls"] > 0
    assert t["linalg.rref.calls"] >= t["linspace.Subspace.from_vectors.calls"]
    # two-sided calls itself for both cases; inclusive time counts once
    assert t["certifier.assemble_growth_dossier.calls"] == 3
    assert (t["certifier.assemble_growth_dossier.s"]
            <= t["cli.cmd_certify.s"])


def test_tracer_counts_recursion_once_and_keeps_self_time():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def leaf():
        return None

    leaf = tracer.wrap("m.leaf", leaf)

    def outer(depth):
        if depth:
            return outer(depth - 1)
        return leaf()

    outer = tracer.wrap("m.outer", outer)
    outer(1)
    snap = tracer.snapshot()
    assert snap["m.outer.calls"] == 2 and snap["m.leaf.calls"] == 1
    # outer spans ticks 0..5, inner outer 1..4, leaf 2..3
    assert snap["m.outer.s"] == 5
    assert snap["m.leaf.s"] == snap["m.leaf.self_s"] == 1
    assert snap["m.outer.self_s"] == 5 - 1
    assert snap["m.outer.self_s"] + snap["m.leaf.self_s"] == snap["m.outer.s"]


def test_report_emits_every_benchmark_metric(capsys):
    golden = {run._load("workloads.json")["warmup"]: WARM_FACTS,
              SMALL: SMALL_FACTS}
    bench = run._load("BENCHMARK.json", run.ROOT)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = run.report("small", 2, 0, trace, small_spec(), golden, bench)
        assert res["correct"]
        assert sorted(res["metrics"]) == sorted(m["name"] for m in bench[key])
        for m in bench[key]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]
    capsys.readouterr()


def test_golden_set_covers_every_job_and_the_closed_forms():
    spec = run._load("workloads.json")
    golden = run._load("golden.json")
    jobs = {spec["warmup"]} | {j for wl in spec["workloads"].values()
                               for j in wl["jobs"]}
    assert jobs == set(golden)
    for job in jobs:
        assert closed_form_errors(job, golden[job]) == []


def test_seed_fixes_prime_and_order():
    spec = run._load("workloads.json")
    assert run.plan(spec, "fp", 3) == run.plan(spec, "fp", 3)
    primes = {run.plan(spec, "fp", s)[0] for s in range(10)}
    assert len(primes) >= 2
    assert primes <= {f"Fp:{p}" for p in spec["fp_primes"]}
    assert run.plan(spec, "tables", 1)[0] == "Q"
