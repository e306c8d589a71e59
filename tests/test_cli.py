"""Exit-code contract and output shape of the command line front end.

Everything runs in-process through main(argv): 0 verified, 1 failed,
2 window too small to decide, 3 usage.
"""

import hashlib
import json
import sys

import pytest

from grfilt import Inconclusive
from grfilt.bimodule import RANK_DECISIONS, UNIFORM_DECISIONS
from grfilt.cli import main, exit_code
from grfilt.graded import chain_decision
from grfilt.record import INCONCLUSIVE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_text_table(capsys):
    code, out, err = run(capsys, "hilbert", "--depth", "6")
    assert code == 0
    assert "H(6) = 18" in out
    assert "layer dims" in out
    assert err == ""


def test_hilbert_json_parses(capsys):
    code, out, _ = run(capsys, "--format", "json", "hilbert", "--depth", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "R_2x2"
    assert payload["hilbert"]["values"] == [1, 3, 6, 9, 12, 15, 18]


def test_hilbert_quotient_flag(capsys):
    # no --degcap: the cap is sized from the depth, with enough slack
    # for the ideal to saturate past the deepest layer
    code, out, _ = run(capsys, "--format", "json", "hilbert",
                       "--quotient", "beta", "--depth", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["quotient"]["seeds"] == ["beta"]
    assert payload["hilbert"]["values"] == [1, 2, 3, 4, 5, 6, 7]


def test_hilbert_weak_adic_series_ring(capsys):
    code, out, _ = run(capsys, "--format", "json", "hilbert",
                       "--ring", "R_prime", "--kind", "weak-adic",
                       "--depth", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["hilbert"]["values"] == [0, 1, 3, 5, 7, 9, 11]


@pytest.mark.parametrize("cap", [9, 10, 11, 12])
def test_weak_adic_depths_are_exact_or_refused(capsys, cap):
    # H(n) = 2n - 1 while m^n is nonzero, which it is through cap + 1;
    # gr's pieces m^i/m^(i+1) have dimension 2 below degree 0
    for depth in range(cap + 4):
        code, out, err = run(capsys, "--format", "json", "hilbert",
                             "--ring", "R_prime", "--kind", "weak-adic",
                             "--depth", str(depth), "--degcap", str(cap))
        assert code == (0 if depth <= cap + 1 else 2)
        if code == 0:
            values = json.loads(out)["hilbert"]["values"]
            assert values == [0] + [2 * n - 1 for n in range(1, depth + 1)]
        else:
            assert out == "" and "is zero in the series window" in err
    for depth in range(2, cap + 4):
        code, out, err = run(capsys, "--format", "json", "gr",
                             "--ring", "R_prime", "--kind", "weak-adic",
                             "--depth", str(depth), "--degcap", str(cap))
        assert code == (0 if depth <= cap + 1 else 2)
        if code == 0:
            dims = json.loads(out)["gr"]["piece_dims"]
            assert dims == {str(-i): 2 if i else 1 for i in range(depth)}
        else:
            assert out == "" and "is zero in the series window" in err


def test_certify_weak_adic_on_a_saturated_window_is_inconclusive(
        capsys, monkeypatch):
    # the dossier sizes its series cap to depth + 2; a cap of depth - 3
    # kills m^(depth - 1) by truncation
    import grfilt.certifier
    real = grfilt.certifier.make

    def small_cap(name, degcap, field):
        if name == "R_prime":
            degcap -= 5
        return real(name, degcap=degcap, field=field)
    monkeypatch.setattr(grfilt.certifier, "make", small_cap)
    code, out, err = run(capsys, "certify", "--case", "weak-adic",
                         "--depth", "8")
    assert code == 2
    assert out == ""
    assert err.startswith("inconclusive at this depth: m^7 is zero")


def test_hilbert_depth_past_default_cap(capsys):
    # without --degcap the cap follows the depth, so this succeeds
    code, out, _ = run(capsys, "--format", "json", "hilbert",
                       "--depth", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["hilbert"]["values"] == [1, 3, 6, 9, 12, 15, 18, 21, 24]


def test_hilbert_explicit_cap_too_small_is_inconclusive(capsys):
    code, _, err = run(capsys, "hilbert", "--depth", "40",
                       "--degcap", "12")
    assert code == 2
    assert "inconclusive at this depth" in err


def test_global_flags_after_subcommand(capsys):
    code, out, _ = run(capsys, "hilbert", "--depth", "6",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["hilbert"]["values"] == [1, 3, 6, 9, 12, 15, 18]


def test_weak_adic_on_polynomial_ring_is_usage_error(capsys):
    code, _, err = run(capsys, "hilbert", "--kind", "weak-adic")
    assert code == 3
    assert "usage error" in err
    assert "series" in err


def test_composite_characteristic_is_usage_error(capsys):
    code, _, err = run(capsys, "--field", "Fp:6", "hilbert")
    assert code == 3
    assert "not prime" in err


def test_unknown_ring_is_usage_error(capsys):
    code, _, _ = run(capsys, "hilbert", "--ring", "nonsense")
    assert code == 3


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 3


def test_help_exits_clean(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "hilbert" in out and "dualize" in out


def test_gr_symbols(capsys):
    code, out, _ = run(capsys, "--format", "json", "gr", "--depth", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["symbols"] == ["alpha", "beta"]
    assert payload["symbol_degree"] == 1


def test_ranks_certifies_one_and_two(capsys):
    code, out, _ = run(capsys, "--format", "json", "ranks", "--depth", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["sides"]["left"]["free"]["rank"] == 1
    assert payload["sides"]["right"]["free"]["rank"] == 2
    assert payload["actions_commute"] is True


def test_ranks_builds_each_slope_table_once(capsys, monkeypatch):
    # goldie_rank stores each side's slope table; the payload reuses it
    import grfilt.bimodule
    import grfilt.cli
    real, calls = grfilt.bimodule.slope_table, []

    def counted(action, depth):
        calls.append(action.side)
        return real(action, depth)
    monkeypatch.setattr(grfilt.bimodule, "slope_table", counted)
    monkeypatch.setattr(grfilt.cli, "slope_table", counted, raising=False)
    code, out, _ = run(capsys, "--format", "json", "ranks", "--depth", "6")
    assert code == 0
    assert sorted(calls) == ["left", "right"]
    sides = json.loads(out)["sides"]
    assert all(sides[s]["slope"] == sides[s]["uniform"]["slope"]
               for s in ("left", "right"))


def test_ranks_shallow_depth_is_inconclusive(capsys):
    code, out, _ = run(capsys, "ranks", "--depth", "1")
    assert code == 2
    assert "inconclusive" in out


def test_certify_two_sided_default(capsys):
    code, out, _ = run(capsys, "--format", "json", "certify")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["consistent"] is True


def test_certify_two_sided_fails_when_a_chain_does_not_reverify(
        capsys, monkeypatch):
    import grfilt.graded
    monkeypatch.setattr(grfilt.graded, "verify_chain_report",
                        lambda gr, classes, report: False)
    code, out, _ = run(capsys, "--format", "json", "certify")
    assert code == 1
    payload = json.loads(out)
    assert payload["consistent"] is False
    assert payload["checks"]["both_chains_strict"] is False
    assert payload["verified"] is False


def test_certify_single_case_lists_witnesses(capsys):
    code, out, _ = run(capsys, "certify", "--case", "ascending",
                       "--depth", "8")
    assert code == 0
    assert "obstruction rows" in out
    assert "certificate re-verified: True" in out


def test_certify_shallow_depth_is_inconclusive(capsys):
    code, _, err = run(capsys, "certify", "--case", "ascending",
                       "--depth", "2")
    assert code == 2
    assert "not certified at this depth" in err


def test_chain_standard_left(capsys):
    code, out, _ = run(capsys, "--format", "json", "chain", "--steps", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["side"] == "left"
    assert payload["strictly_ascending"] is True
    assert payload["reverified"] is True


def test_chain_weak_adic_right(capsys):
    code, out, _ = run(capsys, "--format", "json", "chain",
                       "--kind", "weak-adic", "--steps", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["side"] == "right"
    assert payload["ideal_dims"] == [1, 2, 3, 4, 5]


def test_dualize_verifies(capsys):
    code, out, _ = run(capsys, "dualize", "--degcap", "12")
    assert code == 0
    assert "aborted at: None" in out
    assert "verified: True" in out


def test_dualize_control_demands_abort(capsys):
    code, out, _ = run(capsys, "dualize", "--control", "--degcap", "12")
    assert code == 0
    assert "endomorphism-ring: failed" in out
    assert "kernel witness" in out
    assert "control satisfied: True" in out


@pytest.mark.parametrize("control, floor", [(False, 8), (True, 6)])
def test_dualize_below_the_window_floor_is_inconclusive(capsys, control,
                                                        floor):
    # the floor is the smallest cap at which every stage the run reaches
    # checks a degree window beyond the constants; the control run stops
    # at stage three, whose window opens earlier than stage four's
    flags = ["--control"] if control else []
    code, out, _ = run(capsys, "dualize", *flags, "--degcap", str(floor))
    assert code == 0
    assert out.endswith(": True\n")
    for cap in range(floor):
        code, out, err = run(capsys, "dualize", *flags, "--degcap",
                             str(cap))
        assert (code, out) == (2, "")
        assert "inconclusive" in err


def test_quotient_iso(capsys):
    code, out, _ = run(capsys, "--format", "json", "quotient-iso")
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert payload["dim_a"] == payload["dim_b"] == payload["dim_joint"]


def test_quotient_iso_unit_only_window_is_inconclusive(capsys):
    code, out, err = run(capsys, "quotient-iso", "--max-len", "0")
    assert code == 2
    assert out == ""
    assert "span only the unit" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "--format", "json", "--out", str(target),
                       "hilbert", "--depth", "4")
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["hilbert"]["values"] == [1, 3, 6, 9, 12]


@pytest.mark.parametrize("target", ["afile/x.json", "adir"])
def test_an_unwritable_out_path_is_a_usage_error(tmp_path, capsys, target):
    # a path through a regular file, or a directory: exit 3 once the run
    # is done, with no traceback, and nothing written or left behind
    (tmp_path / "afile").write_text("kept\n")
    (tmp_path / "adir").mkdir()
    code, out, err = run(capsys, "--out", str(tmp_path / target),
                         "--format", "json", "hilbert", "--depth", "2")
    assert code == 3 and out == ""
    assert err.startswith("usage error: cannot write ")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
    assert (tmp_path / "afile").read_text() == "kept\n"
    assert not any((tmp_path / "adir").iterdir())


def test_handlers_receive_the_field_resolved_once(capsys, monkeypatch):
    import grfilt.cli
    seen = []

    def stand_in(args):
        seen.append(args.field)
        return (), {}, []
    monkeypatch.setattr(grfilt.cli, "cmd_gr", stand_in)
    assert run(capsys, "--field", "Fp:101", "gr")[0] == 0
    assert [(fld.name, fld.p) for fld in seen] == [("Fp:101", 101)]


def test_prime_field_runs(capsys):
    code, out, _ = run(capsys, "--field", "Fp:5", "--format", "json",
                       "hilbert", "--depth", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["field"] == "Fp:5"
    assert payload["hilbert"]["values"] == [1, 3, 6, 9, 12, 15, 18]


@pytest.mark.parametrize("argv", [
    ("hilbert", "--depth", "-1"),
    ("gr", "--depth", "-1"),
    ("ranks", "--depth", "-2"),
    ("certify", "--depth", "-1"),
    ("chain", "--steps", "-1"),
    ("dualize", "--degcap", "-1"),
    ("quotient-iso", "--degcap", "-5"),
    ("quotient-iso", "--max-len", "-1"),
])
def test_negative_window_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "non-negative" in err


@pytest.mark.parametrize("argv", [
    ("chain", "--steps", "0"),
    ("chain", "--steps", "1"),
    ("ranks", "--depth", "0"),
    ("certify", "--depth", "3"),
    ("certify", "--case", "ascending", "--depth", "3"),
    ("certify", "--case", "weak-adic", "--depth", "4"),
    # at the catalog cap 9, m^11 is zero only by truncation
    ("hilbert", "--ring", "R_prime", "--kind", "weak-adic", "--depth", "14"),
    ("gr", "--ring", "R_prime", "--kind", "weak-adic", "--depth", "14"),
])
def test_window_too_small_to_mean_anything_is_inconclusive(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("inconclusive at this depth: ")


def test_certify_single_case_fails_when_the_chain_does_not_reverify(
        capsys, monkeypatch):
    import grfilt.graded
    monkeypatch.setattr(grfilt.graded, "verify_chain_report",
                        lambda gr, classes, report: False)
    code, out, _ = run(capsys, "--format", "json", "certify",
                       "--case", "ascending", "--depth", "6")
    assert code == 1
    assert json.loads(out)["verified"] is False


def test_certify_rank_pair_not_free_is_a_failure(capsys, monkeypatch):
    import grfilt.certifier
    real = grfilt.certifier.free_rank
    monkeypatch.setattr(
        grfilt.certifier, "free_rank",
        lambda action, depth: real(action, depth).replace(
            verdict="not free"))
    code, out, err = run(capsys, "certify", "--depth", "6")
    assert code == 1
    assert out == ""
    assert err.startswith("error: rank pair is not free")


def test_ranks_failure_is_not_masked_by_an_inconclusive_side(
        capsys, monkeypatch):
    import grfilt.bimodule
    real = grfilt.bimodule.bimodule_ranks

    def mixed(actions, depth):
        both = real(actions, depth)
        return {**both,
                "left": both["left"].replace(verdict="not free"),
                "right": both["right"].replace(verdict="inconclusive")}
    monkeypatch.setattr(grfilt.bimodule, "bimodule_ranks", mixed)
    code, out, _ = run(capsys, "ranks", "--depth", "8")
    assert code == 1
    assert "free rank 1 (not free)" in out


@pytest.mark.parametrize("forge", ("free", "uniform"))
def test_ranks_refutes_a_forged_definite_report(capsys, monkeypatch, forge):
    # the definite verdicts are rechecked, so a forged rank fails
    import grfilt.bimodule
    real_ranks = grfilt.bimodule.bimodule_ranks
    real_goldie = grfilt.bimodule.goldie_rank

    def forged_ranks(actions, depth):
        both = real_ranks(actions, depth)
        return {**both, "right": both["right"].replace(rank=99)}

    def forged_goldie(action, depth):
        return real_goldie(action, depth).replace(rank=42)
    if forge == "free":
        monkeypatch.setattr(grfilt.bimodule, "bimodule_ranks", forged_ranks)
    else:
        monkeypatch.setattr(grfilt.bimodule, "goldie_rank", forged_goldie)
    refuted = (["right free"] if forge == "free" else
               ["left uniform", "right uniform"])
    code, out, _ = run(capsys, "ranks", "--depth", "8")
    assert code == 1
    assert out.splitlines()[-1] == ("refuted on recheck: "
                                    + ", ".join(refuted))
    code, out, _ = run(capsys, "--format", "json", "ranks", "--depth", "8")
    assert code == 1 and json.loads(out)["refuted"] == refuted


# sha256 of (stdout, stderr) and the exit code of each help and usage run,
# recorded on Python 3.11 at 80 columns: the parser may be restructured,
# but what a user sees of it may not change
_E = hashlib.sha256(b"").hexdigest()
FRONT_END = {
    "--help": (0, "5cdedb536b396554fcd19e8971bfd8301838f9b163053896248e0b3c6431d909", _E),
    "hilbert --help": (0, "ec4c72ef55f5c7093eaa20d2ae106acae6eb82dd24d32d0ab59d24035af3f3a6", _E),
    "gr --help": (0, "7ce66f99f5d69c6a26844edc07bf528fee78b7379eee58d6f934d6997e491442", _E),
    "ranks --help": (0, "27a6d037e126460881be9cfa519a1da2446715fe7363716c829b8835315c308d", _E),
    "certify --help": (0, "f14f64bbde7d081e9b3a982f1c1568ee40c6679c7055c74d1ce9f390df42c945", _E),
    "chain --help": (0, "0586a6c4542ebefb1de5ae6fd0748f4548cd91e41da0582721fb1cdabd3a6e83", _E),
    "dualize --help": (0, "00fabceef4dd2fd9a3b551509d25be81c0dd04ddeb67d5ccffcf25f8cd753e9f", _E),
    "quotient-iso --help": (0, "5f1d400085faba38fc58dcc2191e7ab846f3c0e07df2d417c722b24f0d7213ba", _E),
    "": (3, _E, "c08f007cca31613edfda5b65eb1db0db8b349732b42a53b3e15c6dff333bee68"),
    "bogus": (3, _E, "59ab5704a3eff8494f9bea08173b513d7e5f3929e286b3b6a921bdb8d3f684c6"),
    "hilbert --depth -1": (3, _E, "377b11e2e009f2a47287adac97f7955990ef20e8757c0169d64aabcdd755d14a"),
    "hilbert --ring X": (3, _E, "f9c1fc2341ba19d3d070c4effb2ded50ba1169dd631a455bffff1b406f1279db"),
    "--format xml gr": (3, _E, "f5bdedb685c0050d5ec5e5cda7030e2242fe3e28a51c6bf962ca478c323b1bd0"),
    "gr --bogus": (3, _E, "9f34ca5ddc54edda0fa4da2f07200c1bf0118665fb5c996e0038a0b88314c69e"),
    "chain --side up": (3, _E, "6fa7272b2eb85979eeeda2663070552a39e17409d4cc543877a0f31d00aebe86"),
    "hilbert --depth 2 --format json --field Fp:7": (0, "a8316f5e4fcb5838c9ce9c179c7bf0da390b73d3c8828af477b792b0aa74f0af", _E),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help and error text differs between "
                           "Python versions; the digests are from 3.11")
@pytest.mark.parametrize("argv", FRONT_END)
def test_front_end_output_is_pinned(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(capsys, *argv.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == FRONT_END[argv]


def test_a_handler_rebound_after_import_is_the_one_parsed(monkeypatch):
    # perfbench/child.py stamps each cli.cmd_* and perfbench/tracer.py
    # wraps them, both after import, so build_parser must look them up
    # when it runs
    import grfilt.cli

    def stand_in(args):
        return (), {}, []
    monkeypatch.setattr(grfilt.cli, "cmd_hilbert", stand_in)
    args = grfilt.cli.build_parser().parse_args(["hilbert"])
    assert args.handler is stand_in


def test_ranks_inconclusive_verdict_exits_2_with_its_report(capsys):
    # the second source of exit 2: a returned verdict, not a raised
    # Inconclusive, so the full payload is printed and stderr stays empty
    code, out, err = run(capsys, "--format", "json", "ranks", "--depth", "2")
    assert code == 2
    assert err == ""
    assert json.loads(out)["sides"]["right"]["free"]["verdict"] \
        == "inconclusive"


# subcommand -> (module, name, read) for each function whose result holds
# the reports a run decides on; read gives their decisions.  A table
# decides nothing, so only a refusal of its filtration counts.
PRODUCERS = {
    "hilbert": [("grfilt.cli", "_base_filtration", lambda filt: [])],
    "gr": [("grfilt.cli", "_base_filtration", lambda filt: [])],
    "ranks": [("grfilt.bimodule", "bimodule_ranks",
               lambda both: [both["left"].decision, both["right"].decision]),
              ("grfilt.bimodule", "goldie_rank", lambda rep: [rep.decision])],
    "certify": [("grfilt.certifier", "assemble_two_sided",
                 lambda dossier: [dossier.decision])],
    "chain": [("grfilt.graded", "checked_chain",
               lambda checked: [chain_decision(*checked)])],
    "dualize": [("grfilt.dualizing", "verify_dualizing",
                 lambda rep: [rep.decision])],
    "dualize --control": [("grfilt.dualizing", "verify_dualizing",
                           lambda rep: [rep.control_decision])],
    "quotient-iso": [("grfilt.cli", "quotient_iso_check",
                      lambda rep: [rep.decision])],
}


def not_free_left(monkeypatch):
    # the forgery of test_ranks_failure_is_not_masked_by_an_inconclusive_side
    import grfilt.bimodule
    real = grfilt.bimodule.bimodule_ranks

    def mixed(actions, depth):
        both = real(actions, depth)
        return {**both,
                "left": both["left"].replace(verdict="not free"),
                "right": both["right"].replace(verdict="inconclusive")}
    monkeypatch.setattr(grfilt.bimodule, "bimodule_ranks", mixed)


def chains_refuted(monkeypatch):
    import grfilt.graded
    monkeypatch.setattr(grfilt.graded, "verify_chain_report",
                        lambda gr, classes, report: False)


def rings_swapped(monkeypatch):
    # the triangular ring fails the control, and the perturbed ring the
    # chain it controls
    import grfilt.cli
    real = grfilt.cli.make
    other = {"R_2x2": "R_perturbed", "R_perturbed": "R_2x2"}
    monkeypatch.setattr(grfilt.cli, "make", lambda name, **kw: real(
        other.get(name, name), **kw))


def targets_swapped(monkeypatch):
    import grfilt.cli
    real = grfilt.cli.quotient_iso_check

    def swapped(ctx, plain, pairs, max_len):
        (a, b), (c, d) = pairs
        return real(ctx, plain, [(a, d), (c, b)], max_len=max_len)
    monkeypatch.setattr(grfilt.cli, "quotient_iso_check", swapped)


# (argv, forgery or None, exit code): a decided, a refuted and an
# inconclusive run of every subcommand; a table is never refuted
DECISION_RUNS = [
    ("hilbert --depth 6", None, 0),
    ("hilbert --depth 40 --degcap 12", None, 2),
    ("gr --depth 6", None, 0),
    ("gr --ring R_prime --kind weak-adic --depth 14", None, 2),
    ("ranks --depth 8", None, 0),
    ("ranks --depth 8", not_free_left, 1),
    ("ranks --depth 2", None, 2),
    ("certify --depth 8", None, 0),
    ("certify --depth 8", chains_refuted, 1),
    ("certify --depth 3", None, 2),
    ("chain --steps 4", None, 0),
    ("chain --side right --steps 4", None, 1),
    ("chain --steps 1", None, 2),
    ("dualize --degcap 12", None, 0),
    ("dualize --degcap 12", rings_swapped, 1),
    ("dualize --degcap 5", None, 2),
    ("dualize --control --degcap 12", None, 0),
    ("dualize --control --degcap 12", rings_swapped, 1),
    ("dualize --control --degcap 5", None, 2),
    ("quotient-iso", None, 0),
    ("quotient-iso", targets_swapped, 1),
    ("quotient-iso --max-len 0", None, 2),
]


@pytest.mark.parametrize("argv, forge, code", DECISION_RUNS)
def test_exit_code_is_the_reports_decisions(capsys, monkeypatch, argv,
                                            forge, code):
    # the decisions are read off the reports the run built, and a report
    # refused as inconclusive decides INCONCLUSIVE
    if forge:
        forge(monkeypatch)
    control = " --control" if "--control" in argv else ""
    decisions = []
    for modname, name, read in PRODUCERS[argv.split()[0] + control]:
        real = getattr(sys.modules[modname], name)

        def spied(*args, real=real, read=read, **kwargs):
            try:
                result = real(*args, **kwargs)
            except Inconclusive:
                decisions.append(INCONCLUSIVE)
                raise
            decisions.extend(read(result))
            return result
        monkeypatch.setattr(sys.modules[modname], name, spied)
    assert run(capsys, *argv.split())[0] == exit_code(*decisions) == code
    assert code == 0 or decisions


@pytest.mark.parametrize("field", ["Q", "Fp:101"])
def test_every_rank_verdict_lies_in_its_kinds_set(capsys, field):
    # depth 0 has no slope row and is refused; at every other depth the
    # verdicts' decisions give the exit code
    seen = set()
    for depth in range(25):
        code, out, _ = run(capsys, "--field", field, "--format", "json",
                           "ranks", "--depth", str(depth))
        if depth == 0:
            assert (code, out) == (2, "")
            continue
        sides = json.loads(out)["sides"].values()
        free = [side["free"]["verdict"] for side in sides]
        uniform = [side["uniform"]["verdict"] for side in sides]
        assert set(free) <= RANK_DECISIONS.keys()
        assert set(uniform) <= UNIFORM_DECISIONS.keys()
        assert code == exit_code(*map(RANK_DECISIONS.get, free),
                                 *map(UNIFORM_DECISIONS.get, uniform))
        seen |= {(code, *free, *uniform)}
    assert {code for code, *_ in seen} == {0, 2}
