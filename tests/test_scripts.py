"""The report script drives the command line's own handlers.

make_reports runs in-process through its main(argv): every report is the
JSON that grfilt prints for the same argv, its summary reads verdicts off
exit codes, and its growth tables are read back off two of those reports
and print the same tables and witnesses as the recorded output.
"""

import importlib.util
from pathlib import Path

import pytest

from grfilt.cli import main as grfilt_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_reports = load("make_reports")


def summary(outdir):
    lines = (outdir / "summary.txt").read_text().splitlines()
    return dict(line.split(": ", 1) for line in lines)


def test_reports_are_the_cli_payloads(tmp_path, capsys):
    assert make_reports.main(["--outdir", str(tmp_path), "--depth", "5"]) == 0
    battery = make_reports.reports(5)
    assert summary(tmp_path) == {**{name: "verified" for name, _ in battery},
                                 "op_involution": "verified",
                                 "growth_tables": "verified"}
    capsys.readouterr()
    for name, argv in battery:
        assert grfilt_main(["--format", "json", *argv]) == 0
        assert (tmp_path / f"{name}.json").read_text() == \
            capsys.readouterr().out, name


def test_inconclusive_certify_shows_in_summary_and_exit_code(tmp_path):
    # depth 4 cannot witness the weak-adic divergence, and a decided
    # run's dossier and tables must not stand in for it
    assert make_reports.main(["--outdir", str(tmp_path), "--depth", "8"]) == 0
    assert make_reports.main(["--outdir", str(tmp_path), "--depth", "4"]) == 2
    verdicts = summary(tmp_path)
    assert verdicts["growth_dossier"] == "inconclusive"
    assert verdicts["growth_tables"] == "inconclusive"
    assert "FAILED" not in verdicts.values()
    assert not (tmp_path / "growth_dossier.json").exists()
    assert not (tmp_path / "growth_tables.txt").exists()


def test_a_shallow_battery_is_inconclusive_not_a_usage_error(tmp_path):
    # depth 2 would give the weak-adic chain -1 steps, which grfilt
    # refuses; the battery asks for 0, a window too small to decide
    assert make_reports.main(["--outdir", str(tmp_path), "--depth", "2"]) == 2
    verdicts = summary(tmp_path)
    assert verdicts["chain_weak_adic_right"] == "inconclusive"
    assert "usage error" not in verdicts.values()


def test_a_failed_op_involution_shows_in_summary_and_exit_code(
        tmp_path, monkeypatch):
    # tau does not preserve the triangular ring's shape, so its report fails
    import json
    real = make_reports.op_involution_report
    monkeypatch.setattr(make_reports, "op_involution_report",
                        lambda ring: real(make_reports.make("R_2x2")))
    assert make_reports.main(["--outdir", str(tmp_path), "--depth", "5"]) == 1
    verdicts = summary(tmp_path)
    assert verdicts.pop("op_involution") == "FAILED"
    assert set(verdicts.values()) == {"verified"}
    report = json.loads((tmp_path / "op_involution.json").read_text())
    assert report["shape_preserved"] is False
    assert report["anti_multiplicative"] is True


def test_a_failure_outranks_inconclusive(tmp_path, monkeypatch):
    import grfilt.graded
    # the dossier's weak-adic half is inconclusive at this depth, so the
    # dossier is too, whatever the patched recheck says of its chains
    monkeypatch.setattr(grfilt.graded, "verify_chain_report",
                        lambda gr, classes, report: False)
    assert make_reports.main(["--outdir", str(tmp_path), "--depth", "4"]) == 1
    verdicts = summary(tmp_path)
    assert verdicts["chain_standard_left"] == "FAILED"
    assert verdicts["growth_dossier"] == "inconclusive"


# recorded from the former scripts/growth_tables.py --depth 16
GROWTH_TABLES_16 = """\
   n   H_ring   H_quot  H_madic
   0        1        1        0
   1        3        2        1
   2        6        3        2
   3        9        4        3
   4       12        5        4
   5       15        6        5
   6       18        7        6
   7       21        8        7
   8       24        9        8
   9       27       10        9
  10       30       11       10
  11       33       12       11
  12       36       13       12
  13       39       14       13
  14       42       15       14
  15       45       16       15
  16       48       17       16

obstruction witnesses, 2*H(n) > 1*H(n+p), quotient table:
  p =  1: first n = 1 (H = 2 vs 3)
  p =  2: first n = 2 (H = 3 vs 5)
  p =  3: first n = 3 (H = 4 vs 7)
  p =  4: first n = 4 (H = 5 vs 9)
  p =  5: first n = 5 (H = 6 vs 11)
  p =  6: first n = 6 (H = 7 vs 13)
  p =  7: first n = 7 (H = 8 vs 15)
  p =  8: first n = 8 (H = 9 vs 17)
re-verified: True

growth shape probe: max ratio 2.0, fitted degree 1, subexponential \
consistent = True
"""


def test_growth_tables_match_the_recorded_depth_16_output(tmp_path):
    assert make_reports.main(["--outdir", str(tmp_path), "--depth", "16"]) == 0
    assert (tmp_path / "growth_tables.txt").read_text() == GROWTH_TABLES_16
    assert summary(tmp_path)["growth_tables"] == "verified"


def forge_witness(asc):
    asc["certificate"]["rows"][1]["n"] += 1


def forge_quotient_table(asc):
    # the certificate still rechecks on its own table, but not on the
    # quotient table printed beside it
    asc["hilbert"]["values"][-1] += 1


@pytest.mark.parametrize("forge", [forge_witness, forge_quotient_table])
def test_growth_tables_recheck_the_dossier_file_not_the_run(tmp_path, forge):
    import json
    assert make_reports.main(["--outdir", str(tmp_path), "--depth", "8"]) == 0
    path = tmp_path / "growth_dossier.json"
    dossier = json.loads(path.read_text())
    forge(dossier["ascending"])
    path.write_text(json.dumps(dossier))
    assert make_reports.growth_tables(tmp_path) == 1
    text = (tmp_path / "growth_tables.txt").read_text()
    assert "re-verified: False" in text and "first n =" not in text


def test_a_failed_dossier_fails_the_growth_tables(tmp_path, monkeypatch):
    import grfilt.certifier
    # the dossier's own recheck refuses, so certify exits 1 and the
    # tables take its verdict without reading a file it never wrote
    monkeypatch.setattr(grfilt.certifier, "verify_certificate",
                        lambda cert: False)
    assert make_reports.main(["--outdir", str(tmp_path), "--depth", "8"]) == 1
    verdicts = summary(tmp_path)
    assert verdicts["growth_dossier"] == verdicts["growth_tables"] == "FAILED"
    assert not (tmp_path / "growth_tables.txt").exists()


def test_a_column_grfilt_cannot_compute_stops_with_its_exit_code(
        tmp_path, monkeypatch):
    import grfilt.cli
    from grfilt import Inconclusive

    def saturated(args):
        raise Inconclusive("window saturated")
    # the ring column is missing, so the tables take hilbert's verdict
    monkeypatch.setattr(grfilt.cli, "cmd_hilbert", saturated)
    assert make_reports.main(["--outdir", str(tmp_path), "--depth", "8"]) == 2
    verdicts = summary(tmp_path)
    assert verdicts["growth_dossier"] == "verified"
    assert verdicts["hilbert_standard"] == "inconclusive"
    assert verdicts["growth_tables"] == "inconclusive"
    assert not (tmp_path / "growth_tables.txt").exists()


def test_make_reports_unmakeable_outdir_is_a_usage_error(tmp_path, capsys):
    # refused before any run: nothing printed, nothing made
    afile = tmp_path / "afile"
    afile.write_text("")
    for outdir in (afile / "sub", afile):
        assert make_reports.main(["--outdir", str(outdir),
                                  "--depth", "4"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: cannot make ")
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert afile.read_text() == ""


@pytest.mark.parametrize("argv", [["--depth", "x"], ["--depth", "-1"]])
def test_bad_input_is_a_usage_error(argv, tmp_path, capsys):
    # exit 3 before anything runs, with the script's own usage once: not
    # a traceback, not argparse's 2 (which reads as inconclusive) and not
    # the usage of the grfilt parser the script calls
    assert make_reports.main(["--outdir", str(tmp_path / "out"),
                              *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("usage:") == 1
    assert "Traceback" not in captured.err and "hilbert" not in captured.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_scripts_use_only_the_cli_and_the_certifier(name):
    text = (SCRIPTS / f"{name}.py").read_text()
    for module in ("filtration", "graded", "bimodule", "dualizing"):
        assert f"grfilt.{module}" not in text
