"""tools/same_outputs.py: a checkout matches itself, and a copy whose
printed text differs is reported run by run."""

import importlib.util
import pathlib
import shutil

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

TEXT = ["hilbert", "--depth", "2"]
JSON = ["--format", "json", "hilbert", "--depth", "2"]


def test_a_checkout_matches_itself_and_a_changed_string_is_reported(
        tmp_path):
    assert same_outputs.differences(ROOT, ROOT, [TEXT, JSON]) == []
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "grfilt" / "cli.py"
    text = cli.read_text()
    assert text.count('"layer dims: "') == 1
    cli.write_text(text.replace('"layer dims: "', '"layer dimz: "'))
    assert same_outputs.differences(ROOT, tmp_path, [TEXT, JSON]) == [TEXT]


def test_the_battery_covers_every_job_field_and_format():
    argvs = same_outputs.battery()
    jobs = {" ".join(a[4:]) for a in argvs}
    assert "hilbert --ring R_2x2 --depth 2" in jobs
    assert set(same_outputs.EDGE_JOBS) <= jobs
    assert len(argvs) == len(jobs) * len(same_outputs.FIELDS) * 2
