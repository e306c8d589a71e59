"""graded, bimodule, certifier and dualizing run only when a job uses them.

`import grfilt` registers these four modules in sys.modules but runs each
one's body only when it is first touched; until then its type is a
subclass of ModuleType.  Inside a pytest session other tests have run
every module already, so each check here starts a fresh interpreter.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MAP = ROOT / "perfbench" / "layer_map.json"
ON_DEMAND = ("graded", "bimodule", "certifier", "dualizing")

PRELUDE = f"""
import contextlib, io, json, sys, types
sys.path.insert(0, {str(ROOT / "src")!r})
import grfilt.cli

def ran():
    return sorted(m for m in {ON_DEMAND!r}
                  if type(sys.modules["grfilt." + m]) is types.ModuleType)
"""


def fresh(code):
    """Run PRELUDE and code in a new interpreter; code prints one JSON
    value, which is returned."""
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_registers_every_mapped_module_and_runs_none_on_demand():
    # the benchmark's tracer reads sys.modules right after this import
    names = {f.split(".")[0] for e in json.loads(MAP.read_text())["entries"]
             for f in e["functions"]}
    registered, done = fresh(
        f"print(json.dumps([sorted(m for m in {sorted(names)!r} "
        f"if 'grfilt.' + m in sys.modules), ran()]))")
    assert registered == sorted(names)
    assert set(ON_DEMAND) <= names
    assert done == []


# each subcommand at a small window, and the on-demand modules it runs
RUNS = [
    (["hilbert", "--depth", "3"], []),
    (["quotient-iso", "--degcap", "8", "--max-len", "3"], []),
    (["gr", "--depth", "3"], ["graded"]),
    (["chain", "--steps", "2", "--depth", "4"], ["graded"]),
    (["ranks", "--depth", "4"], ["bimodule"]),
    (["dualize", "--degcap", "8"], ["bimodule", "dualizing"]),
    (["certify", "--case", "ascending", "--depth", "6"],
     ["bimodule", "certifier", "graded"]),
]


@pytest.mark.parametrize("argv, runs", RUNS,
                         ids=[argv[0] for argv, _ in RUNS])
def test_a_subcommand_runs_only_the_modules_it_uses(argv, runs):
    code, done = fresh(
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = grfilt.cli.main({argv!r})\n"
        "print(json.dumps([code, ran()]))")
    assert code == 0
    assert done == runs


def test_every_exported_name_resolves():
    missing = fresh(
        "import grfilt\n"
        "print(json.dumps([n for n in grfilt.__all__\n"
        "                  if getattr(grfilt, n, None) is None]))")
    assert missing == []
    assert fresh("from grfilt import GradedTrunc, verify_dualizing\n"
                 "print(json.dumps(ran()))") == ["bimodule", "dualizing",
                                                 "graded"]
    assert fresh("import grfilt\n"
                 "print(json.dumps(hasattr(grfilt, 'no_such_name')))") \
        is False
