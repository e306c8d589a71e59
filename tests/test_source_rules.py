"""The source rules of tools/source_rules.py: each passes on this checkout,
each flags a seeded violation at its line and spares its exemptions, and
CI runs each as a step of its own name."""

import importlib.util
import json
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "source_rules", ROOT / "tools" / "source_rules.py")
rules = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rules)

# rule -> (files of a small checkout, the findings the rule must report);
# each checkout holds one violation and cases the rule must let pass
SEEDED = {
    "line-length": ({
        "src/grfilt/m.py": "x = 1\ny = " + "1" * 76 + "\n",
        "tests/test_m.py": "z = " + "1" * 90 + "\n",
        "tools/t.py": "# " + "-" * 79 + "\n",
    }, ["src/grfilt/m.py:2: 80 columns", "tools/t.py:1: 81 columns"]),
    "unused-imports": ({
        "src/grfilt/m.py": (
            "from __future__ import annotations\n"
            "import os.path\n"
            "import sys  # noqa: F401\n"
            "from .x import exported, used, unused\n"
            "__all__ = ['exported']\n"
            "print(os, used)\n"),
        "tests/test_m.py": "import json\n",
    }, ["src/grfilt/m.py:4: unused", "tests/test_m.py:1: json"]),
    # a traced name exempts only its own definition: m.K.mul and o.lift
    # leave the function mul and the method K.lift of m dead; a test's
    # call keeps the method K.called alive but not the function tested
    "dead-definitions": ({
        "perfbench/layer_map.json": json.dumps(
            {"entries": [{"functions": ["m.traced", "m.K.mul", "o.lift"]}]}),
        "src/grfilt/m.py": (
            "def used():\n    pass\n"
            "def dead():\n    pass\n"
            "def traced():\n    pass\n"
            "class K:\n"
            "    def bare(self):\n        pass\n"
            "    def called(self):\n        pass\n"
            "    def __repr__(self):\n        pass\n"
            "    def mul(self):\n        pass\n"
            "    def lift(self):\n        pass\n"
            "def mul():\n    pass\n"
            "def tested():\n    pass\n"),
        "scripts/s.py": (
            "from grfilt.m import used, K\n"
            "bare = used()\n"),
        "tests/test_m.py": (
            "from grfilt.m import K, tested\n"
            "bare = tested()\n"
            "K().called()\n"),
    }, ["src/grfilt/m.py:3: dead", "src/grfilt/m.py:18: mul",
        "src/grfilt/m.py:20: tested", "src/grfilt/m.py:8: bare",
        "src/grfilt/m.py:16: lift"]),
    # a call in scripts/ or a partial counts; a call in tests/ does not
    "unturned-defaults": ({
        "src/grfilt/m.py": (
            "from functools import partial\n"
            "def f(a, b=1, *, c=2, d=3):\n    return a\n"
            "class K:\n"
            "    def __init__(self, x=0):\n        pass\n"
            "    @staticmethod\n"
            "    def s(y=0):\n        pass\n"
            "    def t(self, z=0):\n        pass\n"
            "f(0, d=1)\n"
            "K(5)\n"
            "h = partial(K.s, y=2)\n"),
        "scripts/s.py": (
            "from grfilt.m import f as g\n"
            "g(0, c=5)\n"),
        "tests/test_m.py": (
            "from grfilt.m import f, K\n"
            "f(0, 1)\n"
            "K().t(z=1)\n"),
    }, ["src/grfilt/m.py:2: f(b=...)", "src/grfilt/m.py:10: t(z=...)"]),
    "independent-oracle": ({
        "tests/oracle.py": (
            "import itertools\n"
            "from fractions import Fraction\n"
            "import grfilt.fields\n"),
    }, ["tests/oracle.py:3: grfilt.fields"]),
    "exact-arithmetic": ({
        "src/grfilt/bimodule.py": (
            "def slope_table(a, b):\n    return a / b\n"
            "def other(a, b):\n    a //= b\n    return a, 1 / 2\n"),
        "scripts/s.py": "print(1 / 2)\n",
    }, ["src/grfilt/bimodule.py:5: true division"]),
    # like the comparisons that moved into Filtration.sign and degrees;
    # hilbert reads sign too, so its comparison is flagged
    "filtration-kind": ({
        "src/grfilt/filtration.py": (
            "class Filtration:\n"
            "    def known(self, m):\n"
            "        return self.kind == 'ascending'\n"
            "def hilbert(filt):\n"
            "    return filt.kind != 'weak-adic'\n"
            "def layer_at(filt, n):\n"
            "    if filt.kind == 'ascending':\n"
            "        return filt.layer(n)\n"
            "    return filt.layer(-n)\n"),
        "src/grfilt/cli.py": (
            "def _base_filtration(kind):\n"
            "    return kind == 'weak-adic'\n"),
    }, ["src/grfilt/filtration.py:5: compares a filtration kind",
        "src/grfilt/filtration.py:7: compares a filtration kind"]),
    # like the round loop quotient_iso_check once wrote by hand, and the
    # dicts zero_space, prefix_space and from_vectors once handed
    # Subspace; only Subspace.extend of linspace's functions may insert,
    # a list's two-argument insert is no echelon's, a plain function may
    # return a dict, and tests may do either
    "echelon-writers": ({
        "src/grfilt/linalg.py": (
            "def row_echelon(rows, p):\n"
            "    e = Echelon(p)\n"
            "    for r in rows:\n"
            "        e.insert(r)\n"),
        "src/grfilt/linspace.py": (
            "from . import linalg\n"
            "class Subspace:\n"
            "    def extend(self, rows):\n"
            "        self.e.insert(rows)\n"
            "    @classmethod\n"
            "    def from_vectors(cls, a, rows):\n"
            "        return cls(a, {q: r for q, r in rows})\n"
            "def sum_spaces(u, v):\n"
            "    u.echelon.insert(v)\n"
            "def zero_space(ambient):\n"
            "    return Subspace(ambient, {})\n"
            "def prefix_space(ambient, n):\n"
            "    return Subspace(ambient, echelon={k: {k: 1} for k in n})\n"
            "def span(ambient, rows):\n"
            "    return Subspace(ambient, linalg.Echelon(None, rows))\n"
            "def poly(field):\n"
            "    return cls(field, 1, {})\n"),
        "src/grfilt/graded.py": (
            "def ideal_chain_witness(piece, row):\n"
            "    piece.insert(row)\n"
            "def verify_chain_report(piece, row):\n"
            "    piece.insert(row)\n"),
        "src/grfilt/workbench.py": (
            "def quotient_iso_check(echelon, rows):\n"
            "    for r in rows:\n"
            "        echelon.insert(r)\n"
            "        rows.insert(0, r)\n"),
        "tests/test_m.py": ("Echelon(None).insert({0: 1})\n"
                            "Subspace(None, {})\n"),
    }, ["src/grfilt/linspace.py:9: calls insert",
        "src/grfilt/workbench.py:3: calls insert",
        "src/grfilt/linspace.py:11: hands Subspace a dict",
        "src/grfilt/linspace.py:13: hands Subspace a dict",
        "src/grfilt/linspace.py:7: hands Subspace a dict"]),
    # like the verdict sets cli.cmd_ranks once subtracted and the verdicts
    # the certifier and dualizing once compared; bimodule.py names the
    # verdicts, a dict key or a stage state is no comparison with one, and
    # tests may compare verdicts
    "verdict-literals": ({
        "src/grfilt/bimodule.py": (
            "FREE = 'free'\n"
            "def verify(report):\n"
            "    return report.verdict == 'free'\n"),
        "src/grfilt/certifier.py": (
            "def pair(left):\n"
            "    if left.verdict == 'inconclusive':\n"
            "        return {'free': 1}\n"
            "    return left.verdict in ('not free', 'x')\n"),
        "src/grfilt/dualizing.py": (
            "def stage(rep):\n"
            "    return rep.state == 'failed' or rep.decision == OK\n"),
        "src/grfilt/workbench.py": (
            "def goldie(rep):\n"
            "    return rep.verdict != ('not certified: actor has a kernel '\n"
            "                           'on the window')\n"),
        "tests/test_m.py": "assert rep.verdict == 'free'\n",
    }, ["src/grfilt/certifier.py:2: compares a rank verdict literal",
        "src/grfilt/certifier.py:4: compares a rank verdict literal",
        "src/grfilt/workbench.py:2: compares a rank verdict literal"]),
}


@pytest.fixture(scope="module")
def checkout():
    return rules.Source(ROOT)


@pytest.mark.parametrize("name", rules.RULES)
def test_rule_passes_on_checkout(checkout, name):
    assert rules.RULES[name](checkout) == []


def test_every_rule_is_seeded():
    assert SEEDED.keys() == rules.RULES.keys()


@pytest.mark.parametrize("name", SEEDED)
def test_rule_flags_seeded_violation_at_its_line(tmp_path, name):
    files, expected = SEEDED[name]
    for path, text in files.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
    assert rules.RULES[name](rules.Source(tmp_path)) == expected


def test_each_source_rule_is_one_ci_step_of_its_name():
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    steps = re.findall(r"^ +- name: (.+)\n +run: (.+)$", workflow, re.M)
    for name in rules.RULES:
        assert [run for step, run in steps
                if step == name.replace("-", " ")] == [
            f"python tools/source_rules.py {name}"]
    assert not re.search(r"python3? - <<", workflow)
