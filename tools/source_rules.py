"""grfilt's source rules: each function reads a Source and returns its
findings as "path:line: what"; CI runs it as the step of its name, and
`python tools/source_rules.py [rule ...]` runs those named, or all."""

import ast
import json
import pathlib
import sys


class Source:
    """The .py files under src/, scripts/, tests/ and tools/ of the
    checkout at root, by path relative to root: each is read, parsed and
    walked once, into its text and the list of its syntax nodes."""
    def __init__(self, root):
        self.root = pathlib.Path(root)
        self.text = {p.relative_to(self.root): p.read_text() for p in sorted(
            q for top in ("src", "scripts", "tests", "tools")
            for q in (self.root / top).rglob("*.py"))}
        self.nodes = {p: list(ast.walk(ast.parse(t)))
                      for p, t in self.text.items()}

    def under(self, *tops):
        return [p for p in self.text if p.parts[0] in tops]


def _outside(src, kinds, places):
    """(path, node) for each syntax node of src/ outside the definitions
    of the given kinds that places names by (module stem, name)."""
    for p in src.under("src"):
        skip = {id(n) for f in src.nodes[p]
                if isinstance(f, kinds) and (p.stem, f.name) in places
                for n in ast.walk(f)}
        yield from ((p, n) for n in src.nodes[p] if id(n) not in skip)


def _compared(src, values, allowed, what):
    """A finding "what" at each comparison in src/ with a constant among
    values in its operands, outside the modules named by stem in allowed
    and the definitions named there by (module stem, name)."""
    return [f"{p}:{n.lineno}: {what}"
            for p, n in _outside(src, (ast.FunctionDef, ast.ClassDef), allowed)
            if p.stem not in allowed and isinstance(n, ast.Compare)
            and any(isinstance(c, ast.Constant) and c.value in values
                    for e in (n.left, *n.comparators) for c in ast.walk(e))]


def line_length(src):
    """Line count measures simplicity, so lines of src/, scripts/ and
    tools/ must not grow past 79 columns to save it."""
    return [f"{p}:{n}: {len(line)} columns"
            for p in src.under("src", "scripts", "tools")
            for n, line in enumerate(src.text[p].splitlines(), 1)
            if len(line) > 79]


def unused_imports(src):
    """Deletions leave imports behind; a name in __all__ counts as used,
    and an import marked "# noqa: F401" is kept on purpose."""
    bad = []
    for p, nodes in src.nodes.items():
        lines = src.text[p].splitlines()
        used = {n.id for n in nodes if isinstance(n, ast.Name)}
        used |= {e.value for n in nodes if isinstance(n, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in n.targets)
            for e in n.value.elts}
        bad += [f"{p}:{n.lineno}: {a.name}" for n in nodes
                if isinstance(n, (ast.Import, ast.ImportFrom))
                and getattr(n, "module", None) != "__future__"
                and not any("# noqa: F401" in line
                            for line in lines[n.lineno - 1:n.end_lineno])
                for a in n.names
                if (a.asname or a.name).split(".")[0] not in used]
    return bad


def dead_definitions(src):
    """Deletions leave definitions behind too, and a test alone must not
    keep one alive: a function or class of src/ must be referenced by
    name or attribute in a file of src/ or scripts/, and a method by
    attribute in any file of the Source (a bare name of the same
    spelling, such as a parameter, does not count; the match is by
    spelling, so it cannot tell which class a caller reaches), or be
    traced by the benchmark, which names it in perfbench/layer_map.json
    as module.function or module.Class.method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    run = [n for p in src.under("src", "scripts") for n in src.nodes[p]]
    names = {n.id for n in run if isinstance(n, ast.Name)}
    names |= {(n.asname or n.name).split(".")[-1] for n in run
              if isinstance(n, ast.alias)}
    names |= {n.attr for n in run if isinstance(n, ast.Attribute)}
    attrs = {n.attr for nodes in src.nodes.values() for n in nodes
             if isinstance(n, ast.Attribute)}
    with open(src.root / "perfbench" / "layer_map.json") as f:
        traced = {fn for e in json.load(f)["entries"]
                  for fn in e["functions"]}
    bad = []
    for p in src.under("src"):
        owner = {id(d): f"{c.name}." for c in src.nodes[p]
                 if isinstance(c, ast.ClassDef) for d in c.body}
        bad += [f"{p}:{n.lineno}: {n.name}" for n in src.nodes[p]
                if isinstance(n, defs)
                and not (n.name.startswith("__") and n.name.endswith("__"))
                and f"{p.stem}.{owner.get(id(n), '')}{n.name}" not in traced
                and n.name not in (attrs if id(n) in owner else names)]
    return bad


def unturned_defaults(src):
    """A default that no call changes is a constant in disguise, and a
    value only tests change does not justify an option: each defaulted
    parameter of a src/ function must be passed, by keyword or by
    position, by some call in a file of src/ or scripts/.  A call is
    matched by its name (after "import ... as" aliases) or attribute, a
    class call by its __init__, partial(f, ...) is a call of f, and
    *args or **kwargs pass everything."""
    passed = {}     # callee name -> [(positional count or None, keywords)]
    for p in src.under("src", "scripts"):
        alias = {a.asname: a.name.split(".")[-1] for n in src.nodes[p]
                 if isinstance(n, (ast.Import, ast.ImportFrom))
                 for a in n.names if a.asname}

        def callee(f):
            return (alias.get(f.id, f.id) if isinstance(f, ast.Name)
                    else getattr(f, "attr", None))
        for n in (n for n in src.nodes[p] if isinstance(n, ast.Call)):
            name, args = callee(n.func), n.args
            if name == "partial" and args:
                name, args = callee(args[0]), args[1:]
            npos = None if any(isinstance(a, ast.Starred)
                               for a in args) else len(args)
            passed.setdefault(name, []).append(
                (npos, {k.arg for k in n.keywords}))
    bad = []
    for p in src.under("src"):
        owner = {id(d): c for c in src.nodes[p]
                 if isinstance(c, ast.ClassDef) for d in c.body}
        for d in (d for d in src.nodes[p] if isinstance(
                d, (ast.FunctionDef, ast.AsyncFunctionDef))):
            cls = owner.get(id(d))
            # a bound call fills the parameters after self or cls
            shift = int(cls is not None and "staticmethod" not in {
                getattr(x, "id", None) for x in d.decorator_list})
            name = cls.name if shift and d.name == "__init__" else d.name
            pos = d.args.posonlyargs + d.args.args
            defaulted = [(i - shift, a.arg) for i, a in enumerate(pos)
                         if i >= len(pos) - len(d.args.defaults)]
            defaulted += [(None, a.arg) for a, v in zip(
                d.args.kwonlyargs, d.args.kw_defaults) if v is not None]
            bad += [f"{p}:{d.lineno}: {d.name}({arg}=...)"
                    for i, arg in defaulted
                    if not any(None in kws or arg in kws or npos is None
                               or (i is not None and npos > i)
                               for npos, kws in passed.get(name, []))]
    return bad


def independent_oracle(src):
    """The oracle checks the package, so tests/oracle.py must not be built
    from it: it imports no grfilt module."""
    p = pathlib.Path("tests", "oracle.py")
    return [f"{p}:{n.lineno}: {m}" for n in src.nodes[p] for m in (
        [a.name for a in n.names] if isinstance(n, ast.Import)
        else [n.module or ""] if isinstance(n, ast.ImportFrom) else [])
        if m.split(".")[0] == "grfilt"]


def exact_arithmetic(src):
    """Q values stay exact only while nothing divides them (an int over an
    int is a float), so src/ has no true division ("/" or "/=") outside
    the two float probes that payloads still round."""
    probes = {("bimodule", "slope_table"), ("certifier", "subexp_probe")}
    return [f"{p}:{n.lineno}: true division"
            for p, n in _outside(src, ast.FunctionDef, probes)
            if isinstance(n, (ast.BinOp, ast.AugAssign))
            and isinstance(n.op, ast.Div)]


def filtration_kind(src):
    """A filtration's kind is read in one place: class Filtration gives
    sign, degrees and known, so no src/ code compares a value with
    "ascending" or "weak-adic" outside that class and the two input
    dispatchers, cli._base_filtration and
    certifier.assemble_growth_dossier; filtration.hilbert branches on
    sign."""
    return _compared(src, {"ascending", "weak-adic"}, {
        ("filtration", "Filtration"), ("cli", "_base_filtration"),
        ("certifier", "assemble_growth_dossier")},
        "compares a filtration kind")


def echelon_writers(src):
    """Echelons are linalg.Echelons built by insertion, and spans closed
    under products grow by one rule, linalg.grow, so neither a hand-built
    echelon nor a hand-written growth loop may come back: src/ calls
    insert with one argument, as Echelon.insert takes it (list.insert
    takes two), only in linalg.py, in Subspace.extend and in graded's two
    chain builders, which grow one Echelon per degree as generators
    arrive; and no call of Subspace, or of cls inside class Subspace,
    passes a dict display or comprehension as the echelon.  That half
    only flags the plain slips: the real guard on a Subspace's echelon is
    tests/test_echelon.py, which finds an Echelon in every catalog one."""
    allowed = {("linspace", "extend"), ("graded", "ideal_chain_witness"),
               ("graded", "verify_chain_report")}
    bad = [f"{p}:{n.lineno}: calls insert"
           for p, n in _outside(src, ast.FunctionDef, allowed)
           if p.stem != "linalg" and isinstance(n, ast.Call)
           and getattr(n.func, "attr", None) == "insert"
           and len(n.args) + len(n.keywords) == 1]
    for p in src.under("src"):
        own = {id(n) for c in src.nodes[p] if isinstance(c, ast.ClassDef)
               and c.name == "Subspace" for n in ast.walk(c)}
        bad += [f"{p}:{n.lineno}: hands Subspace a dict"
                for n in src.nodes[p] if isinstance(n, ast.Call)
                and getattr(n.func, "id", None) in (
                    ("Subspace", "cls") if id(n) in own else ("Subspace",))
                and any(isinstance(e, (ast.Dict, ast.DictComp))
                        for e in n.args[1:2] + [k.value for k in n.keywords
                                                if k.arg == "echelon"])]
    return bad


def verdict_literals(src):
    """A rank scan's verdicts are named once, in bimodule.py, with the
    decision each one means, so no other src/ code compares a value with
    a free-rank or uniform-rank verdict literal: it reads a report's
    decision, or names the verdict."""
    return _compared(src, {"free", "not free", "inconclusive", "certified",
                           "not certified: actor has a kernel on the window"},
                     {"bimodule"}, "compares a rank verdict literal")


RULES = {f.__name__.replace("_", "-"): f for f in (
    line_length, unused_imports, dead_definitions, unturned_defaults,
    independent_oracle, exact_arithmetic, filtration_kind, echelon_writers,
    verdict_literals)}

if __name__ == "__main__":
    names = sys.argv[1:] or list(RULES)
    if not set(names) <= RULES.keys():
        sys.exit(f"the rules are {' '.join(RULES)}")
    src = Source(pathlib.Path(__file__).resolve().parents[1])
    bad = [f"{name}: {line}" for name in names for line in RULES[name](src)]
    sys.exit("\n".join(bad) if bad else 0)
