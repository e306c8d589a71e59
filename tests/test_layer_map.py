"""Every function the benchmark's layer map names resolves in grfilt.

perfbench/tracer.py wraps each name in perfbench/layer_map.json after
`import grfilt.cli`: "<module>.<function>" must be an attribute of
grfilt.<module>, and "<module>.<Class>.<method>" an entry of the class's
own __dict__, not an inherited one.  A pinned function that is deleted or
renamed fails here, and not only in the traced benchmark run.
"""

import inspect
import json
import pathlib
import sys

import pytest

import grfilt.cli  # noqa: F401  (the import the tracer installs after)

MAP = (pathlib.Path(__file__).resolve().parents[1] / "perfbench"
       / "layer_map.json")
NAMES = [f for e in json.loads(MAP.read_text())["entries"]
         for f in e["functions"]]


def test_the_map_names_functions():
    assert len(NAMES) == len(set(NAMES)) > 0


@pytest.mark.parametrize("name", NAMES)
def test_layer_map_name_resolves(name):
    modname, *path = name.split(".")
    owner = sys.modules[f"grfilt.{modname}"]
    if len(path) == 1:
        fn = getattr(owner, path[0])
    else:
        raw = vars(getattr(owner, path[0]))[path[1]]
        fn = raw.__func__ if isinstance(
            raw, (classmethod, staticmethod)) else raw
    assert inspect.isfunction(fn)
    # the tracer refuses a generator: its time would be taken before
    # its body runs
    assert not inspect.isgeneratorfunction(fn)
