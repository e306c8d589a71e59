"""The Record base class and jsonable, the one JSON encoder."""

import argparse
from fractions import Fraction

import pytest

from grfilt.bimodule import ModuleAction
from grfilt.cli import _emit
from grfilt.record import Record, jsonable


class Pair(Record):
    fields = ("left", "right", "note", "secret")
    hidden = ("secret",)


class Twin(Record):
    fields = ("left", "right", "note", "secret")


def test_equality_and_hash_follow_type_and_values():
    a = Pair(1, (2, 3), "x", None)
    assert a == Pair(left=1, right=(2, 3), note="x", secret=None)
    assert hash(a) == hash(Pair(1, (2, 3), "x", None))
    assert a != Pair(1, (2, 4), "x", None)
    assert a != Twin(1, (2, 3), "x", None)
    assert len({a, Pair(1, (2, 3), "x", None)}) == 1


def test_setting_or_deleting_an_attribute_raises():
    a = Pair(1, 2, "x", 0)
    with pytest.raises(AttributeError):
        a.left = 5
    with pytest.raises(AttributeError):
        del a.left
    assert a.left == 1


def test_replace_leaves_the_original_unchanged():
    a = Pair(1, 2, "x", 0)
    b = a.replace(right=7)
    assert (a.right, b.right) == (2, 7)
    assert (b.left, b.note, b.secret) == (1, "x", 0)


@pytest.mark.parametrize("build", [
    lambda: Pair(1, 2, "x", 0, 9),              # too many
    lambda: Pair(1, 2, "x", 0, colour="red"),   # unknown
    lambda: Pair(1, right=2),                   # missing secret
    lambda: Pair(1, 2, left=3, secret=0),       # left twice
    lambda: Pair(1, 2, "x", 0).replace(colour="red"),
])
def test_unknown_missing_or_duplicated_field_raises(build):
    with pytest.raises(TypeError):
        build()


def test_hidden_fields_are_off_the_payload_in_declared_order():
    assert Pair(1, (2, 3), "x", object()).to_json() == \
        {"left": 1, "right": [2, 3], "note": "x"}
    assert list(Pair(1, 2, "x", 0).to_json()) == ["left", "right", "note"]


def test_module_action_still_checks_its_side():
    with pytest.raises(ValueError):
        ModuleAction("m", None, None, side="up")
    with pytest.raises(ValueError):
        ModuleAction("m", None, None, "left").replace(side="up")


def test_jsonable_reaches_records_inside_tuples_and_dicts():
    inner = Pair(1, 2, "x", 0)
    out = jsonable({"a": (inner, [inner]), 3: {"b": inner}, "c": None})
    want = {"left": 1, "right": 2, "note": "x"}
    assert out == {"a": [want, [want]], 3: {"b": want}, "c": None}


def test_emit_refuses_a_value_json_cannot_encode(capsys):
    args = argparse.Namespace(format="json", out=None)
    # F_p coefficients are JSON ints now; an exact fraction is not
    with pytest.raises(TypeError):
        _emit(args, {"coefficient": Fraction(1, 3)}, [])
    assert capsys.readouterr().out == ""
