"""Pinned canonical bases.

Each digest is a sha256 of repr((index, rows, pivots)) over every layer
(or graded section) in index order, so it fixes the canonical echelon
bases value for value, not only their dimensions; each value's form
(see tests/test_scalars.py) is pinned beside the digest.
rows is the basis as dense tuples in pivot order, rendered here from the
echelon as the digests were recorded: over Q each value as the repr of
the Fraction it equals, as Q elements printed when every one was a
Fraction, and over F_p each value spelled v~p, as F_p elements printed
when they were objects.  The standard-filtration and graded digests
were recorded with the dense Gauss-Jordan elimination that preceded the
sparse kernel; the weak-adic, word-closure and ideal-closure digests
with the layer builders that re-eliminated every earlier row at each
step.  A change to the echelon code or to the layer builders that moves
any of them changes Subspace equality, hashes and JSON payloads.

A key is (field, what, n): n is the depth of a filtration or graded
truncation, and the degree cap of a word closure ("full_span") or of an
ideal closure ("closure <seed>").
"""

import hashlib
from fractions import Fraction

import pytest

from grfilt.fields import field_from_name
from grfilt.filtration import (full_span, standard_filtration,
                               two_sided_closure, weak_adic_filtration)
from grfilt.graded import GradedTrunc
from grfilt.linalg import dense_row
from grfilt.workbench import make
from test_scalars import in_canonical_form

DIGESTS = {
    ("Q", "R_2x2", 12):
        "7ece6cf821fc9a29892396314fd78cc98f91b47227ae497d181ef3d5706926e9",
    ("Q", "S", 3):
        "c1bdbc2241e521adab34f7a804e2ec575629fadf67df3df5a1bd0bdb3c9a24a3",
    ("Q", "T", 3):
        "b670a199fd6a878ffd51156d6cb6fbae6fe4c66d1673bc4bfed96724c7e4c365",
    ("Q", "gr R_2x2", 8):
        "3ff615e4efe4a8b60966a2ec2ce5c15eadf8dde5a2c7e121f87dbeb0d41e3d0a",
    ("Fp:101", "R_2x2", 12):
        "b44301c59d15ba826c629a58e42dc0a08d8f96dc34156d76ce9092d4c9368c91",
    ("Fp:101", "S", 3):
        "d7c427a30b19419573e1e66b9a2bbc83b236299b5f9422c400e57c3c396eb365",
    ("Fp:101", "T", 3):
        "0be86f2ec58509a191ff0a49564475214b553e8485f853c70d88b393000275b2",
    ("Fp:101", "gr R_2x2", 8):
        "22dba3579f6ec800481f979f8725ea0412e338a6348d7d3c3279f80c6ffc3f74",
    ("Q", "weak-adic R_prime", 8):
        "ecd156dcd7282a02ae4d539dae300e952d8a5a23eec5b793da1e8dbfdded5846",
    ("Q", "full_span R_prime", 9):
        "67e54f3b2d4bf9ef8ab31c6420357629fdda12fb8595b265414639879d716aad",
    ("Q", "closure beta R_2x2", 18):
        "f6e37d0c50161b259f5528719dacf13c76e2d5ca5b0e589d45482e97ed50fe06",
    ("Fp:101", "weak-adic R_prime", 8):
        "e6554b5fb2e1249da2ae05902e3b21023cd0df2a3f429797557c385505158689",
    ("Fp:101", "full_span R_prime", 9):
        "f76b33426377a7269626088508297b803b4171797a70e08fba1725ac24deaad5",
    ("Fp:101", "closure beta R_2x2", 18):
        "fe7441b30ae3ace804fa625c3bb0e0e92f2e958403bcf7b822ce517d5eafb8fa",
}


def sized_filtration(name, depth, fld):
    """Standard filtration with the cap the CLI picks for this depth."""
    probe = make(name, field=fld)
    step = max([g.degree() for g in probe.pres.gen_mats()] + [1])
    ring = make(name, degcap=step * depth + 2, field=fld)
    return standard_filtration(ring.pres, depth)


class Spelled:
    """A value whose repr is the given text."""

    def __init__(self, text):
        self.text = text

    def __repr__(self):
        return self.text


def dense_rows(sub):
    fld = sub.ambient.field
    rows = [dense_row(sub.echelon[q], sub.ambient.dim, fld)
            for q in sub.pivots]
    spell = fld.text if fld.p else (lambda v: repr(Fraction(v)))
    return tuple(tuple(Spelled(spell(v)) for v in r) for r in rows)


def digest(spaces):
    h = hashlib.sha256()
    for key, sub in sorted(spaces.items()):
        h.update(repr((key, dense_rows(sub), sub.pivots)).encode())
    return h.hexdigest()


def spaces_of(what, n, fld):
    """The pinned spaces of one key, by index."""
    words = what.split()
    if words[0] == "gr":
        return GradedTrunc(sized_filtration(words[1], n, fld)).sections
    if words[0] == "weak-adic":
        return weak_adic_filtration(make(words[1], field=fld).pres,
                                    n).layers
    if words[0] == "full_span":
        return {0: full_span(make(words[1], degcap=n, field=fld).pres)}
    if words[0] == "closure":
        ring = make(words[2], degcap=n, field=fld)
        ideal = two_sided_closure(ring.pres, [ring.el(words[1])])
        return {0: ideal}
    return sized_filtration(what, n, fld).layers


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: " ".join(
    map(str, k)))
def test_canonical_bases_are_pinned(key):
    field, what, n = key
    fld = field_from_name(field)
    spaces = spaces_of(what, n, fld)
    assert digest(spaces) == DIGESTS[key]
    # the digest spells 3 and Fraction(3) alike, so the form is pinned here
    assert all(in_canonical_form(fld, v) for sub in spaces.values()
               for row in sub.echelon.values() for v in row.values())
