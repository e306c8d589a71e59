"""Pinned canonical bases.

Each digest is a sha256 of repr((index, rows, pivots)) over every layer
(or graded section) in index order, so it fixes the canonical echelon
bases value for value and type for type, not only their dimensions.  The
digests were recorded with the dense Gauss-Jordan elimination that
preceded the sparse kernel; a change to the echelon code that moves any
of them changes Subspace equality, hashes and JSON payloads.
"""

import hashlib

import pytest

from grfilt.fields import field_from_name
from grfilt.filtration import standard_filtration
from grfilt.graded import GradedTrunc
from grfilt.workbench import make

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
}


def sized_filtration(name, depth, fld):
    """Standard filtration with the cap the CLI picks for this depth."""
    probe = make(name, field=fld)
    step = max([g.degree() for g in probe.pres.gen_mats()] + [1])
    ring = make(name, degcap=step * depth + 2, field=fld)
    return standard_filtration(ring.pres, depth)


def digest(spaces):
    h = hashlib.sha256()
    for key, sub in sorted(spaces.items()):
        h.update(repr((key, sub.rows, sub.pivots)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("key", sorted(DIGESTS), ids=lambda k: " ".join(
    map(str, k)))
def test_canonical_bases_are_pinned(key):
    field, what, depth = key
    fld = field_from_name(field)
    if what.startswith("gr "):
        spaces = GradedTrunc(sized_filtration(what[3:], depth, fld)).sections
    else:
        spaces = sized_filtration(what, depth, fld).layers
    assert digest(spaces) == DIGESTS[key]
