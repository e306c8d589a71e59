"""Pinned JSON payloads.

Each digest is the sha256 of the `--format json` stdout of one CLI run,
so it fixes every key, its order and every value the command prints.
The digests were recorded before the report types moved onto
grfilt.record; a change to how a report encodes itself moves them.
"""

import hashlib

import pytest

from grfilt.cli import main

ARGVS = {
    "hilbert beta": ("hilbert", "--depth", "6", "--quotient", "beta"),
    "hilbert weak-adic": ("hilbert", "--ring", "R_prime", "--kind",
                          "weak-adic", "--depth", "6"),
    "gr": ("gr", "--depth", "6"),
    "gr weak-adic": ("gr", "--ring", "R_prime", "--kind", "weak-adic",
                     "--depth", "6"),
    "ranks": ("ranks", "--depth", "6"),
    "certify two-sided": ("certify", "--case", "two-sided", "--depth", "6"),
    "certify ascending": ("certify", "--case", "ascending", "--depth", "6"),
    "chain standard": ("chain", "--kind", "standard", "--steps", "4",
                       "--depth", "8"),
    "chain weak-adic": ("chain", "--kind", "weak-adic", "--steps", "4",
                        "--depth", "8"),
    "dualize": ("dualize", "--degcap", "8"),
    "dualize control": ("dualize", "--control", "--degcap", "6"),
    "quotient-iso": ("quotient-iso", "--degcap", "12", "--max-len", "4"),
}

DIGESTS = {
    ("Q", "hilbert beta"):
        "2847df33778ae6bb984b9ec8470be51f1e0eb0b4df869c11894745b3fc3acc67",
    ("Q", "hilbert weak-adic"):
        "bb65c01d22857ff822d5b2b0caec4b94f667ff7acf2dab6a487cfa99ca639888",
    ("Q", "gr"):
        "5cfd2008395d793d98a00956d752650600b3a9308bda9eeb4135c6d88bc13e7d",
    ("Q", "gr weak-adic"):
        "b143d82104ef1323cccac949456903a3529ea1adf504efabcb75a7a2329b4df4",
    ("Q", "ranks"):
        "e01a05a9c15031a900e1842ed7b33838c48f0ef4ac82007f6c39755ec24bf011",
    ("Q", "certify two-sided"):
        "fb1214e6932c7143d8d6e40bf7c83490d57e02b8f400f3131bb35c4f1e55963f",
    ("Q", "certify ascending"):
        "f4f75e0975370e1694ad07da2f00d3bff4b9dca13b79f0d3a3c211ef3229c383",
    ("Q", "chain standard"):
        "0f202a891582389c7fcb2eed2989d7af4e7e5f6dfede11bc1e9072d5890f9a94",
    ("Q", "chain weak-adic"):
        "9336d04d9495c30a0ce92de963c81cf9de8222ff336b573e69d8eaf83c338a2d",
    ("Q", "dualize"):
        "58f79d4939e1712f785719d7ca1009ad5b94e6a96badacc49c36c2afe2d2b137",
    ("Q", "dualize control"):
        "ad0f4365d2305bff9b5fb59a63fcffc48e900463d34b0c9a2b7a4e4cb35c0bba",
    ("Q", "quotient-iso"):
        "11eca715febdcd545da148619614b203860334faf04197a9ee0c31fe6aea4d35",
    ("Fp:101", "hilbert beta"):
        "35c5bb28be81a93c58c993e414f2695f830ef0ff31102a63979c52cc6f984ba7",
    ("Fp:101", "hilbert weak-adic"):
        "314a2e72f139b34b20bd95030661b07b4b13ebc09ea844c598b76ec484058d6b",
    ("Fp:101", "gr"):
        "a74853b5d566c6e42f182c369f94c769d6fc2675b3fd4a2384590106248fe0b4",
    ("Fp:101", "gr weak-adic"):
        "464e0bbfeae75f2045b845a097f2d5e960470eab2ccce62f1b6424ddadf7abd4",
    ("Fp:101", "ranks"):
        "8308dd2d7f89af8f270a3b3aa5f36679eed701a53b90908265dc3094a9558c02",
    ("Fp:101", "certify two-sided"):
        "fb1214e6932c7143d8d6e40bf7c83490d57e02b8f400f3131bb35c4f1e55963f",
    ("Fp:101", "certify ascending"):
        "f4f75e0975370e1694ad07da2f00d3bff4b9dca13b79f0d3a3c211ef3229c383",
    ("Fp:101", "chain standard"):
        "0f202a891582389c7fcb2eed2989d7af4e7e5f6dfede11bc1e9072d5890f9a94",
    ("Fp:101", "chain weak-adic"):
        "9336d04d9495c30a0ce92de963c81cf9de8222ff336b573e69d8eaf83c338a2d",
    ("Fp:101", "dualize"):
        "58f79d4939e1712f785719d7ca1009ad5b94e6a96badacc49c36c2afe2d2b137",
    ("Fp:101", "dualize control"):
        "793b6faa4cc103db399d592320b18cec2fe6276c7dfb05c55d1683043d724c8e",
    ("Fp:101", "quotient-iso"):
        "11eca715febdcd545da148619614b203860334faf04197a9ee0c31fe6aea4d35",
}


@pytest.mark.parametrize("fld,what", sorted(DIGESTS))
def test_payload_digest(capsys, fld, what):
    code = main(["--field", fld, "--format", "json", *ARGVS[what]])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[fld, what]
