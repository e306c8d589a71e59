"""Primality of the prime-field characteristic, and field names.

_is_prime is deterministic Miller-Rabin; trial division is the reference
on every n it can reach quickly, and the composites below are the strong
pseudoprimes that fool shorter base lists.
"""

import pytest

from grfilt.cli import main
from grfilt.fields import (MR_EXACT_BELOW, PrimeField, _is_prime,
                           field_from_name)

# the primes the benchmark's fp workload draws from, just below 2^31
FP_PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
             2147483549, 2147483543, 2147483497)


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_matches_trial_division_below_20000():
    assert ([n for n in range(20000) if _is_prime(n)]
            == [n for n in range(20000) if trial_division(n)])


@pytest.mark.parametrize("p", FP_PRIMES)
def test_benchmark_primes(p):
    assert _is_prime(p) and trial_division(p)


@pytest.mark.parametrize("n", [
    561,                            # Carmichael number
    2047,                           # strong pseudoprime to base 2
    3215031751,                     # ... to bases 2, 3, 5, 7
    3825123056546413051,            # ... to every prime base up to 23
    318665857834031151167461,       # ... to every prime base up to 37
])
def test_strong_pseudoprimes_are_composite(n):
    assert not _is_prime(n)


def test_beyond_the_exact_range_is_refused(capsys):
    with pytest.raises(ValueError, match="too large"):
        PrimeField(MR_EXACT_BELOW + 1)
    assert main(["--field", f"Fp:{MR_EXACT_BELOW + 1}", "hilbert"]) == 3
    assert "too large" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["Fp:1_1", "Fp: 7", "Fp:+7", "Fp:07",
                                  "Fp:\u0667", "Fp:x", "Fp:", "Fp:7 "])
def test_a_field_name_is_exactly_the_name_a_field_carries(name, capsys):
    # int() alone would read the first five as 11 or 7
    with pytest.raises(ValueError, match="unknown field"):
        field_from_name(name)
    assert main(["--field", name, "hilbert"]) == 3
    assert "(expected Q or Fp:<p>)" in capsys.readouterr().err
