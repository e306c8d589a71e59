"""Coefficient fields: exact rationals (default) and odd prime fields.

Field elements are ordinary objects supporting +, -, *, /, ==, bool; the
field object itself only hands out zero, one, and of(int).  Everything
downstream does exact arithmetic through these operators, so swapping the
field never touches the linear algebra.
"""

from fractions import Fraction


class RationalField:
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, n):
        return Fraction(n)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("grfilt.QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class FpElement:
    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def _check(self, other):
        if not isinstance(other, FpElement) or other.p != self.p:
            raise TypeError("mixed-field arithmetic")
        return other

    def __add__(self, other):
        return FpElement(self.p, self.v + self._check(other).v)

    def __sub__(self, other):
        return FpElement(self.p, self.v - self._check(other).v)

    def __mul__(self, other):
        return FpElement(self.p, self.v * self._check(other).v)

    def __truediv__(self, other):
        o = self._check(other)
        if o.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpElement(self.p, self.v * pow(o.v, self.p - 2, self.p))

    def __neg__(self):
        return FpElement(self.p, -self.v)

    def __eq__(self, other):
        return (isinstance(other, FpElement) and other.p == self.p
                and other.v == self.v)

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return f"{self.v}~{self.p}"


# Miller-Rabin with the thirteen prime bases up to 41 has no strong
# pseudoprime below this bound (Sorenson and Webster, Math. Comp. 86,
# 2017), so the test is exact there; bases up to 37 alone are exact only
# below 3.2e23
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin primality test for n < MR_EXACT_BELOW."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"{n} is too large: primality is decided exactly "
                         f"only below {MR_EXACT_BELOW}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"
        self.zero = FpElement(p, 0)
        self.one = FpElement(p, 1)

    def of(self, n):
        return FpElement(self.p, n)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("grfilt.Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def field_from_name(name):
    """Parse a field choice: "Q" or "Fp:<p>"."""
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        return PrimeField(int(name[3:]))
    raise ValueError(f"unknown field {name!r} (expected Q or Fp:<p>)")
