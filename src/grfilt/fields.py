"""Coefficient fields: exact rationals (default) and prime fields.

An element of Q is a Python rational in lowest form (see lowest): an
int when integral, else a Fraction with denominator > 1, so integral
data runs on int arithmetic.  An element of F_p is a plain int in [0,
p).  A field hands out zero, one and of(n), which refuses a float and
over F_p maps a/b to a * b^-1 mod p (a ValueError when p divides b), and
carries p, its characteristic: None over Q, so code that reduces mod p
branches on p alone.  text(c) spells an element for payloads and reprs,
str(c) over Q and "v~p" over F_p; parse(s) reads back exactly the
strings text writes and raises on any other input.
"""

from fractions import Fraction


def lowest(x):
    """The int or Fraction x in lowest form: an int when integral."""
    return x.numerator if x.denominator == 1 else x


def _exact(n):
    if isinstance(n, float):
        raise TypeError(f"{n!r} is a float, not an exact scalar")
    return n


class RationalField:
    name = "Q"
    p = None
    zero = 0
    one = 1

    def of(self, n):
        return lowest(Fraction(_exact(n)))

    def text(self, c):
        return str(c)

    def parse(self, s):
        c = Fraction(s)
        if str(c) != s:
            raise ValueError(f"{s!r} is not the text of an element of Q")
        return lowest(c)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("grfilt.QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalField()


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
        self.zero = 0
        self.one = 1

    def of(self, n):
        if isinstance(_exact(n), Fraction):
            return n.numerator * pow(n.denominator, -1, self.p) % self.p
        return n % self.p

    def text(self, c):
        return f"{c}~{self.p}"

    def parse(self, s):
        c = int(s.split("~")[0]) % self.p
        if self.text(c) != s:
            raise ValueError(f"{s!r} is not the text of an element of "
                             f"{self.name}")
        return c

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("grfilt.Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def field_from_name(name):
    """The field whose name is name: "Q", or "Fp:<p>" with p spelled in
    canonical decimal (ASCII digits, no sign, space or leading zero)."""
    if name == "Q":
        return QQ
    p = name[3:]
    if name.startswith("Fp:") and p.isascii() and p.isdigit() \
            and p == str(int(p)):
        return PrimeField(int(p))
    raise ValueError(f"unknown field {name!r} (expected Q or Fp:<p>)")
