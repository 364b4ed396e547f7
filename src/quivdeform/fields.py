"""Exact ground fields: the rationals or a prime field F_p.

Scalars are plain values, not wrapped: over Q an int while it is an
integer and a Fraction otherwise (the two mix exactly, and compare, hash
and print alike), in F_p an int in [0, p).  All arithmetic goes through a
Field instance so the rest of the library never branches on the characteristic.
"""

from .errors import InputError


# Miller-Rabin with the first 13 primes as bases is exact below this bound,
# the least strong pseudoprime to all of them (Sorenson and Webster, 2017);
# larger characteristics are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < _MR_BOUND."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(n, d):
    """The rational n/d of two ints: an int when d divides n, a Fraction
    otherwise.  fractions is imported here, at the first scalar that is
    not an integer, since its import (decimal and numbers with it) costs
    more than the package itself and many runs never make such a scalar."""
    if n % d == 0:
        return n // d
    from fractions import Fraction
    return Fraction(n, d)


class Field:
    """ℚ (characteristic 0) or F_p (characteristic p prime)."""

    def __init__(self, characteristic=0):
        if characteristic >= _MR_BOUND:
            raise InputError("characteristic %d is too large: primes are only "
                             "recognised below %d" % (characteristic, _MR_BOUND))
        if characteristic != 0 and not _is_prime(characteristic):
            raise InputError("characteristic must be 0 or a prime, got %r" % (characteristic,))
        self.char = characteristic
        self.zero = 0
        self.one = 1

    @classmethod
    def rationals(cls):
        return cls(0)

    @classmethod
    def prime(cls, p):
        if p == 0:
            raise InputError("prime field needs a prime, got 0")
        return cls(p)

    @property
    def kind(self):
        return "rationals" if self.char == 0 else "prime"

    def __repr__(self):
        return "Q" if self.char == 0 else "F_%d" % self.char

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def from_int(self, n):
        if self.char == 0:
            return n
        return n % self.char

    def add(self, a, b):
        if self.char == 0:
            return a + b
        return (a + b) % self.char

    def sub(self, a, b):
        if self.char == 0:
            return a - b
        return (a - b) % self.char

    def mul(self, a, b):
        if self.char == 0:
            return a * b
        return (a * b) % self.char

    def neg(self, a):
        if self.char == 0:
            return -a
        return (-a) % self.char

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverting zero in %r" % self)
        if self.char == 0:
            # 1/a, for an int a as for a Fraction
            return _rational(a.denominator, a.numerator)
        # Fermat: a^(p-2) is the inverse mod p
        return pow(a, self.char - 2, self.char)

    def parse(self, token):
        """Parse `[-]digits` or `[-]digits/digits` into a scalar."""
        token = token.strip()
        num, slash, den = token.partition("/")
        try:
            numerator = int(num)
        except ValueError:
            raise InputError("malformed scalar %r" % token)
        if not slash:
            return self.from_int(numerator)
        try:
            denominator = int(den)
        except ValueError:
            raise InputError("malformed scalar %r" % token)
        if denominator == 0:
            raise InputError("zero denominator in %r" % token)
        if self.char == 0:
            return _rational(numerator, denominator)
        if denominator % self.char == 0:
            raise InputError("denominator of %r is divisible by %d" % (token, self.char))
        return self.mul(self.from_int(numerator), self.inv(self.from_int(denominator)))

    def to_str(self, a):
        return str(a)
