"""Wide fixed-point arithmetic for loss-free oscillatory phases.

Evaluating e^(i(t*omega(n) + n*x)) at desk scales means reducing products
t*omega(n) of size up to ~1e30 modulo 2*pi while keeping ~12 correct digits
of the remainder.  Double precision retains nothing at that magnitude, so
all phase arithmetic here runs on Python integers: a real is stored as
``mantissa / 2**FRAC_BITS`` and products with exact integers are error-free.
The fractional part of theta*omega(n) is therefore exact whenever omega(n)
is an integer, and off by a single ulp (2**-FRAC_BITS) when omega(n) itself
comes out of an integer root.

The module also provides exact integer k-th roots, Dekker's error-free
double operations for the vectorised phase kernel, and the handful of
constants (sqrt(2), the golden ratio, e, pi) that the rest of the library
uses as quadratic-irrational / Diophantine reference values.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

#: Number of fractional bits carried by FixedReal.  192 bits keeps phase
#: reductions exact far beyond the 2**-40 budget the library promises, and
#: leaves room for continued-fraction digits of values near the 2**-80
#: rational-detection cutoff.
FRAC_BITS = 192

#: The fixed-point representation of 1.
ONE = 1 << FRAC_BITS

RealLike = Union[int, float, Fraction, "FixedReal"]

#: Bits of x kept for iroot's float seed; 2^_SEED_BITS is a finite double.
_SEED_BITS = 1000


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, exactly.

    k = 2 is ``math.isqrt``.  For k >= 3, integer Newton
    r -> floor(((k - 1)*r + floor(x / r^(k-1))) / k) runs from a seed above
    the root.  The nested floors equal the floor of the real Newton step,
    which by AM-GM never falls below x^(1/k) and lies strictly below r while
    r > x^(1/k).  So from any seed r > x^(1/k) the iterates fall
    monotonically to floor(x^(1/k)) and never below it: the first iterate
    with r^k <= x is the root, and no step is spent confirming it.

    The seed is a float estimate: with s a multiple of k chosen so that
    y = x >> s fits a double, x < (y + 1) * 2^s gives
    x^(1/k) < (y^(1/k) + 1) * 2^(s/k), and the float y^(1/k), enlarged by
    2^-32 of itself (far above its rounding error) plus 2, bounds that from
    above.  From its ~32 correct bits Newton doubles the correct bits each
    step (a 215-bit root takes three), with no linear first phase as from a
    2^ceil(bits/k) guess.
    """
    if x < 0:
        raise ValueError("iroot requires a nonnegative argument")
    if k < 1:
        raise ValueError("iroot requires k >= 1")
    if k == 1 or x in (0, 1):
        return x
    if k == 2:
        return math.isqrt(x)
    s = -(-max(x.bit_length() - _SEED_BITS, 0) // k) * k
    est = float(x >> s) ** (1.0 / k)
    r = (int(est + est * 2.0**-32) + 2) << (s // k)
    p = r ** (k - 1)
    while True:
        r = ((k - 1) * r + x // p) // k
        p = r ** (k - 1)
        if p * r <= x:
            return r


# -- error-free double arithmetic (Dekker 1971) ------------------------------
# Each pair holds its exact result as hi + lo; floats or numpy arrays, every
# operation rounding once to nearest, so no FMA is needed.

def _two_sum(a, b):
    """s + e = a + b exactly, s = fl(a + b) (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):
    """s + e = a + b exactly, for |a| >= |b| or a = 0."""
    s = a + b
    return s, b - (s - a)


def _two_product(a, b):
    """p + e = a * b exactly, p = fl(a * b), for |a|, |b| < 2^995; Veltkamp's
    constant 2^27 + 1 splits each factor into two 26-bit halves."""
    p = a * b
    ca, cb = 134217729.0 * a, 134217729.0 * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class FixedReal:
    """A signed real with FRAC_BITS fractional bits, value = m / 2**FRAC_BITS.

    Construction from int/float/Fraction is exact for ints and floats (a
    float is a dyadic rational well inside the precision) and rounds to
    nearest for general fractions.  Multiplication by an exact integer is
    error-free; multiplication of two FixedReals floors to one ulp.
    """

    __slots__ = ("m",)

    def __init__(self, mantissa: int):
        self.m = mantissa

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "FixedReal":
        return cls(n << FRAC_BITS)

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "FixedReal":
        return cls(round(fr * ONE))

    @classmethod
    def from_float(cls, x: float) -> "FixedReal":
        if math.isnan(x) or math.isinf(x):
            raise ValueError("cannot represent non-finite float")
        return cls.from_fraction(Fraction(x))

    @classmethod
    def convert(cls, x: RealLike) -> "FixedReal":
        if isinstance(x, FixedReal):
            return x
        if isinstance(x, int):
            return cls.from_int(x)
        if isinstance(x, Fraction):
            return cls.from_fraction(x)
        if isinstance(x, float):
            return cls.from_float(x)
        raise TypeError(f"cannot convert {type(x).__name__} to FixedReal")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: RealLike) -> "FixedReal":
        return FixedReal(self.m + FixedReal.convert(other).m)

    __radd__ = __add__

    def __sub__(self, other: RealLike) -> "FixedReal":
        return FixedReal(self.m - FixedReal.convert(other).m)

    def __rsub__(self, other: RealLike) -> "FixedReal":
        return FixedReal(FixedReal.convert(other).m - self.m)

    def __neg__(self) -> "FixedReal":
        return FixedReal(-self.m)

    def __abs__(self) -> "FixedReal":
        return FixedReal(abs(self.m))

    def __mul__(self, other: RealLike) -> "FixedReal":
        if isinstance(other, int):
            return FixedReal(self.m * other)  # exact
        return FixedReal((self.m * FixedReal.convert(other).m) >> FRAC_BITS)

    __rmul__ = __mul__

    def __truediv__(self, other: RealLike) -> "FixedReal":
        if isinstance(other, int):
            return FixedReal(self.m // other)
        om = FixedReal.convert(other).m
        if om == 0:
            raise ZeroDivisionError("FixedReal division by zero")
        return FixedReal((self.m << FRAC_BITS) // om)

    def __rtruediv__(self, other: RealLike) -> "FixedReal":
        return FixedReal.convert(other) / self

    def __pow__(self, k: int) -> "FixedReal":
        if not isinstance(k, int) or k < 0:
            raise ValueError("FixedReal powers take nonnegative integer exponents")
        out = FixedReal(ONE)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sqrt(self) -> "FixedReal":
        if self.m < 0:
            raise ValueError("sqrt of negative FixedReal")
        return FixedReal(math.isqrt(self.m << FRAC_BITS))

    def root(self, k: int) -> "FixedReal":
        """Floor k-th root (k >= 1)."""
        if self.m < 0:
            raise ValueError("root of negative FixedReal")
        return FixedReal(iroot(self.m << ((k - 1) * FRAC_BITS), k))

    # -- structure ---------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.m, ONE)

    def __float__(self) -> float:
        return self.m / ONE

    # -- comparisons -------------------------------------------------------

    def _cmp_key(self, other: RealLike) -> int:
        return FixedReal.convert(other).m

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (FixedReal, int, float, Fraction)):
            return self.m == self._cmp_key(other)
        return NotImplemented

    def __lt__(self, other: RealLike) -> bool:
        return self.m < self._cmp_key(other)

    def __le__(self, other: RealLike) -> bool:
        return self.m <= self._cmp_key(other)

    def __gt__(self, other: RealLike) -> bool:
        return self.m > self._cmp_key(other)

    def __ge__(self, other: RealLike) -> bool:
        return self.m >= self._cmp_key(other)

    def __hash__(self) -> int:
        return hash(("FixedReal", self.m))

    def __repr__(self) -> str:
        return f"FixedReal({float(self):.15g})"


# -- constants ---------------------------------------------------------------

_GUARD = 32


@lru_cache(maxsize=None)
def sqrt2() -> FixedReal:
    return FixedReal.from_int(2).sqrt()


@lru_cache(maxsize=None)
def golden_ratio() -> FixedReal:
    return FixedReal((ONE + math.isqrt(5 << (2 * FRAC_BITS))) >> 1)


@lru_cache(maxsize=None)
def e_fraction() -> Fraction:
    """Rational approximation of e with error below 2**-(2*FRAC_BITS)."""
    total = Fraction(0)
    term = Fraction(1)
    k = 0
    bound = Fraction(1, 1 << (2 * FRAC_BITS + 8))
    while term > bound:
        total += term
        k += 1
        term /= k
    return total


def _atan_inv(x: int, bits: int) -> int:
    """arctan(1/x) scaled by 2**bits, alternating integer series."""
    scale = 1 << bits
    term = scale // x
    total = 0
    k = 0
    x2 = x * x
    while term:
        total += term // (2 * k + 1) if k % 2 == 0 else -(term // (2 * k + 1))
        term //= x2
        k += 1
    return total


@lru_cache(maxsize=None)
def pi() -> FixedReal:
    bits = FRAC_BITS + _GUARD
    # Machin: pi = 16*arctan(1/5) - 4*arctan(1/239).
    m = 16 * _atan_inv(5, bits) - 4 * _atan_inv(239, bits)
    return FixedReal((m + (1 << (_GUARD - 1))) >> _GUARD)


@lru_cache(maxsize=None)
def two_pi() -> FixedReal:
    return FixedReal(pi().m * 2)
