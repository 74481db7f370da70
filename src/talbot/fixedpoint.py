"""Wide fixed-point arithmetic for loss-free oscillatory phases.

Evaluating e^(i(t*omega(n) + n*x)) at desk scales means reducing products
t*omega(n) of size up to ~1e30 modulo 2*pi while keeping ~12 correct digits
of the remainder.  Double precision retains nothing at that magnitude, so
all phase arithmetic here runs on Python integers: a real is stored as
``mantissa / 2**FRAC_BITS`` and products with exact integers are error-free.
The fractional part of theta*omega(n) is therefore exact whenever omega(n)
is an integer, and off by a single ulp (2**-FRAC_BITS) when omega(n) itself
comes out of an integer root.

The module also provides exact integer k-th roots and the handful of
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


def iroot(x: int, k: int) -> int:
    """Floor of the k-th root of a nonnegative integer, exactly.

    Newton iteration on integers; the loop is monotone decreasing once it
    overshoots, so the usual two-line convergence test applies.
    """
    if x < 0:
        raise ValueError("iroot requires a nonnegative argument")
    if k < 1:
        raise ValueError("iroot requires k >= 1")
    if k == 1 or x in (0, 1):
        return x
    if k == 2:
        return math.isqrt(x)
    # Initial guess: 2**ceil(bits/k) >= x**(1/k).
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > x:
        r -= 1
    return r


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

    def floor(self) -> int:
        return self.m >> FRAC_BITS

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
