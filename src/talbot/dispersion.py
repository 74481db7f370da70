"""Dispersion relations on the torus and loss-free phase reduction.

A linear dispersive evolution on [0, 2*pi) acts on Fourier modes by
e^(i*t*omega(n)).  Everything in this module works in *turns*: with
theta = t / (2*pi) and xi = x / (2*pi), the phase of mode n is

    e(theta*omega(n) + n*xi),        e(y) := exp(2*pi*i*y),

so only the fractional part of theta*omega(n) + n*xi matters.  The time
part theta*omega(n) mod 1 is reduced in one place, ``theta_omega_frac_array``,
by one of three paths chosen from the kinds of theta and omega (the position
part n*xi is the same reduction with omega = ``LINEAR``):

* rational theta = a/q, integer omega: the exact residue (a*omega(n) mod q)/q,
  in int64 for polynomials with q < 2^31, in Python integers otherwise;
* 192-bit fixed-point theta, integer omega: the exact product of the
  mantissa with omega(n), reduced mod 1;
* any theta, non-integer omega: omega(n) in fixed point to one ulp, times
  the fixed-point theta, floored to one more ulp.

Only the final conversion to double rounds, so phases are trustworthy for
|omega(n)| far beyond anything double precision could reduce mod 2*pi.

Supported relations (spec strings in parentheses):

* integer polynomials        ("poly:c_d,...,c_1,c_0", descending powers)
* fractional powers |n|^a    ("frac:alpha", alpha a positive rational)
* sqrt(n^2 + n^4)            ("boussinesq")
* n|n|                       ("bo")
* sqrt(n tanh n)             ("gravity")
* sqrt((n + n^3) tanh n)     ("gravcap")
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

import numpy as np

from .fixedpoint import FRAC_BITS, ONE, FixedReal, e_fraction, golden_ratio, iroot, sqrt2, two_pi

Turns = Union[Fraction, FixedReal]


# ---------------------------------------------------------------------------
# Time points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimePoint:
    """A time t, stored as theta = t/(2*pi).

    Rational theta = a/q (exact Fraction) is the quantisation regime; any
    other theta is carried as a 192-bit fixed-point real.  ``label`` is a
    short provenance string echoed into run manifests.
    """

    theta: Turns
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.theta, (Fraction, FixedReal)):
            raise TypeError("TimePoint.theta must be Fraction or FixedReal")

    @classmethod
    def rational(cls, a: int, q: int, label: str = "") -> "TimePoint":
        if q <= 0:
            raise ValueError("rational time needs q >= 1")
        fr = Fraction(a, q)
        return cls(fr, label or f"rat:{fr.numerator}/{fr.denominator}")

    @classmethod
    def from_theta(cls, x, label: str = "") -> "TimePoint":
        if isinstance(x, TimePoint):
            return x
        if isinstance(x, Fraction):
            return cls(x, label)
        if isinstance(x, int):
            return cls(Fraction(x), label)
        if isinstance(x, FixedReal):
            return cls(x, label)
        if isinstance(x, float):
            return cls(FixedReal.from_float(x), label)
        raise TypeError(f"cannot build TimePoint from {type(x).__name__}")

    @classmethod
    def from_time(cls, t: float) -> "TimePoint":
        """Exact dyadic t divided by 2*pi in fixed point."""
        return cls(FixedReal.from_float(t) / two_pi(), f"t={t!r}")

    @property
    def is_rational(self) -> bool:
        return isinstance(self.theta, Fraction)

    @property
    def theta_float(self) -> float:
        return float(self.theta)

    @property
    def t(self) -> float:
        return 2.0 * math.pi * self.theta_float

    def describe(self) -> str:
        if self.label:
            return self.label
        if self.is_rational:
            return f"rat:{self.theta.numerator}/{self.theta.denominator}"
        return f"theta~{self.theta_float:.12g}"


_KL_NAMES = ("sqrt2", "phi", "e")


def kl_theta(name: str) -> TimePoint:
    """Reference theta values of Khinchin-Levy type (sqrt2, phi, e)."""
    if name == "sqrt2":
        return TimePoint(sqrt2(), "kl:sqrt2")
    if name == "phi":
        return TimePoint(golden_ratio(), "kl:phi")
    if name == "e":
        return TimePoint(FixedReal.from_fraction(e_fraction()), "kl:e")
    raise ValueError(f"unknown reference constant {name!r}; choose from {_KL_NAMES}")


def seeded_theta(seed: int) -> TimePoint:
    """A reproducible uniform draw from [0, 1) at full fixed-point width.

    Uses ``random.Random(seed).getrandbits`` so the value is identical on
    every platform and does not depend on float rounding.
    """
    bits = random.Random(seed).getrandbits(FRAC_BITS)
    return TimePoint(FixedReal(bits), f"rand:{seed}")


def parse_theta(spec: str) -> TimePoint:
    """Parse a theta specification.

    Grammar: ``rat:a/q`` | ``kl:sqrt2|phi|e`` | ``rand:<seed>`` | a decimal
    or fraction literal (parsed exactly, hence rational).
    """
    if spec.startswith("kl:"):
        return kl_theta(spec[3:])
    if spec.startswith("rand:"):
        return seeded_theta(int(spec[5:]))
    rational = spec.startswith("rat:")
    try:
        fr = Fraction(spec[4:] if rational else spec)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse theta spec {spec!r}") from exc
    if rational:
        return TimePoint.rational(fr.numerator, fr.denominator)
    return TimePoint(fr, spec)


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------


class DispersionRelation:
    """Base class: omega as an exact integer and in wide fixed point."""

    spec: str = ""
    integer_valued: bool = False
    degree: int | None = None

    def omega_int(self, n: int) -> int:
        raise TypeError(f"{self.spec or type(self).__name__} is not integer-valued")

    def omega_fixed(self, n: int) -> FixedReal:
        return FixedReal.from_int(self.omega_int(n))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, DispersionRelation) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)


class IntPolynomial(DispersionRelation):
    """omega(n) = c_d n^d + ... + c_1 n + c_0 with integer coefficients.

    Evaluation uses Python integers throughout, so there is no width limit
    and no rounding at any |n|.
    """

    integer_valued = True

    def __init__(self, coeffs: Sequence[int]):
        cs = [int(c) for c in coeffs]
        if not cs or all(c == 0 for c in cs[:-1]):
            raise ValueError("polynomial dispersion needs degree >= 1")
        while cs and cs[0] == 0:
            cs.pop(0)
        if len(cs) < 2:
            raise ValueError("polynomial dispersion needs degree >= 1")
        self.coeffs = tuple(cs)
        self.degree = len(cs) - 1
        self.spec = "poly:" + ",".join(str(c) for c in self.coeffs)

    def omega_int(self, n: int) -> int:
        acc = 0
        for c in self.coeffs:
            acc = acc * n + c
        return acc


class FractionalPower(DispersionRelation):
    """omega(n) = |n|^alpha for a positive rational alpha = p/q.

    |n|^(p/q) is computed as the exact floor q-th root of |n|^p scaled into
    fixed point, so the only error is one ulp of FixedReal.
    """

    def __init__(self, alpha):
        a = Fraction(alpha)
        if a <= 0:
            raise ValueError("fractional power needs alpha > 0")
        self.alpha = a
        self.integer_valued = a.denominator == 1
        self.spec = f"frac:{a.numerator}" if a.denominator == 1 else f"frac:{a.numerator}/{a.denominator}"

    def omega_int(self, n: int) -> int:
        if not self.integer_valued:
            return super().omega_int(n)
        return abs(n) ** self.alpha.numerator

    def omega_fixed(self, n: int) -> FixedReal:
        p, q = self.alpha.numerator, self.alpha.denominator
        return FixedReal(iroot(abs(n) ** p << (q * FRAC_BITS), q))


def _sqrt_fraction_fixed(fr: Fraction) -> FixedReal:
    """Floor sqrt of a nonnegative rational, in fixed point (<= 1 ulp off)."""
    if fr < 0:
        raise ValueError("negative radicand")
    num, den = fr.numerator, fr.denominator
    return FixedReal(math.isqrt((num << (2 * FRAC_BITS)) // den))


#: Above this |n|, tanh(n) is 1 to below fixed-point resolution:
#: 1 - tanh(70) = 2e^(-140)(1 + o(1)) < 2^-201 < 2^-FRAC_BITS.
_TANH_SATURATION = 70


@lru_cache(maxsize=None)
def _tanh_fraction(n: int) -> Fraction:
    """tanh(n) for integer n >= 0 as an exact-to-2^-320 rational."""
    if n == 0:
        return Fraction(0)
    if n >= _TANH_SATURATION:
        return Fraction(1)
    e2n = e_fraction() ** (2 * n)
    t = (e2n - 1) / (e2n + 1)
    # Trim the astronomically large exact denominator; 320 bits is far more
    # than the 192 carried downstream.
    scale = 1 << 320
    return Fraction(round(t * scale), scale)


class Boussinesq(DispersionRelation):
    """omega(n) = sqrt(n^2 + n^4)."""

    spec = "boussinesq"

    def omega_fixed(self, n: int) -> FixedReal:
        r = n * n + n**4
        return FixedReal(math.isqrt(r << (2 * FRAC_BITS)))


class BenjaminOno(DispersionRelation):
    """omega(n) = n|n| (integer-valued, odd in n)."""

    spec = "bo"
    integer_valued = True

    def omega_int(self, n: int) -> int:
        return n * abs(n)


class Gravity(DispersionRelation):
    """omega(n) = sqrt(n tanh n); even in n, asymptotically |n|^(1/2)."""

    spec = "gravity"

    def omega_fixed(self, n: int) -> FixedReal:
        m = abs(n)
        return _sqrt_fraction_fixed(m * _tanh_fraction(m))


class GravityCapillary(DispersionRelation):
    """omega(n) = sqrt((n + n^3) tanh n); even in n, |n|^(3/2) + O(1)."""

    spec = "gravcap"

    def omega_fixed(self, n: int) -> FixedReal:
        m = abs(n)
        return _sqrt_fraction_fixed((m + m**3) * _tanh_fraction(m))


SCHRODINGER = "poly:-1,0,0"
AIRY = "poly:1,0,0,0"

#: omega(n) = n: ``theta_omega_frac_array(LINEAR, x, ns)`` reduces the
#: position phases x*n by the same exact residue arithmetic.
LINEAR = IntPolynomial((1, 0))


def parse_relation(spec: str) -> DispersionRelation:
    """Parse a relation specification string (see module docstring)."""
    if spec.startswith("poly:"):
        parts = spec[5:].split(",")
        try:
            coeffs = [int(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"bad polynomial coefficients in {spec!r}") from exc
        return IntPolynomial(coeffs)
    if spec.startswith("frac:"):
        try:
            alpha = Fraction(spec[5:])
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad exponent in {spec!r}") from exc
        return FractionalPower(alpha)
    fixed = {
        "boussinesq": Boussinesq,
        "bo": BenjaminOno,
        "gravity": Gravity,
        "gravcap": GravityCapillary,
    }
    if spec in fixed:
        return fixed[spec]()
    raise ValueError(f"unknown dispersion relation {spec!r}")


# ---------------------------------------------------------------------------
# Phase reduction
# ---------------------------------------------------------------------------


def theta_omega_frac_array(rel: DispersionRelation, theta: Turns, ns: Iterable[int]) -> np.ndarray:
    """frac(theta * omega(n)) for each n, as float64 turns in [0, 1].

    The reduction itself is exact (or one fixed-point ulp for non-integer
    omega); only the final conversion to double rounds, which takes a
    fraction within 2^-54 of 1 to 1.0.
    """
    ns_list = [int(v) for v in ns]
    out = np.empty(len(ns_list), dtype=np.float64)

    if not ns_list:
        return out

    if isinstance(theta, Fraction) and rel.integer_valued:
        a, q = theta.numerator, theta.denominator
        n_mag = max(abs(ns_list[0]), abs(min(ns_list)), abs(max(ns_list)))
        if isinstance(rel, IntPolynomial) and q < (1 << 31) and n_mag < (1 << 62):
            arr = np.asarray(ns_list, dtype=np.int64)
            nm = arr % q
            acc = np.full(arr.shape, (a * rel.coeffs[0]) % q, dtype=np.int64)
            for c in rel.coeffs[1:]:
                acc = (acc * nm + (a * c) % q) % q
            return acc / float(q)
        for i, n in enumerate(ns_list):
            out[i] = ((a * rel.omega_int(n)) % q) / q
        return out

    tm = FixedReal.convert(theta).m
    if rel.integer_valued:
        for i, n in enumerate(ns_list):
            out[i] = ((tm * rel.omega_int(n)) % ONE) / ONE
        return out
    for i, n in enumerate(ns_list):
        w = rel.omega_fixed(n).m
        out[i] = (((w * tm) >> FRAC_BITS) % ONE) / ONE
    return out


def oblique_frequencies(rel: DispersionRelation, k: int, ell: int, ns: Iterable[int]) -> list[int]:
    """h(n) = ell*n - k*omega(n), the integer frequency of mode n along an
    oblique line (x, t) = (ell*z, c - k*z) with integer slope k/ell."""
    if not rel.integer_valued:
        raise ValueError("oblique lines need an integer-valued dispersion relation")
    return [ell * n - k * rel.omega_int(n) for n in ns]
