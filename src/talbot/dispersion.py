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
  in int64 wherever omega fits (``oblique_frequencies``) and q < 2^31, in
  Python integers otherwise;
* 192-bit fixed-point theta, integer omega: the exact product of the
  mantissa with omega(n), reduced mod 1;
* any theta, non-integer omega: the mantissa floor(omega(n) * 2^FRAC_BITS)
  from one exact integer root per mode (``omega_mantissa``), times the
  fixed-point theta, floored to one more ulp.

Every non-integer omega here is the root of a rational radicand R(n), so
its mantissa is the floor q-th root of R(n) * 2^(q*FRAC_BITS).  For
|n|^(p/q), boussinesq, and the water waves once tanh(|n|) is 1 to below one
ulp (|n| >= 70), that radicand is an integer and the root is a single
``isqrt`` or ``iroot``; only gravity and gravcap at |n| < 70 go through an
exact ``Fraction`` of tanh.

Both fixed-point paths are the oracle of a double-double numpy kernel
that runs first; a mode takes the big-integer path only where Ziv's
rounding test cannot prove the kernel's double equal to its result, or
where the kernel's error bound is not proven (``_phase_block``).

Only the final conversion to double rounds, so phases are trustworthy for
|omega(n)| far beyond anything double precision could reduce mod 2*pi.

Modes, integer omega(n) and the frequencies ell*n - k*omega(n) along a line
are numpy arrays: int64 where ``_fits_int64`` proves every value below 2^62,
object arrays of Python integers otherwise (``oblique_frequencies``).

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
from typing import Sequence, Union

import numpy as np

from .fixedpoint import (FRAC_BITS, ONE, FixedReal, _fast_two_sum, _two_product, _two_sum, e_fraction,
                         golden_ratio, iroot, sqrt2, two_pi)

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
    """Base class: omega as an exact integer and as a fixed-point mantissa."""

    spec: str = ""
    integer_valued: bool = False
    #: For integer-valued omega, the degree d of |omega(n)| <= H |n|^d (H the
    #: sum of |coefficients| of a polynomial, else 1; see ``_fits_int64``).
    degree: int | None = None
    #: (a, q, coeffs, m_min): omega(n) = m^a R(m)^(1/q) for m = |n| >= m_min,
    #: R(m) the polynomial with these descending nonnegative integer
    #: coefficients; for 0 < m < m_min (the water waves) R(m) tanh(m), q = 2.
    _root_form: tuple[int, int, tuple[int, ...], int] | None = None

    def omega_int(self, n):
        """omega(n) for an integer, an int64 array or an object array of
        Python integers; exact, if the caller keeps int64 within range."""
        raise TypeError(f"{self.spec or type(self).__name__} is not integer-valued")

    def omega_mantissa(self, n: int) -> int:
        """floor(omega(n) * 2^FRAC_BITS), the FixedReal mantissa of omega(n):
        floor((m^(aq) R(m))^(1/q) * 2^FRAC_BITS) from ``_root_form``, by one
        exact integer root."""
        if self._root_form is None:
            return self.omega_int(n) << FRAC_BITS
        a, q, coeffs, m_min = self._root_form
        m, r = abs(n), 0
        for c in coeffs:
            r = r * m + c
        if 0 < m < m_min:  # the exact rational R(m) tanh(m) below tanh saturation
            fr = r * _tanh_fraction(m)
            return math.isqrt((fr.numerator << (2 * FRAC_BITS)) // fr.denominator)
        x = m ** (a * q) * r << (q * FRAC_BITS)
        return math.isqrt(x) if q == 2 else iroot(x, q)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, DispersionRelation) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)


class IntPolynomial(DispersionRelation):
    """omega(n) = c_d n^d + ... + c_1 n + c_0 with integer coefficients,
    exact at any |n| in Python integers (``oblique_frequencies`` decides
    when int64 suffices)."""

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

    def omega_int(self, n):
        acc = 0
        for c in self.coeffs:
            acc = acc * n + c
        return acc


class FractionalPower(DispersionRelation):
    """omega(n) = |n|^alpha for a positive rational alpha = p/q.

    |n|^(p/q) is computed as the exact floor q-th root of |n|^p scaled into
    fixed point (``math.isqrt`` for q = 2, ``iroot`` otherwise), so the only
    error is one ulp of FixedReal.
    """

    def __init__(self, alpha):
        a = Fraction(alpha)
        if a <= 0:
            raise ValueError("fractional power needs alpha > 0")
        self.alpha = a
        p, q = a.numerator, a.denominator
        self.integer_valued = q == 1
        self.degree = p if q == 1 else None
        self.spec = f"frac:{p}" if q == 1 else f"frac:{p}/{q}"
        self._root_form = (p // q, q, (1,) + (0,) * (p % q), 1)

    def omega_int(self, n):
        if not self.integer_valued:
            return super().omega_int(n)
        return abs(n) ** self.degree


#: Above this |n|, tanh(n) is 1 to below fixed-point resolution:
#: 1 - tanh(70) = 2e^(-140)(1 + o(1)) < 2^-201 < 2^-FRAC_BITS.
_TANH_SATURATION = 70


@lru_cache(maxsize=None)
def _tanh_fraction(n: int) -> Fraction:
    """tanh(n) for integer 0 <= n < _TANH_SATURATION as an exact-to-2^-320
    rational (from there on the callers take tanh as 1)."""
    if n == 0:
        return Fraction(0)
    e2n = e_fraction() ** (2 * n)
    t = (e2n - 1) / (e2n + 1)
    # Trim the astronomically large exact denominator; 320 bits is far more
    # than the 192 carried downstream.
    scale = 1 << 320
    return Fraction(round(t * scale), scale)


class Boussinesq(DispersionRelation):
    """omega(n) = sqrt(n^2 + n^4)."""

    spec = "boussinesq"
    _root_form = (1, 2, (1, 0, 1), 1)  # m * sqrt(m^2 + 1)


class BenjaminOno(DispersionRelation):
    """omega(n) = n|n| (integer-valued, odd in n)."""

    spec = "bo"
    integer_valued = True
    degree = 2

    def omega_int(self, n):
        return n * abs(n)


class Gravity(DispersionRelation):
    """omega(n) = sqrt(n tanh n); even in n, asymptotically |n|^(1/2)."""

    spec = "gravity"
    _root_form = (0, 2, (1, 0), _TANH_SATURATION)


class GravityCapillary(DispersionRelation):
    """omega(n) = sqrt((n + n^3) tanh n); even in n, |n|^(3/2) + O(1)."""

    spec = "gravcap"
    _root_form = (0, 2, (1, 0, 1, 0), _TANH_SATURATION)


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


#: Modes per block of the fixed-point kernel: each float temporary is 64 KiB.
_BLOCK = 1 << 13


def theta_omega_frac_array(rel: DispersionRelation, theta: Turns,
                           ns: Sequence[int] | np.ndarray) -> np.ndarray:
    """frac(theta * omega(n)) for each n, as float64 turns in [0, 1]: the
    double nearest the big-integer reduction, which is exact (to one 192-bit
    ulp for non-integer omega); a fraction within 2^-54 of 1 gives 1.0.

    Fixed-point theta goes through ``_phase_block`` in blocks of ``_BLOCK``
    modes, and a mode it cannot prove takes ``_exact_phase``, as does every
    mode when |n| >= 2^53 or |theta| >= 2^64 somewhere.
    """
    arr = np.asarray(ns)  # int64, or object (Python integers) past int64
    if arr.size == 0:
        return np.empty(0)
    n_mag = max(-int(arr.min()), int(arr.max()))

    if isinstance(theta, Fraction) and rel.integer_valued:
        a, q = theta.numerator, theta.denominator
        w = oblique_frequencies(rel, -1, 0, arr)
        if q >= 1 << 31:  # (w mod q)(a mod q) < q^2 would pass int64
            w = w.astype(object)
        return np.asarray(w % q * (a % q) % q / q, dtype=np.float64)

    tm = FixedReal.convert(theta).m
    out = np.empty(arr.size)
    fast = n_mag < (1 << 53) and abs(tm) < (ONE << 64)
    t, r = [], tm if fast else 0
    for _ in range(3):  # theta = t1 + t2 + t3 + O(2^-159 t1), each the double nearest the rest
        t.append(r / ONE)
        r -= int(math.ldexp(t[-1], FRAC_BITS))
    for lo in range(0, arr.size, _BLOCK):
        n = arr[lo:lo + _BLOCK]
        ok = np.zeros(n.size, dtype=bool)
        if fast:
            out[lo:lo + n.size], ok = _phase_block(rel, t, np.asarray(n, dtype=np.int64))
        for i in np.flatnonzero(~ok).tolist():
            out[lo + i] = _exact_phase(rel, tm, int(n[i]))
    return out


def _exact_phase(rel: DispersionRelation, tm: int, n: int) -> float:
    """The big-integer reduction V of theta = tm / 2^FRAC_BITS times omega(n)."""
    if rel.integer_valued:
        return ((tm * rel.omega_int(n)) % ONE) / ONE
    return (((rel.omega_mantissa(n) * tm) >> FRAC_BITS) % ONE) / ONE


def _phase_block(rel: DispersionRelation, t: list[float], n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y_hi, ok) for an int64 block of modes, y_hi[ok] == _exact_phase bit for bit.

    theta = t1 + t2 + t3 + O(2^-159 t1); omega(n) = w_hi + w_lo, exact in
    int64 where ``_fits_int64`` proves it fits, else m^a R(m)^(1/q)
    (``_root_form``) by one Newton step s + c from the float root s, with
    R - s^q in double-double.
    TwoProduct splits t1 w_hi, t1 w_lo and t2 w_hi; each part less its
    nearest integer (exact) enters a TwoSum chain; t2 w_lo and t3 w_hi round
    once, t3 w_lo is dropped.  With u = 2^-53 and Theta = |t1 w_hi|, the sum
    y = y_hi + y_lo is within

        eps = 2^-99 + |t1| (2^-150 |w_hi| + m^a (q c^2/s + 2^-49 |c| + 2^-100 s))

    of V mod 1 (the m^a term for root forms only), at least twice the sum of
    4u^3 Theta (products rounded once or dropped), 18u^2 + 24u^3 Theta (adding
    the small terms), u^2 (the wrap into [0, 1)), (q - 1)/2 d^2 r (1 + q 2^-39)
    <= q c^2/s (Newton from s = r(1 + d), |c| <= 2^-40 s), 3u^2 s + 5u|c| (c
    from s^q, the residual and the quotient), 3u^2 |w| (the product by m^a)
    and (1 + |theta|) 2^-192 (the floors in V).  If no rounding boundary of
    y_hi lies within eps of y, y_hi = float(V).  ok is also False off the
    proven range: m < m_min (n = 0, water waves at |n| < 70), R >= 2^99
    (inexact in double-double), m^a >= 2^53, |c| > 2^-40 s, y_hi within 2^-20
    of an integer, and an integer omega beyond int64 (no root form).
    """
    t1, t2, t3 = t
    with np.errstate(all="ignore"):  # modes out of range give inf/nan, which fail ok
        if rel.integer_valued and _fits_int64(rel, -1, 0, n):
            w = oblique_frequencies(rel, -1, 0, n)
            w_hi = w.astype(np.float64)
            w_lo = (w - w_hi.astype(np.int64)).astype(np.float64)
            eps_w, ok = 0.0, True
        elif rel._root_form is not None:
            w_hi, w_lo, eps_w, ok = _root_omega(rel._root_form, np.abs(n).astype(np.float64))
        else:
            return np.zeros(n.size), np.zeros(n.size, dtype=bool)
        p, e = _two_product(t1, w_hi)
        a1, b1 = _two_product(t1, w_lo)
        a2, b2 = _two_product(t2, w_hi)
        s, u1 = _two_sum(p - np.rint(p), e - np.rint(e))
        s, u2 = _two_sum(s, a1 - np.rint(a1))
        s, u3 = _two_sum(s, a2 - np.rint(a2))
        y, y_lo = _two_sum(s - np.rint(s), ((u1 + u2) + (u3 + b1)) + ((b2 + t2 * w_lo) + t3 * w_hi))
        h, e = _two_sum(y, (y < 0).astype(np.float64))
        y, y_lo = _two_sum(h, e + y_lo)
        eps = 2.0**-99 + abs(t1) * (2.0**-150 * np.abs(w_hi) + eps_w)
        ok = (ok & (y >= 2.0**-20) & (y <= 1.0 - 2.0**-20)
              & (y_lo + eps < 0.5 * np.spacing(y)) & (eps - y_lo < 0.5 * (y - np.nextafter(y, 0.0))))
    return y, ok


def _root_omega(form: tuple[int, int, tuple[int, ...], int], m: np.ndarray):
    """(w_hi, w_lo, eps_w, ok) for omega = m^a R(m)^(1/q): see ``_phase_block``."""
    a, q, coeffs, m_min = form
    rh, rl = np.full(m.shape, float(coeffs[0])), 0.0  # R(m): every part an integer, exact below 2^100
    for c in coeffs[1:]:
        p, e = _two_product(rh, m)
        rh, rl = _fast_two_sum(p, e + rl * m)
        if c:
            p, e = _two_sum(rh, float(c))
            rh, rl = _fast_two_sum(p, e + rl)
    s = np.sqrt(rh) if q == 2 else rh ** (1.0 / q)
    ph, pl = s, 0.0  # s^q
    for _ in range(q - 1):
        p, e = _two_product(ph, s)
        ph, pl = _fast_two_sum(p, e + pl * s)
    c = ((rh - ph) + (rl - pl)) * s / (q * ph)
    w_hi, w_lo = _fast_two_sum(s, c)
    ma = m**a
    if a:
        p, e = _two_product(w_hi, ma)
        w_hi, w_lo = _fast_two_sum(p, e + w_lo * ma)
    eps_w = ma * (q * c * c / s + 2.0**-49 * np.abs(c) + 2.0**-100 * s)
    return w_hi, w_lo, eps_w, (m >= m_min) & (rh < 2.0**99) & (ma < 2.0**53) & (np.abs(c) <= 2.0**-40 * s)


def _fits_int64(rel: DispersionRelation, k: int, ell: int, n: np.ndarray) -> bool:
    """Whether ell*n - k*omega(n), and every partial result on the way, is
    proven below 2^62 in magnitude for each of the int64 modes n: with
    |omega(n)| <= H |n|^d (``DispersionRelation.degree``), the bound is
    |k| H n_mag^d + |ell| n_mag."""
    if n.dtype != np.int64:
        return False
    n_mag = max(-int(n.min()), int(n.max()), 1) if n.size else 1
    height = sum(map(abs, rel.coeffs)) if isinstance(rel, IntPolynomial) else 1
    return abs(k) * height * n_mag**rel.degree + abs(ell) * n_mag < (1 << 62)


def oblique_frequencies(rel: DispersionRelation, k: int, ell: int,
                        ns: Sequence[int] | np.ndarray) -> np.ndarray:
    """h(n) = ell*n - k*omega(n), the integer frequency of mode n along an
    oblique line (x, t) = (ell*z, c - k*z) with integer slope k/ell, or along
    a vertical line for (k, ell) = (-1, 0): int64 where ``_fits_int64``
    proves every value below 2^62, else an object array of Python integers."""
    if not rel.integer_valued:
        raise ValueError("oblique and vertical lines need an integer-valued dispersion relation")
    n = np.asarray(ns)
    if not _fits_int64(rel, k, ell, n):
        n = n.astype(object)
    return ell * n - k * rel.omega_int(n)
