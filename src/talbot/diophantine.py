"""Continued fractions, rational approximation and Gauss sums of time points.

The qualitative behaviour of a dispersive evolution at time t = 2*pi*theta
is governed by how well theta is approximated by rationals: rational theta
produces quantised (step-function) profiles, while theta whose continued
fraction denominators grow at most polynomially (the Khinchin-Levy
condition q_{n+1} <= q_n^{1+eps}, true for almost every real) produces the
fractal profiles the estimators in this library measure.

Continued fractions are computed with exact integer arithmetic on the
stored value.  A float or FixedReal input is a dyadic rational carrying
finite information, so the expansion is truncated honestly: digits are
reported only while the convergent denominators stay small enough that a
one-ulp perturbation of the input cannot change them, and a remainder
below 2**-80 is classified as a rational hit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

import numpy as np

from .fixedpoint import FRAC_BITS, FixedReal
from .dispersion import IntPolynomial, TimePoint, theta_omega_frac_array

RealLike = Union[int, float, Fraction, FixedReal]

#: CF remainders below this are treated as exact rational hits.
RATIONAL_CUTOFF = Fraction(1, 1 << 80)

#: Convergent denominators above 2**((FRAC_BITS-16)/2) are no longer
#: trustworthy for a value known to one ulp; expansion stops there.
_TRUST_DENOM = 1 << ((FRAC_BITS - 16) // 2)


def _as_exact(x: RealLike) -> tuple[Fraction, bool]:
    """The stored value as an exact Fraction, plus whether it is finite-
    precision (so CF digits must be truncated at the trust horizon)."""
    if isinstance(x, TimePoint):
        x = x.theta
    if isinstance(x, Fraction):
        return x, False
    if isinstance(x, int):
        return Fraction(x), False
    if isinstance(x, FixedReal):
        return x.as_fraction(), True
    if isinstance(x, float):
        if math.isnan(x) or math.isinf(x):
            raise ValueError("continued fraction of non-finite value")
        return Fraction(x), True
    raise TypeError(f"unsupported numeric type {type(x).__name__}")


@dataclass
class ContinuedFractionExpansion:
    """Partial quotients and convergents of a real number.

    ``terminated`` means the expansion ended with an exactly zero remainder;
    ``rational_cutoff`` means the remainder dropped below 2**-80 (a rational
    hit at working precision); ``exhausted`` means the requested depth was
    not reached because the input's precision ran out first.
    """

    value: Fraction
    partial_quotients: list[int] = field(default_factory=list)
    convergents: list[Fraction] = field(default_factory=list)
    terminated: bool = False
    rational_cutoff: bool = False
    exhausted: bool = False


def continued_fraction(x: RealLike, depth: int = 32) -> ContinuedFractionExpansion:
    """Continued fraction expansion of x to at most ``depth`` quotients.

    Exact Fractions expand exactly (terminating for rationals); float and
    FixedReal inputs stop early at the precision trust horizon, so
    ``partial_quotients`` may hold fewer than ``depth`` terms.
    """
    if not 1 <= depth <= 64:
        raise ValueError("depth must be between 1 and 64")
    value, limited = _as_exact(x)
    exp = ContinuedFractionExpansion(value=value)

    rem = value
    p_prev, q_prev = 0, 1  # index -2
    p_cur, q_cur = 1, 0  # index -1
    while len(exp.partial_quotients) < depth:
        a = rem.numerator // rem.denominator  # floor
        frac_part = rem - a
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        exp.partial_quotients.append(a)
        exp.convergents.append(Fraction(p_cur, q_cur))
        if frac_part == 0:
            exp.terminated = True
            break
        if limited and frac_part < RATIONAL_CUTOFF:
            exp.rational_cutoff = True
            break
        if limited and q_cur > _TRUST_DENOM:
            exp.exhausted = True
            break
        rem = 1 / frac_part
    return exp


def dirichlet_approx(theta: RealLike, Q: int) -> tuple[Fraction, float]:
    """Best-in-class rational approximation from the Dirichlet box principle.

    Returns (a/q, theta - a/q) with q <= Q and |theta - a/q| <= 1/(q*Q),
    taken as the last continued-fraction convergent with denominator <= Q.
    """
    if Q < 1:
        raise ValueError("Q must be >= 1")
    value, _ = _as_exact(theta)
    exp = continued_fraction(theta, depth=64)
    best = exp.convergents[0]
    for conv in exp.convergents:
        if conv.denominator <= Q:
            best = conv
        else:
            break
    return best, float(value - best)


def gauss_coefficient_sum(a: int, q: int, omega) -> complex:
    """The normalising sum sum_{j=0}^{q-1} e(a*omega(j)/q) with exact
    residue phases; omega is an integer polynomial (or coefficient list)."""
    if q < 1:
        raise ValueError("q must be >= 1")
    if math.gcd(a, q) != 1:
        raise ValueError("gauss_coefficient_sum requires gcd(a, q) = 1")
    rel = omega if isinstance(omega, IntPolynomial) else IntPolynomial(list(omega))
    phases = theta_omega_frac_array(rel, Fraction(a, q), np.arange(q))
    return complex(np.sum(np.exp(2j * np.pi * phases)))


def solve_time_for_ctr(c_target: RealLike, r: int) -> FixedReal:
    """Invert c_{t,r} = t^(1-r) (r-1)^(r-1) r^(-r) for t > 0.

    Used to place the curvature constant of the fractional evolution
    |n|^(r/(r-1)) at a prescribed (e.g. quadratic-irrational) value.
    """
    if r < 2:
        raise ValueError("r must be an integer >= 2")
    c = FixedReal.convert(c_target)
    if c <= 0:
        raise ValueError("c_target must be positive")
    num = FixedReal.from_int((r - 1) ** (r - 1))
    ratio = num / (c * (r**r))
    return ratio.root(r - 1)


def ctr_constant(t: RealLike, r: int) -> FixedReal:
    """c_{t,r} = t^(1-r) (r-1)^(r-1) r^(-r); inverse of solve_time_for_ctr."""
    if r < 2:
        raise ValueError("r must be an integer >= 2")
    tf = FixedReal.convert(t)
    if tf <= 0:
        raise ValueError("t must be positive")
    return FixedReal.from_int((r - 1) ** (r - 1)) / (tf ** (r - 1) * (r**r))
