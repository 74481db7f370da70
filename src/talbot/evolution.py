"""Truncated dispersive evolutions, slice samplers, and rational-time
quantization.

The evolved field is the symmetric partial sum

    q(t, x) = sum_{|n| <= M} g_hat(n) e^{i t omega(n)} e^{i n x},

sampled along one-dimensional slices of space-time: horizontal (fixed t),
vertical (fixed x), or oblique lines of rational slope.  At rational
theta = t/2pi = a/q with a polynomial integer frequency map, the evolution
collapses to a finite combination of translates of the datum whose
coefficients are complete residue sums; ``quantize_verify`` builds that
combination exactly and compares it against the truncated series away
from the jumps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from ._fftsum import grid_values, is_pow2
from .dispersion import (LINEAR, DispersionRelation, IntPolynomial, TimePoint,
                         oblique_frequencies, parse_relation, parse_theta,
                         theta_omega_frac_array)
from .fixedpoint import FixedReal
from .initial_data import StepFunction, parse_position

MAX_TRUNCATION = 1 << 18
MAX_DIRECT_WORK = 1 << 26
MAX_QUANTIZE_DENOM = 1 << 12
OFF_JUMP_RADIUS = Fraction(1, 64)  # turns; 2*pi/64 in radians
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])


# ---------------------------------------------------------------------------
# slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceSpec:
    """A one-dimensional sample line in space-time.

    horizontal: x in [0, 2pi) at fixed time ``t``.
    vertical:   t/2pi in [t0, t1) at fixed position ``x0`` (turns).
    oblique:    f(x) = q(c - (k/ell) x, x) for x in [0, 2pi ell), i.e. the
                restriction to the rational-slope line through t = c at
                x = 0; gcd(k, ell) = 1.
    """

    kind: str
    t: TimePoint | None = None
    x0: object | None = None
    t0: TimePoint | None = None
    t1: TimePoint | None = None
    c: TimePoint | None = None
    k: int = 1
    ell: int = 1

    def __post_init__(self) -> None:
        if self.kind == "horizontal":
            if self.t is None:
                raise ValueError("horizontal slice needs a time")
        elif self.kind == "vertical":
            if self.x0 is None or self.t0 is None or self.t1 is None:
                raise ValueError("vertical slice needs x0 and a time range")
        elif self.kind == "oblique":
            if self.c is None:
                raise ValueError("oblique slice needs an intercept time c")
            if self.k < 1 or self.ell < 1 or gcd(self.k, self.ell) != 1:
                raise ValueError("oblique slope k/ell needs coprime positive integers")
        else:
            raise ValueError(f"unknown slice kind {self.kind!r}")

    @classmethod
    def horizontal(cls, t) -> "SliceSpec":
        return cls(kind="horizontal", t=TimePoint.from_theta(t))

    @classmethod
    def vertical(cls, x0, t0, t1) -> "SliceSpec":
        return cls(kind="vertical", x0=x0,
                   t0=TimePoint.from_theta(t0), t1=TimePoint.from_theta(t1))

    @classmethod
    def oblique(cls, c, k: int = 1, ell: int = 1) -> "SliceSpec":
        return cls(kind="oblique", c=TimePoint.from_theta(c), k=int(k), ell=int(ell))

    def describe(self) -> str:
        if self.kind == "horizontal":
            return f"horiz:{self.t.describe()}"
        if self.kind == "vertical":
            return f"vert:x0={self.x0}:{self.t0.describe()},{self.t1.describe()}"
        return f"obliq:{self.c.describe()}:{self.k}/{self.ell}"


def parse_slice(spec: str) -> SliceSpec:
    """Grammar: "horiz:<theta>", "vert:<x0>:<t0>,<t1>", "obliq:<c>:<k>/<ell>"
    where <theta>/<t0>/<t1>/<c> follow the turns grammar (rat:a/q, kl:name,
    rand:seed, or a decimal literal) and <x0> is a position (pi-forms or a
    radian literal)."""
    head, _, rest = spec.partition(":")
    if head == "horiz":
        return SliceSpec.horizontal(parse_theta(rest))
    if head == "vert":
        x0_text, _, trange = rest.partition(":")
        lo, _, hi = trange.partition(",")
        if not (x0_text and lo and hi):
            raise ValueError(f"bad vertical slice {spec!r}")
        return SliceSpec.vertical(parse_position(x0_text), parse_theta(lo), parse_theta(hi))
    if head == "obliq":
        c_text, _, slope = rest.rpartition(":")
        k_text, _, ell_text = slope.partition("/")
        if not (c_text and k_text and ell_text):
            raise ValueError(f"bad oblique slice {spec!r}")
        return SliceSpec.oblique(parse_theta(c_text), int(k_text), int(ell_text))
    raise ValueError(f"unknown slice kind in {spec!r}")


def line_spectrum(rel: DispersionRelation, slc: SliceSpec, ns: Sequence[int],
                  weights: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Frequencies and coefficients of sum_n w(n) e(theta*omega(n) + x*n)
    restricted to a horizontal or oblique slice, as a sum over the line.

    Horizontal (fixed theta): frequency n, coefficient w(n) e(theta*omega(n)).
    Oblique (x, t) = (ell z, c - k z): frequency ell*n - k*omega(n),
    coefficient w(n) e(c*omega(n)); omega must be integer-valued.  A
    vertical slice is not such a sum (ValueError)."""
    if slc.kind == "horizontal":
        freqs, theta = list(ns), slc.t.theta
    elif slc.kind == "oblique":
        freqs, theta = oblique_frequencies(rel, slc.k, slc.ell, ns), slc.c.theta
    else:
        raise ValueError(f"a {slc.kind} slice has no line spectrum")
    return freqs, weights * np.exp(2j * np.pi * theta_omega_frac_array(rel, theta, ns))


# ---------------------------------------------------------------------------
# sample grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SampleGrid:
    """Uniform complex samples along one slice, with provenance."""

    samples: np.ndarray
    period: float
    truncation: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not is_pow2(len(self.samples)):
            raise ValueError("sample count must be a power of two")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def spacing(self) -> float:
        return self.period / len(self.samples)

    @property
    def positions(self) -> np.ndarray:
        return np.arange(len(self.samples)) * self.spacing


def _datum_coefficients(g, M: int) -> np.ndarray:
    """Centered coefficient array [g_hat(-M), ..., g_hat(M)], all finite."""
    if isinstance(g, StepFunction):
        if not np.all(np.isfinite(g.values)):
            raise ValueError("datum must be finite")
        arr = g.coefficients_array(M)
    else:
        arr = np.asarray(g, dtype=np.complex128)
        if arr.shape != (2 * M + 1,):
            raise ValueError(f"datum array must have shape (2M+1,) = ({2 * M + 1},)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("datum must be finite")
    return arr


def evolve_slice(rel: DispersionRelation | str, g, slc: SliceSpec,
                 M: int = 1 << 14, length: int = 1 << 12) -> SampleGrid:
    """Sample the truncated evolution of datum ``g`` along a slice.

    Phases are reduced in exact fixed-point turns before any floating
    evaluation.  Horizontal and (integer-frequency) oblique slices take
    their spectrum from ``line_spectrum`` and are band-folded and evaluated
    by a single FFT, which is exact at grid points; vertical slices are
    accumulated mode by mode."""
    rel = parse_relation(rel) if isinstance(rel, str) else rel
    if not 1 <= M <= MAX_TRUNCATION:
        raise ValueError(f"truncation must be in [1, {MAX_TRUNCATION}], got {M}")
    if not is_pow2(length):
        raise ValueError(f"grid size must be a power of two, got {length}")

    ns = list(range(-M, M + 1))
    coeffs = _datum_coefficients(g, M)
    provenance = {
        "relation": rel.spec,
        "datum": repr(g) if isinstance(g, StepFunction) else "coefficient-array",
        "slice": slc.describe(),
        "truncation": str(M),
    }

    if slc.kind != "vertical":
        freqs, line_coeffs = line_spectrum(rel, slc, ns, coeffs)
        vals = grid_values(freqs, line_coeffs, length)
        return SampleGrid(vals, 2.0 * math.pi * slc.ell, M, provenance)

    # vertical: per-mode linear phase in the step index
    if (2 * M + 1) * length > MAX_DIRECT_WORK:
        raise ValueError("vertical slice too large: reduce truncation or grid")
    th0, th1 = slc.t0.theta, slc.t1.theta
    if isinstance(th0, Fraction) and isinstance(th1, Fraction):
        dth = (th1 - th0) / length
    else:
        dth = (FixedReal.convert(th1) - FixedReal.convert(th0)) / length
    base = theta_omega_frac_array(rel, th0, ns) + theta_omega_frac_array(LINEAR, slc.x0, ns)
    mu = theta_omega_frac_array(rel, dth, ns)
    amp = coeffs
    j = np.arange(length, dtype=np.float64)
    vals = np.zeros(length, dtype=np.complex128)
    chunk = max(1, MAX_DIRECT_WORK // (16 * length))
    for s in range(0, len(ns), chunk):
        ph = base[s:s + chunk, None] + np.outer(mu[s:s + chunk], j)
        vals += amp[s:s + chunk] @ np.exp(2j * np.pi * ph)
    t0f = slc.t0.theta_float
    t1f = slc.t1.theta_float
    period = 2.0 * math.pi * (t1f - t0f)
    return SampleGrid(vals, period, M, provenance)


# ---------------------------------------------------------------------------
# quantization at rational times
# ---------------------------------------------------------------------------

def quantize_coefficients(rel: DispersionRelation, a: int, q: int) -> np.ndarray:
    """The translate weights c_m, m = 0..q-1, at theta = a/q:

        c_m = (1/q) sum_{j mod q} e((a omega(j) + j m) / q)

    i.e. the inverse DFT of the unimodular multiplier sequence
    e(a omega(j) / q), whose residue phases are exact."""
    if not isinstance(rel, IntPolynomial):
        raise ValueError("quantization needs an integer-coefficient polynomial relation")
    if q < 1 or q > MAX_QUANTIZE_DENOM:
        raise ValueError(f"q must be in [1, {MAX_QUANTIZE_DENOM}], got {q}")
    if gcd(a, q) != 1:
        raise ValueError(f"a/q must be reduced, got {a}/{q}")
    fr = theta_omega_frac_array(rel, Fraction(a, q), range(q))
    # e(fr) = i^k e(fr - k/4) with k = rint(4 fr): the subtraction is exact,
    # so multipliers at quarter turns, and the weights of small q, are exact
    k = np.rint(4.0 * fr)
    multipliers = _QUARTER_TURNS[k.astype(np.int64) % 4] * np.exp(2j * np.pi * (fr - k / 4.0))
    return np.fft.ifft(multipliers)


def _reconstruct(g: StepFunction, c: np.ndarray) -> StepFunction:
    """sum_m c_m g(x - 2 pi m / q) for the q = len(c) translate weights c."""
    q = len(c)
    breaks: set[Fraction] = set()
    for b in g.breakpoints:
        for m in range(q):
            v = b + Fraction(m, q)
            breaks.add(v - (v >= 1))
    refined = sorted(breaks)
    values = []
    for i, left in enumerate(refined):
        right = refined[i + 1] if i + 1 < len(refined) else refined[0] + 1
        rep = (left + right) / 2
        rep -= rep >= 1
        val = 0j
        for m in range(q):
            u = rep - Fraction(m, q)
            u -= math.floor(u)
            val += complex(c[m]) * complex(g.value_at_turns(u))
        values.append(val)
    return StepFunction(refined, values)


@dataclass(frozen=True)
class QuantizeCheck:
    """Truncated series vs. exact reconstruction, off the jumps."""

    deviation: float
    compared: int
    excluded: int
    coefficients: np.ndarray
    reconstruction: StepFunction


def _step_grid_values(g: StepFunction, length: int) -> np.ndarray:
    """g at the turns jj/length, jj = 0..length-1, in exact integer arithmetic:
    grid point jj lies at or past breakpoint b iff jj >= ceil(b * length)."""
    thresholds = np.array([math.ceil(b * length) for b in g.breakpoints], dtype=np.int64)
    piece = np.searchsorted(thresholds, np.arange(length), side="right") - 1
    return np.array(g.values, dtype=np.complex128)[piece]  # -1 wraps to the last piece


def quantize_verify(rel: DispersionRelation, g: StepFunction, a: int, q: int,
                    M: int = 1 << 12, length: int = 1 << 13) -> QuantizeCheck:
    """Maximum deviation between the truncated evolution at theta = a/q and
    the exact translate reconstruction, over grid points at torus distance
    >= 1/64 of a turn from every reconstructed jump."""
    c = quantize_coefficients(rel, a, q)
    recon = _reconstruct(g, c)
    series = evolve_slice(rel, g, SliceSpec.horizontal(TimePoint.rational(a, q)),
                          M=M, length=length)
    ts = np.arange(length, dtype=np.float64) / length
    dist = np.full(length, np.inf)
    for b in recon.breakpoints:
        d = np.abs(ts - float(b))
        np.minimum(dist, np.minimum(d, 1.0 - d), out=dist)
    mask = dist >= float(OFF_JUMP_RADIUS) - 1e-12
    exact = _step_grid_values(recon, length)
    deviation = float(np.max(np.abs(series.samples[mask] - exact[mask])))
    return QuantizeCheck(deviation=deviation, compared=int(np.sum(mask)),
                         excluded=int(length - np.sum(mask)),
                         coefficients=c,
                         reconstruction=recon)
