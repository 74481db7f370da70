"""Truncated dispersive evolutions, slice samplers, and rational-time
quantization.

The evolved field is the symmetric partial sum

    q(t, x) = sum_{|n| <= M} g_hat(n) e^{i t omega(n)} e^{i n x},

sampled along one-dimensional slices of space-time: horizontal (fixed t),
vertical (fixed x), or oblique lines of rational slope, each as a line sum
from ``line_spectrum`` folded onto one FFT grid (a vertical one needs an
integer-valued omega and rational ends).  At rational
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

import numpy as np

from ._fftsum import check_grid, grid_values, is_pow2
from .dispersion import (LINEAR, DispersionRelation, IntPolynomial, TimePoint,
                         oblique_frequencies, parse_relation, parse_theta,
                         theta_omega_frac_array)
from .initial_data import StepFunction, parse_position

MAX_TRUNCATION = 1 << 18
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
    vertical:   t/2pi in [t0, t1) at fixed position ``x0`` (turns); sampling
                it needs Fraction endpoints and an integer-valued omega.
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
            if not self.t0.theta < self.t1.theta:
                raise ValueError("vertical slice needs t0 < t1")
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


def line_spectrum(rel: DispersionRelation, slc: SliceSpec, ns: np.ndarray,
                  weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and coefficients of sum_n w(n) e(theta*omega(n) + x*n)
    restricted to a slice, as a sum over the line of the int64 modes ns.

    Horizontal (fixed theta): frequency n, coefficient w(n) e(theta*omega(n)).
    Oblique (x, t) = (ell z, c - k z): frequency ell*n - k*omega(n), int64 or
    past 2^62 an object array (``oblique_frequencies``), coefficient
    w(n) e(c*omega(n)).  Vertical (x, t) = (x0, t0 + z): frequency omega(n),
    the oblique one with (k, ell) = (-1, 0), coefficient
    w(n) e(t0*omega(n) + x0*n).  Oblique and vertical lines need an
    integer-valued omega (ValueError otherwise).  Each coefficient is
    ``np.multiply(w, e)``, the same bits at every array size: a product
    ``w * <temporary>`` is evaluated as ``e * w`` once numpy elides the
    temporary (from 2^14 terms), and a complex product under FMA is not
    bitwise commutative."""
    if slc.kind == "horizontal":
        freqs, theta = ns, slc.t.theta
    elif slc.kind == "oblique":
        freqs, theta = oblique_frequencies(rel, slc.k, slc.ell, ns), slc.c.theta
    else:
        freqs, theta = oblique_frequencies(rel, -1, 0, ns), slc.t0.theta
        e = np.exp(2j * np.pi * theta_omega_frac_array(LINEAR, slc.x0, ns))
        weights = np.multiply(weights, e, out=e)
    e = np.exp(2j * np.pi * theta_omega_frac_array(rel, theta, ns))
    return freqs, np.multiply(weights, e, out=e)


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
    evaluation.  Every slice takes its spectrum from ``line_spectrum`` and
    is band-folded and evaluated by a single FFT, which is exact at grid
    points.  A vertical slice with t1 - t0 = a/b (Fractions) folds onto
    b*length points, of which j*a mod b*length is sample j.  ValueError for
    a non-integer omega, or before any phase for a grid above ``GRID_CAP``."""
    rel = parse_relation(rel) if isinstance(rel, str) else rel
    if not 1 <= M <= MAX_TRUNCATION:
        raise ValueError(f"truncation must be in [1, {MAX_TRUNCATION}], got {M}")
    if not is_pow2(length):
        raise ValueError(f"grid size must be a power of two, got {length}")
    G, period = length, 2.0 * math.pi * slc.ell
    if slc.kind == "vertical":
        if not (slc.t0.is_rational and slc.t1.is_rational):
            raise ValueError("vertical slice needs rational endpoints")
        width = slc.t1.theta - slc.t0.theta
        G = width.denominator * length
        period = 2.0 * math.pi * (slc.t1.theta_float - slc.t0.theta_float)

    check_grid(G)
    ns = np.arange(-M, M + 1)
    coeffs = _datum_coefficients(g, M)
    provenance = {
        "relation": rel.spec,
        "datum": repr(g) if isinstance(g, StepFunction) else "coefficient-array",
        "slice": slc.describe(),
        "truncation": str(M),
    }
    freqs, line_coeffs = line_spectrum(rel, slc, ns, coeffs)
    vals = grid_values(freqs, line_coeffs, G)
    if slc.kind == "vertical":  # sample j sits at theta = t0 + j*a/(b*length)
        vals = vals[np.arange(length) * (width.numerator % G) % G]
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
    fr = theta_omega_frac_array(rel, Fraction(a, q), np.arange(q))
    # e(fr) = i^k e(fr - k/4) with k = rint(4 fr): the subtraction is exact,
    # so multipliers at quarter turns, and the weights of small q, are exact
    k = np.rint(4.0 * fr)
    multipliers = _QUARTER_TURNS[k.astype(np.int64) % 4] * np.exp(2j * np.pi * (fr - k / 4.0))
    return np.fft.ifft(multipliers)


def _reconstruct(g: StepFunction, c: np.ndarray) -> StepFunction:
    """sum_m c_m g(x - 2 pi m / q) for the q = len(c) translate weights c,
    as a jump sum: the jump d of g at b becomes the jump c_m d at
    (b + m/q) mod 1.  Coincident jumps merge, and a zero net jump keeps its
    breakpoint.  Each piece's value is the running sum of the jumps over the
    value of the piece that wraps past 1, taken from q lookups of g."""
    q = len(c)
    bs, ds = zip(*g.jumps())
    L = math.lcm(q, *(b.denominator for b in bs))  # positions in units of 1/L
    starts = np.array([b.numerator * (L // b.denominator) for b in bs], dtype=object)
    at = (starts[:, None] + np.arange(q, dtype=object) * (L // q)) % L
    where, merged = np.unique(at.ravel(), return_inverse=True)
    net = np.zeros(len(where), dtype=np.complex128)
    np.add.at(net, merged, (np.array(ds)[:, None] * c).ravel())
    inside = Fraction(where[-1] + where[0] + L, 2 * L)  # in the wrapping piece
    wrapped = c @ np.array([g.value_at_turns(inside - Fraction(m, q)) for m in range(q)])
    return StepFunction([Fraction(p, L) for p in where], wrapped + np.cumsum(net))


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
    >= 1/64 of a turn from every reconstructed jump; ValueError, before the
    series is evolved, for a length above ``GRID_CAP`` or no such point."""
    check_grid(length)
    c = quantize_coefficients(rel, a, q)
    recon = _reconstruct(g, c)
    ts = np.arange(length, dtype=np.float64) / length
    dist = np.full(length, np.inf)
    for b in recon.breakpoints:
        d = np.abs(ts - float(b))
        np.minimum(dist, np.minimum(d, 1.0 - d), out=dist)
    mask = dist >= float(OFF_JUMP_RADIUS) - 1e-12
    if not mask.any():
        raise ValueError(f"nothing to compare at q = {q}: no grid point lies "
                         f"{OFF_JUMP_RADIUS} turn from all {recon.pieces} reconstructed jumps")
    series = evolve_slice(rel, g, SliceSpec.horizontal(TimePoint.rational(a, q)),
                          M=M, length=length)
    exact = _step_grid_values(recon, length)
    deviation = float(np.max(np.abs(series.samples[mask] - exact[mask])))
    return QuantizeCheck(deviation=deviation, compared=int(np.sum(mask)),
                         excluded=int(length - np.sum(mask)),
                         coefficients=c,
                         reconstruction=recon)
