"""Exact grid evaluation of sparse trigonometric sums, shared internals.

A sum S(z) = sum_n b_n e^(i f_n z) with integer frequencies f_n, sampled at
z_j = 2*pi*j/G, depends on f_n only through f_n mod G; folding coefficients
into a length-G spectrum and applying one inverse FFT therefore yields the
*exact* values {S(z_j)} (up to FFT rounding) even when G is far below the
Nyquist rate of the largest frequency.

Off-grid values for refinement, z = (2*pi/G)*(j + delta) with |delta| <= 1,
are evaluated against an anchor grid point j so no large products enter a
double before reduction.  Two evaluators share one golden-section search:

* narrow span (rho = pi*(max f - min f)/G <= 1, every horizontal row): a
  Taylor polynomial in delta about the midpoint frequency, built once per
  refined cell, so each probe costs O(K) instead of O(N) exponentials.  K is
  the least order whose tail bound rho^K/K! * e^rho is below 2^-60; the
  result matches the direct sum to 1e-12 relative.
* wide span (rho > 1, oblique rows): an N-term sum per probe of the
  anchored coefficients, formed once per peak, times the offset phasor
  e(f_n*delta/G).  The phasor comes from a 2^11-entry table of e(k/2^11) at
  the nearest table point and an order-6 Taylor series for the rest, so it
  costs a few multiplies instead of a complex exponential.  The series
  truncation is below 2^-60 and the phasor is within 2e-15 of the exact
  one.  Refined sups match the direct complex-exponential sum to 1e-11
  relative; single probes differ from it only by the rounding both make of
  phases of up to max|f|/G turns (~5e-10 of the sup on cubic rows at
  N = 2^11).

Which cells to refine.  On a narrow-span row the cells come from the sum
itself.  Centred at its midpoint frequency, S is e^(icz) times a sum T of
exponential type D/2, D = max f - min f.  Let z* maximise |T| and
g = Re(e^(-i arg T(z*)) T).  The Bernstein-Szego inequality
g'^2 + (D/2)^2 g^2 <= (D/2)^2 |S|_inf^2 (Duffin and Schaeffer 1937 for
exponential type) gives g(z) >= |S|_inf cos((D/2)|z - z*|), and the grid
point nearest z* is at most pi/G away, so its sample is at least
|S|_inf cos(pi*D/(2G)).  A grid point below best*cos(pi*D/(2G)), with best
any value |S| attains, is therefore not the one nearest the maximiser, and
its cell is not refined.  On a wide-span row cos(pi*D/(2G)) can be <= 0 and
the bound admits every cell; those rows refine the TOP largest grid peaks.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Wide-span refinement (rho > 1, oblique rows) searches the TOP largest grid
#: peaks.  The Bernstein cut of ``refine_supremum`` does not apply there: on
#: oblique rows rho >> pi, so cos(pi*D/(2G)) <= 0 and it would admit every
#: cell.  Each search takes ITERS golden-section steps.
TOP = 10
ITERS = 30
#: The Bernstein cut is lowered by this fraction of sum |b_n|, which bounds
#: the rounding of an FFT sample (about eps*log2(G)*sum |b_n|) and of a
#: refined value many times over, so a borderline cell is not dropped.
CUT_SLACK = 2.0 ** -40


def next_pow2(n: int) -> int:
    return 1 << max(0, (int(n) - 1).bit_length())


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def tree_sum(values: np.ndarray) -> complex:
    """Sum by a fixed-shape pairwise tree: bit-identical for identical
    inputs."""
    v = np.asarray(values, dtype=np.complex128)
    if v.size == 0:
        return 0j
    L = next_pow2(v.size)
    if L != v.size:
        v = np.concatenate([v, np.zeros(L - v.size, dtype=np.complex128)])
    while v.size > 1:
        v = v[0::2] + v[1::2]
    return complex(v[0])


def fold_frequencies(freqs: np.ndarray, G: int) -> np.ndarray:
    """f mod G as int64, for int64 or object-dtype integer frequencies."""
    return np.asarray(freqs % G, dtype=np.int64)


def grid_values(freqs: np.ndarray, coeffs: np.ndarray, G: int) -> np.ndarray:
    """S(2*pi*j/G) for j = 0..G-1, exactly (single inverse FFT)."""
    if G < 1:
        raise ValueError("grid size must be positive")
    spectrum = np.zeros(G, dtype=np.complex128)
    np.add.at(spectrum, fold_frequencies(freqs, G), np.asarray(coeffs, dtype=np.complex128))
    return np.fft.ifft(spectrum) * G


def anchored_coefficients(coeffs: np.ndarray, fmod: np.ndarray, G: int, j: int) -> np.ndarray:
    """A_n = b_n e((f_n j mod G)/G): the coefficients as seen from grid point j."""
    base = (fmod * (j % G)) % G
    return coeffs * np.exp(1j * ((2.0 * np.pi / G) * base))


class AnchoredEvaluator:
    """Evaluate S at z = (2*pi/G)*(j + delta) for integer j and |delta| <= 1
    as sum_n A_n e(f_n*delta/G), with A_n the anchored coefficients.

    The anchor phase (f*j mod G)/G is exact integer arithmetic; the offset
    f*delta/G stays below ~2^14 turns for desk-scale frequencies, so double
    precision holds it to ~1e-12 of a turn.  A_n is formed once per peak j
    and the offset phasor comes from ``_unit_phasor``."""

    def __init__(self, freqs: np.ndarray, coeffs: np.ndarray, G: int):
        self.G = G
        self.fmod = fold_frequencies(freqs, G)
        ffloat = freqs.astype(np.float64)
        if np.any(np.abs(ffloat) >= 2.0**53):
            raise ValueError("frequencies too large for refinement offsets")
        self.turns = ffloat / G  # offset turns per unit delta
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        self._anchor: tuple[int, np.ndarray, np.ndarray] | None = None

    def _anchored(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Real and imaginary parts of A_n, cached for the last j."""
        anchor = self._anchor
        if anchor is None or anchor[0] != j:
            A = anchored_coefficients(self.coeffs, self.fmod, self.G, j)
            anchor = self._anchor = (j, A.real.copy(), A.imag.copy())
        return anchor[1], anchor[2]

    def __call__(self, j: int, delta: float) -> complex:
        a, b = self._anchored(j)
        cos, sin = _unit_phasor(self.turns * delta)
        re = a * cos
        re -= b * sin
        im = a * sin
        im += b * cos
        return complex(np.sum(re), np.sum(im))

    def local(self, j: int) -> Callable[[float], float]:
        """delta -> |S((2*pi/G)*(j + delta))| by the N-term sum."""
        return lambda delta: abs(self(j, delta))


TAYLOR_TAIL = 2.0 ** -60
#: Largest rho taylor_order accepts: past it, terms ~e^rho cancel every digit.
TAYLOR_RHO_MAX = 64.0


def frequency_span(freqs: np.ndarray) -> int:
    """max f - min f, exactly."""
    return int(freqs.max() - freqs.min())


def taylor_order(rho: float) -> int:
    """Least K with rho^K / K! * e^rho <= 2^-60: the tail bound of the
    exponential series truncated after K terms, for |argument| <= rho.
    rho outside [0, TAYLOR_RHO_MAX = 64], NaN included, is a ValueError."""
    if not 0.0 <= rho <= TAYLOR_RHO_MAX:
        raise ValueError(f"taylor_order needs 0 <= rho <= {TAYLOR_RHO_MAX:g}, got {rho}")
    K, bound = 0, math.exp(rho)
    while bound > TAYLOR_TAIL:
        K += 1
        bound *= rho / K
    return K


class TaylorEvaluator:
    """|S| at z = (2*pi/G)*(j + delta), |delta| <= 1, from a polynomial in delta.

    With c the midpoint frequency and u_n = 2*pi*(f_n - c)/G,
    |S| = |sum_n A_n e^(i u_n delta)| where A_n = b_n e((f_n j mod G)/G), and
    |u_n delta| <= rho.  Expanding the exponential gives
    sum_k M_k (i delta)^k / k! with moments M_k = sum_n A_n u_n^k."""

    def __init__(self, freqs: np.ndarray, coeffs: np.ndarray, G: int, span: int):
        self.G = G
        self.fmod = fold_frequencies(freqs, G)
        # 2*f - 2*c is an exact integer, |.| <= span: no large frequency enters a double
        centred = 2 * (freqs - freqs.min()) - span
        self.u = (np.pi / G) * centred.astype(np.float64)
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        self.order = taylor_order(math.pi * span / G)

    def local(self, j: int) -> Callable[[float], float]:
        """delta -> |S((2*pi/G)*(j + delta))| from the order-K polynomial."""
        term = anchored_coefficients(self.coeffs, self.fmod, self.G, j)
        poly = []  # M_k i^k / k!, lowest order first
        scale = 1 + 0j
        for k in range(self.order):
            poly.append(complex(np.sum(term)) * scale)
            term *= self.u
            scale *= 1j / (k + 1)
        poly.reverse()

        def abs_at(delta: float) -> float:
            acc = 0j
            for c in poly:
                acc = acc * delta + c
            return abs(acc)
        return abs_at


#: Entries of the offset-phasor table e(k/PHASOR_TABLE), k < PHASOR_TABLE.
PHASOR_TABLE = 1 << 11
_TABLE_COS = np.cos((2.0 * np.pi / PHASOR_TABLE) * np.arange(PHASOR_TABLE))
_TABLE_SIN = np.sin((2.0 * np.pi / PHASOR_TABLE) * np.arange(PHASOR_TABLE))
#: Taylor series of e^(i*x), x = 2*pi*r/PHASOR_TABLE with |r| <= 1/2, as the
#: real coefficients of r^k (even k: cosine, odd k: sine); the order makes
#: the truncation error below 2^-60.
_SERIES = [(-1) ** (k // 2) * (2.0 * np.pi / PHASOR_TABLE) ** k / math.factorial(k)
           for k in range(taylor_order(math.pi / PHASOR_TABLE))]
_COS_SERIES, _SIN_SERIES = _SERIES[0::2], _SERIES[1::2]


def _horner(coeffs: Sequence[float], y: np.ndarray) -> np.ndarray:
    """sum_m coeffs[m] * y^m."""
    acc = coeffs[-1] * y
    acc += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        acc *= y
        acc += c
    return acc


def _unit_phasor(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(2*pi*t) and sin(2*pi*t) for an array of turns t.

    With k = rint(L*t), L = PHASOR_TABLE, e(t) = e(k/L) * e^(i*x) for
    x = 2*pi*r/L, r = L*t - k: a table entry times the Taylor series in r.
    L*t and r are exact for |L*t| < 2^52, so the result is within ~1e-15
    of e(t - rint t) however many turns t holds."""
    u = t * PHASOR_TABLE
    k = np.rint(u)
    idx = k.astype(np.int64)
    idx &= PHASOR_TABLE - 1
    r = u - k
    r2 = r * r
    c = _horner(_COS_SERIES, r2)
    s = _horner(_SIN_SERIES, r2)
    s *= r
    tc = _TABLE_COS.take(idx)
    ts = _TABLE_SIN.take(idx)
    cos = tc * c
    cos -= ts * s
    sin = tc * s
    sin += ts * c
    return cos, sin


def local_maxima(absvals: np.ndarray, top: int) -> list[int]:
    """Indices of the ``top`` largest circular local maxima of |S| on the
    grid (falling back to the plain largest values if the signal is flat).

    Only wide-span rows refine at these peaks; a narrow-span row refines
    the cells its Bernstein cut admits, local maxima or not."""
    left = np.roll(absvals, 1)
    right = np.roll(absvals, -1)
    peaks = np.flatnonzero((absvals >= left) & (absvals > right))
    if peaks.size == 0:
        peaks = np.argsort(absvals)[::-1][:top]
    order = peaks[np.argsort(absvals[peaks])[::-1]]
    return [int(i) for i in order[:top]]


def golden_section_peak(f: Callable[[float], float], lo: float,
                        hi: float) -> tuple[float, float]:
    """Maximise f on [lo, hi] by golden-section; returns (argmax, max)."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(ITERS):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    if fc >= fd:
        return c, fc
    return d, fd


def refine_supremum(freqs: np.ndarray, coeffs: np.ndarray, G: int,
                    absvals: np.ndarray) -> float:
    """Golden-section refinement of the grid supremum, one grid cell to each
    side of a grid point.  Never below the grid sup.

    Narrow span (pi*(max f - min f)/G <= 1): the grid points with
    |S_j| >= best*cos(pi*span/(2G)), in descending |S_j|, each refined by
    the Taylor evaluator, where best starts at the grid sup and rises with
    each refined value; the first point below the current cut ends the
    search.  The grid point nearest the maximiser is never below the cut
    (module docstring), so it is refined, whether or not it is a local
    maximum.  Wide span: the TOP largest local maxima, by the direct
    evaluator."""
    best = float(np.max(absvals))
    span = frequency_span(freqs)
    if math.pi * span > G:
        ev = AnchoredEvaluator(freqs, coeffs, G)
        for j in local_maxima(absvals, TOP):
            best = max(best, golden_section_peak(ev.local(j), -1.0, 1.0)[1])
        return best
    ev = TaylorEvaluator(freqs, coeffs, G, span)
    cos = math.cos(math.pi * span / (2 * G))
    slack = CUT_SLACK * float(np.sum(np.abs(ev.coeffs)))
    admitted = np.flatnonzero(absvals >= best * cos - slack)
    for j in admitted[np.argsort(absvals[admitted])[::-1]]:
        if absvals[j] < best * cos - slack:
            break
        best = max(best, golden_section_peak(ev.local(int(j)), -1.0, 1.0)[1])
    return best
