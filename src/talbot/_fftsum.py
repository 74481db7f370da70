"""Exact grid evaluation of sparse trigonometric sums, shared internals.

A sum S(z) = sum_n b_n e^(i f_n z) with integer frequencies f_n, sampled at
z_j = 2*pi*j/G, depends on f_n only through f_n mod G; folding coefficients
into a length-G spectrum and applying one inverse FFT therefore yields the
*exact* values {S(z_j)} (up to FFT rounding) even when G is far below the
Nyquist rate of the largest frequency.

Off-grid values for refinement, z = (2*pi/G)*(j + delta) with |delta| <= 1,
are evaluated against an anchor grid point j so no large products enter a
double before reduction: A_n = b_n e((f_n j mod G)/G).  Both evaluators
take K moments sum_n B_n r_n^k, k < K, as one real matrix product of a
(K, N) array of powers of r with the re/im parts of B (``_moments``), and
share one golden-section search:

* narrow span (rho = pi*(max f - min f)/G <= 1, horizontal rows to 2^18): a
  Taylor polynomial in delta about the midpoint frequency.  r_n, the
  centred frequency in radians per unit delta, is fixed for the row, so
  its powers are built once per row, each refined cell takes one moment
  product of its A_n, and each probe costs O(K).  K is the least order
  whose tail bound rho^K/K! * e^rho is below 2^-60; the result matches the
  direct sum to 1e-12 relative.
* wide span (rho > 1, oblique rows): each probe splits u_n = f_n*delta*L/G,
  L = 2^11, into k_n = rint(u_n) and r_n = u_n - k_n, so that
  e(f_n*delta/G) = e(k_n/L) e(r_n/L).  With B_n = A_n e(k_n/L), A_n formed
  once per peak and e(k/L) from a table, S = sum_k c_k mu_k for
  c_k = (2*pi*i/L)^k/k!, k < 6 (series tail below 2^-60): an N-term gather
  and one (6, N) matrix product per probe, no complex exponential.  Refined
  sups match the direct complex-exponential sum to 1e-11 relative; single
  probes differ from it only by the rounding both make of phases of up to
  max|f|/G turns (~5e-10 of the sup on cubic rows at N = 2^11).

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
from typing import Callable

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


def next_smooth(n: int) -> int:
    """The least even 2^a*3^b*5^c >= n (a >= 1), an FFT length as fast as a
    power of two; below 2^64 a length is 5-smooth iff it divides 30^64."""
    m = max(2, n + n % 2)
    while pow(30, 64, m):
        m += 2
    return m


def is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def fold_frequencies(freqs: np.ndarray, G: int) -> np.ndarray:
    """f mod G as int64, for int64 or object-dtype integer frequencies."""
    return np.asarray(freqs % G, dtype=np.int64)


#: Largest grid any sum is evaluated on: 64 MiB of complex samples.
GRID_CAP = 1 << 22


def check_grid(G: int) -> None:
    """ValueError unless 1 <= G <= GRID_CAP, before a G-point grid is allocated."""
    if G < 1:
        raise ValueError("grid size must be positive")
    if G > GRID_CAP:
        raise ValueError(f"grid of {G} points too large: the cap is GRID_CAP = {GRID_CAP}")


def grid_values(freqs: np.ndarray, coeffs: np.ndarray, G: int) -> np.ndarray:
    """S(2*pi*j/G) for j = 0..G-1, exactly (single inverse FFT)."""
    check_grid(G)
    spectrum = np.zeros(G, dtype=np.complex128)
    np.add.at(spectrum, fold_frequencies(freqs, G), np.asarray(coeffs, dtype=np.complex128))
    return np.fft.ifft(spectrum, norm="forward")


def check_offsets(freqs: np.ndarray, row: str) -> None:
    """ValueError naming ``row`` unless every |f_n| < 2^53: wide-span probes
    form the offsets f_n*delta/G from f_n as a double."""
    top = max(abs(int(freqs.min())), abs(int(freqs.max())))
    if top >= 1 << 53:
        raise ValueError(f"{row}: max|f| = 2^{math.log2(top):.2f} is not below the "
                         "2^53 bound of refinement offsets")


class AnchoredCoefficients:
    """j -> A_n = b_n e((f_n j mod G)/G), in buffers reused across calls; the last j is cached."""

    def __init__(self, freqs: np.ndarray, coeffs: np.ndarray, G: int):
        self.G, self.fmod, self.j = G, fold_frequencies(freqs, G), None
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)
        self._base, self._A = np.empty_like(self.fmod), np.empty_like(self.coeffs)

    def __call__(self, j: int) -> np.ndarray:
        if j != self.j:
            self.j, base, A = j, np.multiply(self.fmod, j % self.G, out=self._base), self._A
            base %= self.G
            A.real = 0.0  # A = i*(2*pi/G)*base, then its exponential, then b_n times that
            np.multiply(2.0 * np.pi / self.G, base, out=A.imag)
            np.multiply(self.coeffs, np.exp(A, out=A), out=A)
        return self._A


TAYLOR_TAIL = 2.0 ** -60
#: Largest rho taylor_order accepts: past it, terms ~e^rho cancel every digit.
TAYLOR_RHO_MAX = 64.0


def frequency_span(freqs: np.ndarray) -> int:
    """max f - min f, exactly."""
    return int(freqs.max() - freqs.min())


def l4_quadrature(freqs: np.ndarray, coeffs: np.ndarray) -> float | None:
    """(1/2pi) int |S|^4 dx over one period, or None when the grid would
    exceed GRID_CAP.

    The frequencies of |S|^4 lie within 2*span of 0, so on the
    next_pow2(2*span + 2)-point grid none but 0 itself folds onto 0: the grid
    mean of |S|^4 is the integral up to rounding."""
    G = next_pow2(2 * frequency_span(freqs) + 2)
    if G > GRID_CAP:
        return None
    return float(np.mean(np.abs(grid_values(freqs, coeffs, G)) ** 4))


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


def _powers(out: np.ndarray) -> np.ndarray:
    """Complete the (K, N) powers array: out[k] = r_n^k for k >= 2, by
    repeated multiplication from out[0] = 1 and out[1] = r; return out."""
    for k in range(2, out.shape[0]):
        np.multiply(out[k - 1], out[1], out=out[k])
    return out


def _moments(B: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The K complex moments sum_n B_n r_n^k, with powers[k, n] = r_n^k, as
    one real matrix product of the powers with the (N, 2) re/im view of B."""
    real = powers @ B.view(np.float64).reshape(-1, 2)
    return real.view(np.complex128).ravel()


class TaylorEvaluator:
    """|S| at z = (2*pi/G)*(j + delta), |delta| <= 1, from a polynomial in delta.

    With c the midpoint frequency and u_n = 2*pi*(f_n - c)/G,
    |S| = |sum_n A_n e^(i u_n delta)| where A_n = b_n e((f_n j mod G)/G), and
    |u_n delta| <= rho.  Expanding the exponential gives
    sum_k M_k (i delta)^k / k! with moments M_k = sum_n A_n u_n^k, one
    ``_moments`` product per cell against the powers of u built once."""

    def __init__(self, freqs: np.ndarray, coeffs: np.ndarray, G: int, span: int):
        self.anchored = AnchoredCoefficients(freqs, coeffs, G)
        # 2*f - 2*c is an exact integer, |.| <= span: no large frequency enters a double
        centred = 2 * (freqs - freqs.min()) - span
        self.u = (np.pi / G) * centred.astype(np.float64)
        order = taylor_order(math.pi * span / G)
        self.powers = np.ones((order, self.u.size))
        self.powers[1:2] = self.u  # empty when order is 1 (a single frequency)
        _powers(self.powers)
        self.series = np.array([1j ** k / math.factorial(k) for k in range(order)])

    def local(self, j: int) -> Callable[[float], float]:
        """delta -> |S((2*pi/G)*(j + delta))| from the order-K polynomial."""
        moments = _moments(self.anchored(j), self.powers)
        poly = (moments * self.series)[::-1].tolist()  # M_k i^k / k!, highest order first

        def abs_at(delta: float) -> float:
            acc = 0j
            for c in poly:
                acc = acc * delta + c
            return abs(acc)
        return abs_at


#: Entries of the offset-phasor table e(k/PHASOR_TABLE), k < PHASOR_TABLE.
PHASOR_TABLE = 1 << 11
_PHASOR = np.exp((2j * np.pi / PHASOR_TABLE) * np.arange(PHASOR_TABLE))
#: Taylor series of e(r/PHASOR_TABLE) in r, |r| <= 1/2, as the coefficients
#: (2*pi*i/PHASOR_TABLE)^k / k!; the order makes the truncation error below 2^-60.
_PHASOR_SERIES = np.array([(2j * np.pi / PHASOR_TABLE) ** k / math.factorial(k)
                           for k in range(taylor_order(math.pi / PHASOR_TABLE))])


class AnchoredEvaluator:
    """Evaluate S at z = (2*pi/G)*(j + delta) for integer j and |delta| <= 1
    as sum_n A_n e(f_n*delta/G), with A_n the anchored coefficients.

    The anchor phase (f*j mod G)/G is exact integer arithmetic and A_n is
    formed once per peak j.  The offset u_n = f_n*delta*L/G table steps,
    L = PHASOR_TABLE, is rounded once to a double; each probe is then a
    table gather and one ``_moments`` product (module docstring)."""

    def __init__(self, freqs: np.ndarray, coeffs: np.ndarray, G: int):
        check_offsets(freqs, f"G={G}")
        self.anchored = AnchoredCoefficients(freqs, coeffs, G)
        self.turns = freqs.astype(np.float64) / G  # offset turns per unit delta
        self.coeffs = self.anchored.coeffs
        # per-probe buffers, reused so that no probe allocates an N-term array
        n = self.coeffs.size
        self._offsets = np.empty(n)
        self._index = np.empty(n, dtype=np.int64)
        self._terms = np.empty(n, dtype=np.complex128)
        self._powers = np.empty((_PHASOR_SERIES.size, n))
        self._powers[0] = 1.0

    def __call__(self, j: int, delta: float) -> complex:
        u = np.multiply(self.turns, delta * PHASOR_TABLE, out=self._offsets)
        k = np.rint(u, out=self._index, casting="unsafe")
        np.subtract(u, k, out=self._powers[1])  # r_n, exact
        k &= PHASOR_TABLE - 1
        # k is in range, so "clip" changes nothing; "raise" would buffer out
        B = _PHASOR.take(k, out=self._terms, mode="clip")
        B *= self.anchored(j)
        return complex(_PHASOR_SERIES @ _moments(B, _powers(self._powers)))

    def local(self, j: int) -> Callable[[float], float]:
        """delta -> |S((2*pi/G)*(j + delta))| by the N-term sum."""
        return lambda delta: abs(self(j, delta))


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


def wide_span(span: int, G: int) -> bool:
    """pi*span > G: no Bernstein cut, so the refined sup is a lower bound."""
    return math.pi * span > G


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
    if wide_span(span, G):
        ev = AnchoredEvaluator(freqs, coeffs, G)
        for j in local_maxima(absvals, TOP):
            best = max(best, golden_section_peak(ev.local(j), -1.0, 1.0)[1])
        return best
    ev = TaylorEvaluator(freqs, coeffs, G, span)
    cos = math.cos(math.pi * span / (2 * G))
    slack = CUT_SLACK * float(np.sum(np.abs(coeffs)))
    admitted = np.flatnonzero(absvals >= best * cos - slack)
    for j in admitted[np.argsort(absvals[admitted])[::-1]]:
        if absvals[j] < best * cos - slack:
            break
        best = max(best, golden_section_peak(ev.local(int(j)), -1.0, 1.0)[1])
    return best
