"""Regularity and dimension estimators for sampled graphs.

Box-counting dimension via column oscillation counts, Hölder exponents via
the grid modulus of continuity, hard-cutoff dyadic-block (Littlewood-Paley)
Besov profiles.  Column extrema are taken at the finest scale and merged
pairwise for each coarser one.  Each Besov block is evaluated band-limited,
by 4N-point inverse FFTs with exact integer twiddles (half-length real ones
for real samples), in cache-sized row chunks into one L-sample modulus
buffer; its L^2 norm comes from the spectrum by Parseval.  Block norms agree
with a full-length masked inverse FFT per block to 1e-12 relative.  Real
samples take one half-length real forward FFT, their negative bins exact
conjugates; past the forward FFT only the L/4 bins the blocks read are kept,
and the twiddle table is built in place, so a default Besov profile peaks at
about 1.7 (real) and 1.9 (complex) times the 16*L bytes of one spectrum
under tracemalloc, and an L^2-only one at 0.875 (real) and 1.25 (complex).

Box counting and the Hölder exponent refuse complex samples; a complex
field's parts come from ``measured_parts``, the one rule for rounding noise.

The Weierstrass family W(x) = sum 2^{-j gamma} cos(2^j x) serves as the
calibration oracle: its graph has box dimension 2 - gamma, Hölder exponent
gamma, and one Fourier mode per dyadic block.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._fftsum import is_pow2
from .expsum import ExponentFit, least_squares_line

MIN_SAMPLES = 1 << 12
#: Besov fits use the blocks N >= FIT_MIN_BLOCK.
FIT_MIN_BLOCK = 4
#: A part (re or im) whose sup is below this fraction of the field's sup is
#: rounding noise (Im of an odd omega's real field) and is not measured.
NOISE_FLOOR = 2.0**-40
#: Samples per row chunk of a Besov block, so that a chunk's buffers stay in L2.
_CHUNK = 1 << 15


def measured_parts(field: np.ndarray) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """The real and imaginary parts of a complex field that are worth
    measuring, by name ("re", "im"), and the skipped ones with the reason.
    A max or min of an estimate over re/im is taken over the measured parts
    only."""
    field_sup = float(np.max(np.abs(field)))
    measured, skipped = {}, {}
    for name, part in (("re", field.real), ("im", field.imag)):
        sup = float(np.max(np.abs(part)))
        if sup < NOISE_FLOOR * field_sup:
            skipped[name] = (f"sup {sup:.3g} is below 2^-40 of the field's "
                             f"sup {field_sup:.3g}: rounding noise")
        else:
            measured[name] = part
    return measured, skipped


def _samples(samples, real: bool) -> np.ndarray:
    """The samples of an array or of an object with a ``samples`` array:
    1-d, a power-of-two length >= MIN_SAMPLES, finite, and where ``real``
    float64 and not complex.  Float64 and complex input is never copied."""
    arr = np.asarray(samples.samples if hasattr(samples, "samples") else samples)
    if real:
        if np.iscomplexobj(arr):
            raise ValueError("samples are complex; pass .real or .imag explicitly")
        arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 1 or len(arr) < MIN_SAMPLES or not is_pow2(len(arr)):
        raise ValueError(f"need a 1-d power-of-two sample array of length >= {MIN_SAMPLES}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxCountResult:
    """Column-counting cover sizes of the rescaled graph.

    eps_list is decreasing; counts[i] boxes of side eps_list[i] cover the
    graph in [0,1]^2.  ``fit`` is over the central window that
    ``box_dimension``'s ``drop`` leaves (by default the two largest and two
    smallest eps are dropped).
    """

    eps_list: tuple[float, ...]
    counts: tuple[int, ...]
    fit: ExponentFit
    degenerate: bool

    @property
    def dimension(self) -> float:
        return self.fit.slope


def box_dimension(samples, drop: tuple[int, int] = (2, 2)) -> BoxCountResult:
    """Upper box-counting dimension of the graph of the sampled function.

    The graph is rescaled to [0,1]^2; for each dyadic eps = 2^-k,
    k = 2..log2(len) - 6, the cover size is sum over columns of
    (ceil(osc/eps) + 1), exact for grid graphs.  Columns are closed: each
    includes the first sample of the next one (circularly), so a jump on a
    dyadic boundary still registers in the column to its left.  The
    dimension is the slope of log2 N(eps) against k over the central window
    left by dropping ``drop`` = (large, small) scales, with the trivial
    one-box-per-column floor removed before fitting (the floor adds a
    spurious +2^k term that flattens the slope, and the calibration family
    recovers its known dimension only without it).  A window of fewer than
    two scales is a ValueError.  A constant input is flagged degenerate
    (dimension 1)."""
    ys = _samples(samples, real=True)
    ks = list(range(2, int(math.log2(len(ys))) - 5))
    lo, hi = drop
    kept = len(ks) - lo - hi
    if min(lo, hi) < 0 or kept < 2:
        raise ValueError(f"drop {lo},{hi} keeps {max(kept, 0)} of the {len(ks)} box-count "
                         "scales; it must be nonnegative and keep at least two")

    # finest-scale column extrema, merged pairwise; max/min commute exactly
    # with the monotone rescaling to [0, 1], so only they are rescaled
    cols = ys.reshape(1 << ks[-1], -1)
    top, low = cols.max(axis=1), cols.min(axis=1)
    bottom, span = low.min(), float(top.max() - low.min())
    degenerate, scale = span == 0.0, span or 1.0
    top, low = (top - bottom) / scale, (low - bottom) / scale
    over = {}
    for k in reversed(ks):
        nxt = np.roll((ys[:: len(ys) >> k] - bottom) / scale, -1)
        osc = np.maximum(top, nxt) - np.minimum(low, nxt)
        over[k] = int(np.sum(np.ceil(osc * (1 << k) - 1e-9)))
        top, low = np.maximum(top[0::2], top[1::2]), np.minimum(low[0::2], low[1::2])
    if degenerate:
        fit = ExponentFit(slope=1.0, intercept=0.0, stderr=0.0, r_squared=1.0,
                          scales=tuple(1 << k for k in ks))
    else:
        window = ks[lo:len(ks) - hi]
        excess = np.array([max(over[k], 1) for k in window], dtype=np.float64)
        fit = least_squares_line(np.array(window, dtype=np.float64), np.log2(excess),
                                 [1 << k for k in window])
    return BoxCountResult(eps_list=tuple(0.5 ** k for k in ks),
                          counts=tuple(over[k] + (1 << k) for k in ks), fit=fit,
                          degenerate=degenerate)


# ---------------------------------------------------------------------------
# Hölder exponent
# ---------------------------------------------------------------------------

def holder_exponent(samples, lag_min: int = 32, lag_max: int = 1024) -> ExponentFit:
    """Hölder exponent from the grid modulus of continuity.

    H(h) = max_x |f(x + h) - f(x)| over circular dyadic lags of h samples,
    fitted as H(h) ~ h^gamma from ``lag_min`` to ``lag_max``.  Fine lags see
    the local increments directly, so the slope tracks gamma for C^gamma
    graphs (~0 across a jump, ~1 for C^1); wide lags saturate at the global
    oscillation and are excluded by default."""
    ys = _samples(samples, real=True)
    # a zero lag passes here and fails the range check below
    if not (is_pow2(lag_min or 1) and is_pow2(lag_max or 1)):
        raise ValueError("lags must be powers of two")
    if not 1 <= lag_min < lag_max <= len(ys) // 4:
        raise ValueError("need 1 <= lag_min < lag_max <= len/4")
    lags = [lag_min << i for i in range(int(math.log2(lag_max // lag_min)) + 1)]
    d, hs = np.empty_like(ys), []  # f(x + h) - f(x), the last h of them wrapping around
    for w in lags:
        np.subtract(ys[w:], ys[:-w], out=d[:-w])
        np.subtract(ys[:w], ys[-w:], out=d[-w:])
        hs.append(float(np.abs(d, out=d).max()))
    if max(hs) == 0.0:
        return ExponentFit(slope=0.0, intercept=0.0, stderr=0.0, r_squared=0.0,
                           scales=tuple(lags))
    keep = [i for i, h in enumerate(hs) if h > 0.0]
    return least_squares_line(np.log2(np.array([lags[i] for i in keep], dtype=np.float64)),
                              np.log2(np.array([hs[i] for i in keep])),
                              [lags[i] for i in keep])


# ---------------------------------------------------------------------------
# Besov (dyadic block) profile
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesovProfile:
    """Dyadic-block norms ||P_N f||_p and their decay exponents.

    gamma_p is minus the fitted slope of log2 ||P_N f||_p against log2 N,
    i.e. ||P_N f||_p ~ N^{-gamma_p}; None when too few blocks carry mass."""

    Ns: tuple[int, ...]
    norms: dict
    fits: dict

    def gamma(self, p) -> float | None:
        fit = self.fits.get(p)
        return None if fit is None else -fit.slope


def _block_moduli(spec: np.ndarray, table: np.ndarray, N: int, real: bool, out: np.ndarray) -> None:
    """|P_N f| at all L = len(out) samples into ``out``, by B-point inverse
    FFTs, B = 4N.

    ``spec`` holds the DFT bins with |n| < len(spec)/2, the negative ones
    at the negative indices.  The 2N block frequencies are distinct mod B,
    so with sample j = r + R s (R = L/B), P_N f(j/L) = sum_n [c_n e(n r/L)]
    e(n s/B): row r of the (R, B) array holds the coefficients times exact
    twiddles e(n r/L), read from ``table`` (e(k/L) for 0 <= k < L/2) at the
    integer product |n| r.  For ``real`` f, c_-n is conj(c_n): only the bins
    N..2N-1 are filled and a half-length real inverse FFT gives the samples.
    Row chunks of _CHUNK samples reuse one set of buffers; moduli land in
    (r, s) order, which grid-measure norms ignore."""
    L, B, ns = out.size, 4 * N, np.arange(N, 2 * N)
    rows = min(L // B, max(1, _CHUNK // B))
    idx, tw = np.empty((rows, N), dtype=np.int64), np.empty((rows, N), dtype=np.complex128)
    X = np.zeros((rows, 2 * N + 1 if real else B), dtype=np.complex128)
    Y = np.empty((rows, B), dtype=np.float64 if real else np.complex128)
    for r in range(0, L // B, rows):
        np.multiply.outer(np.arange(r, r + rows), ns, out=idx)
        table.take(idx, out=tw, mode="clip")  # idx < L/2, so "clip" changes nothing
        np.multiply(tw, spec[N:2 * N], out=X[:, N:2 * N])
        if real:
            np.fft.irfft(X, B, axis=1, norm="forward", out=Y)
        else:
            np.multiply(np.conjugate(tw, out=tw), spec[-N:-2 * N:-1], out=X[:, 3 * N:2 * N:-1])
            np.fft.ifft(X, axis=1, norm="forward", out=Y)
        np.abs(Y, out=out.reshape(-1, B)[r:r + rows])


def besov_profile(samples, ps: Sequence = (1, 2, math.inf)) -> BesovProfile:
    """Hard-cutoff Littlewood-Paley block norms of the sampled function.

    P_N keeps frequencies N <= |n| < 2N of the sample DFT; block norms use
    the normalised grid measure, so ||.||_1 <= ||.||_2 <= ||.||_inf per
    block.  Hard cutoffs (not smooth ones) are the operative surrogate here;
    fits use blocks from FIT_MIN_BLOCK up to len/8 whose norm exceeds
    1e-13.  ||P_N f||_2 comes from the spectrum by Parseval; the other norms
    reduce one L-sample buffer of block moduli, filled by 4N-point inverse
    FFTs in cache-sized row chunks (``_block_moduli``), never by a
    full-length one; real input takes half-length real transforms.

    Blocks stop at 2N <= L/8, so only the L/4 bins with |n| < L/8 outlive
    the forward FFT: a half-length real one of real input's float64 values,
    the negative bins exact conjugates, or a full-length one in place into
    the copy that complex64 input needs; a caller's array is never written.
    The e(k/L) twiddle table is built in place.  Under tracemalloc the
    default ps peak at about 1.7 * 16 * L bytes over real input and
    1.9 * 16 * L over complex128 input, and ps=(2,) at 0.875 and 1.25 * 16 * L,
    besides pocketfft's own scratch.  Each p must be a finite number >= 1 or
    math.inf, and appear once, else ValueError."""
    given = _samples(samples, real=False)
    for i, p in enumerate(ps):
        if not (isinstance(p, numbers.Real) and p >= 1):  # NaN fails p >= 1
            raise ValueError(f"Besov p must be a finite number >= 1 or math.inf, got {p!r}")
        if p in ps[:i]:  # one list of norms per distinct p
            raise ValueError(f"Besov p = {p!r} is repeated")
    real, L = not np.iscomplexobj(given), len(given)
    if real:  # one half-length real FFT; bin -m is conj(bin m) exactly
        full = np.fft.rfft(given.astype(np.float64, copy=False), norm="forward")
        negative = np.conjugate(full[L // 8:0:-1])
    else:
        full = given.astype(np.complex128, copy=False)
        full = np.fft.fft(full, norm="forward", out=None if full is given else full)
        negative = full[L - L // 8:]
    spec = np.concatenate((full[:L // 8], negative))  # the bins |n| < L/8
    M = len(spec)  # bin -m is spec[M - m]
    del given, full, negative  # only spec outlives the forward FFT
    need_samples = any(p != 2 for p in ps)
    table, a = None, None
    if need_samples:
        table = np.multiply(2j * np.pi / L, np.arange(L // 2))
        np.exp(table, out=table)
        a = np.empty(L)  # each block's moduli in turn

    Ns, by_p = [], {p: [] for p in ps}
    N = 1
    while 2 * N <= L // 8:
        if need_samples:
            _block_moduli(spec, table, N, real, a)
        for p in ps:
            if p == 1:
                by_p[p].append(float(np.mean(a)))
            elif p == 2:
                band = np.concatenate((spec[N:2 * N], spec[M - 2 * N + 1:M - N + 1]))
                by_p[p].append(float(np.sqrt(np.sum(band.real ** 2 + band.imag ** 2))))
            elif p == math.inf:
                by_p[p].append(float(np.max(a)))
            else:
                by_p[p].append(float(np.mean(a ** p) ** (1.0 / p)))
        Ns.append(N)
        N *= 2

    fits = {}
    for p in ps:
        vals = np.array(by_p[p])
        keep = [i for i, Nv in enumerate(Ns) if Nv >= FIT_MIN_BLOCK and vals[i] > 1e-13]
        if len(keep) < 4:
            fits[p] = None
            continue
        xs = np.log2(np.array([Ns[i] for i in keep], dtype=np.float64))
        fits[p] = least_squares_line(xs, np.log2(vals[keep]), [Ns[i] for i in keep])
    return BesovProfile(Ns=tuple(Ns), norms={p: tuple(v) for p, v in by_p.items()},
                        fits=fits)


# ---------------------------------------------------------------------------
# calibration oracle
# ---------------------------------------------------------------------------

def weierstrass(gamma: float, J: int = 16, length: int = 1 << 18) -> np.ndarray:
    """Samples of W(x) = sum_{j=0}^{J} 2^{-j gamma} cos(2^j x) on a uniform
    power-of-two grid over one period.  Frequencies are reduced modulo the
    grid length in integers, so every cosine argument is evaluated exactly:
    term j reads the one table cos(2 pi k/length) at stride 2^j, repeated
    2^j times, and terms with 2^j >= length are the constant table[0]."""
    if not is_pow2(length) or length < 2:
        raise ValueError("length must be a power of two")
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    table = np.cos(2.0 * np.pi * np.arange(length, dtype=np.int64) / length)
    out = np.zeros(length, dtype=np.float64)
    for j in range(J + 1):
        if (1 << j) < length:
            out.reshape(1 << j, -1)[:] += 2.0 ** (-j * gamma) * table[:: 1 << j]
        else:
            out += 2.0 ** (-j * gamma) * table[0]
    return out
