"""Regularity and dimension estimators for sampled graphs.

Box-counting dimension via column oscillation counts, Hölder exponents via
the grid modulus of continuity, hard-cutoff dyadic-block (Littlewood-Paley)
Besov profiles.  Each block is evaluated band-limited, as one batched call
of 4N-point inverse FFTs with exact integer twiddles; its L^2 norm comes
from the spectrum by Parseval.  Block norms agree with a full-length masked
inverse FFT per block to 1e-12 relative.

The Weierstrass family W(x) = sum 2^{-j gamma} cos(2^j x) serves as the
calibration oracle: its graph has box dimension 2 - gamma, Hölder exponent
gamma, and one Fourier mode per dyadic block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._fftsum import is_pow2
from .expsum import ExponentFit, least_squares_line

MIN_SAMPLES = 1 << 12
#: Besov fits use the blocks N >= FIT_MIN_BLOCK.
FIT_MIN_BLOCK = 4


def _as_real_samples(samples) -> np.ndarray:
    arr = samples.samples if hasattr(samples, "samples") else samples
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        if np.max(np.abs(arr.imag)) > 1e-9 * max(1.0, np.max(np.abs(arr.real))):
            raise ValueError("samples are complex; pass .real or .imag explicitly")
        arr = arr.real
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 1 or len(arr) < MIN_SAMPLES or not is_pow2(len(arr)):
        raise ValueError(f"need a 1-d power-of-two sample array of length >= {MIN_SAMPLES}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    return arr


def _column_oscillations(ys: np.ndarray, k: int) -> np.ndarray:
    """Max - min of ys over 2^k equal closed columns.

    Each column includes the first sample of the next one (circularly):
    boxes are closed in x, so a jump landing exactly on a dyadic boundary
    still registers in the column to its left."""
    cols = ys.reshape(1 << k, -1)
    nxt = np.roll(ys[:: ys.shape[0] >> k], -1)
    return (np.maximum(cols.max(axis=1), nxt)
            - np.minimum(cols.min(axis=1), nxt))


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
    (ceil(osc/eps) + 1), exact for grid graphs.  The dimension is the slope
    of log2 N(eps) against k over the central window left by dropping
    ``drop`` = (large, small) scales, with the trivial one-box-per-column
    floor removed before fitting (the floor adds a spurious +2^k term that
    flattens the slope, and the calibration family recovers its known
    dimension only without it).  A window of fewer than two scales is a
    ValueError.  A constant input is flagged degenerate (dimension 1)."""
    ys = _as_real_samples(samples)
    ks = list(range(2, int(math.log2(len(ys))) - 5))
    lo, hi = drop
    kept = len(ks) - lo - hi
    if min(lo, hi) < 0 or kept < 2:
        raise ValueError(f"drop {lo},{hi} keeps {max(kept, 0)} of the {len(ks)} box-count "
                         "scales; it must be nonnegative and keep at least two")

    span = float(ys.max() - ys.min())
    degenerate = span == 0.0
    if not degenerate:
        ys = (ys - ys.min()) / span

    counts, excess = [], []
    for k in ks:
        osc = _column_oscillations(ys, k)
        over = int(np.sum(np.ceil(osc * (1 << k) - 1e-9)))
        excess.append(max(over, 1))
        counts.append(over + (1 << k))
    eps_list = tuple(0.5 ** k for k in ks)

    if degenerate:
        fit = ExponentFit(slope=1.0, intercept=0.0, stderr=0.0, r_squared=1.0,
                          scales=tuple(1 << k for k in ks))
        return BoxCountResult(eps_list=eps_list, counts=tuple(counts), fit=fit,
                              degenerate=True)

    sel = slice(lo, len(ks) - hi)
    fit = least_squares_line(np.array(ks[sel], dtype=np.float64),
                             np.log2(np.array(excess[sel], dtype=np.float64)),
                             [1 << k for k in ks[sel]])
    return BoxCountResult(eps_list=eps_list, counts=tuple(counts), fit=fit,
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
    ys = _as_real_samples(samples)
    # a zero lag passes here and fails the range check below
    if not (is_pow2(lag_min or 1) and is_pow2(lag_max or 1)):
        raise ValueError("lags must be powers of two")
    if not 1 <= lag_min < lag_max <= len(ys) // 4:
        raise ValueError("need 1 <= lag_min < lag_max <= len/4")
    lags = [lag_min << i for i in range(int(math.log2(lag_max // lag_min)) + 1)]
    hs = [float(np.abs(np.roll(ys, -w) - ys).max()) for w in lags]
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


def _block_samples(spec: np.ndarray, table: np.ndarray, N: int) -> np.ndarray:
    """All L samples of P_N f from one batched B-point inverse FFT, B = 4N.

    The 2N block frequencies are distinct mod B, so with sample j = r + R s
    (R = L/B), P_N f(j/L) = sum_n [c_n e(n r/L)] e(n s/B): row r of the
    (R, B) array holds the coefficients times exact twiddles e(n r/L), read
    from ``table`` (e(k/L) for 0 <= k < L/2) at the integer product |n| r.
    Samples come back in (r, s) order, which grid-measure norms ignore."""
    L = len(spec)
    B = 4 * N
    tw = table[np.outer(np.arange(L // B), np.arange(N, 2 * N))]
    X = np.zeros((L // B, B), dtype=np.complex128)
    np.multiply(tw, spec[N:2 * N], out=X[:, N:2 * N])
    np.multiply(np.conjugate(tw, out=tw), spec[L - N:L - 2 * N:-1], out=X[:, 3 * N:2 * N:-1])
    return np.fft.ifft(X, axis=1, norm="forward")


def besov_profile(samples, ps: Sequence = (1, 2, math.inf)) -> BesovProfile:
    """Hard-cutoff Littlewood-Paley block norms of the sampled function.

    P_N keeps frequencies N <= |n| < 2N of the sample DFT; block norms use
    the normalised grid measure, so ||.||_1 <= ||.||_2 <= ||.||_inf per
    block.  Hard cutoffs (not smooth ones) are the operative surrogate here;
    fits use blocks from FIT_MIN_BLOCK up to len/8 whose norm exceeds
    1e-13.  ||P_N f||_2 comes from the spectrum by Parseval; the other norms
    reduce samples of each block evaluated as 4N-point batched transforms
    (``_block_samples``), never as a full-length inverse FFT."""
    arr = samples.samples if hasattr(samples, "samples") else samples
    arr = np.asarray(arr, dtype=np.complex128)
    if arr.ndim != 1 or len(arr) < MIN_SAMPLES or not is_pow2(len(arr)):
        raise ValueError(f"need a 1-d power-of-two sample array of length >= {MIN_SAMPLES}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    L = len(arr)
    spec = np.fft.fft(arr, norm="forward")
    need_samples = any(p != 2 for p in ps)
    table = np.exp(2j * np.pi / L * np.arange(L // 2)) if need_samples else None

    Ns, by_p = [], {p: [] for p in ps}
    N = 1
    while 2 * N <= L // 8:
        a = np.abs(_block_samples(spec, table, N)) if need_samples else None
        for p in ps:
            if p == 1:
                by_p[p].append(float(np.mean(a)))
            elif p == 2:
                band = np.concatenate((spec[N:2 * N], spec[L - 2 * N + 1:L - N + 1]))
                by_p[p].append(float(np.sqrt(np.sum(band.real ** 2 + band.imag ** 2))))
            elif p in (math.inf, "inf"):
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
