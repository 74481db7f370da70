"""Dyadic-block exponential sums and their growth exponents.

The central objects are sums S(z) = sum_{n in block} w(n) a_n e^{i h(n) z}
over a dyadic frequency block, where the modulation a_n = e(theta*omega(n))
is carried in exact fixed-point turns.  The module provides:

* ``block_sum``       -- one sum evaluated at a single point, exactly phased;
* ``sup_norm_sweep``  -- sup/L^2/L^4 norms across dyadic scales with
                         golden-section refinement and exponent fits;
* ``l4_quadruple_oracle``     -- exact combinatorial count behind L^4 norms;
* ``airy_l4_identity_check``  -- quadrature vs. the cubic resonance identity;
* ``bprocess_dual_compare``   -- a stationary-phase dual sum against the
                                 direct sum, with an error budget.

Everything here is deterministic: sums by numpy's pairwise ``np.sum``, and
sweeps that run their scales in order in the calling thread.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._fftsum import is_pow2, l4_quadrature, row_norms
from .dispersion import (LINEAR, DispersionRelation, FractionalPower, IntPolynomial,
                         oblique_frequencies, parse_relation, theta_omega_frac_array)
from .diophantine import ctr_constant
from .evolution import SliceSpec, line_spectrum
from .fixedpoint import ONE, FixedReal

MAX_BLOCK = 1 << 20


# ---------------------------------------------------------------------------
# block specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """A dyadic block of modes: |n| in [N, 2N), one sign or both.

    weight "unit" gives w(n) = 1; "reciprocal" gives w(n) = 1/|n|.
    """

    relation: DispersionRelation
    N: int
    sign: str = "+"
    weight: str = "unit"

    def __post_init__(self) -> None:
        if not is_pow2(self.N) or self.N > MAX_BLOCK:
            raise ValueError(f"block size must be a power of two <= {MAX_BLOCK}, got {self.N}")
        if self.sign not in ("+", "-", "both"):
            raise ValueError(f"sign must be '+', '-' or 'both', got {self.sign!r}")
        if self.weight not in ("unit", "reciprocal"):
            raise ValueError(f"weight must be 'unit' or 'reciprocal', got {self.weight!r}")

    def modes(self) -> np.ndarray:
        pos = np.arange(self.N, 2 * self.N)
        neg = np.arange(-2 * self.N + 1, -self.N + 1)
        if self.sign == "+":
            return pos
        if self.sign == "-":
            return neg
        return np.concatenate([neg, pos])

    def weights(self, ns: np.ndarray) -> np.ndarray:
        if self.weight == "unit":
            return np.ones(len(ns))
        return 1.0 / np.abs(ns.astype(np.float64))


# ---------------------------------------------------------------------------
# single-point sums
# ---------------------------------------------------------------------------

def block_sum(spec: BlockSpec, t, x=0) -> complex:
    """sum_n w(n) e(theta*omega(n) + x*n) over the block, phased exactly in
    192-bit turns and summed pairwise by ``np.sum``.

    ``t`` is a TimePoint (or raw turns value); ``x`` is a position in turns
    (x = 1 is a full period)."""
    ns = spec.modes()
    _, coeffs = line_spectrum(spec.relation, SliceSpec.horizontal(t), ns, spec.weights(ns))
    e = np.exp(2j * np.pi * theta_omega_frac_array(LINEAR, x, ns))
    return complex(np.sum(np.multiply(coeffs, e, out=e)))   # one operand order at every size


# ---------------------------------------------------------------------------
# exponent fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentFit:
    """Least-squares fit of log2(value) against log2(scale), with the
    scales as given."""

    slope: float
    intercept: float
    stderr: float
    r_squared: float
    scales: tuple[float, ...]

    def payload(self) -> dict:
        return {
            "slope": self.slope,
            "stderr": self.stderr,
            "r2": self.r_squared,
            "scales": list(self.scales),
        }


def least_squares_line(xs: np.ndarray, ys: np.ndarray,
                       scales: Sequence[float]) -> ExponentFit:
    """Ordinary least-squares line through (xs, ys), by the formula of
    scipy.stats.linregress: moments from np.cov(bias=1), r clipped to
    [-1, 1], slope stderr sqrt((1 - r^2) ssy / ssx / (n - 2)), 0 for n = 2."""
    if np.amax(xs) == np.amin(xs) and len(xs) > 1:
        raise ValueError("Cannot calculate a linear regression "
                         "if all x values are identical")
    n = len(xs)
    ssxm, ssxym, _, ssym = np.cov(xs, ys, bias=1).flat
    if ssxm == 0.0:
        raise ValueError("Cannot calculate a linear regression if the x values have zero variance")
    if ssym == 0.0:
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(1.0, max(-1.0, ssxym / np.sqrt(ssxm * ssym)))
    slope = ssxym / ssxm
    intercept = np.mean(ys, None) - slope * np.mean(xs, None)
    stderr = 0.0 if n == 2 else np.sqrt((1 - r ** 2) * ssym / ssxm / (n - 2))
    return ExponentFit(slope=float(slope), intercept=float(intercept),
                       stderr=float(stderr) if np.isfinite(stderr) else 0.0,
                       r_squared=float(r) ** 2, scales=tuple(scales))


def fit_exponent(scales: Sequence[float], values: Sequence[float]) -> ExponentFit:
    """Fit values ~ C * scale^slope through log-log least squares: the one
    fit behind every printed slope, dimension and decay rate."""
    if len(scales) != len(values):
        raise ValueError("scales and values must have equal length")
    if len(scales) < 2:
        raise ValueError("an exponent fit needs at least two points")
    repeated = [scale for i, scale in enumerate(scales) if scale in scales[:i]]
    if repeated:
        raise ValueError(f"scale {repeated[0]} is repeated: each scale is one point of the fit")
    vals = [float(v) for v in values]
    if any(v <= 0.0 for v in vals):
        raise ValueError("exponent fits need strictly positive values")
    return least_squares_line(np.log2(np.array([float(s) for s in scales])),
                              np.log2(np.array(vals)), scales)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    N: int
    sup_abs: float
    l2: float
    l4: float
    grid: int


@dataclass
class SweepResult:
    relation: str
    at: str
    rows: list[SweepRow]
    warnings: list[str] = field(default_factory=list)

    def scales(self) -> list[int]:
        return [row.N for row in self.rows]

    def sup_fit(self) -> ExponentFit:
        return fit_exponent(self.scales(), [row.sup_abs for row in self.rows])

    def l2_fit(self) -> ExponentFit:
        return fit_exponent(self.scales(), [row.l2 for row in self.rows])

    def l4_fit(self) -> ExponentFit:
        return fit_exponent(self.scales(), [row.l4 for row in self.rows])

    def fit_payload(self) -> dict:
        out = {"relation": self.relation, "at": self.at, "sup": self.sup_fit().payload(),
               "l2": self.l2_fit().payload(), "l4": self.l4_fit().payload()}
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def _sweep_label(slc: SliceSpec) -> str:
    if slc.kind == "oblique":
        return f"oblique(k={slc.k}, ell={slc.ell}, c={slc.c.describe()})"
    return slc.t.describe()


def sup_norm_sweep(relation: DispersionRelation | str, at, scales: Iterable[int], *,
                   weight: str = "unit", sign: str = "+") -> SweepResult:
    """Sup/L^2/L^4 norms of the block sums across dyadic scales.

    ``at`` is a horizontal or oblique SliceSpec, or a TimePoint or raw
    turns value, which stands for the horizontal slice at that time.
    Each block's row asks ``_fftsum.row_norms`` for a grid of G = 16*N
    points, and that function plans, samples and refines it; L^2 and L^4
    are means over all the grid's samples.  A narrow-span row
    (pi*span <= G: every horizontal row, whose span is at most
    4N - 2 < 16N/pi) computes that grid in coarse passes, keeping only the
    samples that can lie nearest the maximiser, and refines each of them
    by golden-section search.  A wide-span row (oblique rows) is sampled
    in one pass of at most ``_fftsum.MAX_GRID`` points and refines its top
    grid peaks; it warns that its sup is a lower bound.  Scales run in the
    given order."""
    rel = parse_relation(relation) if isinstance(relation, str) else relation
    slc = at if isinstance(at, SliceSpec) else SliceSpec.horizontal(at)
    if slc.kind == "vertical":
        raise ValueError("a sweep needs a horizontal or oblique line, not a vertical one")
    rows, warnings = [], []
    for N in scales:
        spec = BlockSpec(rel, int(N), sign=sign, weight=weight)
        ns = spec.modes()
        freqs, coeffs = line_spectrum(rel, slc, ns, spec.weights(ns))
        sup, mean2, mean4, G, notes = row_norms(freqs, coeffs, 16 * spec.N, f"N={spec.N}")
        rows.append(SweepRow(N=spec.N, sup_abs=sup, l2=math.sqrt(mean2), l4=mean4 ** 0.25, grid=G))
        warnings += notes
    return SweepResult(relation=rel.spec, at=_sweep_label(slc), rows=rows, warnings=warnings)


# ---------------------------------------------------------------------------
# quadruple-counting oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadrupleCount:
    """Exact count of resonant quadruples in a block.

    ``count`` is the number of (n1, n2, n3, n4) in the block with
    h(n1) + h(n3) = h(n2) + h(n4); ``nontrivial`` counts those with
    {n1, n3} != {n2, n4} as multisets, i.e. ``count`` less the 2K^2 - K
    trivial quadruples, which solve the equation for every h."""

    count: int
    nontrivial: int
    K: int
    h: str


def l4_quadruple_oracle(h: DispersionRelation | str, K: int) -> QuadrupleCount:
    """Count solutions of h(n1) + h(n3) = h(n2) + h(n4) with all n_i in
    [K, 2K), by counting the pairs at each difference (O(K^2 log K) time)."""
    rel = parse_relation(h) if isinstance(h, str) else h
    if not rel.integer_valued:
        raise ValueError("the quadruple oracle needs an integer-valued frequency map")
    if not is_pow2(K) or K > 128:
        raise ValueError(f"K must be a power of two <= 128, got {K}")
    hv = oblique_frequencies(rel, -1, 0, np.arange(K, 2 * K))
    if hv.dtype != np.int64:
        raise ValueError("frequency values too large for exact int64 arithmetic")
    # h(n1) - h(n2) = h(n4) - h(n3): with r(d) ordered pairs at difference d,
    # the count is sum_d r(d)^2, and |d| < 2^63 fits int64
    _, pairs = np.unique(hv[:, None] - hv[None, :], return_counts=True)
    count = int(np.sum(pairs**2))
    return QuadrupleCount(count=count, nontrivial=count - (2 * K * K - K), K=K, h=rel.spec)


# ---------------------------------------------------------------------------
# cubic resonance identity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdentityCheck:
    quadrature: float
    resonance_sum: complex
    relative_error: float
    N: int


def airy_l4_identity_check(t, N: int) -> IdentityCheck:
    """Check the exact L^4 identity for the cubic relation omega(n) = n^3.

    For S(x) = sum_{n in [N,2N)} e(theta n^3) e^{inx}, the normalised
    quadrature (1/2pi) * int |S|^4 equals the constrained triple sum
    sum e(3 theta (n1-n2)(n2-n3)(n1+n3)) over n1, n2, n3 in the block with
    n1 - n2 + n3 also in the block.  Returns both sides and the relative
    error; phases on both sides are exact 192-bit turns, and the quadrature
    is ``l4_quadrature``'s alias-free grid mean."""
    if not is_pow2(N) or N > 1 << 7:
        raise ValueError(f"N must be a power of two <= {1 << 7}, got {N}")
    slc = SliceSpec.horizontal(t)
    ns = np.arange(N, 2 * N)
    _, coeffs = line_spectrum(parse_relation("poly:1,0,0,0"), slc, ns, np.ones(N))

    quadrature = l4_quadrature(ns, coeffs)

    n1 = ns[:, None, None]
    n2 = ns[None, :, None]
    n3 = ns[None, None, :]
    n4 = n1 - n2 + n3
    mask = (n4 >= N) & (n4 < 2 * N)
    w = ((n1 - n2) * (n2 - n3) * (n1 + n3))[mask]
    uw, cnt = np.unique(w, return_counts=True)
    # e(3 theta w): phase the integers 3*w with the same exact machinery
    fr = theta_omega_frac_array(IntPolynomial((3, 0)), slc.t.theta, uw)
    resonance = complex(np.sum(cnt * np.exp(2j * np.pi * fr)))
    rel_err = abs(quadrature - resonance) / quadrature
    return IdentityCheck(quadrature=quadrature, resonance_sum=resonance,
                         relative_error=rel_err, N=N)


# ---------------------------------------------------------------------------
# stationary-phase dual sum
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BProcessComparison:
    """Direct block sum vs. its stationary-phase dual.

    direct  = sum_{N <= n < 2N} e(t n^alpha + x n)
    dual    = sum_m f''(x_m)^{-1/2} e(-c_{t,r} (m-x)^r + 1/8)
    where f(u) = t u^alpha + x u, alpha = r/(r-1), and x_m is the stationary
    point f'(x_m) = m.  ``budget_scale`` is sqrt(N) + N^{1-alpha/2}; the
    discrepancy should stay below (constant) * budget_scale."""

    direct: complex
    dual: complex
    discrepancy: float
    dual_terms: int
    out_of_range: int
    N: int
    r: int
    budget_scale: float


def bprocess_dual_compare(r: int, t, x, N: int) -> BProcessComparison:
    """Compare the direct sum over [N, 2N) with its stationary-phase dual.

    r in {3, 4, 5} fixes alpha = r/(r-1); t > 0 and x are in turns units,
    i.e. the summand is e(t n^alpha + x n) with e(y) = exp(2 pi i y).  All
    phases -- t n^alpha on the direct side, c_{t,r} (m-x)^r on the dual
    side -- are evaluated in 192-bit fixed point."""
    if r not in (3, 4, 5):
        raise ValueError(f"r must be 3, 4 or 5, got {r}")
    if not is_pow2(N) or N > 1 << 16:
        raise ValueError(f"N must be a power of two <= {1 << 16}, got {N}")
    alpha = Fraction(r, r - 1)
    tf = FixedReal.convert(t)
    if not tf > FixedReal.from_int(0):
        raise ValueError("the dual sum needs t > 0")
    xf = FixedReal.convert(x)

    direct = block_sum(BlockSpec(FractionalPower(alpha), N), tf, xf)

    # dual range: f'(u) = t*alpha*u^(alpha-1) + x over u in [N, 2N-1]
    t_float, x_float = float(tf), float(xf)
    af = float(alpha)
    fp = lambda u: t_float * af * u ** (af - 1.0) + x_float
    m_lo = math.floor(fp(N)) - 1
    m_hi = math.ceil(fp(2 * N - 1)) + 1

    c = ctr_constant(tf, r)
    ta = tf * r / (r - 1)  # t * alpha in fixed point
    lo_f, hi_f = FixedReal.from_int(N), FixedReal.from_int(2 * N - 1)
    amp_const = (t_float * af * (af - 1.0)) ** -0.5

    terms: list[complex] = []
    out_of_range = 0
    for m in range(m_lo, m_hi + 1):
        num = FixedReal.from_int(m) - xf
        if not num > FixedReal.from_int(0):
            out_of_range += 1
            continue
        xm = (num / ta) ** (r - 1)  # stationary point of f(u) - m u
        if not (lo_f <= xm <= hi_f):
            out_of_range += 1
            continue
        amp = amp_const * float(xm) ** ((2.0 - af) / 2.0)
        phase_val = c * num ** r  # c_{t,r} (m - x)^r, exact to ~r ulps
        turns = ((-phase_val.m) % ONE) / ONE + 0.125
        terms.append(amp * np.exp(2j * np.pi * turns))

    dual = complex(np.sum(np.array(terms, dtype=np.complex128)))
    return BProcessComparison(
        direct=direct, dual=dual, discrepancy=abs(direct - dual),
        dual_terms=len(terms), out_of_range=out_of_range, N=N, r=r,
        budget_scale=math.sqrt(N) + float(N) ** (1.0 - af / 2.0),
    )
