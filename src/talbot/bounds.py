"""Exact calculators for the theoretical exponents quoted by the experiments.

Every function is total on its stated domain and returns a Fraction whenever
the inputs are exact (int or Fraction), so report tables can print the
predicted exponents verbatim; float inputs yield floats.  These are the
numbers the CLI prints next to measured slopes: sup-norm growth exponents,
graph-dimension intervals, and smoothing/Strichartz floors.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Exact = Union[int, Fraction]
Number = Union[int, float, Fraction]


def _num(x: Number):
    return Fraction(x) if isinstance(x, (int, Fraction)) else float(x)


@dataclass(frozen=True)
class BoundReport:
    """A named exponent (or interval) with a human-readable description.

    ``value`` is set for single exponents, ``interval`` for two-sided
    dimension ranges; exactly one of them is non-None.
    """

    name: str
    description: str
    value: Number | None = None
    interval: tuple[Number, Number] | None = None

    def __post_init__(self):
        if (self.value is None) == (self.interval is None):
            raise ValueError("exactly one of value/interval must be set")
        if self.interval is not None and not self.interval[0] <= self.interval[1]:
            raise ValueError("interval lower bound exceeds upper bound")

    @staticmethod
    def _render(x: Number):
        if isinstance(x, Fraction):
            return str(x)
        return float(x)

    def payload(self) -> dict:
        out: dict = {"name": self.name, "description": self.description}
        if self.value is not None:
            out["value"] = self._render(self.value)
            out["value_float"] = float(self.value)
        else:
            out["interval"] = [self._render(self.interval[0]),
                               self._render(self.interval[1])]
            out["interval_float"] = [float(self.interval[0]),
                                     float(self.interval[1])]
        return out


def format_bound(value) -> str:
    """An exact exponent as text; an interval as [lower, upper]."""
    if isinstance(value, tuple):
        return "[" + ", ".join(str(v) for v in value) + "]"
    return str(value)


def oblique_interval(d: int) -> tuple[Fraction, Fraction]:
    """Graph-dimension window [2 − 1/(2d), 2 − 1/(d(2^d+1))] for oblique
    slices of a degree-d polynomial dispersion flow with rough step data."""
    if not isinstance(d, int) or d < 2:
        raise ValueError("d must be an integer >= 2")
    return (2 - Fraction(1, 2 * d), 2 - Fraction(1, d * ((1 << d) + 1)))


def weyl_exponent(d: int) -> Fraction:
    """Classical squaring-out exponent 2^{1−d}: |S_N| ≲ N^{1−2^{1−d}+} for
    degree-d Weyl sums at badly-approximable times."""
    if not isinstance(d, int) or d < 1:
        raise ValueError("d must be an integer >= 1")
    return Fraction(2, 1 << d)


def vinogradov_interval(d: int) -> tuple[Fraction, Fraction]:
    """Time-slice graph-dimension window [1 + 1/(d(d−1)), 2 − 1/(d(d−1))]
    for degree-d polynomial dispersion, symmetric about 3/2."""
    if not isinstance(d, int) or d < 2:
        raise ValueError("d must be an integer >= 2")
    dd = d * (d - 1)
    return (1 + Fraction(1, dd), 2 - Fraction(1, dd))


def vdc_beta(alpha: Number):
    """Sup-norm saving exponent β(α) for the fractional evolution e^{it|n|^α}:
    |S_N| ≲ N^{1−β+}.  Branches: α/2 on (0,1); 1 − α/2 on (1, 3/2];
    1/2 − α/6 on (3/2, 2).  The endpoint α = 1 (half-wave) is excluded."""
    a = _num(alpha)
    if not 0 < a < 2 or a == 1:
        raise ValueError("alpha must lie in (0,2) with alpha != 1")
    if a < 1:
        return a / 2
    if a <= Fraction(3, 2):
        return 1 - a / 2
    half = Fraction(1, 2) if isinstance(a, Fraction) else 0.5
    return half - a / 6


def frac_nls_beta(alpha: Number):
    """Smoothing exponent for the fractional cubic NLS residual: β < α − 1
    on (1, 4/3), then the linear-evolution branches; continuous at the
    knee α = 4/3 where both give 1/3."""
    a = _num(alpha)
    if not 1 < a < 2:
        raise ValueError("alpha must lie in (1,2)")
    if a < Fraction(4, 3):
        return a - 1
    return vdc_beta(a)


def heath_brown_exponent(alpha: Number, d: int):
    """Sup-norm exponent for e^{it n^α} with α ∈ (d−1, d), d ≥ 3:
    N^{1−1/(d(d+1))+} when {α} > 2/(d+1), else N^{1−(1−{α})/(d(d−1))+};
    the two branches agree at {α} = 2/(d+1)."""
    if not isinstance(d, int) or d < 3:
        raise ValueError("d must be an integer >= 3")
    a = _num(alpha)
    if not d - 1 < a < d:
        raise ValueError("alpha must lie strictly between d-1 and d")
    frac = a - (d - 1)
    if frac > Fraction(2, d + 1):
        return 1 - Fraction(1, d * (d + 1))
    return 1 - (1 - frac) / (d * (d - 1))


def exponent_pair_bound(k: Number, ell: Number, alpha: Number):
    """Sup-norm exponent kα + ℓ − k from an exponent pair (k, ℓ)."""
    kk, ll, a = _num(k), _num(ell), _num(alpha)
    if not (0 <= kk <= Fraction(1, 2) <= ll <= 1):
        raise ValueError("need 0 <= k <= 1/2 <= ell <= 1")
    return kk * a + ll - kk


def strichartz_lower(r0: Number, s: Number, q: Number):
    """Graph-dimension lower bound 2 − (2r0 − (r0−s)q′)/(2 − q′), q′ = q/(q−1),
    from an L^q space-time (Strichartz) estimate with s derivatives of gain
    on data of Sobolev regularity r0."""
    r, sv, qv = _num(r0), _num(s), _num(q)
    if not qv > 2:
        raise ValueError("q must exceed 2")
    if not 0 <= sv <= r:
        raise ValueError("need 0 <= s <= r0")
    qp = qv / (qv - 1)
    return 2 - (2 * r - (r - sv) * qp) / (2 - qp)


def t32_exponent(r: int) -> Fraction:
    """Sup-norm exponent α/2 − (α−1)·2^{1−r} at α = r/(r−1) for integer
    r ≥ 3 (iterated square-out depth); r = 3 gives 5/8 at α = 3/2, and the
    exponent decreases to the square-root floor 1/2 as r grows."""
    if not isinstance(r, int) or r < 3:
        raise ValueError("r must be an integer >= 3")
    a = Fraction(r, r - 1)
    return a / 2 - (a - 1) * Fraction(1, 1 << (r - 1))


def t32_dimension_interval() -> tuple[Fraction, Fraction]:
    """Graph-dimension window [11/8, 13/8] for the α = 3/2 evolution:
    the lower end from the Strichartz mechanism at r0 = 1/2, s = (2−α)/8,
    q = 4; the upper end 2 − γ with γ = 1 − (the 5/8 sup exponent)."""
    alpha = Fraction(3, 2)
    lo = strichartz_lower(Fraction(1, 2), (2 - alpha) / 8, 4)
    hi = 2 - (1 - t32_exponent(3))
    return (lo, hi)


def bound_table() -> list[BoundReport]:
    """The canonical report rows: every calculator at its headline inputs."""
    rows = [
        BoundReport("oblique:d=2", "oblique-slice graph dimension, quadratic dispersion",
                    interval=oblique_interval(2)),
        BoundReport("oblique:d=3", "oblique-slice graph dimension, cubic dispersion",
                    interval=oblique_interval(3)),
        BoundReport("weyl:d=2", "quadratic Weyl-sum saving", value=weyl_exponent(2)),
        BoundReport("weyl:d=3", "cubic Weyl-sum saving", value=weyl_exponent(3)),
        BoundReport("vinogradov:d=3", "time-slice graph dimension, cubic dispersion",
                    interval=vinogradov_interval(3)),
        BoundReport("vdc:alpha=1/2", "fractional-evolution sup saving, alpha=1/2",
                    value=vdc_beta(Fraction(1, 2))),
        BoundReport("vdc:alpha=3/2", "fractional-evolution sup saving, alpha=3/2",
                    value=vdc_beta(Fraction(3, 2))),
        BoundReport("vdc:alpha=9/5", "fractional-evolution sup saving, alpha=9/5",
                    value=vdc_beta(Fraction(9, 5))),
        BoundReport("fracnls:alpha=6/5", "fractional cubic NLS smoothing, alpha=6/5",
                    value=frac_nls_beta(Fraction(6, 5))),
        BoundReport("fracnls:alpha=7/5", "fractional cubic NLS smoothing, alpha=7/5",
                    value=frac_nls_beta(Fraction(7, 5))),
        BoundReport("heathbrown:alpha=29/10,d=3", "cubic-range fractional sup exponent",
                    value=heath_brown_exponent(Fraction(29, 10), 3)),
        BoundReport("exponentpair:(1/9,13/18),alpha=3/2", "exponent-pair sup exponent",
                    value=exponent_pair_bound(Fraction(1, 9), Fraction(13, 18),
                                              Fraction(3, 2))),
        BoundReport("exponentpair:(0,1/2),alpha=3/2",
                    "conjectural square-root cancellation",
                    value=exponent_pair_bound(0, Fraction(1, 2), Fraction(3, 2))),
        BoundReport("strichartz:r0=1/2,s=0,q=4", "dimension floor from the L4 estimate",
                    value=strichartz_lower(Fraction(1, 2), 0, 4)),
        BoundReport("strichartz:alpha=3/2", "dimension floor with fractional gain",
                    value=strichartz_lower(Fraction(1, 2), Fraction(1, 16), 4)),
        BoundReport("t32:r=3", "alpha=3/2 sup exponent, depth 3", value=t32_exponent(3)),
        BoundReport("t32:r=4", "alpha=4/3 sup exponent, depth 4", value=t32_exponent(4)),
        BoundReport("t32:dimension", "alpha=3/2 graph-dimension window",
                    interval=t32_dimension_interval()),
    ]
    return rows
