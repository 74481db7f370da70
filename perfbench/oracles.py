"""Correctness oracles behind the benchmark's error count.

Every oracle is a property that any correct version of the package must
meet; none is an acceptance band that a fix could legitimately move.  Each
returns a list of (label, passed) pairs, so one task can contribute several
checks.  ``selftest.py`` feeds each oracle a corrupted value and shows that
it fires.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9
ULP_TURNS = 2.0 ** -52   # one double ulp at 1, the widest ulp in [0, 1)


def sweep_row(row, n_modes: int, horizontal: bool) -> list[tuple[str, bool]]:
    """l2 <= l4 <= sup <= #modes on every row; Parseval l2 = sqrt(#modes)
    on horizontal rows (unit weights, alias-free 16N grid)."""
    tol = 1.0 + REL_TOL
    out = [("l2<=l4<=sup<=modes",
            all(map(math.isfinite, (row.l2, row.l4, row.sup_abs)))
            and row.l2 <= row.l4 * tol and row.l4 <= row.sup_abs * tol
            and row.sup_abs <= n_modes * tol)]
    if horizontal:
        out.append(("parseval l2=sqrt(modes)",
                    abs(row.l2 - math.sqrt(n_modes)) <= REL_TOL * math.sqrt(n_modes)))
    return out


def sup_dominates(sup: float, probes) -> list[tuple[str, bool]]:
    """The reported supremum is at least |S| at every probe point."""
    return [("sup>=|block_sum| at probes",
             all(sup >= abs(v) * (1.0 - REL_TOL) for v in probes))]


# ---------------------------------------------------------------------------
# exact phase reduction, independent of the package's phase code
# ---------------------------------------------------------------------------

def _int_root(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0 by bisection on Python integers."""
    lo, hi = 0, 1 << (x.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo


def exact_turns(spec: str, theta, n: int, frac_bits: int) -> float:
    """frac(theta * omega(n)) from exact integer arithmetic, rounded once.

    ``theta`` is a Fraction or a fixed-point real with integer mantissa ``m``
    scaled by 2**frac_bits.  Non-integer omega follows the package's stated
    definition: the floor of omega(n) * 2**frac_bits, then the product with
    the mantissa truncated to frac_bits."""
    one = 1 << frac_bits
    m = abs(n)
    omega_int = None
    omega_fixed = None
    if spec.startswith("poly:"):
        omega_int = 0
        for c in (int(v) for v in spec[5:].split(",")):
            omega_int = omega_int * n + c
    elif spec.startswith("frac:"):
        alpha = Fraction(spec[5:])
        if alpha.denominator == 1:
            omega_int = m ** alpha.numerator
        else:
            omega_fixed = _int_root(m ** alpha.numerator << (alpha.denominator * frac_bits),
                                    alpha.denominator)
    elif spec in ("gravity", "gravcap"):
        if m < 70:  # tanh(m) is 1 to below 2**-192 only from here on
            raise ValueError("water-wave oracle covers |n| >= 70 only")
        radicand = m if spec == "gravity" else m + m ** 3
        omega_fixed = math.isqrt(radicand << (2 * frac_bits))
    else:
        raise ValueError(f"no exact oracle for {spec!r}")

    if isinstance(theta, Fraction):
        if omega_int is not None:
            return float(Fraction((theta.numerator * omega_int) % theta.denominator,
                                  theta.denominator))
        tm = round(theta * one)
    else:
        tm = theta.m
    if omega_int is not None:
        return float(Fraction((tm * omega_int) % one, one))
    return float(Fraction(((omega_fixed * tm) >> frac_bits) % one, one))


def phase_spot(spec: str, theta, ns, got, frac_bits: int) -> list[tuple[str, bool]]:
    """theta_omega_frac_array values agree with the exact reduction within one
    double ulp (circularly, since 1 and 0 are the same turn)."""
    worst = 0.0
    for n, value in zip(ns, got):
        d = abs(float(value) - exact_turns(spec, theta, n, frac_bits))
        worst = max(worst, min(d, 1.0 - d))
    return [("phase within 1 ulp of exact", worst <= ULP_TURNS)]


# ---------------------------------------------------------------------------
# slices, quantization, calibration, solvers
# ---------------------------------------------------------------------------

def slice_parseval(samples: np.ndarray, coeffs: np.ndarray) -> list[tuple[str, bool]]:
    """Mean |q|^2 over an alias-free grid equals sum |g_hat|^2."""
    energy = float(np.sum(np.abs(coeffs) ** 2))
    mean_sq = float(np.mean(np.abs(samples) ** 2))
    return [("slice parseval", abs(mean_sq - energy) <= REL_TOL * energy)]


def finite(label: str, *values) -> list[tuple[str, bool]]:
    return [(f"{label} finite", all(v is not None and math.isfinite(v) for v in values))]


def quantize(mass: float, deviation: float) -> list[tuple[str, bool]]:
    """Translate weights carry unit mass; series matches off the jumps."""
    return [("quantize weight mass 1 within 1e-12", abs(mass - 1.0) <= 1e-12),
            ("quantize off-jump deviation <= 2e-3", deviation <= 2e-3)]


def weierstrass(gamma: float, box: float, holder: float, sup_decay) -> list[tuple[str, bool]]:
    """Criterion 9: box dimension 2 - gamma and Hoelder exponent gamma within
    0.05, block sup-decay exponent gamma within 0.02."""
    return [("weierstrass box dimension", abs(box - (2.0 - gamma)) <= 0.05),
            ("weierstrass holder exponent", abs(holder - gamma) <= 0.05),
            ("weierstrass block sup-decay",
             sup_decay is not None and abs(sup_decay - gamma) <= 0.02)]


def nls_segment(l2_drift: float) -> list[tuple[str, bool]]:
    return [("nls mass drift <= 1e-8", l2_drift <= 1e-8)]


def kdv_segment(modes: np.ndarray, mean_drift: float, residual) -> list[tuple[str, bool]]:
    """Mean exactly conserved, field exactly real (conjugate-symmetric modes)."""
    M = (len(modes) - 1) // 2
    return [("kdv mean drift exactly 0", mean_drift == 0.0 and modes[M] == 0),
            ("kdv output real",
             bool(np.array_equal(modes, np.conj(modes[::-1]))) and not np.iscomplexobj(residual))]
