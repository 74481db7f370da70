"""The numbered acceptance experiments behind ``talbot acceptance``.

Eleven self-contained experiments exercise the pipeline end to end: exact
translate reconstruction at rational times, box-counting dimensions of
space and oblique slices, sup- and L^4-norm growth exponents with their
combinatorial oracles, a stationary-phase dual-sum budget at a
curvature-tuned time, estimator calibration on Weierstrass functions,
nonlinear smoothing regularity, and the exact rational bound table.

Every threshold and resolution is frozen here -- the runners take no
parameters -- so a passing run certifies a fixed, numbered statement.
Slope thresholds carry a +0.05 allowance absorbing the epsilon-losses and
logarithmic factors that the asymptotic statements hide; exact identities
are tested at rounding level.  Each runner returns its ``Check``s, which
carry the observed values; ``run_acceptance`` runs and times any subset,
titles each result from ``CRITERIA`` and aggregates.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from .bounds import (bound_table, format_bound, oblique_interval,
                     strichartz_lower, t32_dimension_interval, t32_exponent)
from .diophantine import solve_time_for_ctr
from .dispersion import (IntPolynomial, TimePoint, kl_theta, parse_relation,
                         seeded_theta)
from .evolution import SliceSpec, evolve_slice, quantize_verify
from .expsum import (airy_l4_identity_check, bprocess_dual_compare,
                     fit_exponent, l4_quadruple_oracle, sup_norm_sweep)
from .fixedpoint import sqrt2
from .fractal import (besov_profile, box_dimension, holder_exponent,
                      measured_parts, weierstrass)
from .initial_data import StepFunction
from .nonlinear import kdv_solve, nls_wick_solve, smoothing_residual

#: Calibrated constant for the dual-sum error budget: the observed
#: discrepancy never exceeded 0.13 of sqrt(N) + N^(1-alpha/2) across the
#: swept N and generic x, so 0.5 passes with a 4x margin while still
#: failing loudly if either side of the comparison degrades.
BPROCESS_BUDGET_CONSTANT = 0.5


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    """One observed-vs-required line of a criterion."""

    label: str
    observed: str
    required: str
    passed: bool

    def payload(self) -> dict:
        return {"label": self.label, "observed": self.observed,
                "required": self.required, "passed": self.passed}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    checks: tuple[Check, ...]
    elapsed: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        return {"number": self.number, "title": self.title,
                "passed": self.passed, "elapsed_s": round(self.elapsed, 3),
                "checks": [c.payload() for c in self.checks]}


@dataclass(frozen=True)
class AcceptanceReport:
    results: tuple[CriterionResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def payload(self) -> dict:
        return {"passed": self.passed,
                "criteria": [r.payload() for r in self.results]}


def _check(label: str, observed: str, required: str, ok: bool) -> Check:
    return Check(label=label, observed=observed, required=required, passed=bool(ok))


def _step_datum() -> StepFunction:
    """The reference datum: the indicator of the half-period [0, pi)."""
    return StepFunction.indicator(Fraction(0), Fraction(1, 2))


def _rms(samples: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(samples) ** 2)))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def criterion_1() -> list[Check]:
    """Rational-time reconstruction: translate weights are unitary and the
    truncated series matches the exact step reconstruction off the jumps."""
    rel = parse_relation("poly:-1,0,0")
    g = _step_datum()
    checks = []
    for a, q in ((1, 1), (1, 2), (1, 4), (1, 3), (2, 3)):
        res = quantize_verify(rel, g, a, q, M=1 << 12)
        mass = float(np.sum(np.abs(res.coefficients) ** 2))
        checks.append(_check(f"theta={a}/{q}: weight mass sum |c_m|^2",
                             f"{mass:.14f}", "1 within 1e-12",
                             abs(mass - 1.0) <= 1e-12))
        checks.append(_check(f"theta={a}/{q}: off-jump deviation",
                             f"{res.deviation:.3e}", "<= 2e-3",
                             res.deviation <= 2e-3))
    return checks


def criterion_2() -> list[Check]:
    """Box dimension of fixed-time space slices of the quadratic flow:
    3/2-like at the reference irrational times, trivial at a rational."""
    g = _step_datum()
    cases = ((kl_theta("sqrt2"), 1.40, 1.60),
             (kl_theta("phi"), 1.40, 1.60),
             (TimePoint.rational(1, 3), 0.95, 1.10))
    checks = []
    for tp, lo, hi in cases:
        sg = evolve_slice("poly:-1,0,0", g, SliceSpec.horizontal(tp),
                          M=1 << 16, length=1 << 18)
        for part, arr in (("re", sg.samples.real), ("im", sg.samples.imag)):
            dim = box_dimension(arr).dimension
            checks.append(_check(f"{tp.describe()} {part}: box dimension",
                                 f"{dim:.4f}", f"in [{lo:.2f}, {hi:.2f}]",
                                 lo <= dim <= hi))
    return checks


def criterion_3() -> list[Check]:
    """Sup-norm growth along unit-slope oblique slices of the quadratic
    flow, for a reference irrational intercept and ten seeded draws: the
    fitted exponent sits between the L^2 floor and the quartic ceiling."""
    scales = [1 << j for j in range(8, 17)]
    checks = []
    intercepts = [kl_theta("sqrt2")] + [seeded_theta(s) for s in range(1, 11)]
    for tp in intercepts:
        sw = sup_norm_sweep("poly:-1,0,0", SliceSpec.oblique(tp, 1, 1), scales)
        s = sw.sup_fit().slope
        checks.append(_check(f"c={tp.describe()}: oblique sup slope",
                             f"{s:.4f}", "in [0.48, 0.85]", 0.48 <= s <= 0.85))
    return checks


def criterion_4() -> list[Check]:
    """Oblique-slice graph dimension of the quadratic flow inside the
    predicted window, and the dyadic-block L^2 decay slope -1/4 that feeds
    the lower end of that window."""
    g = _step_datum()
    checks = []
    for tp in (kl_theta("sqrt2"), seeded_theta(1), seeded_theta(2), seeded_theta(3)):
        sg = evolve_slice("poly:-1,0,0", g, SliceSpec.oblique(tp, 1, 1),
                          M=1 << 10, length=1 << 22)
        dim = max(box_dimension(part, drop=(2, 4)).dimension
                  for part in measured_parts(sg.samples)[0].values())
        checks.append(_check(f"c={tp.describe()}: box dimension (max re/im)",
                             f"{dim:.4f}", "in [1.70, 1.95]",
                             1.70 <= dim <= 1.95))
    sg = evolve_slice("poly:-1,0,0", g, SliceSpec.oblique(kl_theta("sqrt2"), 1, 1),
                      M=1 << 9, length=1 << 20)
    fit = besov_profile(sg.samples, ps=(2,)).fits[2]
    checks.append(_check("c=kl:sqrt2: block L2 slope", f"{fit.slope:.4f}",
                         "-0.25 within 0.03", abs(fit.slope + 0.25) <= 0.03))
    return checks


def criterion_5() -> list[Check]:
    """L^4 growth of cubic-relation blocks stays at the square-root rate,
    and the quartic quadrature equals the resonance triple sum exactly."""
    tp = kl_theta("sqrt2")
    sw = sup_norm_sweep("poly:1,0,0,0", tp, [1 << j for j in range(6, 14)])
    s = sw.l4_fit().slope
    checks = [_check("theta=kl:sqrt2: L4 slope", f"{s:.4f}", "<= 0.55", s <= 0.55)]
    for N in (32, 64):
        chk = airy_l4_identity_check(tp, N)
        checks.append(_check(f"N={N}: quadrature vs triple-sum relative error",
                             f"{chk.relative_error:.3e}", "<= 1e-8",
                             chk.relative_error <= 1e-8))
    return checks


def criterion_6() -> list[Check]:
    """Exact quadruple counts h(n1)+h(n3) = h(n2)+h(n4) grow at most like
    K^(2+) across dyadic block sizes for the oblique frequency maps."""
    checks = []
    Ks = (16, 32, 64)
    for label, coeffs in (("h(n)=n+n^2", (1, 1, 0)),
                          ("h(n)=3n-n^3", (-1, 0, 3, 0))):
        counts = [l4_quadruple_oracle(IntPolynomial(coeffs), K).count for K in Ks]
        slope = fit_exponent(Ks, counts).slope
        checks.append(_check(f"{label}: count slope over K={list(Ks)}",
                             f"{slope:.4f} (counts {counts})", "<= 2.25",
                             slope <= 2.25))
    return checks


def criterion_7() -> list[Check]:
    """Sup-norm exponents of fractional-power blocks at t = 1 stay below
    1 - beta(alpha) + 0.05, and the water-wave relations track their
    fractional-power models."""
    tp = TimePoint.from_time(1.0)
    scales = [1 << j for j in range(12, 19)]
    checks = []
    slopes: dict[str, float] = {}
    for spec, bound in (("frac:1/2", 0.80), ("frac:3/2", 0.80), ("frac:9/5", 0.85)):
        slopes[spec] = sup_norm_sweep(spec, tp, scales).sup_fit().slope
        checks.append(_check(f"{spec}: sup slope", f"{slopes[spec]:.4f}",
                             f"<= {bound:.2f}", slopes[spec] <= bound))
    for spec, model in (("gravity", "frac:1/2"), ("gravcap", "frac:3/2")):
        s = sup_norm_sweep(spec, tp, scales).sup_fit().slope
        checks.append(_check(f"{spec}: sup slope vs {model}",
                             f"{s:.4f} (model {slopes[model]:.4f})",
                             "within 0.05", abs(s - slopes[model]) <= 0.05))
    return checks


def criterion_8() -> list[Check]:
    """At the time tuned so the dual-phase curvature constant is sqrt(2),
    the alpha = 3/2 sup exponent drops to the 5/8-type rate, and the
    stationary-phase dual sum reproduces each direct block sum within the
    calibrated error budget."""
    t = solve_time_for_ctr(sqrt2(), 3)
    tp = TimePoint.from_theta(t, label="ctr:sqrt2,r=3")
    sw = sup_norm_sweep("frac:3/2", tp, [1 << j for j in range(8, 17)])
    s = sw.sup_fit().slope
    checks = [_check("frac:3/2 at tuned time: sup slope", f"{s:.4f}",
                     "<= 0.675", s <= 0.675)]
    x = math.pi / 7  # a generic irrational offset, in turns
    for N in (1 << j for j in range(10, 15)):
        cmp_ = bprocess_dual_compare(3, t, x, N)
        budget = BPROCESS_BUDGET_CONSTANT * cmp_.budget_scale
        checks.append(_check(
            f"N=2^{N.bit_length() - 1}: dual-sum discrepancy",
            f"{cmp_.discrepancy:.3f} ({cmp_.dual_terms} dual terms)",
            f"<= {budget:.3f}", cmp_.discrepancy <= budget))
    return checks


def criterion_9() -> list[Check]:
    """Estimator calibration on Weierstrass functions with known box
    dimension 2 - gamma, Holder exponent gamma, and block decay gamma."""
    checks = []
    for gamma in (0.3, 0.5, 0.7):
        w = weierstrass(gamma, J=18, length=1 << 20)
        box = box_dimension(w).dimension
        checks.append(_check(f"gamma={gamma}: box dimension", f"{box:.4f}",
                             f"{2 - gamma:.2f} within 0.05",
                             abs(box - (2 - gamma)) <= 0.05))
        hold = holder_exponent(w).slope
        checks.append(_check(f"gamma={gamma}: Holder exponent", f"{hold:.4f}",
                             f"{gamma:.2f} within 0.05",
                             abs(hold - gamma) <= 0.05))
        ginf = besov_profile(w, ps=(math.inf,)).gamma(math.inf)
        checks.append(_check(f"gamma={gamma}: block sup-decay exponent",
                             f"{ginf:.4f}", f"{gamma:.2f} within 0.02",
                             ginf is not None and abs(ginf - gamma) <= 0.02))
    return checks


def criterion_10() -> list[Check]:
    """Nonlinear smoothing: the residual u minus the linear flow of the
    truncated datum is markedly smoother than the datum for both solvers,
    conserved quantities drift within tolerance, and the residual amplitude
    scales with the order of the nonlinearity."""
    g = _step_datum()
    checks = []

    nls = nls_wick_solve(g, sign=1, M=1 << 10, dt=1e-4, t_max=0.5)
    res = smoothing_residual(nls)
    h = min(holder_exponent(part).slope for part in measured_parts(res.samples)[0].values())
    checks.append(_check("cubic flow residual: Holder exponent (min re/im)",
                         f"{h:.4f}", ">= 0.40", h >= 0.40))
    checks.append(_check("cubic flow: mass drift", f"{nls.l2_drift:.3e}",
                         "<= 1e-8", nls.l2_drift <= 1e-8))

    g0 = StepFunction((Fraction(0), Fraction(1, 2)), (0.5, -0.5))
    kdv = kdv_solve(g0, M=1 << 10, dt=1e-5, t_max=0.5)
    resk = smoothing_residual(kdv)
    hk = holder_exponent(resk.samples).slope
    checks.append(_check("quadratic flow residual: Holder exponent",
                         f"{hk:.4f}", ">= 0.28", hk >= 0.28))
    checks.append(_check("quadratic flow: mean drift", f"{kdv.mean_drift:.3e}",
                         "exactly 0", kdv.mean_drift == 0.0))
    checks.append(_check("quadratic flow: rough-datum mass drift",
                         f"{kdv.l2_drift:.3e}", "<= 1e-3 (diagnostic)",
                         kdv.l2_drift <= 1e-3))

    M = 1 << 10
    cosine = np.zeros(2 * M + 1, dtype=np.complex128)
    cosine[M - 1] = cosine[M + 1] = 0.5
    ref = kdv_solve(cosine, M=M, dt=1e-4, t_max=1.0)
    checks.append(_check("quadratic flow: smooth-datum mass drift",
                         f"{ref.l2_drift:.3e}", "<= 1e-6 over unit time",
                         ref.l2_drift <= 1e-6))

    lams = (0.25, 0.5, 1.0)
    for flow, datum, solve, dt, order in (("cubic", g, nls_wick_solve, 1e-4, 3),
                                          ("quadratic", g0, kdv_solve, 2e-5, 2)):
        rs = []
        for lam in lams:
            gl = StepFunction(datum.breakpoints, [lam * v for v in datum.values])
            rs.append(_rms(smoothing_residual(solve(gl, M=1 << 10, dt=dt, t_max=0.1)).samples))
        slope = fit_exponent(lams, rs).slope
        checks.append(_check(f"{flow} flow: residual amplitude-scaling slope", f"{slope:.4f}",
                             f"{order} within 0.2", abs(slope - order) <= 0.2))
    return checks


def criterion_11() -> list[Check]:
    """The rational bound table reproduces its frozen exact values."""
    cases = (
        ("oblique dimension interval, d=2", oblique_interval(2),
         (Fraction(7, 4), Fraction(19, 10))),
        ("oblique dimension interval, d=3", oblique_interval(3),
         (Fraction(11, 6), Fraction(53, 27))),
        ("dual-sum sup exponent, r=3", t32_exponent(3), Fraction(5, 8)),
        ("dimension floor, r0=1/2 s=0 q=4",
         strichartz_lower(Fraction(1, 2), Fraction(0), 4), Fraction(3, 2)),
        ("dimension floor, r0=1/2 s=1/16 q=4",
         strichartz_lower(Fraction(1, 2), Fraction(1, 16), 4), Fraction(11, 8)),
        ("three-halves dimension interval", t32_dimension_interval(),
         (Fraction(11, 8), Fraction(13, 8))),
    )
    checks = []
    for label, got, want in cases:
        checks.append(_check(label, format_bound(got), format_bound(want), got == want))
    table = bound_table()
    rendered = all(isinstance(r.payload(), dict) for r in table)
    checks.append(_check("bound table renders", f"{len(table)} rows",
                         "18 rows", rendered and len(table) == 18))
    return checks


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

CRITERIA: tuple[tuple[int, str, Callable[[], list[Check]]], ...] = (
    (1, "rational-time quantization", criterion_1),
    (2, "space-slice box dimension", criterion_2),
    (3, "oblique sup-norm exponent", criterion_3),
    (4, "oblique dimension and block decay", criterion_4),
    (5, "cubic-relation L4 growth", criterion_5),
    (6, "resonant quadruple counting", criterion_6),
    (7, "fractional-relation sup exponents", criterion_7),
    (8, "curvature-tuned dual-sum budget", criterion_8),
    (9, "estimator calibration", criterion_9),
    (10, "nonlinear smoothing regularity", criterion_10),
    (11, "exact bound table", criterion_11),
)

_BY_NUMBER = {number: (title, fn) for number, title, fn in CRITERIA}


def run_acceptance(numbers: Iterable[int] | None = None,
                   echo: Callable[[str], None] | None = None) -> AcceptanceReport:
    """Run the selected criteria (all by default), in numeric order."""
    wanted = sorted(set(numbers)) if numbers is not None else [n for n, _, _ in CRITERIA]
    if not wanted:
        raise ValueError(f"no criteria selected; valid numbers are 1..{len(CRITERIA)}")
    unknown = [n for n in wanted if n not in _BY_NUMBER]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; valid numbers are 1..{len(CRITERIA)}")
    results = []
    for n in wanted:
        title, criterion = _BY_NUMBER[n]
        start = time.perf_counter()
        checks = tuple(criterion())
        result = CriterionResult(n, title, checks, time.perf_counter() - start)
        results.append(result)
        if echo is not None:
            verdict = "pass" if result.passed else "FAIL"
            echo(f"[{n:2d}] {verdict}  {result.title}  ({result.elapsed:.1f}s)")
            for c in result.checks:
                if not c.passed:
                    echo(f"      FAIL {c.label}: observed {c.observed}, required {c.required}")
    return AcceptanceReport(tuple(results))
