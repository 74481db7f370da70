"""The benchmark's four seeded workloads, one task list each.

Each task list is fixed and built from the paper's own experiments
(acceptance criteria 2-4, 7, 9 and 10).  A task is one unit a user waits
for: one sweep cell, one slice analysis, or one solver segment.  All inputs
come from the seed; the package receives only the generated inputs.  Calls go
through module attributes (``expsum.sup_norm_sweep``, not a name bound at
import), so the traced run's wrappers see them.

Why these four:

* sweep-frac    -- horizontal sup sweeps of non-integer relations: the only
                   workload where the fixed-point non-integer phase path
                   (``iroot``, water-wave tanh) does heavy work; refinement
                   and phase dominate.
* sweep-oblique -- unit-slope oblique sweeps of the quadratic relation: the
                   integer big-integer phase path, frequencies spanning ~4N^2
                   folded onto a 16N grid; refinement dominates.
* slice-fractal -- slices through the fractal estimators with large grid
                   FFTs and no refinement; the Besov profile dominates.
* solver        -- chained split-step NLS and KdV segments: the only
                   workload where the nonlinear layer matters.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np
from talbot import dispersion, evolution, expsum, fixedpoint, fractal, nonlinear
from talbot.dispersion import TimePoint, seeded_theta
from talbot.evolution import SliceSpec
from talbot.initial_data import StepFunction

import oracles

Checks = list[tuple[str, bool]]


@dataclass
class Task:
    label: str
    run: Callable[[], Any]
    # (output, deep) -> checks; deep oracles run on the first pass only
    check: Callable[[Any, bool], Checks]


@dataclass
class Workload:
    inputs: dict
    tasks: Callable[[], list[Task]]   # a fresh task list, one per pass
    warm_up: Callable[[], None]       # first-call set-up, counted in setup_s
    reference: str                    # the hostref kernel that does this kind of work


def _theta_desc(tp: TimePoint) -> str:
    return f"{tp.describe()} (theta~{tp.theta_float:.17g})"


def _sample_modes(rng: random.Random, lo: int, hi: int, k: int = 8) -> list[int]:
    return sorted(rng.sample(range(lo, hi), k))


def _phase_check(rel_spec: str, theta, ns) -> Checks:
    rel = dispersion.parse_relation(rel_spec)
    got = dispersion.theta_omega_frac_array(rel, theta, ns)
    return oracles.phase_spot(rel_spec, theta, ns, got, fixedpoint.FRAC_BITS)


def _seeded_rational(rng: random.Random, q_lo: int, q_hi: int) -> tuple[int, int]:
    q = rng.randrange(q_lo, q_hi + 1)
    a = rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1] or [1])
    return a, q


def _seeded_step(rng: random.Random, pieces: int, complex_values: bool) -> StepFunction:
    """A step datum with ``pieces`` breakpoints on a 1/16 lattice."""
    bps = sorted(Fraction(k, 16) for k in rng.sample(range(16), pieces))
    vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1) if complex_values else 0.0)
            for _ in bps]
    return StepFunction(bps, vals)


def _mean_zero_step(rng: random.Random, pieces: int) -> StepFunction:
    """A real step datum with exactly representable, zero-mean values."""
    bps = sorted(Fraction(k, 16) for k in rng.sample(range(1, 16), pieces - 1))
    bps = [Fraction(0)] + bps
    lengths = [(bps[i + 1] if i + 1 < len(bps) else 1) - bps[i] for i in range(len(bps))]
    vals = [Fraction(rng.randrange(-16, 17), 16) for _ in bps[:-1]]
    last = -sum(v * ln for v, ln in zip(vals, lengths)) / lengths[-1]
    vals.append(last)
    peak = max(abs(v) for v in vals) or Fraction(1)
    return StepFunction(bps, [float(v / peak) for v in vals])


def _grid_bytes(points: int) -> int:
    """Bytes of one complex128 array of ``points`` samples, computed from its size."""
    return 16 * points


def _scaled(g: StepFunction, lam: float) -> StepFunction:
    return StepFunction(g.breakpoints, [lam * v for v in g.values])


# ---------------------------------------------------------------------------
# sweep-frac
# ---------------------------------------------------------------------------

FRAC_RELATIONS = ("frac:1/2", "frac:3/2", "frac:9/5", "gravity", "gravcap")
FRAC_SCALES = tuple(1 << j for j in range(10, 14))
PROBE_MAX_N = 1 << 12


def sweep_frac(seed: int) -> Workload:
    rng = random.Random(seed * 1000 + 1)
    times = (TimePoint.from_time(1.0), seeded_theta(seed * 1000 + 1))
    probes = {(rel, i, N): Fraction(rng.randrange(1 << 20), 1 << 20)
              for rel in FRAC_RELATIONS for i in range(len(times)) for N in FRAC_SCALES}
    spot = {(rel, i): _sample_modes(rng, FRAC_SCALES[-1], 2 * FRAC_SCALES[-1])
            for rel in FRAC_RELATIONS for i in range(len(times))}

    def cell(rel: str, i: int, N: int) -> Task:
        tp = times[i]

        def check(sweep, deep: bool) -> Checks:
            row = sweep.rows[0]
            out = oracles.sweep_row(row, N, horizontal=True)
            if deep and N <= PROBE_MAX_N:
                spec = expsum.BlockSpec(dispersion.parse_relation(rel), N)
                out += oracles.sup_dominates(row.sup_abs, [expsum.block_sum(spec, tp, probes[rel, i, N])])
            if deep and N == FRAC_SCALES[-1]:
                out += _phase_check(rel, tp.theta, spot[rel, i])
            return out

        return Task(f"{rel} {tp.describe()} N={N}",
                    lambda: expsum.sup_norm_sweep(rel, tp, [N]), check)

    def tasks() -> list[Task]:
        return [cell(rel, i, N) for i in range(len(times)) for rel in FRAC_RELATIONS
                for N in FRAC_SCALES]

    def warm_up() -> None:
        for rel in FRAC_RELATIONS:
            expsum.sup_norm_sweep(rel, times[1], [16])

    inputs = {"relations": list(FRAC_RELATIONS), "times": [_theta_desc(t) for t in times],
              "scales": list(FRAC_SCALES),
              "largest_array_bytes_computed": _grid_bytes(16 * FRAC_SCALES[-1]),
              "probe_points_turns": {f"{r} t{i} N={N}": str(x) for (r, i, N), x in probes.items()
                                     if N <= PROBE_MAX_N},
              "spot_modes": {f"{r} t{i}": ns for (r, i), ns in spot.items()}}
    return Workload(inputs, tasks, warm_up, reference="bigint")


# ---------------------------------------------------------------------------
# sweep-oblique
# ---------------------------------------------------------------------------

OBLIQUE_RELATION = "poly:-1,0,0"
OBLIQUE_SCALES = tuple(1 << j for j in range(8, 16))
OBLIQUE_INTERCEPTS = 2


def sweep_oblique(seed: int) -> Workload:
    rng = random.Random(seed * 1000 + 2)
    intercepts = [seeded_theta(seed * 1000 + 100 + i) for i in range(OBLIQUE_INTERCEPTS)]
    spot = [_sample_modes(rng, OBLIQUE_SCALES[-1], 2 * OBLIQUE_SCALES[-1]) for _ in intercepts]

    def cell(i: int, N: int) -> Task:
        slc = SliceSpec.oblique(intercepts[i], 1, 1)

        def check(sweep, deep: bool) -> Checks:
            out = oracles.sweep_row(sweep.rows[0], N, horizontal=False)
            if deep and N == OBLIQUE_SCALES[-1]:
                out += _phase_check(OBLIQUE_RELATION, intercepts[i].theta, spot[i])
            return out

        return Task(f"{OBLIQUE_RELATION} {slc.describe()} N={N}",
                    lambda: expsum.sup_norm_sweep(OBLIQUE_RELATION, slc, [N]), check)

    def tasks() -> list[Task]:
        return [cell(i, N) for i in range(len(intercepts)) for N in OBLIQUE_SCALES]

    def warm_up() -> None:
        expsum.sup_norm_sweep(OBLIQUE_RELATION, SliceSpec.oblique(intercepts[0], 1, 1), [16])

    inputs = {"relation": OBLIQUE_RELATION, "slope": "1/1",
              "intercepts": [_theta_desc(t) for t in intercepts],
              "scales": list(OBLIQUE_SCALES), "spot_modes": spot,
              "largest_array_bytes_computed": _grid_bytes(16 * OBLIQUE_SCALES[-1])}
    return Workload(inputs, tasks, warm_up, reference="fft-large")


# ---------------------------------------------------------------------------
# slice-fractal
# ---------------------------------------------------------------------------

SLICE_RELATION = "poly:-1,0,0"
HORIZONTAL_M, HORIZONTAL_LEN = 1 << 14, 1 << 18
OBLIQUE_M, OBLIQUE_LEN = 1 << 10, 1 << 20
IRRATIONAL_SLICES = 2
RATIONAL_SLICES = 2
QUANTIZE_CASES = 2
WEIERSTRASS_GAMMAS = (0.3, 0.5, 0.7)   # the calibration points of criterion 9
WEIERSTRASS_J, WEIERSTRASS_LEN = 18, 1 << 20


@dataclass
class SliceAnalysis:
    samples: np.ndarray
    box: float
    holder: float
    besov_l2: float | None


def _analyse(sg) -> SliceAnalysis:
    box = fractal.box_dimension(sg.samples.real).dimension
    holder = fractal.holder_exponent(sg.samples.real).slope
    besov = fractal.besov_profile(sg.samples).gamma(2)
    return SliceAnalysis(sg.samples, box, holder, besov)


def slice_fractal(seed: int) -> Workload:
    rng = random.Random(seed * 1000 + 3)
    datum = _seeded_step(rng, 3, complex_values=True)
    coeffs = datum.coefficients_array(HORIZONTAL_M)
    irr = [seeded_theta(seed * 1000 + 200 + i) for i in range(IRRATIONAL_SLICES)]
    rat = [TimePoint.rational(*_seeded_rational(rng, 5, 997)) for _ in range(RATIONAL_SLICES)]
    obl = seeded_theta(seed * 1000 + 300)
    quant_datum = StepFunction.indicator(Fraction(rng.randrange(8), 16), Fraction(rng.randrange(8, 16), 16))
    quant = [_seeded_rational(rng, 2, 6) for _ in range(QUANTIZE_CASES)]
    gamma = WEIERSTRASS_GAMMAS[seed % len(WEIERSTRASS_GAMMAS)]
    spot = _sample_modes(rng, -HORIZONTAL_M, HORIZONTAL_M + 1)

    def horizontal(tp: TimePoint) -> Task:
        def check(res: SliceAnalysis, deep: bool) -> Checks:
            out = oracles.slice_parseval(res.samples, coeffs)
            out += oracles.finite("slice estimators", res.box, res.holder, res.besov_l2)
            if deep:
                out += _phase_check(SLICE_RELATION, tp.theta, spot)
            return out

        return Task(f"horiz {tp.describe()} M={HORIZONTAL_M} len={HORIZONTAL_LEN}",
                    lambda: _analyse(evolution.evolve_slice(
                        SLICE_RELATION, datum, SliceSpec.horizontal(tp),
                        M=HORIZONTAL_M, length=HORIZONTAL_LEN)), check)

    def oblique() -> Task:
        def check(res: SliceAnalysis, deep: bool) -> Checks:
            out = oracles.finite("slice estimators", res.box, res.holder, res.besov_l2)
            if deep:
                out += _phase_check(SLICE_RELATION, obl.theta, spot)
            return out

        return Task(f"obliq {obl.describe()}:1/1 M={OBLIQUE_M} len={OBLIQUE_LEN}",
                    lambda: _analyse(evolution.evolve_slice(
                        SLICE_RELATION, datum, SliceSpec.oblique(obl, 1, 1),
                        M=OBLIQUE_M, length=OBLIQUE_LEN)), check)

    def quantize(a: int, q: int) -> Task:
        rel = dispersion.parse_relation(SLICE_RELATION)

        def run():
            res = evolution.quantize_verify(rel, quant_datum, a, q)
            return float(np.sum(np.abs(res.coefficients) ** 2)), res.deviation

        return Task(f"quantize {a}/{q}", run,
                    lambda out, deep: oracles.quantize(*out))

    def calibrate() -> Task:
        def run():
            w = fractal.weierstrass(gamma, J=WEIERSTRASS_J, length=WEIERSTRASS_LEN)
            return (fractal.box_dimension(w).dimension, fractal.holder_exponent(w).slope,
                    fractal.besov_profile(w, ps=(math.inf,)).gamma(math.inf))

        return Task(f"weierstrass gamma={gamma}", run,
                    lambda out, deep: oracles.weierstrass(gamma, *out))

    def tasks() -> list[Task]:
        return ([horizontal(tp) for tp in irr] + [horizontal(tp) for tp in rat]
                + [oblique()] + [quantize(a, q) for a, q in quant] + [calibrate()])

    def warm_up() -> None:
        for slc in (SliceSpec.horizontal(irr[0]), SliceSpec.horizontal(rat[0]),
                    SliceSpec.oblique(obl, 1, 1)):
            _analyse(evolution.evolve_slice(SLICE_RELATION, datum, slc, M=64, length=1 << 14))
        evolution.quantize_verify(dispersion.parse_relation(SLICE_RELATION), quant_datum, 1, 2,
                                  M=64, length=1 << 10)

    inputs = {"relation": SLICE_RELATION, "datum": repr(datum),
              "horizontal": {"M": HORIZONTAL_M, "length": HORIZONTAL_LEN,
                             "times": [_theta_desc(t) for t in irr + rat]},
              "oblique": {"M": OBLIQUE_M, "length": OBLIQUE_LEN, "intercept": _theta_desc(obl)},
              "quantize": {"datum": repr(quant_datum), "times": [f"{a}/{q}" for a, q in quant]},
              "weierstrass": {"gamma": gamma, "J": WEIERSTRASS_J, "length": WEIERSTRASS_LEN},
              "spot_modes": spot,
              "largest_array_bytes_computed": _grid_bytes(max(OBLIQUE_LEN, WEIERSTRASS_LEN))}
    return Workload(inputs, tasks, warm_up, reference="fft-large")


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

SOLVER_M = 1 << 10
NLS_DT, KDV_DT = 1e-4, 2e-5
SEGMENT_STEPS = 200
SEGMENTS = 2
AMPLITUDES = (0.25, 0.5, 1.0)


def solver(seed: int) -> Workload:
    rng = random.Random(seed * 1000 + 4)
    nls_datum = _seeded_step(rng, 3, complex_values=True)
    kdv_datum = _mean_zero_step(rng, 3)

    def chain(kind: str, lam: float) -> list[Task]:
        base = _scaled(nls_datum if kind == "nls" else kdv_datum, lam)
        state = {"g": base}

        def segment(k: int) -> Task:
            def run():
                if kind == "nls":
                    tr = nonlinear.nls_wick_solve(state["g"], sign=1, M=SOLVER_M, dt=NLS_DT,
                                                  t_max=SEGMENT_STEPS * NLS_DT)
                else:
                    tr = nonlinear.kdv_solve(state["g"], M=SOLVER_M, dt=KDV_DT,
                                             t_max=SEGMENT_STEPS * KDV_DT)
                state["g"] = tr.final.modes
                res = nonlinear.smoothing_residual(tr).samples
                return tr, res, fractal.holder_exponent(res.real).slope

            def check(out, deep: bool) -> Checks:
                tr, res, holder = out
                checks = oracles.finite("residual holder", holder)
                if kind == "nls":
                    return checks + oracles.nls_segment(tr.l2_drift)
                return checks + oracles.kdv_segment(tr.final.modes, tr.mean_drift, res)

            return Task(f"{kind} lambda={lam} segment {k}", run, check)

        return [segment(k) for k in range(SEGMENTS)]

    def tasks() -> list[Task]:
        return [t for lam in AMPLITUDES for kind in ("nls", "kdv") for t in chain(kind, lam)]

    def warm_up() -> None:
        tr = nonlinear.nls_wick_solve(nls_datum, M=64, dt=NLS_DT, t_max=4 * NLS_DT)
        fractal.holder_exponent(nonlinear.smoothing_residual(tr).samples.real)
        tr = nonlinear.kdv_solve(kdv_datum, M=64, dt=KDV_DT, t_max=4 * KDV_DT)
        fractal.holder_exponent(nonlinear.smoothing_residual(tr).samples)

    inputs = {"nls_datum": repr(nls_datum), "kdv_datum": repr(kdv_datum),
              "amplitudes": list(AMPLITUDES), "M": SOLVER_M,
              "nls": {"dt": NLS_DT, "segment_steps": SEGMENT_STEPS, "segments": SEGMENTS},
              "kdv": {"dt": KDV_DT, "segment_steps": SEGMENT_STEPS, "segments": SEGMENTS},
              "largest_array_bytes_computed": _grid_bytes(4 * SOLVER_M)}
    return Workload(inputs, tasks, warm_up, reference="fft-small")


WORKLOADS = {"sweep-frac": sweep_frac, "sweep-oblique": sweep_oblique,
             "slice-fractal": slice_fractal, "solver": solver}
