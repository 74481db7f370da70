"""Self-test of the correctness oracles: each passes on a clean value and
fires on a corrupted one.

    python3 perfbench/selftest.py      # from the root of a checkout

Exits 1 if an oracle rejects a clean value or misses a corrupted one.
"""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from worker import _import_package

_import_package(Path.cwd())

from talbot import dispersion, evolution, expsum, fixedpoint, nonlinear  # noqa: E402
from talbot.dispersion import TimePoint, seeded_theta  # noqa: E402
from talbot.evolution import SliceSpec  # noqa: E402
from talbot.initial_data import StepFunction  # noqa: E402

import oracles  # noqa: E402


def _phase(spec: str, theta, ns, corrupt: bool):
    got = dispersion.theta_omega_frac_array(dispersion.parse_relation(spec), theta, ns)
    if corrupt:
        got = got.copy()
        got[len(got) // 2] = math.fmod(got[len(got) // 2] + 2.0 ** -50, 1.0)
    return oracles.phase_spot(spec, theta, ns, got, fixedpoint.FRAC_BITS)


def cases():
    t1 = TimePoint.from_time(1.0)
    row = expsum.sup_norm_sweep("frac:3/2", t1, [64]).rows[0]
    yield "sweep row, Parseval", oracles.sweep_row(row, 64, True), \
        oracles.sweep_row(row.__class__(**{**row.__dict__, "l2": row.l2 * 1.001}), 64, True)
    yield "sweep row, l4 <= sup", oracles.sweep_row(row, 64, False), \
        oracles.sweep_row(row.__class__(**{**row.__dict__, "l4": row.sup_abs * 1.01}), 64, False)
    yield "sweep row, sup <= #modes", oracles.sweep_row(row, 64, False), \
        oracles.sweep_row(row.__class__(**{**row.__dict__, "sup_abs": 64.5}), 64, False)

    spec = expsum.BlockSpec(dispersion.parse_relation("frac:3/2"), 64)
    probe = expsum.block_sum(spec, t1, Fraction(3, 7))
    yield "sup >= |block_sum|", oracles.sup_dominates(row.sup_abs, [probe]), \
        oracles.sup_dominates(abs(probe) * 0.99, [probe])

    theta = seeded_theta(7)
    for spec_, th, ns in (("frac:9/5", theta.theta, [1025, 2000, 3001]),
                          ("gravity", theta.theta, [1025, 2000, 3001]),
                          ("gravcap", theta.theta, [1025, 2000, 3001]),
                          ("poly:-1,0,0", theta.theta, [-40000, 5, 32769]),
                          ("poly:-1,0,0", Fraction(5, 97), [-40000, 5, 32769])):
        yield f"phase spot {spec_} {type(th).__name__}", _phase(spec_, th, ns, False), \
            _phase(spec_, th, ns, True)

    g = StepFunction.indicator(Fraction(1, 8), Fraction(5, 8))
    sg = evolution.evolve_slice("poly:-1,0,0", g, SliceSpec.horizontal(theta), M=256, length=1 << 12)
    coeffs = g.coefficients_array(256)
    yield "slice Parseval", oracles.slice_parseval(sg.samples, coeffs), \
        oracles.slice_parseval(sg.samples * 1.0001, coeffs)
    yield "finite", oracles.finite("x", 1.5, 0.3), oracles.finite("x", 1.5, float("nan"))

    q = evolution.quantize_verify(dispersion.parse_relation("poly:-1,0,0"), g, 1, 3)
    mass = float(np.sum(np.abs(q.coefficients) ** 2))
    yield "quantize mass", oracles.quantize(mass, q.deviation), oracles.quantize(mass + 1e-11, q.deviation)
    yield "quantize deviation", oracles.quantize(mass, q.deviation), oracles.quantize(mass, 3e-3)

    yield "weierstrass box", oracles.weierstrass(0.5, 1.48, 0.49, 0.5), \
        oracles.weierstrass(0.5, 1.44, 0.49, 0.5)
    yield "weierstrass holder", oracles.weierstrass(0.5, 1.48, 0.49, 0.5), \
        oracles.weierstrass(0.5, 1.48, 0.56, 0.5)
    yield "weierstrass sup-decay", oracles.weierstrass(0.5, 1.48, 0.49, 0.5), \
        oracles.weierstrass(0.5, 1.48, 0.49, 0.53)

    nls = nonlinear.nls_wick_solve(g, M=64, dt=1e-4, t_max=2e-3)
    yield "nls mass drift", oracles.nls_segment(nls.l2_drift), oracles.nls_segment(nls.l2_drift + 1e-7)

    g0 = StepFunction((Fraction(0), Fraction(1, 2)), (0.5, -0.5))
    kdv = nonlinear.kdv_solve(g0, M=64, dt=2e-5, t_max=4e-4)
    modes = kdv.final.modes
    res = nonlinear.smoothing_residual(kdv).samples
    clean = oracles.kdv_segment(modes, kdv.mean_drift, res)
    shifted = modes.copy()
    shifted[64] = 1e-300
    yield "kdv mean", clean, oracles.kdv_segment(shifted, kdv.mean_drift, res)
    skewed = modes.copy()
    skewed[65] += 1e-15j
    yield "kdv real (modes)", clean, oracles.kdv_segment(skewed, kdv.mean_drift, res)
    yield "kdv real (residual)", clean, oracles.kdv_segment(modes, kdv.mean_drift, res + 0j)


def main() -> int:
    bad = 0
    for name, clean, corrupted in cases():
        clean_ok = all(ok for _, ok in clean)
        fired = [label for label, ok in corrupted if not ok]
        verdict = "ok" if clean_ok and fired else "BROKEN"
        bad += verdict != "ok"
        print(f"{verdict:6s} {name}: clean passes={clean_ok}, corrupted fires={fired}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
