"""Wick-ordered NLS and KdV solvers: exactness, invariants, and residuals."""
import math
from fractions import Fraction

import numpy as np
import pytest

from talbot import (BlowUpError, SpectralField, StepFunction, kdv_solve,
                    linear_flow_modes, nls_wick_solve, smoothing_residual,
                    wick_constant, write_snapshot_csv)
from talbot._fftsum import next_pow2, next_smooth
from talbot.nonlinear import BLOWUP_LINF, KDV_RELATION, NLS_RELATION, _half_step


def mode_array(M: int, **modes: complex) -> np.ndarray:
    c = np.zeros(2 * M + 1, dtype=complex)
    for key, val in modes.items():
        c[M + int(key.lstrip("n_").replace("m", "-"))] = val
    return c


def cosine_datum(M: int, amplitude: float = 1.0) -> np.ndarray:
    c = np.zeros(2 * M + 1, dtype=complex)
    c[M + 1] = amplitude / 2.0
    c[M - 1] = amplitude / 2.0
    return c


# -- complex-FFT oracles ---------------------------------------------------------------
# The solvers' earlier loops: the full centred spectrum through complex FFTs, scaled
# by G by hand, and for KdV a re-projection onto conjugate symmetry every step.  Each
# returns (snapshot modes, l2 drift, warnings) or raises the same BlowUpError.  The
# grid follows the solvers' rule unless G is given.

def nls_oracle(c, sign, M, dt, steps, snaps, G=None):
    c = np.array(c, dtype=np.complex128)
    P = 2.0 * float(np.sum(np.abs(c) ** 2))
    ns = np.arange(-M, M + 1, dtype=np.int64)
    G = G or next_smooth(4 * M + 1)
    idx = ns % G
    half = np.exp(-1j * dt / 2.0 * ns.astype(np.float64) ** 2)
    l2_ref = float(np.sqrt(np.sum(np.abs(c) ** 2)))
    drift, fields = 0.0, [c.copy()] if 0 in snaps else []
    spec = np.zeros(G, dtype=np.complex128)
    for i in range(1, steps + 1):
        c *= half
        spec[:] = 0.0
        spec[idx] = c
        vals = np.fft.ifft(spec) * G
        absq = np.abs(vals) ** 2
        linf = float(np.sqrt(absq.max()))
        if linf > BLOWUP_LINF:
            raise BlowUpError("nls", i, i * dt, linf, math.sqrt(float(np.mean(absq))))
        vals *= np.exp((1j * sign * dt) * (absq - P))
        c = np.fft.fft(vals)[idx] / G
        c *= half
        drift = max(drift, abs(float(np.sqrt(np.sum(np.abs(c) ** 2))) - l2_ref))
        if i in snaps:
            fields.append(c.copy())
    return fields, drift, ()


def kdv_oracle(c, M, dt, steps, snaps, G=None):
    c = np.array(c, dtype=np.complex128)
    c = (c + np.conj(c[::-1])) / 2.0
    c[M] = 0.0
    ns = np.arange(-M, M + 1, dtype=np.int64)
    G = G or max(next_smooth(3 * M + 1), 16)
    idx = ns % G
    E = np.exp(1j * (dt / 2.0) * ns.astype(np.float64) ** 3)
    E2 = E * E
    halfin = -0.5j * ns.astype(np.float64)
    spec = np.zeros(G, dtype=np.complex128)

    def rhs(modes):
        spec[:] = 0.0
        spec[idx] = modes
        vals = (np.fft.ifft(spec) * G).real
        return halfin * (np.fft.fft(vals * vals)[idx] / G), float(np.max(np.abs(vals)))

    l2_ref = float(np.sqrt(np.sum(np.abs(c) ** 2)))
    drift, warnings, fields = 0.0, [], [c.copy()] if 0 in snaps else []
    for i in range(1, steps + 1):
        k1, linf = rhs(c)
        if linf > BLOWUP_LINF:
            raise BlowUpError("kdv", i, i * dt, linf, float(np.sqrt(np.sum(np.abs(c) ** 2))))
        if not warnings and dt * linf * M > math.pi / 4:
            warnings.append(f"nonlinear rotation per step dt*linf*M = "
                            f"{dt * linf * M:.3g} exceeds pi/4 at t={i * dt:.6g}")
        k2, _ = rhs(E * (c + (dt / 2.0) * k1))
        k3, _ = rhs(E * c + (dt / 2.0) * k2)
        k4, _ = rhs(E2 * c + dt * (E * k3))
        c = E2 * c + (dt / 6.0) * (E2 * k1 + 2.0 * (E * (k2 + k3)) + k4)
        c = (c + np.conj(c[::-1])) / 2.0
        c[M] = 0.0
        drift = max(drift, abs(float(np.sqrt(np.sum(np.abs(c) ** 2))) - l2_ref))
        if i in snaps:
            fields.append(c.copy())
    return fields, drift, tuple(warnings)


NLS_STEP = StepFunction((Fraction(0), Fraction(1, 3), Fraction(3, 4)), (1 + 0.5j, -0.5, 0.25j))
KDV_STEP = StepFunction((Fraction(0), Fraction(1, 4), Fraction(5, 8)), (0.9, -0.9, 0.3))
NLS_DT, KDV_DT, STEPS = 1e-4, 1e-3, 20


def scaled(g: StepFunction, lam: float) -> StepFunction:
    return StepFunction(g.breakpoints, [lam * v for v in g.values])


def solve_both(kind, lam, M):
    g = scaled(NLS_STEP if kind == "nls" else KDV_STEP, lam)
    c = g.coefficients_array(M)
    snaps = {0, STEPS // 2, STEPS}
    if kind == "nls":
        dt = NLS_DT
        traj = nls_wick_solve(g, sign=1, M=M, dt=dt, t_max=STEPS * dt,
                              snapshot_times=(0.0, STEPS // 2 * dt))
        return traj, nls_oracle(c, 1, M, dt, STEPS, snaps)
    dt = KDV_DT
    traj = kdv_solve(g, M=M, dt=dt, t_max=STEPS * dt, snapshot_times=(0.0, STEPS // 2 * dt))
    return traj, kdv_oracle(c, M, dt, STEPS, snaps)


@pytest.mark.parametrize("M", [8, 64, 1024])
@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("kind", ["nls", "kdv"])
def test_solver_matches_complex_fft_oracle(kind, lam, M):
    traj, (modes, drift, warnings) = solve_both(kind, lam, M)
    assert [f.step for f in traj.fields] == [0, STEPS // 2, STEPS]
    for f, ref in zip(traj.fields, modes, strict=True):
        scale = float(np.max(np.abs(ref)))
        np.testing.assert_allclose(f.modes, ref, rtol=0, atol=1e-12 * scale)
    assert traj.l2_drift == pytest.approx(drift, rel=0, abs=1e-12)
    assert traj.warnings == warnings


@pytest.mark.parametrize("M", [8, 64, 1024])
def test_kdv_grid_size_moves_results_by_rounding_only(M):
    # both grids exceed the dealiasing bound 3M + 1, so the product is alias-free on each
    traj, _ = solve_both("kdv", 1.0, M)
    c = scaled(KDV_STEP, 1.0).coefficients_array(M)
    modes, _, _ = kdv_oracle(c, M, KDV_DT, STEPS, {0, STEPS // 2, STEPS},
                             G=max(next_pow2(4 * M), 16))
    for f, ref in zip(traj.fields, modes, strict=True):
        np.testing.assert_allclose(f.modes, ref, rtol=0, atol=1e-15 * float(np.max(np.abs(ref))))


@pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
def test_nls_grid_size_moves_results_within_the_stated_tolerance(lam):
    # the cubic rotation is not band-limited, so its aliasing depends on G; at M = 1024
    # the 4320-point grid and the power-of-two 8192 agree to 1e-13 after 20 steps
    M = 1024
    traj, _ = solve_both("nls", lam, M)
    c = scaled(NLS_STEP, lam).coefficients_array(M)
    modes, _, _ = nls_oracle(c, 1, M, NLS_DT, STEPS, {0, STEPS // 2, STEPS},
                             G=next_pow2(2 * (2 * M + 1)))
    for f, ref in zip(traj.fields, modes, strict=True):
        np.testing.assert_allclose(f.modes, ref, rtol=0, atol=1e-13 * float(np.max(np.abs(ref))))


def test_solver_grids_are_least_even_5_smooth_above_the_dealiasing_bound():
    assert kdv_solve(cosine_datum(1024), M=1024, dt=KDV_DT, t_max=0.0).grid == 3200
    assert nls_wick_solve(cosine_datum(1024), M=1024, dt=NLS_DT, t_max=0.0).grid == 4320
    for M in range(1, 2049):
        kdv = kdv_solve(cosine_datum(M), M=M, dt=KDV_DT, t_max=0.0).grid
        nls = nls_wick_solve(cosine_datum(M), M=M, dt=NLS_DT, t_max=0.0).grid
        assert 3 * M + 1 <= kdv <= max(next_pow2(4 * M), 16)
        assert 4 * M + 1 <= nls <= next_pow2(2 * (2 * M + 1))
        assert kdv % 2 == nls % 2 == 0


def test_oracle_comparison_covers_the_rotation_warning():
    traj, (_, _, warnings) = solve_both("kdv", 1.0, 1024)
    assert len(warnings) == 1 and traj.warnings == warnings


@pytest.mark.parametrize("kind, lam, M", [
    ("nls", 800, 64), ("nls", 700, 1024), ("nls", 900, 8),
    ("kdv", 700, 8), ("kdv", 500, 1024), ("kdv", 900, 64),
])
def test_blowup_step_matches_complex_fft_oracle(kind, lam, M):
    with pytest.raises(BlowUpError) as new:
        solve_both(kind, lam, M)
    g = scaled(NLS_STEP if kind == "nls" else KDV_STEP, lam)
    c = g.coefficients_array(M)
    with pytest.raises(BlowUpError) as ref:
        if kind == "nls":
            nls_oracle(c, 1, M, NLS_DT, STEPS, {STEPS})
        else:
            kdv_oracle(c, M, KDV_DT, STEPS, {STEPS})
    assert (new.value.kind, new.value.step) == (ref.value.kind, ref.value.step)
    assert new.value.time == ref.value.time
    assert new.value.linf == pytest.approx(ref.value.linf, rel=1e-12)
    assert new.value.l2 == pytest.approx(ref.value.l2, rel=1e-12)


@pytest.mark.parametrize("M", [8, 64, 1024])
def test_kdv_snapshots_are_exactly_conjugate_symmetric(M):
    traj = kdv_solve(scaled(KDV_STEP, 1.0), M=M, dt=KDV_DT, t_max=STEPS * KDV_DT,
                     snapshot_times=(0.0, STEPS // 2 * KDV_DT))
    for f in traj.fields:
        c = f.modes
        assert np.array_equal(c, np.conj(c[::-1]))
        assert c[M] == 0.0
    assert np.array_equal(traj.datum_modes, traj.fields[0].modes)


# -- Wick constant -------------------------------------------------------------------

def test_wick_constant_of_step_datum():
    # (1/pi)||g||^2 = 1 for the half indicator; the modes beyond M carry
    # 2 * sum_{odd n > M} 2/(pi n)^2 ~ 2/(pi^2 M) of it
    M = 1 << 12
    g = StepFunction.indicator(Fraction(0), Fraction(1, 2))
    P = wick_constant(g.coefficients_array(M))
    assert P < 1.0
    assert 1.0 - P == pytest.approx(2.0 / (math.pi ** 2 * M), rel=1e-2)


def test_wick_constant_of_mode_array():
    c = mode_array(4, n_0=0.5)
    assert wick_constant(c) == pytest.approx(0.5, abs=1e-14)
    assert wick_constant(StepFunction.constant(2.0).coefficients_array(4)) == pytest.approx(8.0)


def test_nls_wick_is_the_truncated_wick_constant():
    M = 64
    c = NLS_STEP.coefficients_array(M)
    traj = nls_wick_solve(NLS_STEP, M=M, dt=NLS_DT, t_max=0.0)
    assert traj.wick == wick_constant(c) == 2.0 * float(np.sum(np.abs(c) ** 2))


def test_wick_constant_validation():
    with pytest.raises(ValueError):
        wick_constant(np.zeros(4, dtype=complex))  # even length


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_wick_constant_rejects_non_finite_modes(bad):
    c = mode_array(8, n_1=0.5)
    c[8] = bad
    with pytest.raises(ValueError, match="datum must be finite"):
        wick_constant(c)


# -- exact special solutions -----------------------------------------------------------

@pytest.mark.parametrize("sign", [1, -1])
def test_constant_datum_is_a_pure_rotation(sign):
    # iu_t +/- (|u|^2 - P)u = 0 with u = A: P = 2A^2, so u(t) = A e^{-/+ i A^2 t}
    A, M, t_max = 0.5, 4, 0.1
    traj = nls_wick_solve(mode_array(M, n_0=A), sign=sign, M=M, dt=1e-3,
                          t_max=t_max)
    expected = A * np.exp(-1j * sign * A * A * t_max)
    final = traj.final.modes
    assert complex(final[M]) == pytest.approx(expected, abs=1e-12)
    assert float(np.max(np.abs(np.delete(final, M)))) < 1e-14
    assert traj.l2_drift < 1e-13
    assert traj.wick == pytest.approx(2.0 * A * A, abs=1e-14)


def test_zero_datum_stays_zero():
    M = 8
    traj = nls_wick_solve(np.zeros(2 * M + 1, dtype=complex), M=M, dt=1e-3,
                          t_max=0.05)
    assert float(np.max(np.abs(traj.final.modes))) == 0.0
    assert traj.l2_drift == 0.0


def test_gauge_phase_equivariance():
    # |u|^2 is phase-blind, so g -> e^{i phi} g maps the solution the same way
    M, phi = 16, 0.7
    g = mode_array(M, n_0=1.0, n_1=0.5)
    base = nls_wick_solve(g, M=M, dt=1e-3, t_max=0.05).final.modes
    rotated = nls_wick_solve(g * np.exp(1j * phi), M=M, dt=1e-3,
                             t_max=0.05).final.modes
    np.testing.assert_allclose(rotated, base * np.exp(1j * phi), atol=1e-12)


# -- convergence orders ----------------------------------------------------------------

def test_nls_strang_splitting_is_second_order():
    M = 16
    g = mode_array(M, n_0=1.0, n_1=0.5)
    finals = {dt: nls_wick_solve(g, M=M, dt=dt, t_max=0.1).final.modes
              for dt in (2e-4, 1e-4, 5e-5)}
    d1 = np.linalg.norm(finals[2e-4] - finals[1e-4])
    d2 = np.linalg.norm(finals[1e-4] - finals[5e-5])
    assert 3.7 <= d1 / d2 <= 4.3


def test_kdv_integrating_factor_rk4_is_fourth_order():
    M = 32
    g = cosine_datum(M, 2.0)
    finals = {dt: kdv_solve(g, M=M, dt=dt, t_max=0.2).final.modes
              for dt in (4e-4, 2e-4, 1e-4)}
    e1 = np.linalg.norm(finals[4e-4] - finals[2e-4])
    e2 = np.linalg.norm(finals[2e-4] - finals[1e-4])
    assert 12.0 <= e1 / e2 <= 20.0


# -- conserved quantities ---------------------------------------------------------------

def test_kdv_conserves_mass_and_l2():
    traj = kdv_solve(cosine_datum(1 << 8), M=1 << 8, dt=2e-4, t_max=0.2)
    assert traj.mean_drift == 0.0
    assert traj.l2_drift < 1e-12
    assert traj.warnings == ()


def test_kdv_solution_stays_real():
    traj = kdv_solve(cosine_datum(32, 1.5), M=32, dt=2e-4, t_max=0.1)
    c = traj.final.modes
    np.testing.assert_allclose(c, np.conj(c[::-1]), atol=1e-14)
    assert abs(c[32]) == 0.0


# -- guards and validation ---------------------------------------------------------------

def test_nls_blowup_guard():
    with pytest.raises(BlowUpError) as info:
        nls_wick_solve(cosine_datum(8, 1200.0), M=8, dt=1e-3, t_max=0.01)
    assert info.value.kind == "nls"
    assert info.value.step == 1
    assert info.value.linf > 1e3


def test_kdv_blowup_guard():
    with pytest.raises(BlowUpError) as info:
        kdv_solve(cosine_datum(8, 1200.0), M=8, dt=1e-3, t_max=0.01)
    assert info.value.kind == "kdv"


def test_kdv_rejects_complex_datum():
    M = 8
    with pytest.raises(ValueError):
        kdv_solve(mode_array(M, n_1=1.0), M=M, dt=1e-3, t_max=0.01)


def test_kdv_rejects_nonzero_mean():
    M = 8
    with pytest.raises(ValueError):
        kdv_solve(mode_array(M, n_0=0.3), M=M, dt=1e-3, t_max=0.01)


@pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
@pytest.mark.parametrize("solve, g", [
    (nls_wick_solve, mode_array(8, n_0=math.nan)),
    (kdv_solve, mode_array(8, n_0=math.nan)),
    (kdv_solve, StepFunction((Fraction(0), Fraction(1, 2)), (math.inf, 1.0))),
])
def test_solvers_reject_a_non_finite_datum(solve, g):
    with pytest.raises(ValueError, match="datum must be finite"):
        solve(g, M=8, dt=1e-3, t_max=0.01)


def test_solver_parameter_validation():
    M = 8
    g = mode_array(M, n_0=0.1)
    with pytest.raises(ValueError):
        nls_wick_solve(g, sign=0, M=M, dt=1e-3, t_max=0.01)
    with pytest.raises(ValueError):
        nls_wick_solve(g, M=M, dt=5e-3, t_max=0.01)  # dt too large
    with pytest.raises(ValueError):
        nls_wick_solve(g, M=M, dt=1e-3, t_max=-1.0)
    with pytest.raises(ValueError):
        nls_wick_solve(g, M=M, dt=1e-3, t_max=0.0105)  # not a step multiple
    with pytest.raises(ValueError):
        nls_wick_solve(np.zeros(2 * 4096 + 1, dtype=complex), M=4096,
                       dt=1e-3, t_max=0.01)  # too many modes


def test_snapshot_validation():
    M = 8
    g = mode_array(M, n_0=0.1)
    with pytest.raises(ValueError):
        nls_wick_solve(g, M=M, dt=1e-3, t_max=0.01, snapshot_times=(0.5,))
    with pytest.raises(ValueError):
        nls_wick_solve(g, M=M, dt=1e-3, t_max=0.01, snapshot_times=(-0.001,))
    # a time between steps is refused, not snapped to the nearest step
    for times in ((1.5e-4,), (1e-4, 3.49e-4), (2e-4 + 1e-8,)):
        with pytest.raises(ValueError, match="multiple of dt"):
            nls_wick_solve(g, M=M, dt=1e-4, t_max=1e-3, snapshot_times=times)
        with pytest.raises(ValueError, match="multiple of dt"):
            kdv_solve(cosine_datum(M), M=M, dt=1e-4, t_max=1e-3, snapshot_times=times)
    traj = nls_wick_solve(g, M=M, dt=1e-4, t_max=1e-3, snapshot_times=(1e-4, 3e-4, 1e-3))
    assert [f.step for f in traj.fields] == [1, 3, 10]


# -- snapshots and manifests ---------------------------------------------------------------

def test_snapshot_times_and_exact_time():
    M = 8
    traj = nls_wick_solve(mode_array(M, n_0=0.5), M=M, dt=1e-3, t_max=0.05,
                          snapshot_times=(0.0, 0.025))
    assert traj.times == (0.0, 0.025, 0.05)
    assert traj.final is traj.fields[-1]
    assert traj.fields[0].step == 0
    exact = traj.exact_time()
    assert isinstance(exact, Fraction)
    assert exact == 50 * Fraction(1e-3)
    assert float(exact) == pytest.approx(0.05, abs=1e-12)


def test_run_manifest_fields():
    M = 8
    traj = kdv_solve(cosine_datum(M, 0.5), M=M, dt=1e-3, t_max=0.01)
    man = traj.run_manifest()
    for key in ("kind", "relation", "M", "dt", "grid", "snapshots",
                "l2_drift", "mean_drift", "warnings"):
        assert key in man
    assert man["kind"] == "kdv"
    assert man["M"] == M


# -- linear flow and residual -----------------------------------------------------------

def test_residual_vanishes_at_time_zero():
    M = 8
    g = mode_array(M, n_0=1.0, n_1=0.5)
    traj = nls_wick_solve(g, M=M, dt=1e-3, t_max=0.0)
    np.testing.assert_allclose(linear_flow_modes(traj), g, atol=1e-15)
    res = smoothing_residual(traj, length=64)
    assert float(np.max(np.abs(res.samples))) == 0.0


def test_linear_flow_uses_exact_phases():
    # a one-mode datum evolves as a pure linear phase, so the residual is
    # the (tiny) Wick rotation mismatch only
    M = 8
    g = mode_array(M, n_1=0.1)
    traj = nls_wick_solve(g, M=M, dt=1e-3, t_max=0.1)
    flow = linear_flow_modes(traj)
    # the solver applies e^{-in^2 t} and the constant rotation e^{+i P t}
    # (|u|^2 = P/2 is constant for one mode, so |u|^2 - P = -P/2 ... )
    assert abs(abs(complex(flow[M + 1])) - 0.1) < 1e-14
    res = smoothing_residual(traj, length=64)
    assert res.provenance["kind"] == "nls-residual"


@pytest.mark.parametrize("M", [8, 64, 1024])
@pytest.mark.parametrize("dt", [1e-5, 2e-5, 1e-3])
def test_half_steps_are_the_literal_linear_factors(M, dt):
    # the factors the solvers wrote out as -n^2 and n^3, byte for byte
    # (signed zeros included), now read from the relations they record
    nls = np.exp(-1j * dt / 2.0 * np.arange(-M, M + 1, dtype=np.float64) ** 2)
    kdv = np.exp(1j * (dt / 2.0) * np.arange(M + 1, dtype=np.float64) ** 3)
    assert _half_step(NLS_RELATION, np.arange(-M, M + 1), dt).tobytes() == nls.tobytes()
    assert _half_step(KDV_RELATION, np.arange(M + 1), dt).tobytes() == kdv.tobytes()


def test_residual_length_validation():
    M = 8
    traj = nls_wick_solve(mode_array(M, n_0=0.5), M=M, dt=1e-3, t_max=0.0)
    with pytest.raises(ValueError):
        smoothing_residual(traj, length=8)  # below 2M+1
    with pytest.raises(ValueError):
        smoothing_residual(traj, length=100)


def test_kdv_residual_is_real():
    M = 16
    traj = kdv_solve(cosine_datum(M, 1.0), M=M, dt=1e-3, t_max=0.05)
    res = smoothing_residual(traj, length=256)
    assert res.samples.dtype == np.float64


# -- spectral fields and CSV dumps ---------------------------------------------------------

def test_spectral_field_values():
    field = SpectralField(modes=mode_array(4, n_0=2.0), step=0, time=0.0)
    np.testing.assert_allclose(field.values(), np.full(16, 2.0 + 0j), atol=1e-14)
    wave = SpectralField(modes=mode_array(4, n_1=1.0), step=0, time=0.0).values()
    np.testing.assert_allclose(wave, np.exp(2j * np.pi * np.arange(16) / 16), atol=1e-14)


def test_write_snapshot_csv(tmp_path):
    field = SpectralField(modes=mode_array(4, n_0=1.5), step=0, time=0.0)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(field, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 1 + 16
    x, re, im = lines[1].split(",")
    assert float(x) == 0.0
    assert float(re) == pytest.approx(1.5)
    assert float(im) == pytest.approx(0.0)


def test_write_snapshot_csv_of_residual(tmp_path):
    M = 8
    traj = nls_wick_solve(mode_array(M, n_0=0.5), M=M, dt=1e-3, t_max=0.01)
    res = smoothing_residual(traj, length=32)
    path = tmp_path / "res.csv"
    write_snapshot_csv(res, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 1 + 32
