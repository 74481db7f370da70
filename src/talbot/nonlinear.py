"""Spectral solvers for the Wick-ordered cubic NLS and for KdV on the torus.

NLS  iu_t + u_xx ± (|u|² − P)u = 0 with the Wick constant P = (1/π)‖g‖²_{L²},
solved by Strang splitting in which both substeps are exact: the linear
half-steps are diagonal phase rotations in mode space, and the nonlinear
step is a pointwise phase rotation u → u·e^{±i(|u|²−P)dt} on a padded
physical grid.  While θ_max = dt·max(max|u|² − P, P) ≤ 1/2, that rotation
e^{iθ} is cos θ = C(θ²) and sin θ = θ·S(θ²), Horner polynomials of order
``taylor_order(θ_max)`` that agree with libm's cos and sin to one ulp
without calling them; beyond 1/2 it is libm's.  KdV  u_t + u_xxx + u·u_x = 0
is solved by integrating-factor RK4 in mode space with an alias-free
quadratic term; the field is real, so only the modes n = 0..M are stepped,
through one real FFT pair per stage, into buffers every stage reuses.
Both solvers run one stepping loop that keeps the snapshots, the L² drift
and the blow-up guard.
Each grid is the least even 2^a·3^b·5^c length (``next_smooth``) at the
dealiasing bound: G ≥ 3M + 1 for KdV's quadratic term, alias-free, and
G ≥ 4M + 1 for NLS's cubic one, whose rotation is not band-limited, so its
higher-order aliasing depends on G (3200 and 4320 points at M = 1024).

Both solvers declare the truncated datum P_{≤M}g as the actual initial
condition of the experiment; ``smoothing_residual`` subtracts the exact
linear flow of that same truncated datum, so the residual is free of
truncation mismatch and its regularity can be probed directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from ._fftsum import check_grid, grid_values, is_pow2, next_pow2, next_smooth, taylor_order
from .dispersion import FixedReal, oblique_frequencies, parse_relation, two_pi
from .evolution import SampleGrid, SliceSpec, _datum_coefficients, line_spectrum

MAX_MODES = 1 << 11
MAX_DT = 1e-3
BLOWUP_LINF = 1e3
#: Largest θ_max whose rotation e^{iθ} comes from the Horner series, not libm.
ROTATION_TAYLOR_MAX = 0.5
# the series' coefficients in x = θ²: cos θ = Σ_j _COS[j]·x^j, sin θ = θ·Σ_j _SIN[j]·x^j;
# taylor_order(1/2) = 17 needs nine of each
_COS = tuple((-1) ** j / math.factorial(2 * j) for j in range(9))
_SIN = tuple((-1) ** j / math.factorial(2 * j + 1) for j in range(9))

NLS_RELATION = "poly:-1,0,0"   # linear part iu_t + u_xx = 0  ->  e^{-in^2 t}
KDV_RELATION = "poly:1,0,0,0"  # linear part u_t + u_xxx = 0  ->  e^{+in^3 t}


class BlowUpError(RuntimeError):
    """Raised when the sup norm crosses the guard threshold mid-run."""

    def __init__(self, kind: str, step: int, time: float, linf: float, l2: float):
        super().__init__(f"{kind} blow-up guard tripped at step {step} "
                         f"(t={time:.6g}): linf={linf:.6g}, l2={l2:.6g}")
        self.kind = kind
        self.step = step
        self.time = time
        self.linf = linf
        self.l2 = l2


def wick_constant(modes) -> float:
    """P = (1/π)‖g‖²_{L²(𝕋)} = 2·Σ|ĝ(n)|² of the centred mode array of g.

    For the modes of P_{≤M}g this is the Wick constant of the declared
    initial condition.  The array must be 1-d, of odd length and finite.
    """
    coeffs = _datum_coefficients(modes, (len(modes) - 1) // 2)
    return 2.0 * float(np.sum(np.abs(coeffs) ** 2))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """One snapshot of a mode-truncated field u(t,x) = Σ_{|n|≤M} c_n e^{inx}."""

    modes: np.ndarray   # centered complex coefficients, index n+M
    step: int           # time-step index; the exact time is step*dt
    time: float

    def __post_init__(self):
        self.modes.setflags(write=False)

    @property
    def M(self) -> int:
        return (len(self.modes) - 1) // 2

    def values(self) -> np.ndarray:
        """Physical samples on the next_pow2(2M+1)-point grid over [0, 2π)."""
        M = self.M
        return grid_values(np.arange(-M, M + 1), self.modes, next_pow2(2 * M + 1))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An immutable solver run: declared datum, snapshots, conserved drifts."""

    kind: str                     # "nls" or "kdv"
    relation: str                 # linear-part dispersion relation
    datum_modes: np.ndarray       # P_{≤M}g, the declared initial condition
    M: int
    dt: float
    grid: int
    fields: tuple[SpectralField, ...]
    sign: int | None = None      # NLS focusing(-1)/defocusing(+1)... sign of ±
    wick: float | None = None    # NLS Wick constant P
    l2_drift: float = 0.0        # max |‖u‖ - ‖g_M‖| over all steps
    mean_drift: float = 0.0      # KdV: max |a_0| over the stepped states
    warnings: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.datum_modes.setflags(write=False)

    @property
    def final(self) -> SpectralField:
        return self.fields[-1]

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(f.time for f in self.fields)

    def exact_time(self) -> Fraction:
        """Final step·dt with dt taken at its exact binary-float value."""
        return self.final.step * Fraction(self.dt)

    def run_manifest(self) -> dict:
        return {
            "kind": self.kind,
            "relation": self.relation,
            "M": self.M,
            "dt": self.dt,
            "grid": self.grid,
            "sign": self.sign,
            "wick_constant": self.wick,
            "snapshots": list(self.times),
            "l2_drift": self.l2_drift,
            "mean_drift": self.mean_drift,
            "warnings": list(self.warnings),
        }


def _half_step(relation: str, ns: np.ndarray, dt: float) -> np.ndarray:
    """e^{i·(dt/2)·ω(n)} for the modes ns, ω from the relation the run records:
    the stepped linear flow cannot disagree with ``linear_flow_modes``."""
    return np.exp(1j * (dt / 2.0) * oblique_frequencies(parse_relation(relation), -1, 0, ns))


def _horner(x: np.ndarray, coeffs, out: np.ndarray) -> np.ndarray:
    """out = Σ_j coeffs[j]·x^j by Horner's rule, in place; return out."""
    out.fill(coeffs[-1])
    for a in coeffs[-2::-1]:
        np.multiply(out, x, out=out)
        np.add(out, a, out=out)
    return out


def _rotation(angle: np.ndarray, theta_max: float, x: np.ndarray, h: np.ndarray,
              rot: np.ndarray) -> np.ndarray:
    """rot = e^{i·angle} for |angle| <= theta_max, with real scratch buffers
    x and h the size of angle; return rot.  Up to ROTATION_TAYLOR_MAX,
    cos θ = C(θ²) keeps the series' terms of order < K = taylor_order(theta_max)
    and sin θ = θ·S(θ²) those of order ≤ K: each drops under 2^-60 of itself,
    and Horner's rule rounds within one ulp of libm.  Beyond, libm's."""
    if theta_max > ROTATION_TAYLOR_MAX:
        np.cos(angle, out=rot.real)
        np.sin(angle, out=rot.imag)
        return rot
    J = (taylor_order(theta_max) + 1) // 2
    np.multiply(angle, angle, out=x)
    rot.real = _horner(x, _COS[:J], h)
    np.multiply(angle, _horner(x, _SIN[:J], h), out=rot.imag)
    return rot


def check_residual_length(length: int, M: int) -> None:
    """ValueError unless a residual ``length`` is a power of two in [2M+1, GRID_CAP]."""
    if not is_pow2(length) or length < 2 * M + 1:
        raise ValueError("length must be a power of two >= 2M+1")
    check_grid(length)


def _solver_checks(M: int, dt: float, t_max: float, snapshot_times) -> tuple[int, set[int]]:
    """The step count and the snapshot steps, the final step among them."""
    if not 1 <= M <= MAX_MODES:
        raise ValueError(f"M must lie in [1, {MAX_MODES}]")
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must lie in (0, {MAX_DT}]")
    if not 0.0 <= t_max < math.inf:
        raise ValueError(f"t_max must be finite and nonnegative, got {t_max!r}")

    def step_of(t: float, name: str) -> int:
        if not math.isfinite(t):   # only a snapshot time can reach here non-finite
            raise ValueError(f"{name} is not a finite number")
        i = int(round(t / dt))
        if abs(i * dt - t) > 1e-9 + 1e-9 * abs(t):
            raise ValueError(f"{name} must be an integer multiple of dt")
        return i

    steps = step_of(t_max, "t_max")
    snaps = {steps}
    for t in snapshot_times or ():
        i = step_of(float(t), f"snapshot time {t!r}")
        if not 0 <= i <= steps:
            raise ValueError(f"snapshot time {t!r} outside [0, t_max]")
        snaps.add(i)
    return steps, snaps


def _march(kind: str, step, c: np.ndarray, modes, weight: float, dt: float, steps: int,
           snaps: set[int], rotation_modes: int = 0, **run) -> Trajectory:
    """The stepping loop both solvers share.

    ``step(c)`` advances the state one step and returns it with the sup of
    the field it sampled, stopping early once that sup crosses BLOWUP_LINF.
    ``modes(c)`` is the centred mode array of a state, weight·Σ|c|² its
    squared L² norm.  rotation_modes = M warns once if dt·linf·M > π/4.
    """
    def l2(v: np.ndarray) -> float:
        return float(np.sqrt(weight * np.vdot(v, v).real))  # no (2M+1)-point temporaries

    l2_ref, drift, warnings = l2(c), 0.0, []
    fields = [SpectralField(modes=modes(c), step=0, time=0.0)] if 0 in snaps else []
    for i in range(1, steps + 1):
        c_next, linf = step(c)
        if linf > BLOWUP_LINF:
            raise BlowUpError(kind, i, i * dt, linf, l2(c))
        if rotation_modes and not warnings and dt * linf * rotation_modes > math.pi / 4:
            warnings.append(f"nonlinear rotation per step dt*linf*M = "
                            f"{dt * linf * rotation_modes:.3g} exceeds pi/4 at t={i * dt:.6g}")
        c = c_next
        drift = max(drift, abs(l2(c) - l2_ref))
        if i in snaps:
            fields.append(SpectralField(modes=modes(c), step=i, time=i * dt))
    return Trajectory(kind=kind, dt=dt, fields=tuple(fields), l2_drift=drift,
                      warnings=tuple(warnings), **run)


def nls_wick_solve(g, sign: int = 1, M: int = 1 << 10, dt: float = 1e-4,
                   t_max: float = 0.5, snapshot_times=()) -> Trajectory:
    """Strang split-step solve of iu_t + u_xx ± (|u|² − P)u = 0 from P_{≤M}g.

    Both substeps are exact isometries of the grid L² norm, so the recorded
    drift measures aliasing of the cubic substep only.  A real constant
    datum A reproduces u(t) = A·e^{∓iA²t} to rounding.  The nonlinear
    rotation e^{iθ}, θ = ±dt·(|u|² − P), is a Horner polynomial in θ² of
    order ``taylor_order(θ_max)``, θ_max = dt·max(max|u|² − P, P), while
    θ_max ≤ ROTATION_TAYLOR_MAX = 1/2, and libm's cos and sin beyond.  P is
    twice the mean of |u|², which the flow conserves up to the L² drift, so
    θ_max ≤ 2·dt·max|u|².
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    steps, snaps = _solver_checks(M, dt, t_max, snapshot_times)

    datum = _datum_coefficients(g, M).astype(np.complex128)
    P = wick_constant(datum)
    half = _half_step(NLS_RELATION, np.arange(-M, M + 1), dt)
    G = next_smooth(4 * M + 1)
    spec = np.zeros(G, dtype=np.complex128)   # modes 0..M, then -M..-1 at the top
    # reused every step: a fresh FFT output this size costs page faults each call
    vals, out, rot = (np.empty(G, dtype=np.complex128) for _ in range(3))
    angle, x, h = (np.empty(G) for _ in range(3))   # |u|² then θ; θ²; Horner sums

    def step(c: np.ndarray) -> tuple[np.ndarray, float]:
        c *= half
        spec[:M + 1] = c[M:]
        spec[G - M:] = c[:M]
        np.fft.ifft(spec, norm="forward", out=vals)
        absq = np.square(np.abs(vals, out=angle), out=angle)
        peak = float(absq.max())
        linf = math.sqrt(peak)
        if linf > BLOWUP_LINF:
            return c, linf
        np.multiply(np.subtract(absq, P, out=angle), sign * dt, out=angle)
        np.multiply(vals, _rotation(angle, dt * max(peak - P, P), x, h, rot), out=vals)
        np.fft.fft(vals, norm="forward", out=out)
        c[:M] = out[G - M:]
        c[M:] = out[:M + 1]
        c *= half
        return c, linf

    return _march("nls", step, datum.copy(), np.copy, 1.0, dt, steps, snaps,
                  relation=NLS_RELATION, datum_modes=datum, M=M, grid=G, sign=sign, wick=P)


def kdv_solve(g, M: int = 1 << 10, dt: float = 1e-4, t_max: float = 0.5,
              snapshot_times=()) -> Trajectory:
    """Integrating-factor RK4 solve of u_t + u_xxx + u·u_x = 0 from P_{≤M}g.

    In mode space c_n' = in³c_n − (in/2)·(û²)_n; the stiff in³ factor is
    removed exactly, and the quadratic term is evaluated on the least even
    5-smooth grid G ≥ 3M + 1 (at least 16), which is alias-free for the
    retained band: û² reaches 2M, which folds to 2M − G < −M.  The datum
    must be real and mean-zero.  The field stays real, so only the modes
    n = 0..M are stepped (c_{−n} = conj c_n), and the mean is conserved
    exactly (the quadratic term contributes in·(û²)_n/2 = 0 at n = 0);
    ``mean_drift`` is the largest |a_0| the stepping produced.
    """
    steps, snaps = _solver_checks(M, dt, t_max, snapshot_times)

    c = _datum_coefficients(g, M).astype(np.complex128)
    sym = np.conj(c[::-1])
    if float(np.max(np.abs(c - sym))) > 1e-9 * max(1.0, float(np.max(np.abs(c)))):
        raise ValueError("KdV datum must be real-valued (conjugate-symmetric modes)")
    datum = (c + sym) / 2.0
    if abs(datum[M]) > 1e-12:
        raise ValueError("KdV datum must be mean-zero")
    datum[M] = 0.0

    ns = np.arange(M + 1)
    G = max(next_smooth(3 * M + 1), 16)
    E = _half_step(KDV_RELATION, ns, dt)
    E2 = E * E
    halfin = -0.5j * ns
    mean_drift = 0.0

    vals, sq = np.empty(G), np.empty(G)   # reused by every stage, as in the NLS step
    hat = np.empty(G // 2 + 1, dtype=np.complex128)

    def rhs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """−(in/2)·(û²)_n for n = 0..M, and the real field on the grid
        (overwritten by the next call)."""
        np.fft.irfft(a, G, norm="forward", out=vals)
        np.fft.rfft(np.multiply(vals, vals, out=sq), norm="forward", out=hat)
        return halfin * hat[:M + 1], vals

    def step(a: np.ndarray) -> tuple[np.ndarray, float]:
        nonlocal mean_drift
        k1, vals = rhs(a)
        linf = float(np.max(np.abs(vals)))
        if linf > BLOWUP_LINF:
            return a, linf
        Ea, E2a = E * a, E2 * a
        k2 = rhs(E * (a + (dt / 2.0) * k1))[0]
        k3 = rhs(Ea + (dt / 2.0) * k2)[0]
        k4 = rhs(E2a + dt * (E * k3))[0]
        a = E2a + (dt / 6.0) * (E2 * k1 + 2.0 * (E * (k2 + k3)) + k4)
        mean_drift = max(mean_drift, abs(complex(a[0])))
        return a, linf

    def modes(a: np.ndarray) -> np.ndarray:   # c_{-n} = conj(a_n)
        return np.concatenate((np.conj(a[:0:-1]), a))

    traj = _march("kdv", step, datum[M:].copy(), modes, 2.0, dt, steps, snaps, M,
                  relation=KDV_RELATION, datum_modes=datum, M=M, grid=G)
    return replace(traj, mean_drift=mean_drift)


def linear_flow_modes(traj: Trajectory) -> np.ndarray:
    """Modes of e^{itL}(P_{≤M}g) at the final time, with exact phase
    reduction (the time step·dt is an exact rational)."""
    theta = FixedReal.from_fraction(traj.exact_time()) / two_pi()
    _, modes = line_spectrum(parse_relation(traj.relation), SliceSpec.horizontal(theta),
                             np.arange(-traj.M, traj.M + 1), traj.datum_modes)
    return modes


def smoothing_residual(traj: Trajectory, length: int = 1 << 12) -> SampleGrid:
    """Samples of the residual u(t,x) − e^{itL}g on [0, 2π) at the final time.

    g here is the declared truncated datum of the trajectory, and the linear
    flow uses the same truncation, so at t = 0 the residual is identically
    zero and at later times it isolates the nonlinear (Duhamel) part, whose
    regularity exceeds that of the solution itself.
    """
    check_residual_length(length, traj.M)
    f = traj.final
    res = f.modes - linear_flow_modes(traj)
    vals = grid_values(np.arange(-traj.M, traj.M + 1), res, length)
    if traj.kind == "kdv":
        vals = vals.real
    return SampleGrid(samples=vals, period=2.0 * math.pi, truncation=traj.M,
                      provenance={"kind": f"{traj.kind}-residual",
                                  "time": f.time, "M": traj.M,
                                  "dt": traj.dt, "sign": traj.sign})
