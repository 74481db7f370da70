"""Sup refinement: the Taylor and table-phasor paths against the direct-sum
oracle, the path choice, the Bernstein cut of narrow-span rows against a
fine-grid oracle, the wide-span warning, and the numpy least-squares
fit."""
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import talbot
from talbot import _fftsum
from talbot import (BlockSpec, SliceSpec, fit_exponent, parse_relation,
                    seeded_theta, sup_norm_sweep, theta_omega_frac_array)
from talbot._fftsum import (PHASOR_TABLE, TOP, AnchoredCoefficients, AnchoredEvaluator,
                            TaylorEvaluator, fold_frequencies, frequency_span, golden_section_peak,
                            grid_values, local_maxima, next_pow2, next_smooth,
                            refine_supremum, taylor_order, wide_span)
from talbot.evolution import line_spectrum
from talbot.expsum import MAX_GRID, least_squares_line

SCHRODINGER = "poly:-1,0,0"
RELATIONS = ("frac:1/2", "frac:3/2", "frac:9/5", "gravity", "gravcap", "poly:1,0,0,0")


class DirectEvaluator:
    """The oracle: S at z = (2*pi/G)*(j + delta) as the plain N-term sum of
    complex exponentials, the anchor and offset phases added in radians."""

    def __init__(self, freqs, coeffs, G):
        self.G = G
        self.fmod = fold_frequencies(freqs, G)
        self.ffloat = np.array([float(f) for f in freqs])
        self.coeffs = np.asarray(coeffs, dtype=np.complex128)

    def __call__(self, j, delta):
        base = (self.fmod * (j % self.G)) % self.G
        phases = (2.0 * np.pi / self.G) * base + (2.0 * np.pi / self.G) * delta * self.ffloat
        return complex(np.sum(self.coeffs * np.exp(1j * phases)))

    def local(self, j):
        return lambda delta: abs(self(j, delta))


def _golden_sup(local, absvals, top=10):
    best = float(np.max(absvals))
    for j in local_maxima(absvals, top):
        best = max(best, golden_section_peak(local(j), -1.0, 1.0)[1])
    return best


def _direct_sup(freqs, coeffs, G, absvals):
    return _golden_sup(DirectEvaluator(freqs, coeffs, G).local, absvals)


def _oblique_cell(rel, theta, N, sign="+", weight="unit"):
    """Frequencies, coefficients and default grid of one slope-1/1 sweep cell."""
    spec = BlockSpec(parse_relation(rel), N, sign=sign, weight=weight)
    ns = spec.modes()
    freqs, coeffs = line_spectrum(spec.relation, SliceSpec.oblique(theta, 1, 1), ns,
                                  spec.weights(ns))
    return freqs, coeffs, 16 * N


@pytest.fixture
def direct_calls(monkeypatch):
    """Count probes that go through the direct N-term sum."""
    calls = []
    original = AnchoredEvaluator.__call__

    def counted(self, j, delta):
        calls.append(j)
        return original(self, j, delta)
    monkeypatch.setattr(AnchoredEvaluator, "__call__", counted)
    return calls


def test_next_smooth_is_the_least_even_5_smooth_length():
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    lengths = [m for m in range(2, 10 ** 4 + 20, 2) if smooth(m)]
    for n in range(10 ** 4 + 1):
        assert next_smooth(n) == next(m for m in lengths if m >= n)
        assert next_smooth(n) <= next_pow2(max(n, 2))
    assert (next_smooth(3073), next_smooth(4097)) == (3200, 4320)


def test_taylor_order_is_least_with_tail_below_two_to_minus_60():
    for rho in (0.0, 0.01, math.pi / 16, math.pi / 4, 1.0):
        K = taylor_order(rho)
        tail = lambda k: rho ** k / math.factorial(k) * math.exp(rho)
        assert tail(K) <= 2.0 ** -60
        assert K == 0 or tail(K - 1) > 2.0 ** -60
    assert taylor_order(math.pi / 16) == 13
    assert taylor_order(1.0) == 21


@pytest.mark.parametrize("rho", [math.nan, -1.0, math.inf, 400.0, 1000.0])
def test_taylor_order_rejects_rho_outside_the_cap_at_once(rho):
    # 355 < rho < 709 used to loop forever and rho > 709 overflowed math.exp
    start = time.perf_counter()
    with pytest.raises(ValueError, match="rho"):
        taylor_order(rho)
    assert time.perf_counter() - start < 1.0


def test_taylor_evaluator_matches_direct_sum_off_grid():
    rng = np.random.default_rng(5)
    freqs = np.arange(40, 104)
    coeffs = np.exp(2j * np.pi * rng.random(len(freqs)))
    G = 1024
    direct = DirectEvaluator(freqs, coeffs, G)
    taylor = TaylorEvaluator(freqs, coeffs, G, frequency_span(freqs))
    for j in (0, 3, 517, 1023):
        local = taylor.local(j)
        for delta in (-1.0, -0.37, 0.0, 0.5, 1.0):
            want = abs(direct(j, delta))
            assert local(delta) == pytest.approx(want, rel=1e-13, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(rel=st.sampled_from(RELATIONS),
       theta=st.one_of(st.builds(lambda a, q: Fraction(a, q),
                                 st.integers(0, 996), st.integers(1, 997)),
                       st.integers(0, 10_000).map(lambda s: seeded_theta(s).theta)),
       log2N=st.integers(4, 10), oversample=st.sampled_from((16, 4)),
       sign=st.sampled_from(("+", "both")))
# the sup sits at the 23rd largest grid peak: the cut refines it, the ten largest do not hold it
@example(rel="frac:3/2", theta=seeded_theta(4732).theta, log2N=7, oversample=16, sign="both")
def test_taylor_path_matches_direct_golden_section(rel, theta, log2N, oversample, sign):
    spec = BlockSpec(parse_relation(rel), 1 << log2N, sign=sign)
    ns = spec.modes()
    coeffs = np.exp(2j * np.pi * theta_omega_frac_array(spec.relation, theta, ns))
    G = oversample * spec.N
    absvals = np.abs(grid_values(ns, coeffs, G))
    want = _direct_sup(ns, coeffs, G, absvals)
    taylor = TaylorEvaluator(ns, coeffs, G, frequency_span(ns))
    assert _golden_sup(taylor.local, absvals) == pytest.approx(want, rel=1e-12)
    with pytest.MonkeyPatch.context() as mp:  # the cells refine_supremum picks, by the direct sum
        mp.setattr(_fftsum, "TaylorEvaluator", lambda f, c, G, span: DirectEvaluator(f, c, G))
        mp.setattr(_fftsum, "AnchoredEvaluator", DirectEvaluator)
        direct = refine_supremum(ns, coeffs, G, absvals)
    assert direct >= want
    assert refine_supremum(ns, coeffs, G, absvals) == pytest.approx(direct, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), G=st.integers(16, 1 << 20), wide=st.booleans(),
       unbounded=st.booleans(), seed=st.integers(0, 2**32 - 1),
       j=st.integers(-(1 << 40), 1 << 40), delta=st.floats(-1.0, 1.0))
def test_both_evaluators_match_the_direct_sum(data, G, wide, unbounded, seed, j, delta):
    """Any probe of either moment evaluator is within 1e-12 of sum |b_n| of
    the direct sum.  Frequencies lie within 2^8*G of 0, so each offset holds
    at most 2^8 turns and both sides round its phase to ~4e-13 radians;
    their span is at most G/pi (narrow: both evaluators) or above it (wide:
    the anchored one), as int64 or as an object array of Python integers."""
    limit = 256 * G
    narrow_max = math.floor(G / math.pi)
    span = data.draw(st.integers(narrow_max + 1, 2 * limit) if wide
                     else st.integers(0, narrow_max))
    base = data.draw(st.integers(-limit, limit - span))
    inner = data.draw(st.lists(st.integers(0, span), max_size=38))
    freqs = np.array([base + x for x in [0, span, *inner]],
                     dtype=object if unbounded else np.int64)
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=freqs.size) + 1j * rng.normal(size=freqs.size)
    tol = 1e-12 * float(np.sum(np.abs(coeffs)))
    want = DirectEvaluator(freqs, coeffs, G)(j, delta)
    assert abs(AnchoredEvaluator(freqs, coeffs, G)(j, delta) - want) <= tol
    if not wide:
        taylor = TaylorEvaluator(freqs, coeffs, G, frequency_span(freqs))
        assert abs(taylor.local(j)(delta) - abs(want)) <= tol


def test_narrow_span_rows_skip_the_direct_sum(direct_calls):
    sup_norm_sweep("frac:3/2", seeded_theta(3), [256])
    assert direct_calls == []


def test_wide_span_oblique_cell_keeps_the_direct_path(direct_calls):
    # every probe is an N-term sum through AnchoredEvaluator; the moment
    # kernel's refined values and the direct-exponential oracle's, pinned
    # bit for bit (on these two rows they agree)
    at = SliceSpec.oblique(seeded_theta(3), 1, 1)
    sweep = sup_norm_sweep(SCHRODINGER, at, [64, 128])
    assert [row.sup_abs for row in sweep.rows] == [24.964447820715666, 37.84729555007791]
    assert len(direct_calls) == 2 * 10 * 32
    oracle = []
    for N in (64, 128):
        freqs, coeffs, G = _oblique_cell(SCHRODINGER, seeded_theta(3), N)
        oracle.append(_direct_sup(freqs, coeffs, G, np.abs(grid_values(freqs, coeffs, G))))
    assert oracle == [24.964447820715666, 37.84729555007791]


@pytest.mark.parametrize("rel", ["frac:1/2", "frac:3/2", "frac:9/5", "gravcap"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("rho_near_one", [False, True])
def test_bernstein_upper_bound_covers_the_fine_grid_sup(rel, seed, rho_near_one):
    """max(best, max over the cells the cut leaves out of |S_j|/cos(pi*D/2G))
    bounds the supremum, so it is never below the sup of a 64 times finer
    grid (up to the FFTs' rounding), at the default 16N grid and at the
    least grid with rho = pi*D/G <= 1."""
    spec = BlockSpec(parse_relation(rel), 512)
    ns = spec.modes()
    freqs, coeffs = line_spectrum(spec.relation, SliceSpec.horizontal(seeded_theta(seed)),
                                  ns, spec.weights(ns))
    span = frequency_span(freqs)
    G = math.ceil(math.pi * span) if rho_near_one else 16 * spec.N
    absvals = np.abs(grid_values(freqs, coeffs, G))
    best = refine_supremum(freqs, coeffs, G, absvals)
    cos = math.cos(math.pi * span / (2 * G))
    left_out = absvals[absvals < best * cos]
    upper = max(best, float(np.max(left_out)) / cos)
    fine = float(np.max(np.abs(grid_values(freqs, coeffs, 64 * G))))
    assert upper >= fine * (1 - 1e-13)


def test_bernstein_cut_finds_a_maximum_beyond_the_tenth_grid_peak():
    """Ten equal Hann-windowed peaks on grid points and an eleventh, 0.5%
    taller, half a cell off the grid: its two grid samples rank below the
    other ten peaks, so refining the ten largest grid peaks misses it, and
    the cut, which admits every sample within cos(pi*D/2G) of the best,
    does not."""
    D, G = 325, 1024  # rho = pi*D/G = 0.997: narrow span
    freqs = np.arange(D + 1, dtype=np.int64)
    window = np.sin(np.pi * (freqs + 0.5) / (D + 1)) ** 2
    peaks = [(93 * k + 7, 1.0) for k in range(10)] + [(937.5, 1.005)]
    coeffs = window * sum(height * np.exp(-2j * np.pi * freqs * at / G) for at, height in peaks)
    absvals = np.abs(grid_values(freqs, coeffs, G))
    assert 937 not in local_maxima(absvals, 10) and 938 not in local_maxima(absvals, 10)
    fine = float(np.max(np.abs(grid_values(freqs, coeffs, 64 * G))))
    top10 = _golden_sup(TaylorEvaluator(freqs, coeffs, G, D).local, absvals, top=10)
    assert top10 < fine * (1 - 1e-3)
    assert refine_supremum(freqs, coeffs, G, absvals) >= fine * (1 - 1e-13)


@pytest.mark.parametrize("sign", ["+", "-", "both"])
def test_int64_frequencies_fold_like_unbounded_integers(sign):
    """An int64 frequency array and the same values as an object array of
    Python integers (the dtype past 2^62) give bit-identical folds, spans,
    offsets, grids and refined sups, on a horizontal and an oblique row."""
    for rel, slc in (("frac:3/2", SliceSpec.horizontal(seeded_theta(4))),
                     (SCHRODINGER, SliceSpec.oblique(seeded_theta(4), 1, 1))):
        spec = BlockSpec(parse_relation(rel), 256, sign=sign)
        ns = spec.modes()
        freqs, coeffs = line_spectrum(spec.relation, slc, ns, spec.weights(ns))
        assert freqs.dtype == np.int64
        unbounded = freqs.astype(object)
        for G in (4096, 1000):
            assert np.array_equal(fold_frequencies(freqs, G), fold_frequencies(unbounded, G))
            span = frequency_span(freqs)
            assert span == frequency_span(unbounded)
            if slc.kind == "horizontal":  # an oblique span is far too wide for the Taylor path
                assert np.array_equal(TaylorEvaluator(freqs, coeffs, G, span).u,
                                      TaylorEvaluator(unbounded, coeffs, G, span).u)
            assert np.array_equal(AnchoredEvaluator(freqs, coeffs, G).turns,
                                  AnchoredEvaluator(unbounded, coeffs, G).turns)
            vals = grid_values(freqs, coeffs, G)
            assert np.array_equal(vals, grid_values(unbounded, coeffs, G))
            absvals = np.abs(vals)
            assert (refine_supremum(freqs, coeffs, G, absvals)
                    == refine_supremum(unbounded, coeffs, G, absvals))


@pytest.mark.parametrize("rel", [SCHRODINGER, "poly:1,0,0,0"])
def test_anchored_coefficients_are_the_fresh_array_formula_bit_for_bit(rel):
    # A_n formed in reused buffers against b_n * exp(i*(2*pi/G)*(f_n j mod G)),
    # the formula that made fresh arrays, over anchors that revisit a j: every
    # call returns the one buffer, overwritten for a new j, cached for the same
    # j.  The row has 2^10 terms: from 2^14 complex terms numpy's temporary
    # elision evaluated the old product as exp(...) * b_n, and complex products
    # are not bitwise commutative, so there the two differ by an ulp
    freqs, coeffs, G = _oblique_cell(rel, seeded_theta(7), 1 << 9, "both", "reciprocal")
    anchored, fmod = AnchoredCoefficients(freqs, coeffs, G), fold_frequencies(freqs, G)
    buffer = anchored(3)
    for j in (3, -5, G + 3, 3, 3, 1 << 40, -(1 << 40), 0, G - 1):
        want = coeffs * np.exp(1j * ((2.0 * np.pi / G) * ((fmod * (j % G)) % G)))
        got = anchored(j)
        assert got is buffer and got.tobytes() == want.tobytes()


def _one_mode_phasor(t):
    """e(t) for each turn count t, probed through an AnchoredEvaluator of the
    single mode f = 1 on a G = 1 grid, where the offset of delta = t is t."""
    ev = AnchoredEvaluator(np.array([1]), np.array([1 + 0j]), 1)
    return np.array([ev(0, x) for x in t])


def test_unit_phasor_series_order():
    # |x| <= pi/L: the order-6 series of e^(ix) (to x^5) leaves a tail
    # below 2^-60
    assert PHASOR_TABLE == 1 << 11
    assert taylor_order(math.pi / PHASOR_TABLE) == 6


def test_unit_phasor_matches_exp_at_any_magnitude():
    rng = np.random.default_rng(11)
    mags = 2.0 ** rng.uniform(-30, 40, 20_000)
    t = np.concatenate([mags * rng.choice([-1.0, 1.0], mags.size),
                        [0.0, 0.5, -0.5, 2.0**40 - 0.5, -(2.0**40) + 2.0**-12]])
    want = np.exp(2j * np.pi * (t - np.rint(t)))
    assert np.max(np.abs(_one_mode_phasor(t) - want)) <= 2e-15


def test_unit_phasor_at_table_points():
    k = np.arange(-3 * PHASOR_TABLE, 3 * PHASOR_TABLE + 1)
    t = np.concatenate([k / PHASOR_TABLE, k / PHASOR_TABLE + 2.0**30,
                        k / PHASOR_TABLE - 2.0**39])
    want = np.exp(2j * np.pi * (t - np.rint(t)))
    assert np.max(np.abs(_one_mode_phasor(t) - want)) <= 2e-15


@pytest.mark.parametrize("rel", [SCHRODINGER, "poly:1,0,0,0", "bo"])
@pytest.mark.parametrize("sign", ["+", "both"])
@pytest.mark.parametrize("weight", ["unit", "reciprocal"])
def test_table_phasor_probes_match_direct_sum(rel, sign, weight):
    """Every probe of the wide-span refinement, and the refined sup, against
    the plain direct sum on oblique cells, N = 2^4..2^11.  Both paths round
    phases of up to max|f|/G turns to doubles, so besides 1e-11 of the grid
    sup a probe may differ by four half-ulps of that turn count, in radians,
    times |coeffs|_2 (a random walk of N rounding errors).  On cubic rows
    (~2^21 turns at N = 2^11) that allowance dominates; elsewhere 1e-11
    does.  The refined sups agree to 1e-11 on every row."""
    for log2N in range(4, 12):
        freqs, coeffs, G = _oblique_cell(rel, seeded_theta(50 + log2N), 1 << log2N,
                                         sign, weight)
        absvals = np.abs(grid_values(freqs, coeffs, G))
        grid_sup = float(np.max(absvals))
        ev, oracle = AnchoredEvaluator(freqs, coeffs, G), DirectEvaluator(freqs, coeffs, G)
        rounding = (2.0 ** -51 * 2.0 * np.pi * max(abs(f) for f in freqs) / G
                    * float(np.sqrt(np.sum(np.abs(coeffs) ** 2))))
        probes = []

        def recorded(j):
            def at(delta):
                value = ev(j, delta)
                probes.append((j, delta, value))
                return abs(value)
            return at
        got = _golden_sup(recorded, absvals)
        assert len(probes) == 32 * len(local_maxima(absvals, 10))
        for j, delta, value in probes:
            assert abs(value - oracle(j, delta)) <= 1e-11 * grid_sup + rounding
        assert got == refine_supremum(freqs, coeffs, G, absvals)
        assert got == pytest.approx(_direct_sup(freqs, coeffs, G, absvals), rel=1e-11)


def test_oblique_rows_warn_and_default_horizontal_rows_do_not():
    oblique = sup_norm_sweep(SCHRODINGER, SliceSpec.oblique(seeded_theta(3), 1, 1), [64])
    assert oblique.warnings == [
        "N=64: span 12096 is wide against grid 1024 (pi*span > G); "
        f"the sup is the best of the {TOP} refined grid peaks, a lower bound"]
    horizontal = sup_norm_sweep(SCHRODINGER, seeded_theta(3), [64, 128])
    assert horizontal.warnings == []


def test_sign_both_rows_do_not_warn_at_the_default_grid():
    # |n| in [N, 2N) on both sides spans D = 4N - 2, and pi*D < 16N: the
    # Bernstein cut covers the row, so its sup is certified
    scales = [16, 32, 64, 128]
    both = sup_norm_sweep(SCHRODINGER, seeded_theta(3), scales, sign="both")
    assert [row.grid for row in both.rows] == [16 * N for N in scales]
    assert "warnings" not in both.fit_payload()


def test_rows_turn_wide_only_past_the_sweep_grid_cap():
    # the sweep grid is 16N capped at MAX_GRID = 2^20: one-sided horizontal
    # rows (D = N - 1) go wide from N = 2^19, sign-both rows (D = 4N - 2)
    # from N = 2^17; rows are not run, only their span and grid compared
    def first_wide(span):
        return min(N for N in (1 << k for k in range(4, 21))
                   if wide_span(span(N), min(next_pow2(16 * N), MAX_GRID)))
    assert first_wide(lambda N: N - 1) == 1 << 19
    assert first_wide(lambda N: 4 * N - 2) == 1 << 17


# scipy.stats.linregress 1.17.1 on these inputs: slope, intercept, stderr
# (0 where not finite) and rvalue**2, as float.hex
LINREGRESS = [
    ([4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], [3.1, 3.82, 4.61, 5.33, 6.07, 6.88, 7.59],
     ["0x1.80ea0ea0ea0eap-1", "0x1.4924924924900p-4", "0x1.27e05a00e71c9p-8",
      "0x1.ffe85e92f41abp-1"]),
    ([4.0, 5.0], [1.0, 2.5],  # n = 2: stderr 0
     ["0x1.8000000000000p+0", "-0x1.4000000000000p+2", "0x0.0p+0", "0x1.0000000000000p+0"]),
    ([1.0, 2.0, 3.0], [2.0, 2.0, 2.0],  # constant y: r is nan
     ["0x0.0p+0", "0x1.0000000000000p+1", "0x0.0p+0", "nan"]),
    ([0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4],
     ["0x1.999999999999ap-4", "0x1.9999999999998p-4", "0x0.0p+0", "0x1.0000000000000p+0"]),
    ([1.5, -2.0, 7.25, 3.0, 0.5], [-1.0, 4.0, -9.5, 0.25, 2.0],
     ["-0x1.718366902fe1ap+0", "0x1.0df37c53caadap+1", "0x1.0c155da2a1858p-2",
      "0x1.d2023d1178ff9p-1"]),
]


@pytest.mark.parametrize("xs, ys, want", LINREGRESS)
def test_least_squares_line_matches_frozen_linregress(xs, ys, want):
    got = least_squares_line(np.array(xs), np.array(ys), [1] * len(xs))
    assert [v.hex() for v in (got.slope, got.intercept, got.stderr, got.r_squared)] == want


def test_least_squares_line_rejects_identical_x():
    with pytest.raises(ValueError, match="all x values are identical"):
        least_squares_line(np.array([3.0, 3.0, 3.0]), np.array([1.0, 2.0, 3.0]), [1, 1, 1])


def test_least_squares_line_rejects_zero_x_variance():
    # distinct xs whose deviations square to 0: linregress divides by zero here
    xs = np.array([0.0, 5e-324, 0.0])
    assert np.amax(xs) != np.amin(xs) and np.cov(xs, bias=1) == 0.0
    with pytest.raises(ValueError, match="x values have zero variance"):
        least_squares_line(xs, np.array([1.0, 2.0, 3.0]), [1, 1, 1])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.floats(-20, 20), st.floats(-20, 20)), min_size=2, max_size=12))
@example([(0.0, 1.0), (5e-324, 2.0)])
def test_least_squares_line_is_bit_identical_to_linregress(points):
    stats = pytest.importorskip("scipy.stats")
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    # identical xs, or a zero x-variance (xs apart by subnormals only), where
    # linregress divides by zero, are refused
    if np.amax(xs) == np.amin(xs) or np.cov(xs, ys, bias=1)[0, 0] == 0.0:
        with pytest.raises(ValueError):
            least_squares_line(xs, ys, [1] * len(xs))
        return
    got = least_squares_line(xs, ys, [1] * len(xs))
    res = stats.linregress(xs, ys)
    want_stderr = float(res.stderr) if np.isfinite(res.stderr) else 0.0
    # float.hex compares bits and lets nan (zero variance in y) equal nan
    assert [v.hex() for v in (got.slope, got.intercept, got.stderr, got.r_squared)] == [
        v.hex() for v in (float(res.slope), float(res.intercept), want_stderr,
                          float(res.rvalue) ** 2)]


def test_fit_exponent_rejects_identical_scales():
    with pytest.raises(ValueError):
        fit_exponent([8, 8, 8, 8], [1.0, 2.0, 3.0, 4.0])


def test_import_leaves_scipy_unloaded():
    src = str(Path(talbot.__file__).resolve().parents[1])
    code = ("import sys, talbot, talbot.cli, talbot.acceptance; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
