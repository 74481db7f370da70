"""Sup refinement: the Taylor and table-phasor paths against the direct-sum
oracle, the path choice, the Bernstein cut of narrow-span rows against a
fine-grid oracle, narrow rows in coarse passes against the single-grid
oracle, the wide-span warning, and the numpy least-squares fit."""
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
from talbot import _fftsum, expsum
from talbot import (BlockSpec, SliceSpec, fit_exponent, parse_relation,
                    seeded_theta, sup_norm_sweep, theta_omega_frac_array)
from talbot._fftsum import (CUT_SLACK, MAX_GRID, PHASOR_TABLE, TOP, AnchoredCoefficients,
                            AnchoredEvaluator, TaylorEvaluator, fold_frequencies,
                            frequency_span, golden_section_peak, grid_values, local_maxima,
                            next_pow2, next_smooth, refine_supremum, row_norms,
                            taylor_order)
from talbot.dispersion import TimePoint, kl_theta
from talbot.evolution import line_spectrum
from talbot.expsum import MAX_BLOCK, least_squares_line
from test_fractal import _traced_peak

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


def _taylor(freqs, coeffs, G, span):
    return TaylorEvaluator(freqs, AnchoredCoefficients(freqs, coeffs, G), span)


def _single_grid_supremum(freqs, coeffs, G, absvals):
    """Test oracle: the narrow-span refinement from one G-point grid, as
    ``refine_supremum`` did it before narrow rows were sampled in passes."""
    best = float(np.max(absvals))
    span = frequency_span(freqs)
    ev = _taylor(freqs, coeffs, G, span)
    cos = math.cos(math.pi * span / (2 * G))
    slack = CUT_SLACK * float(np.sum(np.abs(coeffs)))
    admitted = np.flatnonzero(absvals >= best * cos - slack)
    for j in admitted[np.argsort(absvals[admitted])[::-1]]:
        if absvals[j] < best * cos - slack:
            break
        best = max(best, golden_section_peak(ev.local(int(j)), -1.0, 1.0)[1])
    return best


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
    taylor = _taylor(freqs, coeffs, G, frequency_span(freqs))
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
    taylor = _taylor(ns, coeffs, G, frequency_span(ns))
    assert _golden_sup(taylor.local, absvals) == pytest.approx(want, rel=1e-12)

    def sup():  # a narrow row in four passes, a wide one in one
        return row_norms(ns, coeffs, G, "row")[0]
    with pytest.MonkeyPatch.context() as mp:  # the cells the sweep picks, by the direct sum
        mp.setattr(_fftsum, "TaylorEvaluator",
                   lambda f, anchored, span: DirectEvaluator(f, anchored.coeffs, anchored.G))
        mp.setattr(_fftsum, "AnchoredEvaluator", DirectEvaluator)
        direct = sup()
    assert direct >= want
    assert sup() == pytest.approx(direct, rel=1e-12)


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
        taylor = _taylor(freqs, coeffs, G, frequency_span(freqs))
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
    least multiple of four with rho = pi*D/G <= 1 (1608 points; both are
    sampled in four passes)."""
    spec = BlockSpec(parse_relation(rel), 512)
    ns = spec.modes()
    freqs, coeffs = line_spectrum(spec.relation, SliceSpec.horizontal(seeded_theta(seed)),
                                  ns, spec.weights(ns))
    span = frequency_span(freqs)
    G = 4 * math.ceil(math.pi * span / 4) if rho_near_one else 16 * spec.N
    absvals = np.abs(grid_values(freqs, coeffs, G))
    best = row_norms(freqs, coeffs, G, "row")[0]
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
    top10 = _golden_sup(_taylor(freqs, coeffs, G, D).local, absvals, top=10)
    assert top10 < fine * (1 - 1e-3)
    assert row_norms(freqs, coeffs, G, "row")[0] >= fine * (1 - 1e-13)


@pytest.mark.parametrize("sign", ["+", "-", "both"])
def test_int64_frequencies_fold_like_unbounded_integers(sign):
    """An int64 frequency array and the same values as an object array of
    Python integers (the dtype past 2^62) give bit-identical folds, spans,
    offsets, grids and row norms, on a horizontal and an oblique row; a
    narrow row is sampled in four coarse passes, a wide one in one."""
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
                assert np.array_equal(_taylor(freqs, coeffs, G, span).u,
                                      _taylor(unbounded, coeffs, G, span).u)
            assert np.array_equal(AnchoredEvaluator(freqs, coeffs, G).turns,
                                  AnchoredEvaluator(unbounded, coeffs, G).turns)
            vals = grid_values(freqs, coeffs, G)
            assert np.array_equal(vals, grid_values(unbounded, coeffs, G))
            assert row_norms(freqs, coeffs, G, "row") == row_norms(unbounded, coeffs, G, "row")


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


def _folded_spectrum(freqs, coeffs, G):
    spectrum = np.zeros(G, dtype=np.complex128)
    np.add.at(spectrum, fold_frequencies(freqs, G), np.asarray(coeffs, dtype=np.complex128))
    return spectrum


@pytest.mark.parametrize("kind", ["int64", "object", "collisions"])
def test_grid_values_is_the_out_of_place_inverse_fft_bit_for_bit(kind):
    # up to 2^20 points, far past the 256 KiB at which numpy starts to elide
    # temporaries, so an in-place transform that rounded otherwise would show
    rng = np.random.default_rng(11)
    for log2G in range(12, 21):
        G = 1 << log2G
        freqs = rng.integers(-8 * G, 8 * G, G // 16)
        if kind == "object":
            freqs = np.array([int(f) << 64 | 5 for f in freqs], dtype=object)
        elif kind == "collisions":  # three terms on each folded bin
            freqs = np.concatenate((freqs, freqs + G, freqs - 5 * G))
        coeffs = rng.standard_normal(freqs.size) + 1j * rng.standard_normal(freqs.size)
        kept = freqs.copy(), coeffs.copy()
        want = np.fft.ifft(_folded_spectrum(freqs, coeffs, G), norm="forward")
        assert grid_values(freqs, coeffs, G).tobytes() == want.tobytes()
        assert np.array_equal(freqs, kept[0]) and coeffs.tobytes() == kept[1].tobytes()


def test_grid_values_holds_one_grid():
    # the folded spectrum is transformed in place: at G = 2^18 with G/16
    # terms the call holds the one G-point array (and the folded indices),
    # where a transform into a second array held two
    G = 1 << 18
    freqs, coeffs, _ = _oblique_cell(SCHRODINGER, seeded_theta(3), G // 16)
    grid_values(freqs, coeffs, G)
    assert _traced_peak(lambda: grid_values(freqs, coeffs, G)) <= 1.1 * 16 * G


def _local_maxima_sorting_all(absvals, top):
    """Test oracle: every circular local maximum sorted, the ``top`` largest
    kept (the selection before the argpartition narrowing)."""
    left, right = np.roll(absvals, 1), np.roll(absvals, -1)
    peaks = np.flatnonzero((absvals >= left) & (absvals > right))
    order = peaks[np.argsort(absvals[peaks])[::-1]]
    return [int(i) for i in order[:top]]


def test_local_maxima_match_sorting_every_peak_on_oblique_rows():
    for log2N in range(8, 16):
        for intercept in (2, 9):
            freqs, coeffs, G = _oblique_cell(SCHRODINGER, seeded_theta(intercept), 1 << log2N)
            absvals = np.abs(grid_values(freqs, coeffs, G))
            assert local_maxima(absvals, TOP) == _local_maxima_sorting_all(absvals, TOP)


def test_local_maxima_keep_the_top_values_when_peaks_tie():
    # eight equal peaks compete for the last three places: which of them
    # are kept is unspecified, their values are not
    absvals = np.zeros(64)
    absvals[2:16:2] = [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0]
    absvals[20:52:4] = 1.0
    got = local_maxima(absvals, TOP)
    assert len(set(got)) == TOP and got[:7] == list(range(2, 16, 2))
    assert absvals[got].tolist() == absvals[_local_maxima_sorting_all(absvals, TOP)].tolist()
    assert local_maxima(absvals, 20) == _local_maxima_sorting_all(absvals, 20)
    flat = local_maxima(np.ones(16), 3)  # no local maximum: any three samples
    assert len(set(flat)) == 3 and all(0 <= j < 16 for j in flat)


@pytest.mark.parametrize("G", [2, 3, 64, 1 << 12])
def test_local_maxima_match_the_oracle_on_random_moduli_and_wrapped_plateaus(G):
    rng = np.random.default_rng(G)
    distinct = rng.random(G)
    levels = rng.integers(0, 3, G).astype(np.float64)  # ties and plateaus everywhere
    wrapped = np.zeros(G)
    wrapped[-2:] = wrapped[:2] = 5.0  # one plateau across the wrap-around
    wrapped[G // 2] = 1.0
    for top in (1, 3, 10, G):
        assert local_maxima(distinct, top) == _local_maxima_sorting_all(distinct, top)
        for absvals in (levels, wrapped):
            got, want = local_maxima(absvals, top), _local_maxima_sorting_all(absvals, top)
            # ties stay free: the same values, each at a circular local maximum
            assert absvals[got].tolist() == absvals[want].tolist()
            assert set(got) <= set(_local_maxima_sorting_all(absvals, G))


def test_local_maxima_hold_no_full_length_copy_of_the_moduli():
    # two rolled copies and three masks took 3.0 MiB beside the 1 MiB of
    # moduli at G = 2^17; the slices and the ~G/3 peak indices take 1.0
    G = 1 << 17
    absvals = np.random.default_rng(5).random(G)
    assert _traced_peak(lambda: local_maxima(absvals, TOP)) <= 1.1 * absvals.nbytes


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
def test_table_phasor_probes_match_direct_sum(rel, sign, weight, monkeypatch):
    """Every probe of the wide-span refinement, and the refined sup, against
    the plain direct sum on oblique cells, N = 2^4..2^11.  Both paths round
    phases of up to max|f|/G turns to doubles, so besides 1e-11 of the grid
    sup a probe may differ by four half-ulps of that turn count, in radians,
    times |coeffs|_2 (a random walk of N rounding errors).  On cubic rows
    (~2^21 turns at N = 2^11) that allowance dominates; elsewhere 1e-11
    does.  The refined sups agree to 1e-11 on every row.  Each row runs
    in one block of the default _TERMS, then in blocks of 48 terms, the
    last ragged (from 64 terms on); the blocked sup equals the one-block
    sup to 1e-15 relative."""
    for log2N in range(4, 12):
        freqs, coeffs, G = _oblique_cell(rel, seeded_theta(50 + log2N), 1 << log2N,
                                         sign, weight)
        absvals = np.abs(grid_values(freqs, coeffs, G))
        grid_sup = float(np.max(absvals))
        oracle = DirectEvaluator(freqs, coeffs, G)
        direct_sup = _direct_sup(freqs, coeffs, G, absvals)
        rounding = (2.0 ** -51 * 2.0 * np.pi * max(abs(f) for f in freqs) / G
                    * float(np.sqrt(np.sum(np.abs(coeffs) ** 2))))
        sups = []
        for terms in (_fftsum._TERMS, 48):
            with monkeypatch.context() as mp:
                mp.setattr(_fftsum, "_TERMS", terms)
                ev, probes = AnchoredEvaluator(freqs, coeffs, G), []
                assert len(ev._blocks) == -(-coeffs.size // terms)

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
                assert got == pytest.approx(direct_sup, rel=1e-11)
                sups.append(got)
        assert sups[1] == pytest.approx(sups[0], rel=1e-15)


def test_a_wide_probe_holds_one_block_of_work_buffers():
    # besides the N-long turns, folded frequencies and anchored buffer, the
    # evaluator holds one block's offsets, index, terms and six power rows
    # (80 bytes a term), not N-long ones
    N = 1 << 15
    freqs, coeffs, G = _oblique_cell(SCHRODINGER, seeded_theta(1101), N)
    kept = (8 + 8 + 16) * coeffs.size
    assert _traced_peak(lambda: AnchoredEvaluator(freqs, coeffs, G)) - kept <= 100 * _fftsum._TERMS


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


def test_horizontal_rows_are_narrow_on_the_uncapped_sweep_grid():
    # every horizontal row up to MAX_BLOCK = 2^20, one-sided (D = N - 1) or
    # sign-both (D = 4N - 2), has pi*D <= G on its 16N grid, which the
    # coarse passes sample whatever its size: no horizontal row takes the
    # wide top-10-peak branch.  Rows are not run, only spans and grids compared
    for N in (1 << k for k in range(MAX_BLOCK.bit_length())):
        for sign in ("+", "-", "both"):
            span = frequency_span(BlockSpec(parse_relation(SCHRODINGER), N, sign=sign).modes())
            assert span == (4 * N - 2 if sign == "both" else N - 1)
            assert math.pi * span <= 16 * N


class _FlatTaylor:
    """A TaylorEvaluator stand-in that builds no powers: every probe reads 1."""

    def __init__(self, freqs, anchored, span):
        pass

    def local(self, j):
        return lambda delta: 1.0


@pytest.mark.parametrize("at, log2N", [(SliceSpec.oblique(seeded_theta(3), 1, 1), 17),
                                       (SliceSpec.oblique(seeded_theta(3), 1, 1), 18),
                                       (seeded_theta(3), 19), (seeded_theta(3), 20)],
                         ids=["oblique-2^17", "oblique-2^18", "horizontal-2^19",
                              "horizontal-2^20"])
def test_rows_past_the_grid_cap_sample_passes_of_at_most_max_grid_points(at, log2N,
                                                                         monkeypatch):
    """The plan of the largest rows, which no other test samples: a wide
    quadratic oblique row takes one pass capped at MAX_GRID = 2^20 and
    reports that grid, and a horizontal row's 16N grid takes 16N/MAX_GRID
    passes of MAX_GRID points (8 at N = 2^19, 16 at N = 2^20).  grid_values
    only records its sizes and returns one unit sample, and the refinements
    are stubbed, so no large grid is computed."""
    sizes = []

    def recorded(freqs, coeffs, G):
        sizes.append(G)
        grid = np.zeros(G, dtype=complex)
        grid[0] = 1.0
        return grid
    monkeypatch.setattr(_fftsum, "grid_values", recorded)
    monkeypatch.setattr(_fftsum, "refine_supremum", lambda f, c, G, absvals: 1.0)
    monkeypatch.setattr(_fftsum, "TaylorEvaluator", _FlatTaylor)
    N = 1 << log2N
    wide = isinstance(at, SliceSpec)
    sweep = sup_norm_sweep(SCHRODINGER, at, [N])
    assert sizes == [MAX_GRID] * (1 if wide else 16 * N // MAX_GRID)
    assert sweep.rows[0].grid == (MAX_GRID if wide else 16 * N)
    assert sweep.rows[0].sup_abs == 1.0
    assert len(sweep.warnings) == wide


def test_a_narrow_row_past_the_offset_bound_runs():
    # one mode at f = 1 - 10^19, |f| = 2^63.12: its span 0 is narrow, and the
    # Taylor path works from exact centred frequencies and f mod G, so only
    # wide rows, whose probes start from f as a double, check the 2^53 bound
    rel, at = "poly:10000000000000000000,0,0", SliceSpec.oblique(kl_theta("sqrt2"), 1, 1)
    freqs, _ = line_spectrum(parse_relation(rel), at, np.array([1]), np.ones(1))
    assert abs(int(freqs[0])) >= 1 << 63
    sweep = sup_norm_sweep(rel, at, [1])
    assert [(row.sup_abs, row.grid) for row in sweep.rows] == [(1.0, 16)]
    assert sweep.warnings == []


def _single_grid_row(freqs, coeffs, G):
    """Test oracle: sup, L^2 and L^4 of a narrow row from one G-point grid."""
    absvals = np.abs(grid_values(freqs, coeffs, G))
    return (_single_grid_supremum(freqs, coeffs, G, absvals),
            float(np.sqrt(np.mean(absvals ** 2))), float(np.mean(absvals ** 4) ** 0.25))


def _inline_wide_row(freqs, coeffs, G):
    """Test oracle: sup, L^2 and L^4 of a wide row as the sweep computed them
    inline before every row went through ``row_norms``: one G-point grid,
    its top grid peaks refined, the means of absvals ** 2 and ** 4."""
    absvals = np.abs(grid_values(freqs, coeffs, G))
    return (refine_supremum(freqs, coeffs, G, absvals),
            math.sqrt(float(np.mean(absvals ** 2))), float(np.mean(absvals ** 4)) ** 0.25)


@settings(max_examples=40, deadline=None)
@given(rel=st.sampled_from(RELATIONS[:5] + (SCHRODINGER, "poly:1,0,0,0")),
       tp=st.one_of(st.just(TimePoint.from_time(1.0)), st.integers(0, 10_000).map(seeded_theta)),
       log2N=st.integers(4, 13), sign=st.sampled_from(("+", "-", "both")),
       weight=st.sampled_from(("unit", "reciprocal")))
@example(rel="gravcap", tp=seeded_theta(1005), log2N=13, sign="both", weight="reciprocal")
@example(rel=SCHRODINGER, tp=seeded_theta(3), log2N=13, sign="both", weight="unit")
def test_coarse_passes_match_the_single_grid_oracle(rel, tp, log2N, sign, weight):
    """A sweep row against its single-grid oracle.  The non-integer
    relations run horizontal rows: the 16N grid in four passes of 4N points
    against one 16N-point grid refined by the cut, the same sup to the bit,
    L^2 and L^4 to 1e-15 relative (the sums run in another order).  The
    polynomial relations run wide rows on the slope-1/1 oblique line
    through tp: against the inline recipe, the same sup, grid and L^2 to
    the bit, and L^4 to 1e-15 relative (square(square(x)) against x ** 4)."""
    spec = BlockSpec(parse_relation(rel), 1 << log2N, sign=sign, weight=weight)
    ns = spec.modes()
    wide = spec.relation.integer_valued
    slc = SliceSpec.oblique(tp, 1, 1) if wide else SliceSpec.horizontal(tp)
    freqs, coeffs = line_spectrum(spec.relation, slc, ns, spec.weights(ns))
    G = min(16 * spec.N, MAX_GRID) if wide else 16 * spec.N
    assert wide == (math.pi * frequency_span(freqs) > 16 * spec.N)
    sup, l2, l4 = (_inline_wide_row if wide else _single_grid_row)(freqs, coeffs, G)
    row = sup_norm_sweep(rel, slc, [spec.N], sign=sign, weight=weight).rows[0]
    assert row.grid == G
    assert row.sup_abs == sup
    assert row.l2 == (l2 if wide else pytest.approx(l2, rel=1e-15))
    assert row.l4 == pytest.approx(l4, rel=1e-15)


def test_each_sweep_row_calls_row_norms_once(monkeypatch):
    # the 16N grid and the row label go in, the grid the row was sampled on comes out
    calls = []

    def counted(freqs, coeffs, G, row):
        out = row_norms(freqs, coeffs, G, row)
        calls.append((G, row, out[3]))
        return out
    monkeypatch.setattr(expsum, "row_norms", counted)
    sup_norm_sweep("frac:3/2", seeded_theta(2), [16, 32, 64])
    sup_norm_sweep(SCHRODINGER, SliceSpec.oblique(seeded_theta(2), 1, 1), [16, 32])
    assert calls == [(256, "N=16", 256), (512, "N=32", 512), (1024, "N=64", 1024),
                     (256, "N=16", 256), (512, "N=32", 512)]


@pytest.mark.parametrize("G", [1606, 1002, 6, 3, 4 * MAX_GRID + 4])
def test_a_narrow_row_refuses_a_grid_its_passes_do_not_divide(G):
    # passes of G_c = min(G/4, MAX_GRID) points: four of 401 points would
    # drop two of 1606 samples (mean |S|^2 255.681 for a row whose mean is
    # 256), and four of 250 two of 1002; G/4 is no whole number at 6 and 3,
    # and past 4*MAX_GRID a G must be a multiple of MAX_GRID
    freqs = np.arange(256) if G > 1000 else np.array([0])
    coeffs = np.ones(freqs.size, dtype=complex)
    assert math.pi * frequency_span(freqs) <= G
    with pytest.raises(ValueError, match=f"row: a grid of {G} points is no whole number"):
        row_norms(freqs, coeffs, G, "row")


def _hann_peaks(D, G, peaks):
    """Frequencies 0..D and coefficients of a sum with a Hann-windowed peak
    of each (position in fine grid cells, height)."""
    freqs = np.arange(D + 1, dtype=np.int64)
    window = np.sin(np.pi * (freqs + 0.5) / (D + 1)) ** 2
    return freqs, window * sum(h * np.exp(-2j * np.pi * freqs * at / G) for at, h in peaks)


@pytest.mark.parametrize("passes", [4, 8])
def test_maximiser_in_a_later_pass_is_refined(passes, monkeypatch):
    # the one peak sits 0.3 cell past fine point 517, which is sample 517 //
    # passes of pass 517 % passes (1 and 5): pass 0 never samples it, and a
    # refinement started at the wrong fine point stays a cell or more away.
    # G = 1024 takes passes of G/4 points; capping a pass at 128 points makes eight
    G = 1024
    monkeypatch.setattr(_fftsum, "MAX_GRID", G // passes)
    freqs, coeffs = _hann_peaks(255, G, [(517.3, 1.0)])
    absvals = np.abs(grid_values(freqs, coeffs, G))
    assert int(np.argmax(absvals)) == 517 and 517 % passes != 0
    sup, mean2, mean4, grid, warnings = row_norms(freqs, coeffs, G, "row")
    assert (grid, warnings) == (G, [])
    assert sup == _single_grid_supremum(freqs, coeffs, G, absvals)
    fine = float(np.max(np.abs(grid_values(freqs, coeffs, 64 * G))))
    assert fine * (1 - 1e-13) <= sup and sup > float(np.max(absvals[::passes])) * (1 + 1e-3)
    assert mean2 == pytest.approx(float(np.mean(absvals ** 2)), rel=1e-15)
    assert mean4 == pytest.approx(float(np.mean(absvals ** 4)), rel=1e-15)


def test_a_later_pass_drops_a_candidate_an_earlier_pass_admitted(monkeypatch):
    """Peak A (0.98) on fine point 256, which pass 0 samples, and peak B
    (1.0) on 770, which only pass 2 samples.  Pass 0's best is A's own
    sample, so its cut admits A; after pass 2 best is B's, and A lies below
    the cut.  A is not refined, B is, and the sup is the oracle's."""
    G, passes = 1024, 4
    freqs, coeffs = _hann_peaks(100, G, [(256, 0.98), (770, 1.0)])
    moduli, refined = [], []
    real_local = TaylorEvaluator.local

    def recorded_grid(f, c, g):  # each pass's moduli
        values = grid_values(f, c, g)
        moduli.append(np.abs(values))
        return values
    monkeypatch.setattr(_fftsum, "grid_values", recorded_grid)
    monkeypatch.setattr(TaylorEvaluator, "local",
                        lambda self, j: refined.append(j) or real_local(self, j))
    sup = row_norms(freqs, coeffs, G, "row")[0]
    absvals = np.abs(grid_values(freqs, coeffs, G))
    cos = math.cos(math.pi * 100 / (2 * G))
    slack = CUT_SLACK * float(np.sum(np.abs(coeffs)))
    assert len(moduli) == passes and float(np.max(moduli[0])) == moduli[0][256 // passes]
    assert moduli[0][256 // passes] >= float(np.max(moduli[0])) * cos - slack
    assert moduli[0][256 // passes] < float(np.max(absvals)) * cos - slack
    assert 770 in refined and 256 not in refined
    assert sup == _single_grid_supremum(freqs, coeffs, G, absvals)


def test_a_narrow_row_holds_one_coarse_grid_besides_the_taylor_powers():
    # N = 2^14, G = 16N = 2^18 in four passes of G_c = 2^16 points.  A pass
    # holds its G_c complex samples, the G_c reused moduli and the N-term
    # anchored buffers, 2.01 * 16 * G_c bytes; the (K, N) Taylor powers,
    # 1.63 * 16 * G_c here, are built only after the passes, beside the
    # anchored buffers.  The peak is 2.25 * 16 * G_c, within 16 * G_c of the
    # powers; powers built before the passes, or a second G_c complex array
    # per pass, would pass that bound.  One 16N grid with its moduli and their
    # powers, as the sweep held it, peaked at 6.0 * 16 * G_c
    N = 1 << 14
    G, coarse = 16 * N, 4 * N
    spec = BlockSpec(parse_relation("frac:3/2"), N)
    freqs, coeffs = line_spectrum(spec.relation, SliceSpec.horizontal(seeded_theta(5)),
                                  spec.modes(), spec.weights(spec.modes()))
    powers = taylor_order(math.pi * frequency_span(freqs) / G) * N * 8
    row_norms(freqs, coeffs, G, "row")
    assert _traced_peak(lambda: row_norms(freqs, coeffs, G, "row")) <= 16 * coarse + powers


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
    # one repeated scale would count as one more independent point of the fit
    with pytest.raises(ValueError, match="scale 8 is repeated"):
        fit_exponent([8, 16, 8, 32, 64], [1.0, 2.0, 1.1, 3.0, 4.0])


def test_import_leaves_scipy_unloaded():
    src = str(Path(talbot.__file__).resolve().parents[1])
    code = ("import sys, talbot, talbot.cli, talbot.acceptance; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
