"""Box counting, Hölder and Besov estimators, and the calibration family."""
import math
import re
import tracemalloc

import numpy as np
import pytest

from talbot import besov_profile, box_dimension, holder_exponent, weierstrass
from talbot import fractal
from talbot.evolution import SampleGrid
from talbot.fractal import NOISE_FLOOR, measured_parts

L = 1 << 14
X = np.arange(L) / L  # turns


# -- box counting ------------------------------------------------------------------

def test_step_graph_has_dimension_one_aligned_jumps():
    ys = np.where(X < 0.5, 1.0, 0.0)
    res = box_dimension(ys)
    assert res.dimension == pytest.approx(1.0, abs=0.05)
    assert not res.degenerate


def test_step_graph_has_dimension_one_off_grid_jump():
    ys = np.where(X < 1.0 / 3.0, 1.0, 0.0)
    res = box_dimension(ys)
    assert res.dimension == pytest.approx(1.0, abs=0.05)


def test_smooth_graph_has_dimension_one():
    ys = np.sin(2.0 * np.pi * X)
    res = box_dimension(ys)
    assert res.dimension == pytest.approx(1.0, abs=0.1)


def test_box_counts_are_affine_invariant():
    ys = weierstrass(0.5, J=12, length=L)
    a = box_dimension(ys)
    b = box_dimension(-3.0 * ys + 7.0)
    assert a.counts == b.counts
    assert a.dimension == pytest.approx(b.dimension, abs=1e-12)


def test_box_counts_grow_as_eps_shrinks():
    res = box_dimension(weierstrass(0.5, J=12, length=L))
    assert all(e1 > e2 for e1, e2 in zip(res.eps_list, res.eps_list[1:]))
    assert all(c1 < c2 for c1, c2 in zip(res.counts, res.counts[1:]))


def test_constant_input_is_degenerate():
    res = box_dimension(np.full(L, 2.5))
    assert res.degenerate
    assert res.dimension == 1.0
    assert res.fit.r_squared == 1.0


def _column_oscillations(ys, k):
    """Test oracle: max - min of ys over 2^k equal closed columns, each
    scanned in full and including the first sample of the next column."""
    cols = ys.reshape(1 << k, -1)
    nxt = np.roll(ys[:: ys.shape[0] >> k], -1)
    return (np.maximum(cols.max(axis=1), nxt)
            - np.minimum(cols.min(axis=1), nxt))


def _box_counts_oracle(samples):
    """Test oracle: the cover size at every scale, from the whole rescaled
    array, one scale at a time."""
    ys = np.asarray(samples, dtype=np.float64)
    span = float(ys.max() - ys.min())
    if span:
        ys = (ys - ys.min()) / span
    ks = range(2, int(math.log2(len(ys))) - 5)
    return tuple(int(np.sum(np.ceil(_column_oscillations(ys, k) * (1 << k) - 1e-9))) + (1 << k)
                 for k in ks)


def _dyadic_steps():
    # jumps exactly on column boundaries of every scale, including the wrap
    # from the last sample to the first and a jump on the finest boundary
    j = np.arange(L)
    return np.where(j < L // 4, 3.0, 0.0) + np.where(j >= L // 2, -1.5, 0.0) \
        + np.where(j >= L - L // 64, 0.75, 0.0)


ORACLE_GRAPHS = {
    "random-walk": lambda: np.cumsum(np.random.default_rng(11).standard_normal(L)),
    "weierstrass": lambda: weierstrass(0.4, J=16, length=L),
    "dyadic-steps": _dyadic_steps,
    "one-sample-spike": lambda: np.where(np.arange(L) == L // 8, 1.0, 0.0),
    "real-view": lambda: (np.cumsum(np.random.default_rng(12).standard_normal(L))
                          + 1j * np.cumsum(np.random.default_rng(13).standard_normal(L))).real,
}


@pytest.mark.parametrize("kind", ORACLE_GRAPHS)
def test_box_counts_match_per_scale_oracle_bitwise(kind):
    ys = ORACLE_GRAPHS[kind]()
    if kind == "real-view":
        assert not ys.flags.contiguous
    assert box_dimension(ys).counts == _box_counts_oracle(ys)


def test_closed_columns_count_a_jump_on_a_dyadic_boundary():
    # the jump at x = 1/2 and the wrap from 0 back to 1 each land on a column
    # boundary at every scale; the column to the left of each sees the full
    # rise, so the cover is 2^k boxes for the jumps plus one per column
    counts = box_dimension(np.where(X < 0.5, 1.0, 0.0)).counts
    assert counts == tuple(3 << k for k in range(2, 9))


def test_box_dimension_validation():
    ys = np.sin(2.0 * np.pi * X)
    with pytest.raises(ValueError):
        box_dimension(ys[:100])  # not a power of two
    with pytest.raises(ValueError):
        box_dimension(np.zeros(1 << 10))  # too short
    with pytest.raises(ValueError):
        box_dimension(ys, drop=(-1, 2))
    with pytest.raises(ValueError):
        box_dimension(ys, drop=(3, 3))  # leaves one of the seven scales


def test_box_dimension_fits_a_two_scale_window():
    res = box_dimension(weierstrass(0.5, J=12, length=L), drop=(2, 3))
    assert res.fit.scales == (1 << 4, 1 << 5)
    assert math.isfinite(res.dimension)
    with pytest.raises(ValueError):
        box_dimension(np.exp(2j * np.pi * X))  # complex without .real


# -- Hölder exponent ----------------------------------------------------------------

def test_holder_of_smooth_graph_is_one():
    fit = holder_exponent(np.sin(2.0 * np.pi * X))
    assert fit.slope == pytest.approx(1.0, abs=0.03)


def test_holder_of_jump_is_zero():
    # every lag sees the full jump, so the modulus is flat in the lag
    fit = holder_exponent(np.where(X < 0.5, 1.0, 0.0))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_holder_of_zero_function():
    fit = holder_exponent(np.zeros(L))
    assert fit.slope == 0.0
    assert fit.r_squared == 0.0


def _holder_moduli_roll(ys, lags):
    """Test oracle: max_x |f(x + h) - f(x)| from a rolled copy per lag."""
    return [float(np.abs(np.roll(ys, -w) - ys).max()) for w in lags]


@pytest.mark.parametrize("kind", ORACLE_GRAPHS)
def test_holder_moduli_match_roll_oracle_bitwise(kind, monkeypatch):
    ys = ORACLE_GRAPHS[kind]()
    seen, fit_line = [], fractal.least_squares_line

    def capture(xs, vals, scales):
        seen.append((xs, vals))
        return fit_line(xs, vals, scales)
    monkeypatch.setattr(fractal, "least_squares_line", capture)
    fit = holder_exponent(ys, lag_min=1, lag_max=L // 4)
    lags = [1 << i for i in range(int(math.log2(L // 4)) + 1)]
    want = _holder_moduli_roll(ys, lags)
    keep = [i for i, h in enumerate(want) if h > 0.0]
    (xs, vals), = seen
    assert np.array_equal(xs, np.log2(np.array([lags[i] for i in keep], dtype=np.float64)))
    assert np.array_equal(vals, np.log2(np.array([want[i] for i in keep])))
    assert fit.scales == tuple(lags[i] for i in keep)


def test_holder_validation():
    ys = np.sin(2.0 * np.pi * X)
    with pytest.raises(ValueError):
        holder_exponent(ys, lag_min=33)
    with pytest.raises(ValueError):
        holder_exponent(ys, lag_min=64, lag_max=64)
    with pytest.raises(ValueError):
        holder_exponent(ys, lag_max=L)  # beyond len/4


# -- Besov profile ------------------------------------------------------------------

def test_besov_single_mode():
    ys = np.exp(2j * np.pi * 16 * np.arange(1 << 12) / (1 << 12))
    prof = besov_profile(ys)
    i = prof.Ns.index(16)
    for p in (1, 2, math.inf):
        assert prof.norms[p][i] == pytest.approx(1.0, abs=1e-10)
        others = [v for j, v in enumerate(prof.norms[p]) if j != i]
        assert max(others) < 1e-10
        assert prof.gamma(p) is None  # a single active block cannot be fitted


def test_besov_block_norms_are_ordered():
    prof = besov_profile(weierstrass(0.5, J=12, length=L))
    for n1, n2, ninf in zip(prof.norms[1], prof.norms[2], prof.norms[math.inf]):
        assert n1 <= n2 + 1e-12
        assert n2 <= ninf + 1e-12


def test_besov_validation():
    with pytest.raises(ValueError):
        besov_profile(np.zeros(100))
    with pytest.raises(ValueError):
        besov_profile(np.zeros(1 << 10))


@pytest.mark.parametrize("p", [0, -1, math.nan, 0.5, -math.inf, "inf"])
def test_besov_refuses_p_below_one_or_not_a_number_before_the_transform(p, monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("the forward FFT ran")
    monkeypatch.setattr(np.fft, "rfft", no_transform)
    monkeypatch.setattr(np.fft, "fft", no_transform)
    for ys in (np.sin(2.0 * np.pi * X), np.exp(2j * np.pi * X)):
        with pytest.raises(ValueError, match="finite number >= 1 or math.inf"):
            besov_profile(ys, ps=(2, p))


@pytest.mark.parametrize("ps", [(2, 2.0), (math.inf, float("inf"), 1)])
def test_besov_refuses_a_repeated_p_before_the_transform(ps, monkeypatch):
    # by_p keeps one list per distinct p: a repeated p would append twice a block
    ys = weierstrass(0.4, J=9, length=1 << 12)

    def no_transform(*args, **kwargs):
        raise AssertionError("the forward FFT ran")
    monkeypatch.setattr(np.fft, "rfft", no_transform)
    monkeypatch.setattr(np.fft, "fft", no_transform)
    with pytest.raises(ValueError, match=re.escape(f"Besov p = {ps[1]!r} is repeated")):
        besov_profile(ys, ps=ps)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_besov_rejects_non_finite_samples(bad):
    ys = np.sin(2.0 * np.pi * X).astype(np.complex128)
    ys[17] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        besov_profile(ys)
    with pytest.raises(ValueError, match="samples must be finite"):
        besov_profile(ys, ps=(2,))


def _besov_norms_full_ifft(samples, ps):
    """Test oracle: mask the spectrum to each block and run one full-length
    inverse FFT per block."""
    arr = np.asarray(samples, dtype=np.complex128)
    n = len(arr)
    spec = np.fft.fft(arr) / n
    absfreq = np.abs(np.fft.fftfreq(n) * n)
    norms = {p: [] for p in ps}
    N = 1
    while 2 * N <= n // 8:
        mask = (absfreq >= N) & (absfreq < 2 * N)
        a = np.abs(np.fft.ifft(np.where(mask, spec, 0.0)) * n)
        for p in ps:
            if p == math.inf:
                norms[p].append(float(np.max(a)))
            else:
                norms[p].append(float(np.mean(a ** p) ** (1.0 / p)))
        N *= 2
    return norms


def _oracle_input(kind, n):
    rng = np.random.default_rng(n)
    x = np.arange(n) / n
    if kind == "real":
        return rng.standard_normal(n) * (1.0 + np.sin(2.0 * np.pi * x))
    if kind == "complex":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "single-mode":
        return np.exp(-2j * np.pi * 37 * x)
    return weierstrass(0.4, J=int(math.log2(n)) - 3, length=n)


ORACLE_PS = (1, 2, 3, math.inf)


@pytest.mark.parametrize("kind", ["real", "complex", "single-mode", "weierstrass"])
@pytest.mark.parametrize("log2n", range(12, 17))
def test_besov_matches_full_ifft_oracle(kind, log2n):
    ys = _oracle_input(kind, 1 << log2n)
    prof = besov_profile(ys, ps=ORACLE_PS)
    ref = _besov_norms_full_ifft(ys, ORACLE_PS)
    for p in ORACLE_PS:
        got, want = np.array(prof.norms[p]), np.array(ref[p])
        live = want > 1e-13  # the fit floor; blocks below it are rounding noise
        np.testing.assert_allclose(got[live], want[live], rtol=1e-12, atol=0.0)
        assert np.all(got[~live] <= 1e-13)
        keep = [i for i, N in enumerate(prof.Ns) if N >= 4 and live[i]]
        if len(keep) < 4:
            assert prof.gamma(p) is None
        else:
            gamma = -np.polyfit(np.log2([prof.Ns[i] for i in keep]), np.log2(want[keep]), 1)[0]
            assert prof.gamma(p) == pytest.approx(gamma, abs=1e-12)
    if kind == "weierstrass":
        assert prof.gamma(math.inf) == pytest.approx(0.4, abs=1e-9)


def test_besov_l2_only_matches_default_profile():
    ys = _oracle_input("complex", L)
    default = besov_profile(ys)
    alone = besov_profile(ys, ps=(2,))
    assert alone.Ns == default.Ns
    assert alone.norms[2] == default.norms[2]
    assert alone.gamma(2) == default.gamma(2)


def _assert_near_its_complex_copy(ys):
    # real input takes one half-length real forward FFT and half-length real
    # block transforms; the complex copy full-length complex ones, so every
    # norm, the Parseval L^2 ones included, agrees to rounding only
    real, cplx = besov_profile(ys, ps=ORACLE_PS), besov_profile(ys.astype(np.complex128), ps=ORACLE_PS)
    assert real.Ns == cplx.Ns
    for p in ORACLE_PS:
        np.testing.assert_allclose(real.norms[p], cplx.norms[p], rtol=1e-13, atol=0.0)
        assert real.gamma(p) == pytest.approx(cplx.gamma(p), rel=0.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["real", "weierstrass"])
def test_besov_real_input_matches_its_complex_copy(kind):
    _assert_near_its_complex_copy(_oracle_input(kind, L))


@pytest.mark.parametrize("kind", ["real", "weierstrass"])
@pytest.mark.parametrize("form", ["float32", "int64", "strided"])
def test_besov_other_real_forms_match_their_complex_copy_and_stay_unchanged(kind, form):
    # these take a float64 copy or, for the .real view of a complex array,
    # are read with their strides
    ys = _oracle_input(kind, L)
    ys = {"float32": ys.astype(np.float32), "int64": np.rint(1e6 * ys).astype(np.int64),
          "strided": (ys + 1j).real}[form]
    before = ys.copy()
    _assert_near_its_complex_copy(ys)
    assert ys.dtype == before.dtype and np.array_equal(ys, before)


@pytest.mark.parametrize("kind", ["real", "weierstrass"])
def test_besov_real_spectrum_has_exactly_conjugate_negative_bins(kind, monkeypatch):
    seen = []
    block_moduli = fractal._block_moduli

    def spy(spec, *args):
        seen.append(spec)
        return block_moduli(spec, *args)
    monkeypatch.setattr(fractal, "_block_moduli", spy)
    besov_profile(_oracle_input(kind, L), ps=(math.inf,))
    spec = seen[0]
    M = len(spec)
    assert M == L // 4 and all(s is spec for s in seen)
    negative = spec[:M // 2:-1]  # bins -1, -2, ..., 1 - L/8
    assert np.conjugate(spec[1:M // 2]).tobytes() == negative.tobytes()


def _block_samples_one_shot(spec, table, N, real):
    """Test oracle: all L samples of P_N f from one batched B-point inverse
    FFT over every row at once, B = 4N, with the twiddles gathered in one
    (L/B, N) array (the block evaluation before row chunks)."""
    L = len(spec)
    B = 4 * N
    tw = table[np.outer(np.arange(L // B), np.arange(N, 2 * N))]
    X = np.zeros((L // B, 2 * N + 1 if real else B), dtype=np.complex128)
    np.multiply(tw, spec[N:2 * N], out=X[:, N:2 * N])
    if real:
        return np.fft.irfft(X, B, axis=1, norm="forward")
    np.multiply(np.conjugate(tw, out=tw), spec[L - N:L - 2 * N:-1], out=X[:, 3 * N:2 * N:-1])
    return np.fft.ifft(X, axis=1, norm="forward")


def _besov_norms_one_shot(samples, ps):
    """Test oracle: besov_profile's block norms, each block's moduli taken
    from ``_block_samples_one_shot`` as a fresh array."""
    real = not np.iscomplexobj(samples)
    L = len(samples)
    if real:  # the negative bins are exact conjugates of the positive ones
        half = np.fft.rfft(np.asarray(samples, dtype=np.float64), norm="forward")
        spec = np.concatenate((half[:L // 2], np.conjugate(half[L // 2:0:-1])))
    else:
        spec = np.fft.fft(np.asarray(samples, dtype=np.complex128), norm="forward")
    table = np.exp(2j * np.pi / L * np.arange(L // 2))
    norms = {p: [] for p in ps}
    N = 1
    while 2 * N <= L // 8:
        a = np.abs(_block_samples_one_shot(spec, table, N, real))
        for p in ps:
            if p == 1:
                norms[p].append(float(np.mean(a)))
            elif p == 2:
                band = np.concatenate((spec[N:2 * N], spec[L - 2 * N + 1:L - N + 1]))
                norms[p].append(float(np.sqrt(np.sum(band.real ** 2 + band.imag ** 2))))
            elif p == math.inf:
                norms[p].append(float(np.max(a)))
            else:
                norms[p].append(float(np.mean(a ** p) ** (1.0 / p)))
        N *= 2
    return norms


@pytest.mark.parametrize("kind", ["real", "complex", "weierstrass"])
@pytest.mark.parametrize("log2n", range(12, 19))
def test_besov_row_chunks_are_bit_identical_to_one_shot_blocks(kind, log2n):
    # 2^12 samples are fewer than one chunk; at 2^18 the widest block,
    # B = 2^16, is wider than one chunk and takes one row per chunk
    assert (1 << 12) < fractal._CHUNK < (1 << 18) // 4
    ys = _oracle_input(kind, 1 << log2n)
    prof = besov_profile(ys, ps=ORACLE_PS)
    assert prof.norms == {p: tuple(v) for p, v in _besov_norms_one_shot(ys, ORACLE_PS).items()}


def _traced_peak(call):
    """Bytes that call() holds at its peak over those live before it, by tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _peak_bytes(ys, ps):
    return _traced_peak(lambda: besov_profile(ys, ps=ps))


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_besov_samples_cost_at_most_one_and_a_half_spectra(kind):
    # the p != 2 norms read one L-sample modulus buffer filled chunk by
    # chunk: over the L^2-only call they add the twiddle table, the buffer and
    # one block's chunk buffers, not L-sized temporaries per block
    n = 1 << 18
    ys = _oracle_input(kind, n)
    besov_profile(ys)
    extra = _peak_bytes(ys, (1, 2, math.inf)) - _peak_bytes(ys, (2,))
    assert extra <= 1.5 * 16 * n


def test_besov_l2_of_real_input_holds_no_full_length_complex_array():
    # one half-length real FFT (L/2 + 1 bins) plus the L/4 kept bins and the
    # L/8 conjugates: 0.875 spectra at L = 2^18, where the complex copy and
    # its full-length transform held 1.25
    n = 1 << 18
    ys = _oracle_input("real", n)
    besov_profile(ys, ps=(2,))
    assert _peak_bytes(ys, (2,)) <= 1.0 * 16 * n


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_besov_default_profile_peaks_below_two_spectra(kind):
    # only the L/4 bins the blocks read outlive the forward FFT (a half-length
    # real one over real input, in place into the copy that complex64 input
    # needs), and the twiddle table is built in place: at L = 2^18 the call
    # peaks near 1.7 spectra over real input and 1.9 over complex input (the
    # widest block's one-row chunk buffers over the kept bins, the table and
    # the modulus buffer), where the full spectrum and out-of-place
    # transforms held 3.4 and 2.7
    n = 1 << 18
    ys = _oracle_input(kind, n)
    besov_profile(ys)
    assert _peak_bytes(ys, (1, 2, math.inf)) <= 2.0 * 16 * n


def test_besov_profile_leaves_its_input_unchanged():
    # a copy made from complex64 input is transformed in place; a caller's
    # complex128 array, a SampleGrid's samples and a real array are only
    # read, and equal samples give equal norms
    real = _oracle_input("real", L)
    cplx = _oracle_input("complex", L)
    grid = SampleGrid(samples=cplx.copy(), period=1.0, truncation=L // 4)
    want_real = besov_profile(real.copy(), ps=ORACLE_PS).norms
    want_cplx = besov_profile(cplx.copy(), ps=ORACLE_PS).norms
    for given, want in ((real, want_real), (cplx, want_cplx), (grid, want_cplx),
                        (real.tolist(), want_real)):
        before = np.array(given.samples if isinstance(given, SampleGrid) else given)
        assert besov_profile(given, ps=ORACLE_PS).norms == want
        after = given.samples if isinstance(given, SampleGrid) else np.asarray(given)
        assert after.tobytes() == before.tobytes()
    single = cplx.astype(np.complex64)
    before = single.copy()
    besov_profile(single, ps=ORACLE_PS)
    assert single.tobytes() == before.tobytes()


# -- re/im parts -------------------------------------------------------------------

def test_measured_parts_skip_a_part_below_the_noise_floor():
    real = np.sin(2.0 * np.pi * X)
    field = real + 1j * 5e-16 * np.cos(2.0 * np.pi * X)
    measured, skipped = measured_parts(field)
    assert list(measured) == ["re"] and list(skipped) == ["im"]
    assert np.array_equal(measured["re"], real)
    assert "rounding noise" in skipped["im"]
    # a part at the floor itself is measured; so is every part of a zero field
    at_floor = real + 1j * NOISE_FLOOR * np.cos(2.0 * np.pi * X)
    assert list(measured_parts(at_floor)[0]) == ["re", "im"]
    assert list(measured_parts(np.zeros(L, dtype=np.complex128))[0]) == ["re", "im"]


def test_box_and_holder_refuse_complex_samples_and_take_measured_parts():
    # an imaginary part of 1e-12 is refused, not dropped: measured_parts is
    # the one rule that decides whether a part is rounding noise
    field = np.sin(2.0 * np.pi * X) + 1e-12j * np.cos(2.0 * np.pi * X)
    for estimate in (box_dimension, holder_exponent):
        with pytest.raises(ValueError, match="samples are complex"):
            estimate(field)
    measured, _ = measured_parts(field)
    for part in measured.values():  # strided views, read as they are
        assert box_dimension(part) == box_dimension(part.copy())
        assert holder_exponent(part) == holder_exponent(part.copy())


def test_the_sample_check_returns_its_input_uncopied():
    field = np.exp(2j * np.pi * X)
    grid = SampleGrid(samples=field, period=1.0, truncation=L // 4)
    for given, real in ((field.real, True), (field.imag, True), (field, False), (grid, False)):
        arr = given.samples if isinstance(given, SampleGrid) else given
        assert np.shares_memory(fractal._samples(given, real), arr)
    for bad in (np.zeros((2, L // 2)), np.zeros(L - 1), np.zeros(fractal.MIN_SAMPLES // 2)):
        for real in (True, False):
            with pytest.raises(ValueError, match="power-of-two"):
                fractal._samples(bad, real)


# -- calibration family ---------------------------------------------------------------

@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7])
def test_weierstrass_calibration(gamma):
    w = weierstrass(gamma, J=14, length=1 << 16)
    assert box_dimension(w).dimension == pytest.approx(2.0 - gamma, abs=0.08)
    assert holder_exponent(w).slope == pytest.approx(gamma, abs=0.07)
    # each dyadic block holds exactly one cosine of weight 2^{-j gamma},
    # so the sup-norm decay exponent is exact
    assert besov_profile(w).gamma(math.inf) == pytest.approx(gamma, abs=1e-9)


def test_weierstrass_value_at_zero():
    J, gamma = 12, 0.5
    w = weierstrass(gamma, J=J, length=1 << 12)
    assert w[0] == pytest.approx(sum(2.0 ** (-j * gamma) for j in range(J + 1)),
                                 abs=1e-12)


def _weierstrass_direct(gamma, J, length):
    """The direct formula: one integer-reduced cosine per term and sample."""
    m = np.arange(length, dtype=np.int64)
    out = np.zeros(length, dtype=np.float64)
    for j in range(J + 1):
        r = (m << j) & (length - 1) if (1 << j) < length else (m * (1 << j)) % length
        out += 2.0 ** (-j * gamma) * np.cos(2.0 * np.pi * r / length)
    return out


@pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 1.0])
@pytest.mark.parametrize("J,length", [(12, 1 << 14), (14, 1 << 12), (6, 1 << 3), (3, 2)])
def test_weierstrass_matches_direct_formula_bitwise(gamma, J, length):
    # (14, 2^12) and the two small grids include terms with 2^j >= length
    assert np.array_equal(weierstrass(gamma, J=J, length=length),
                          _weierstrass_direct(gamma, J, length))


def test_weierstrass_validation():
    with pytest.raises(ValueError):
        weierstrass(0.5, length=1000)
    with pytest.raises(ValueError):
        weierstrass(0.0)
    with pytest.raises(ValueError):
        weierstrass(1.5)
