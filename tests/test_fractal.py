"""Box counting, Hölder and Besov estimators, and the calibration family."""
import math

import numpy as np
import pytest

from talbot import besov_profile, box_dimension, holder_exponent, weierstrass
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
