"""Slice sampling, rational-time quantization, and reconstruction checks."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot import (IntPolynomial, SampleGrid, SliceSpec, StepFunction,
                    TimePoint, evolve_slice, kl_theta, parse_datum,
                    parse_relation, parse_slice, quantize_coefficients,
                    quantize_verify)
from talbot import _fftsum, evolution
from talbot.fixedpoint import sqrt2

SCHRODINGER = parse_relation("poly:-1,0,0")
AIRY = parse_relation("poly:1,0,0,0")


def step_datum() -> StepFunction:
    return StepFunction.indicator(Fraction(0), Fraction(1, 2))


# -- slice descriptors -----------------------------------------------------------

def test_slice_constructors():
    h = SliceSpec.horizontal(Fraction(1, 3))
    assert h.kind == "horizontal" and h.t.theta == Fraction(1, 3)
    v = SliceSpec.vertical(Fraction(1, 4), Fraction(0), Fraction(1, 2))
    assert v.kind == "vertical" and v.t1.theta == Fraction(1, 2)
    o = SliceSpec.oblique(Fraction(1, 3), 2, 5)
    assert o.kind == "oblique" and (o.k, o.ell) == (2, 5)


def test_slice_validation():
    with pytest.raises(ValueError):
        SliceSpec(kind="horizontal")  # no time
    with pytest.raises(ValueError):
        SliceSpec(kind="vertical", x0=Fraction(0))  # no time range
    with pytest.raises(ValueError):
        SliceSpec.oblique(Fraction(1, 3), 2, 4)  # not coprime
    with pytest.raises(ValueError):
        SliceSpec.oblique(Fraction(1, 3), 0, 1)  # k < 1
    with pytest.raises(ValueError):
        SliceSpec(kind="diagonal")


def test_vertical_slice_needs_increasing_times():
    for t0, t1 in ((Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 4)),
                   (sqrt2(), Fraction(1)), (Fraction(3, 2), sqrt2())):
        with pytest.raises(ValueError, match="t0 < t1"):
            SliceSpec.vertical(Fraction(0), t0, t1)
    assert SliceSpec.vertical(Fraction(0), Fraction(1), sqrt2()).t1.theta == sqrt2()


def test_parse_slice_grammar():
    h = parse_slice("horiz:rat:1/3")
    assert h.kind == "horizontal" and h.t.theta == Fraction(1, 3)
    v = parse_slice("vert:pi/2:rat:0/1,rat:1/2")
    assert v.kind == "vertical"
    assert v.x0 == Fraction(1, 4)  # pi/2 radians = 1/4 turn
    assert (v.t0.theta, v.t1.theta) == (Fraction(0), Fraction(1, 2))
    o = parse_slice("obliq:rat:1/3:2/5")
    assert (o.kind, o.k, o.ell) == ("oblique", 2, 5)
    assert o.c.theta == Fraction(1, 3)
    for bad in ("horiz", "vert:pi/2:0", "obliq:rat:1/3", "spiral:1"):
        with pytest.raises(ValueError):
            parse_slice(bad)


def test_slice_describe_round_trips_through_parser():
    for text in ("horiz:rat:1/3", "obliq:kl:sqrt2:1/1"):
        slc = parse_slice(text)
        again = parse_slice(slc.describe())
        assert again.describe() == slc.describe()


# -- sample grids -----------------------------------------------------------------

def test_sample_grid_geometry():
    grid = SampleGrid(np.zeros(8, dtype=complex), 2.0 * math.pi, 4)
    assert len(grid) == 8
    assert grid.spacing == pytest.approx(math.pi / 4)
    assert grid.positions[3] == pytest.approx(3 * math.pi / 4)


def test_sample_grid_rejects_non_dyadic():
    with pytest.raises(ValueError):
        SampleGrid(np.zeros(12, dtype=complex), 2.0 * math.pi, 4)


# -- horizontal slices --------------------------------------------------------------

def test_zero_time_slice_is_the_partial_sum():
    g = step_datum()
    M, length = 16, 64
    grid = evolve_slice(SCHRODINGER, g, SliceSpec.horizontal(TimePoint.rational(0, 1)),
                        M=M, length=length)
    coeffs = g.coefficients_array(M)
    xs = np.arange(length) / length  # turns
    direct = np.array([sum(c * np.exp(2j * np.pi * n * x)
                           for c, n in zip(coeffs, range(-M, M + 1)))
                       for x in xs])
    np.testing.assert_allclose(grid.samples, direct, atol=1e-10)


def test_horizontal_slice_matches_direct_mode_sum():
    g = step_datum()
    M, length = 8, 64
    theta = Fraction(1, 3)
    grid = evolve_slice(SCHRODINGER, g, SliceSpec.horizontal(TimePoint(theta)),
                        M=M, length=length)
    coeffs = g.coefficients_array(M)
    direct = np.zeros(length, dtype=complex)
    for c, n in zip(coeffs, range(-M, M + 1)):
        ph = float((theta * -(n * n)) % 1)  # exact rational reduction
        direct += c * np.exp(2j * np.pi * ph) * np.exp(
            2j * np.pi * n * np.arange(length) / length)
    np.testing.assert_allclose(grid.samples, direct, atol=1e-10)


def test_horizontal_evolution_is_unitary():
    # the grid L^2 mass equals the truncated coefficient mass at every time
    g = step_datum()
    M, length = 32, 256
    mass = float(np.sum(np.abs(g.coefficients_array(M)) ** 2))
    for t in (TimePoint.rational(1, 3), kl_theta("sqrt2")):
        grid = evolve_slice(SCHRODINGER, g, SliceSpec.horizontal(t),
                            M=M, length=length)
        assert float(np.mean(np.abs(grid.samples) ** 2)) == pytest.approx(
            mass, abs=1e-12)


def test_provenance_fields():
    grid = evolve_slice(SCHRODINGER, step_datum(),
                        SliceSpec.horizontal(TimePoint.rational(1, 2)),
                        M=8, length=32)
    for key in ("relation", "datum", "slice", "truncation"):
        assert key in grid.provenance
    assert grid.provenance["relation"] == "poly:-1,0,0"
    assert grid.truncation == 8


# -- oblique and vertical slices ------------------------------------------------------

def test_oblique_slice_matches_direct_evaluation():
    g = step_datum()
    M, length, k, ell = 8, 128, 1, 2
    c = Fraction(1, 3)
    grid = evolve_slice(SCHRODINGER, g, SliceSpec.oblique(TimePoint(c), k, ell),
                        M=M, length=length)
    assert grid.period == pytest.approx(2.0 * math.pi * ell)
    coeffs = g.coefficients_array(M)
    zs = np.arange(length) * (2.0 * math.pi * ell / length)
    direct = np.zeros(length, dtype=complex)
    for cf, n in zip(coeffs, range(-M, M + 1)):
        omega = -(n * n)
        ph = float((c * omega) % 1)
        direct += cf * np.exp(2j * np.pi * ph) * np.exp(
            1j * zs * float(n - Fraction(k, ell) * omega))
    np.testing.assert_allclose(grid.samples, direct, atol=1e-9)


def test_oblique_slice_needs_integer_frequencies():
    with pytest.raises(ValueError):
        evolve_slice("frac:1/2", step_datum(),
                     SliceSpec.oblique(TimePoint.rational(1, 3)), M=8, length=32)


def _direct_vertical(rel, g, x0, t0, t1, M, length):
    """The mode-by-mode sum at theta_j = t0 + (t1 - t0) j/length, each phase
    theta_j omega(n) + x0 n reduced mod 1 in exact Fraction arithmetic."""
    coeffs = g.coefficients_array(M)
    out = np.zeros(length, dtype=complex)
    for j in range(length):
        theta = t0 + (t1 - t0) * Fraction(j, length)
        turns = [float((theta * rel.omega_int(n) + x0 * n) % 1) for n in range(-M, M + 1)]
        out[j] = coeffs @ np.exp(2j * np.pi * np.array(turns))
    return out


# the degree-11 frequencies reach 64^11 = 2^66: an object array past 2^62
@pytest.mark.parametrize("spec", ["poly:-1,0,0", "poly:1,0,0,0", "bo", "poly:1" + ",0" * 11])
def test_vertical_slice_matches_direct_evaluation(spec):
    rel, g = parse_relation(spec), step_datum()
    M, length = 64, 512
    x0, t0, t1 = Fraction(1, 4), Fraction(1, 7), Fraction(5, 7)
    grid = evolve_slice(rel, g, SliceSpec.vertical(x0, t0, t1), M=M, length=length)
    assert grid.period == 2.0 * math.pi * (float(t1) - float(t0))
    direct = _direct_vertical(rel, g, x0, t0, t1, M, length)
    assert np.max(np.abs(grid.samples - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_vertical_slice_size_guard():
    # the window 1/997 folds length samples onto a 997*length-point grid
    window = SliceSpec.vertical(Fraction(0), Fraction(0), Fraction(1, 997))
    assert 997 << 12 <= _fftsum.GRID_CAP < 997 << 13
    assert len(evolve_slice(SCHRODINGER, step_datum(), window, M=8, length=1 << 12)) == 1 << 12
    with pytest.raises(ValueError, match="too large"):
        evolve_slice(SCHRODINGER, step_datum(), window, M=8, length=1 << 13)


# -- datum handling -----------------------------------------------------------------

def test_coefficient_array_datum():
    M, length = 4, 32
    c = np.zeros(2 * M + 1, dtype=complex)
    c[M + 1] = 1.0  # single mode n = 1
    grid = evolve_slice(SCHRODINGER, c, SliceSpec.horizontal(TimePoint.rational(0, 1)),
                        M=M, length=length)
    expected = np.exp(2j * np.pi * np.arange(length) / length)
    np.testing.assert_allclose(grid.samples, expected, atol=1e-12)


def test_datum_array_shape_validation():
    with pytest.raises(ValueError):
        evolve_slice(SCHRODINGER, np.zeros(8, dtype=complex),
                     SliceSpec.horizontal(TimePoint.rational(0, 1)), M=4, length=32)


@pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
def test_evolve_slice_rejects_an_infinite_step_datum():
    g = StepFunction((Fraction(0), Fraction(1, 2)), (math.inf, 1.0))
    with pytest.raises(ValueError, match="datum must be finite"):
        evolve_slice(SCHRODINGER, g, SliceSpec.horizontal(TimePoint.rational(1, 3)),
                     M=8, length=64)


def test_evolve_slice_validation():
    g = step_datum()
    with pytest.raises(ValueError):
        evolve_slice(SCHRODINGER, g, SliceSpec.horizontal(TimePoint.rational(0, 1)),
                     M=0, length=32)
    with pytest.raises(ValueError):
        evolve_slice(SCHRODINGER, g, SliceSpec.horizontal(TimePoint.rational(0, 1)),
                     M=4, length=100)


# -- quantization ----------------------------------------------------------------------

def test_quantize_coefficients_frozen_small_denominators():
    c1 = quantize_coefficients(SCHRODINGER, 0, 1)
    np.testing.assert_allclose(c1, [1.0], atol=1e-14)

    c2 = quantize_coefficients(SCHRODINGER, 1, 2)
    np.testing.assert_allclose(c2, [0.0, 1.0], atol=1e-14)

    s3 = 1.0 / math.sqrt(3.0)
    c3 = quantize_coefficients(SCHRODINGER, 1, 3)
    np.testing.assert_allclose(
        c3, [-1j * s3, 0.5 + 0.5j * s3, 0.5 + 0.5j * s3], atol=1e-14)

    c4 = quantize_coefficients(SCHRODINGER, 1, 4)
    np.testing.assert_allclose(
        c4, [(1 - 1j) / 2, 0.0, (1 + 1j) / 2, 0.0], atol=1e-14)


def test_quantize_validation():
    with pytest.raises(ValueError):
        quantize_coefficients(SCHRODINGER, 2, 4)  # not reduced
    with pytest.raises(ValueError):
        quantize_coefficients(SCHRODINGER, 1, 1 << 13)  # q too large
    with pytest.raises(ValueError):
        quantize_coefficients(parse_relation("frac:1/2"), 1, 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=63),
       st.sampled_from(["poly:-1,0,0", "poly:1,0,0,0", "poly:1,1,0"]))
def test_quantize_coefficients_invariants(q, a, rel_text):
    a = a % q
    if math.gcd(a, q) != 1:
        a = 1  # gcd(1, q) = 1 always
    c = quantize_coefficients(parse_relation(rel_text), a, q)
    assert len(c) == q
    # Parseval: the translate weights carry unit mass, and they sum to
    # e(a*omega(0)/q) = 1 because omega(0) = 0 for these relations
    assert float(np.sum(np.abs(c) ** 2)) == pytest.approx(1.0, abs=1e-12)
    assert complex(np.sum(c)) == pytest.approx(1.0 + 0j, abs=1e-12)


def _quantize_coefficients_by_loop(rel, a: int, q: int) -> np.ndarray:
    """Reference: c_m = (1/q) sum_j e((a omega(j) + j m) / q), one exact
    residue per (j, m)."""
    ms = np.arange(q, dtype=np.int64)
    total = np.zeros(q, dtype=np.complex128)
    for j in range(q):
        res = (a * rel.omega_int(j) + j * ms) % q
        total += np.exp(2j * np.pi * res / q)
    return total / q


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), st.integers(min_value=-64, max_value=64),
       st.sampled_from(["poly:-1,0,0", "poly:1,0,0,0", "poly:1,1,0", "poly:-2,3,0,5,-1"]))
def test_quantize_coefficients_match_residue_loop(q, a, rel_text):
    if math.gcd(a, q) != 1:
        a = 1
    rel = parse_relation(rel_text)
    got = quantize_coefficients(rel, a, q)
    assert np.max(np.abs(got - _quantize_coefficients_by_loop(rel, a, q))) <= 1e-14


def reconstruction(a: int, q: int) -> StepFunction:
    """The exact translate reconstruction of step_datum() at theta = a/q."""
    return quantize_verify(SCHRODINGER, step_datum(), a, q,
                           M=1 << 6, length=1 << 10).reconstruction


def test_quantize_reconstruct_half_turn_is_a_translate():
    # theta = 1/2 for the schroedinger relation shifts the datum by half a turn
    recon = reconstruction(1, 2)
    assert complex(recon.value_at_turns(Fraction(1, 4))) == pytest.approx(0.0)
    assert complex(recon.value_at_turns(Fraction(3, 4))) == pytest.approx(1.0)
    assert set(recon.breakpoints) == {Fraction(0), Fraction(1, 2)}


def test_quantize_reconstruct_refines_breakpoints():
    recon = reconstruction(1, 3)
    assert set(recon.breakpoints) == {
        Fraction(0), Fraction(1, 6), Fraction(1, 3), Fraction(1, 2),
        Fraction(2, 3), Fraction(5, 6)}


def _reconstruct_by_pieces(g: StepFunction, c: np.ndarray) -> StepFunction:
    """Reference: every translate of every breakpoint, then each piece's
    value as sum_m c_m g(x - m/q) at its midpoint, one lookup per (piece, m)."""
    q = len(c)
    breaks: set[Fraction] = set()
    for b in g.breakpoints:
        for m in range(q):
            v = b + Fraction(m, q)
            breaks.add(v - (v >= 1))
    refined = sorted(breaks)
    values = []
    for i, left in enumerate(refined):
        right = refined[i + 1] if i + 1 < len(refined) else refined[0] + 1
        rep = (left + right) / 2
        rep -= rep >= 1
        val = 0j
        for m in range(q):
            u = rep - Fraction(m, q)
            u -= math.floor(u)
            val += complex(c[m]) * complex(g.value_at_turns(u))
        values.append(val)
    return StepFunction(refined, values)


def assert_same_reconstruction(g: StepFunction, c: np.ndarray) -> None:
    got, want = evolution._reconstruct(g, c), _reconstruct_by_pieces(g, c)
    assert got.breakpoints == want.breakpoints
    assert np.max(np.abs(np.array(got.values) - np.array(want.values))) <= 1e-13


_PARTS = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def lattice_steps(draw) -> StepFunction:
    """A step function with 1-5 breakpoints on the 1/16 or the 1/7 lattice."""
    den = draw(st.sampled_from([16, 7]))
    ks = sorted(draw(st.sets(st.integers(0, den - 1), min_size=1, max_size=5)))
    values = [complex(draw(_PARTS), draw(_PARTS)) for _ in ks]
    return StepFunction([Fraction(k, den) for k in ks], values)


@settings(max_examples=40, deadline=None)
@given(lattice_steps(), st.integers(min_value=1, max_value=64),
       st.integers(min_value=-64, max_value=64),
       st.sampled_from(["poly:-1,0,0", "poly:1,0,0,0", "poly:1,1,0"]))
def test_reconstruct_matches_piece_loop(g, q, a, rel_text):
    if math.gcd(a, q) != 1:
        a = 1
    assert_same_reconstruction(g, quantize_coefficients(parse_relation(rel_text), a, q))


def test_reconstruct_matches_piece_loop_at_q_509():
    g = StepFunction((Fraction(1, 16), Fraction(3, 7)), (1.5 - 0.5j, -1.0))
    assert_same_reconstruction(g, quantize_coefficients(SCHRODINGER, 1, 509))


def test_quantize_verify_without_off_jump_points_fails_early(monkeypatch):
    # 34 jumps at q = 17 leave every grid point within 1/68 of a turn of one
    def unexpected(*args, **kwargs):
        raise AssertionError("the series was evolved")
    monkeypatch.setattr(evolution, "evolve_slice", unexpected)
    message = ("nothing to compare at q = 17: no grid point lies 1/64 turn "
               "from all 34 reconstructed jumps")
    with pytest.raises(ValueError, match=message):
        quantize_verify(SCHRODINGER, parse_datum("step:0,pi"), 1, 17)


def test_quantize_verify_identity_time():
    # theta = 0: the reconstruction is the datum itself and the deviation is
    # the off-jump truncation error of the partial sum
    chk = quantize_verify(SCHRODINGER, step_datum(), 0, 1, M=1 << 10, length=1 << 13)
    assert chk.deviation < 0.05
    assert chk.excluded == 510  # 255 grid points around each of the two jumps
    assert chk.compared == (1 << 13) - 510
    assert len(chk.coefficients) == 1
    assert chk.reconstruction.breakpoints == step_datum().breakpoints


def test_quantize_verify_half_turn():
    chk = quantize_verify(SCHRODINGER, step_datum(), 1, 2, M=1 << 10, length=1 << 12)
    assert chk.deviation < 0.05
    np.testing.assert_allclose(chk.coefficients, [0.0, 1.0], atol=1e-14)


def _exact_samples_by_bisection(g: StepFunction, length: int) -> np.ndarray:
    """Per-point reference: one exact Fraction lookup per grid point."""
    return np.array([complex(g.value_at_turns(Fraction(jj, length)))
                     for jj in range(length)])


@pytest.mark.parametrize("g", [
    step_datum(),
    StepFunction.constant(2.0 - 1.0j),
    StepFunction((Fraction(1, 7), Fraction(1, 3), Fraction(5, 6)), (1.0, -2.0j, 0.5)),
    # breakpoints closer than one grid cell share a threshold
    StepFunction((Fraction(1, 5), Fraction(1, 5) + Fraction(1, 1000), Fraction(3, 4)),
                 (3.0, 4.0, 5.0)),
    reconstruction(1, 3),
])
@pytest.mark.parametrize("length", [1 << 6, 1 << 9])
def test_step_grid_values_match_bisection(g, length):
    got = evolution._step_grid_values(g, length)
    assert np.array_equal(got, _exact_samples_by_bisection(g, length))
