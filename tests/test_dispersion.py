"""Dispersion relations, time points, and exact phase reduction."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from talbot import (BenjaminOno, Boussinesq, FractionalPower, Gravity,
                    GravityCapillary, IntPolynomial, TimePoint, kl_theta,
                    parse_relation, parse_theta, seeded_theta,
                    theta_omega_frac_array)
from talbot.dispersion import LINEAR, oblique_frequencies
from talbot.expsum import MAX_BLOCK
from talbot.fixedpoint import FRAC_BITS, ONE, FixedReal, sqrt2, two_pi


# -- TimePoint ----------------------------------------------------------------

def test_rational_timepoint_is_exact():
    tp = TimePoint.rational(2, 6)
    assert tp.is_rational and tp.theta == Fraction(1, 3)
    assert tp.describe() == "rat:1/3"


def test_from_time_divides_by_two_pi():
    tp = TimePoint.from_time(1.0)
    assert not tp.is_rational
    assert tp.theta_float == pytest.approx(1.0 / (2.0 * math.pi), abs=1e-17)
    assert tp.t == pytest.approx(1.0, abs=1e-15)


def test_from_theta_passthrough():
    tp = TimePoint.rational(1, 2)
    assert TimePoint.from_theta(tp) is tp
    assert TimePoint.from_theta(Fraction(1, 4)).theta == Fraction(1, 4)
    assert isinstance(TimePoint.from_theta(0.25).theta, FixedReal)


def test_theta_grammar():
    assert parse_theta("rat:3/7").theta == Fraction(3, 7)
    assert parse_theta("kl:sqrt2").theta == sqrt2()
    assert parse_theta("rand:5").theta == seeded_theta(5).theta
    assert parse_theta("0.125").theta_float == 0.125
    with pytest.raises(ValueError):
        parse_theta("kl:nonsense")


def test_seeded_theta_reproducible_and_distinct():
    assert seeded_theta(7).theta == seeded_theta(7).theta
    assert seeded_theta(7).theta != seeded_theta(8).theta
    assert 0.0 <= seeded_theta(7).theta_float < 1.0


# -- relation grammar and values ----------------------------------------------

def test_parse_relation_grammar():
    assert parse_relation("poly:-1,0,0").spec == "poly:-1,0,0"
    assert parse_relation("frac:3/2").alpha == Fraction(3, 2)
    assert isinstance(parse_relation("boussinesq"), Boussinesq)
    assert isinstance(parse_relation("bo"), BenjaminOno)
    assert isinstance(parse_relation("gravity"), Gravity)
    assert isinstance(parse_relation("gravcap"), GravityCapillary)
    with pytest.raises(ValueError):
        parse_relation("kdv")


def test_int_polynomial_horner():
    rel = IntPolynomial((1, 0, 0, 0))
    assert rel.omega_int(5) == 125
    assert rel.omega_int(-3) == -27
    assert rel.degree == 3
    # huge |n| stays exact
    assert IntPolynomial((1, 1, 0)).omega_int(10**9) == 10**18 + 10**9


def test_int_polynomial_validation():
    with pytest.raises(ValueError):
        IntPolynomial((5,))  # constant
    with pytest.raises(ValueError):
        IntPolynomial((0, 0, 7))  # degenerates to a constant


def test_fractional_power_integer_case():
    rel = FractionalPower(2)
    assert rel.integer_valued and rel.omega_int(-3) == 9
    half = FractionalPower(Fraction(1, 2))
    assert not half.integer_valued
    assert float(half.omega_fixed(4)) == pytest.approx(2.0, abs=1e-15)


def test_fractional_power_fixed_point_accuracy():
    rel = FractionalPower(Fraction(3, 2))
    v = rel.omega_fixed(2)
    assert abs(float(v) - 2.0 ** 1.5) < 1e-15
    # exact floor root: v^2 <= 8 < (v + ulp)^2
    frac8 = v.as_fraction() ** 2
    ulp = Fraction(1, 1 << FRAC_BITS)
    assert frac8 <= 8 < (v.as_fraction() + ulp) ** 2


def test_water_wave_values():
    assert float(Gravity().omega_fixed(1)) == pytest.approx(math.sqrt(math.tanh(1.0)), abs=1e-12)
    assert float(Gravity().omega_fixed(1)) == pytest.approx(0.8726936208978296, abs=1e-12)
    assert float(GravityCapillary().omega_fixed(2)) == pytest.approx(
        math.sqrt((2 + 8) * math.tanh(2.0)), abs=1e-12)
    assert float(Boussinesq().omega_fixed(3)) == pytest.approx(math.sqrt(9 + 81), abs=1e-12)
    assert BenjaminOno().omega_int(-4) == -16


def test_water_wave_relations_are_even():
    for rel in (Gravity(), GravityCapillary(), Boussinesq()):
        assert float(rel.omega_fixed(-7)) == float(rel.omega_fixed(7))


def test_gravity_saturates_to_sqrt_n():
    # for n >= 70 the tanh factor is 1 to below one fixed-point ulp, so the
    # gravity phase equals the |n|^(1/2) phase bit for bit
    half = FractionalPower(Fraction(1, 2))
    for n in (70, 100, 4096):
        assert Gravity().omega_fixed(n).m == half.omega_fixed(n).m
    # and below saturation they genuinely differ
    assert Gravity().omega_fixed(5).m != half.omega_fixed(5).m


def test_gravcap_saturates_to_three_halves_model():
    gc = GravityCapillary()
    for n in (70, 128):
        expected = FixedReal(math.isqrt((n + n**3) << (2 * FRAC_BITS)))
        assert gc.omega_fixed(n).m == expected.m


# -- phase reduction ----------------------------------------------------------

def test_rational_theta_phases_are_residues():
    rel = IntPolynomial((-1, 0, 0))
    fr = theta_omega_frac_array(rel, Fraction(1, 3), range(-4, 5))
    for n, f in zip(range(-4, 5), fr):
        assert f == pytest.approx(float((Fraction(-1, 3) * n * n) % 1), abs=1e-15)


def test_fixed_theta_matches_fraction_path():
    rel = IntPolynomial((1, 0, 0, 0))
    theta = Fraction(3, 7)
    fr_exact = theta_omega_frac_array(rel, theta, range(1, 50))
    fr_fixed = theta_omega_frac_array(rel, FixedReal.from_fraction(theta), range(1, 50))
    circular = np.minimum(np.abs(fr_exact - fr_fixed), 1.0 - np.abs(fr_exact - fr_fixed))
    assert np.max(circular) < 1e-15


def test_phase_reduction_survives_huge_frequencies():
    # t*omega(n) is astronomically large; the reduced fraction must still
    # match exact Fraction arithmetic
    rel = IntPolynomial((1, 0, 0, 0))
    theta = sqrt2()
    n = 1 << 19
    fr = theta_omega_frac_array(rel, theta, [n])[0]
    exact = (theta.as_fraction() * rel.omega_int(n)) % 1
    assert fr == pytest.approx(float(exact), abs=1e-12)


def test_linear_position_phases_match_exact_fractions():
    ns = [0, 1, 2, 3, 4, -1, -5, 12345, -(1 << 40) + 7, 1 << 45]
    for x in (Fraction(1, 4),
              Fraction(-3, 7),
              Fraction(5, (1 << 31) - 1),     # q below 2^31: the int64 residue path
              Fraction(-7, (1 << 31) + 11),   # q above 2^31: the Python-integer path
              sqrt2(),                        # FixedReal
              0.3125,                         # float, converted exactly to fixed point
              3):                             # int
        exact = x.as_fraction() if isinstance(x, FixedReal) else Fraction(x)
        want = [float((exact * n) % 1) for n in ns]
        assert theta_omega_frac_array(LINEAR, x, ns).tolist() == want, x


def test_oblique_frequency():
    rel = IntPolynomial((-1, 0, 0))
    assert oblique_frequencies(rel, 1, 1, [3]) == [3 + 9]
    assert oblique_frequencies(rel, 2, 3, [3, -2]) == [3 * 3 + 2 * 9, 3 * (-2) + 2 * 4]
    with pytest.raises(ValueError, match="integer-valued"):
        oblique_frequencies(FractionalPower(Fraction(3, 2)), 1, 1, [1])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-200, max_value=200),
       st.integers(min_value=1, max_value=40),
       st.integers(min_value=0, max_value=39))
def test_rational_reduction_property(n, q, a_raw):
    a = a_raw % q
    rel = IntPolynomial((1, 1, 0))
    fr = theta_omega_frac_array(rel, Fraction(a, q), [n])[0]
    assert fr == pytest.approx(float((Fraction(a, q) * rel.omega_int(n)) % 1), abs=1e-14)
    assert 0.0 <= fr < 1.0


# -- differential test of the one phase path against exact Fraction arithmetic --

_POLYS = st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.tuples(st.integers(min_value=-9, max_value=9).filter(bool),
                        st.lists(st.integers(min_value=-9, max_value=9), min_size=d, max_size=d))
).map(lambda lead_rest: IntPolynomial((lead_rest[0], *lead_rest[1])))
_NAMED = ("bo", "frac:2", "frac:3/2", "frac:9/5", "gravity", "gravcap", "boussinesq")
_RELATIONS = st.one_of(_POLYS, st.sampled_from(_NAMED).map(parse_relation))

# denominators on both sides of the int64 residue path's q < 2^31 limit
_FRACTIONS = st.builds(Fraction, st.integers(min_value=-(1 << 40), max_value=1 << 40),
                       st.one_of(st.integers(min_value=1, max_value=1000),
                                 st.integers(min_value=1 << 31, max_value=1 << 40)))
_THETAS = st.one_of(
    _FRACTIONS,
    st.integers(min_value=1, max_value=4 * ONE).map(FixedReal),
    st.integers(min_value=-4 * ONE, max_value=-1).map(FixedReal),
    _FRACTIONS.map(FixedReal.from_fraction),
)
_MODES = st.lists(st.one_of(st.integers(min_value=-MAX_BLOCK, max_value=MAX_BLOCK),
                            st.sampled_from([-MAX_BLOCK, -1, 0, 1, MAX_BLOCK])),
                  min_size=1, max_size=16)


def _exact_frac(rel, theta, n: int) -> float:
    """float((theta * omega(n)) % 1) in exact Fraction arithmetic.  A
    non-integer omega enters as its fixed-point value, so this checks the
    reduction, not the root or tanh that produced omega(n)."""
    th = theta if isinstance(theta, Fraction) else theta.as_fraction()
    w = Fraction(rel.omega_int(n)) if rel.integer_valued else rel.omega_fixed(n).as_fraction()
    return float((th * w) % 1)


@settings(max_examples=200, deadline=None)
@given(_RELATIONS, _THETAS, _MODES)
@example(IntPolynomial((-1, 0, 0)), Fraction(-3, 7), [-MAX_BLOCK, -5, 0, MAX_BLOCK])
@example(IntPolynomial((1, 0, 0, 0)), FixedReal(-ONE // 3), [-MAX_BLOCK, MAX_BLOCK])
@example(parse_relation("frac:9/5"), FixedReal(-1), [-MAX_BLOCK, MAX_BLOCK])
def test_phase_path_matches_exact_fractions(rel, theta, ns):
    got = theta_omega_frac_array(rel, theta, ns)
    want = np.array([_exact_frac(rel, theta, n) for n in ns])
    assert np.all((got >= 0.0) & (got <= 1.0))  # 1 - 2^-192 rounds to 1.0
    if rel.integer_valued:
        assert np.array_equal(got, want)
    else:
        d = np.abs(got - want)
        assert np.max(np.minimum(d, 1.0 - d)) <= 1e-15
