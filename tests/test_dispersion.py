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
from talbot import dispersion
from talbot.dispersion import LINEAR, _tanh_fraction, oblique_frequencies
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
    assert half.omega_mantissa(4) == 2 * ONE


def test_fractional_power_fixed_point_accuracy():
    rel = FractionalPower(Fraction(3, 2))
    v = FixedReal(rel.omega_mantissa(2))
    assert abs(float(v) - 2.0 ** 1.5) < 1e-15
    # exact floor root: v^2 <= 8 < (v + ulp)^2
    frac8 = v.as_fraction() ** 2
    ulp = Fraction(1, 1 << FRAC_BITS)
    assert frac8 <= 8 < (v.as_fraction() + ulp) ** 2


def _omega(rel, n: int) -> float:
    return float(FixedReal(rel.omega_mantissa(n)))


def test_water_wave_values():
    assert _omega(Gravity(), 1) == pytest.approx(math.sqrt(math.tanh(1.0)), abs=1e-12)
    assert _omega(Gravity(), 1) == pytest.approx(0.8726936208978296, abs=1e-12)
    assert _omega(GravityCapillary(), 2) == pytest.approx(
        math.sqrt((2 + 8) * math.tanh(2.0)), abs=1e-12)
    assert _omega(Boussinesq(), 3) == pytest.approx(math.sqrt(9 + 81), abs=1e-12)
    assert BenjaminOno().omega_int(-4) == -16


def test_water_wave_relations_are_even():
    for rel in (Gravity(), GravityCapillary(), Boussinesq()):
        assert rel.omega_mantissa(-7) == rel.omega_mantissa(7)


def test_gravity_saturates_to_sqrt_n():
    # for n >= 70 the tanh factor is 1 to below one fixed-point ulp, so the
    # gravity phase equals the |n|^(1/2) phase bit for bit
    half = FractionalPower(Fraction(1, 2))
    for n in (70, 100, 4096):
        assert Gravity().omega_mantissa(n) == half.omega_mantissa(n)
    # and below saturation they genuinely differ
    assert Gravity().omega_mantissa(5) != half.omega_mantissa(5)


def test_gravcap_saturates_to_three_halves_model():
    gc = GravityCapillary()
    for n in (70, 128):
        assert gc.omega_mantissa(n) == math.isqrt((n + n**3) << (2 * FRAC_BITS))


# -- exact roots: omega_mantissa against the radicand ------------------------

_NONINTEGER = ("frac:1/2", "frac:3/2", "frac:9/5", "frac:7/3", "frac:5/4", "frac:1/3",
               "frac:2/7", "frac:11/7", "frac:4/5", "boussinesq", "gravity", "gravcap")


def _radicand(spec: str, n: int) -> tuple[Fraction, int]:
    """(R, q) with omega(n) = R^(1/q), from the definition of the relation.
    tanh(m) is taken as 1 from m = 70 on: 1 - tanh(70) < 2^-201."""
    m = abs(n)
    if spec.startswith("frac:"):
        alpha = Fraction(spec[5:])
        return Fraction(m**alpha.numerator), alpha.denominator
    if spec == "boussinesq":
        return Fraction(m**2 + m**4), 2
    base = m if spec == "gravity" else m + m**3
    return base * (Fraction(1) if m >= 70 else _tanh_fraction(m)), 2


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_NONINTEGER),
       st.one_of(st.integers(min_value=-MAX_BLOCK, max_value=MAX_BLOCK),
                 st.integers(min_value=-100, max_value=100),
                 st.sampled_from([-MAX_BLOCK, -71, -70, -69, 69, 70, 71, MAX_BLOCK])))
def test_omega_mantissa_is_the_floor_root_of_the_radicand(spec, n):
    # W^q <= R(n) 2^(q FRAC_BITS) < (W + 1)^q, in exact integers
    w = parse_relation(spec).omega_mantissa(n)
    r, q = _radicand(spec, n)
    scaled = r.numerator << (q * FRAC_BITS)
    assert w**q * r.denominator <= scaled < (w + 1) ** q * r.denominator


def _per_relation_mantissa(rel, n: int) -> int:
    """omega_mantissa as each relation once computed it, formula by formula."""
    m = abs(n)
    if isinstance(rel, FractionalPower):
        p, q = rel.alpha.numerator, rel.alpha.denominator
        x = m**p << (q * FRAC_BITS)
        return math.isqrt(x) if q == 2 else dispersion.iroot(x, q)
    if isinstance(rel, Boussinesq):
        return math.isqrt((n * n + n**4) << (2 * FRAC_BITS))
    base = m if isinstance(rel, Gravity) else m + m**3
    if m >= 70:
        return math.isqrt(base << (2 * FRAC_BITS))
    fr = base * _tanh_fraction(m)
    return math.isqrt((fr.numerator << (2 * FRAC_BITS)) // fr.denominator)


@pytest.mark.parametrize("spec", ["frac:1/2", "frac:3/2", "frac:9/5", "frac:7/3", "frac:1/3",
                                  "frac:2/7", "frac:11/7", "frac:4/5",
                                  "boussinesq", "gravity", "gravcap"])
def test_root_form_mantissa_matches_each_relation_formula(spec):
    """The one omega_mantissa built from _root_form, bit for bit against
    the per-relation formulas, below and past tanh saturation and at
    |n| = 2^20."""
    rel = parse_relation(spec)
    rng = np.random.default_rng(5)
    ns = [*range(-100, 101), *rng.integers(-MAX_BLOCK, MAX_BLOCK + 1, 200).tolist(),
          -MAX_BLOCK, MAX_BLOCK]
    for n in ns:
        assert rel.omega_mantissa(n) == _per_relation_mantissa(rel, n), n


@pytest.mark.parametrize("spec", ["gravity", "gravcap"])
def test_water_wave_mantissa_below_and_past_saturation(spec):
    rel = parse_relation(spec)
    for n in [*range(-71, 72), -MAX_BLOCK, MAX_BLOCK]:
        m = abs(n)
        base = m if spec == "gravity" else m + m**3
        if m < 70:  # the floor sqrt of the exact rational m tanh(m)
            fr = base * _tanh_fraction(m)
            want = math.isqrt((fr.numerator << (2 * FRAC_BITS)) // fr.denominator)
        else:  # tanh is 1: the integer radicand
            want = math.isqrt(base << (2 * FRAC_BITS))
        assert rel.omega_mantissa(n) == want, n


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
    assert oblique_frequencies(rel, 1, 1, [3]).tolist() == [3 + 9]
    assert oblique_frequencies(rel, 2, 3, [3, -2]).tolist() == [3 * 3 + 2 * 9, 3 * (-2) + 2 * 4]
    with pytest.raises(ValueError, match="integer-valued"):
        oblique_frequencies(FractionalPower(Fraction(3, 2)), 1, 1, [1])


@pytest.mark.parametrize("spec, k, ell, M, dtype", [
    ("poly:-1,0,0", 1, 1, 1 << 20, np.int64),
    ("poly:1,0,0,0", -1, 0, 1 << 20, np.int64),        # omega itself, up to 2^60
    ("poly:1,0,0,0", 4, 1, 1 << 20, object),           # 4 * 2^60 = 2^62: past the bound
    ("poly:1,0,0,0,0,0", -1, 0, 1 << 12, np.int64),    # 2^60
    ("poly:1,0,0,0,0,0", -1, 0, 1 << 13, object),      # 2^65
    ("poly:3,-2,7,0", 2, 5, 1 << 16, np.int64),
    ("bo", 3, 2, 1 << 20, np.int64),
    ("bo", -1, 0, 1 << 31, object),                    # 2^62
    ("frac:2", 1, 1, 1 << 20, np.int64),
    ("frac:4", -1, 0, 1 << 16, object),                # 2^64
])
def test_oblique_frequencies_dtype_and_values(spec, k, ell, M, dtype):
    """int64 exactly when every |ell*n - k*omega(n)| is proven below 2^62,
    object otherwise; either way the values of the scalar Python-integer
    formula, at the ends of [-M, M] and in between."""
    rel = parse_relation(spec)
    ns = np.array([-M, -M + 1, -12345 % M, -7, -1, 0, 1, 2, 999, M - 1, M])
    got = oblique_frequencies(rel, k, ell, ns)
    assert got.dtype == dtype
    assert got.tolist() == [ell * n - k * rel.omega_int(n) for n in ns.tolist()]
    assert all(type(v) is int for v in got.tolist())


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
    w = Fraction(rel.omega_int(n)) if rel.integer_valued else Fraction(rel.omega_mantissa(n), ONE)
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


# -- the rational path against the int64 Horner residues and exact Fractions --

def _horner_residues(rel: IntPolynomial, a: int, q: int, ns: np.ndarray) -> np.ndarray:
    """(a*omega(n) mod q)/q by Horner's rule on n mod q in int64, the path
    polynomials once took for q < 2^31: every partial result is below
    q^2 < 2^62."""
    nm = ns % q
    acc = np.full(ns.shape, (a * rel.coeffs[0]) % q, dtype=np.int64)
    for c in rel.coeffs[1:]:
        acc = (acc * nm + (a * c) % q) % q
    return acc / float(q)


_RESIDUE_RELATIONS = st.one_of(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda d: st.tuples(st.integers(min_value=-9, max_value=9).filter(bool),
                            st.lists(st.integers(min_value=-9, max_value=9), min_size=d, max_size=d))
    ).map(lambda lead_rest: IntPolynomial((lead_rest[0], *lead_rest[1]))),
    st.sampled_from(("bo", "frac:2", "frac:3")).map(parse_relation),
    st.just(LINEAR),
)
# both sides of 2^31, where the residues leave int64 for Python integers
_RESIDUE_DENOMINATORS = st.one_of(st.integers(min_value=1, max_value=1000),
                                  st.sampled_from([(1 << 31) - 1, 1 << 31, (1 << 31) + 11]),
                                  st.integers(min_value=1 << 31, max_value=10**12 + 39))
# up to +-2^20: a quintic there passes _fits_int64, so its omega is an object array
_RESIDUE_MODES = st.lists(st.one_of(st.integers(min_value=-(1 << 20), max_value=1 << 20),
                                    st.sampled_from([-(1 << 20), -1, 0, 1, 1 << 20])),
                          min_size=1, max_size=24)


@settings(max_examples=300, deadline=None)
@given(_RESIDUE_RELATIONS, st.integers(min_value=-(1 << 40), max_value=1 << 40),
       _RESIDUE_DENOMINATORS, _RESIDUE_MODES)
@example(LINEAR, -(1 << 40) + 1, (1 << 31) - 1, [-(1 << 20), 3, 1 << 20])
@example(IntPolynomial((-9, 9, -9, 9, -9, 9)), (1 << 40) - 3, (1 << 31) + 11, [-(1 << 20), 1 << 20])
@example(IntPolynomial((7, -3, 0, 0, 0, 1)), -(1 << 39) - 1, 997, [-(1 << 20), -5, 0, 1 << 20])
def test_rational_path_is_the_horner_residue_and_the_exact_fraction(rel, a, q, ns):
    theta = Fraction(a, q)
    ns = np.array(ns, dtype=np.int64)
    got = theta_omega_frac_array(rel, theta, ns)
    want = np.array([float((theta * rel.omega_int(n)) % 1) for n in ns.tolist()])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    if isinstance(rel, IntPolynomial) and theta.denominator < 1 << 31:
        horner = _horner_residues(rel, theta.numerator, theta.denominator, ns)
        assert got.tobytes() == horner.tobytes()


# -- the double-double kernel against the big-integer reduction, bit for bit --

#: fixed-point thetas: in (0, 1), negative with |theta| > 1, and above 1
_KERNEL_THETAS = (seeded_theta(1).theta,
                  FixedReal(-seeded_theta(3).theta.m - 2 * ONE),
                  FixedReal(sqrt2().m * 3))


def _big_integer_phases(rel, theta: FixedReal, ns) -> np.ndarray:
    """The reduction the kernel must reproduce: exact for integer omega,
    the floored 192-bit product of the mantissas otherwise."""
    tm = theta.m
    if rel.integer_valued:
        return np.array([((tm * rel.omega_int(n)) % ONE) / ONE for n in ns])
    return np.array([(((rel.omega_mantissa(n) * tm) >> FRAC_BITS) % ONE) / ONE for n in ns])


def _kernel_blocks():
    """Dyadic blocks of both signs, N = 2^10..2^14, and the modes up to MAX_BLOCK,
    each with its own theta."""
    blocks = [[*range(-2 * N + 1, -N + 1), *range(N, 2 * N)] for N in (1 << j for j in range(10, 15))]
    blocks.append([*range(-MAX_BLOCK, -MAX_BLOCK + 512), *range(MAX_BLOCK - 511, MAX_BLOCK + 1)])
    return [(ns, _KERNEL_THETAS[i % len(_KERNEL_THETAS)]) for i, ns in enumerate(blocks)]


@pytest.mark.parametrize("spec", _NONINTEGER + ("poly:-1,0,0", "poly:1,0,0,0", "poly:3,-2,5,1,7", "bo", "frac:2"))
def test_kernel_is_bit_identical_to_the_big_integer_reduction(spec):
    rel = parse_relation(spec)
    for ns, theta in _kernel_blocks():
        assert np.array_equal(theta_omega_frac_array(rel, theta, ns), _big_integer_phases(rel, theta, ns)), \
            (spec, len(ns), float(theta))


def test_rounding_boundary_takes_the_big_integer_path(monkeypatch):
    # theta within 2^-150 of the midpoint between two doubles: the kernel's
    # error bound straddles the rounding boundary, so the mode must fall back
    fell_back = []
    real = dispersion._exact_phase

    def spy(rel, tm, n):
        fell_back.append(n)
        return real(rel, tm, n)

    monkeypatch.setattr(dispersion, "_exact_phase", spy)
    d = 0.3125 + 2.0**-40
    midpoint = Fraction(d) + Fraction(math.ulp(d)) / 2
    for offset in (Fraction(1, 1 << 150), -Fraction(1, 1 << 150), Fraction(1, 1 << 191)):
        theta = FixedReal.from_fraction(midpoint + offset)
        fell_back.clear()
        got = theta_omega_frac_array(LINEAR, theta, [1, 2, 3])
        assert 1 in fell_back
        assert got.tolist() == [float(theta.as_fraction() * n % 1) for n in (1, 2, 3)]
