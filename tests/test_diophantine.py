"""Continued fractions, rational approximation, Gauss sums, and the
curvature-constant solver."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot import (IntPolynomial, TimePoint, continued_fraction, ctr_constant,
                    dirichlet_approx, quantize_coefficients, solve_time_for_ctr)
from talbot.fixedpoint import golden_ratio, pi, sqrt2


# -- continued fractions ------------------------------------------------------

def test_pi_partial_quotients():
    exp = continued_fraction(pi(), depth=5)
    assert exp.partial_quotients == [3, 7, 15, 1, 292]


def test_pi_convergent_355_113():
    exp = continued_fraction(pi(), depth=4)
    assert exp.convergents[-1] == Fraction(355, 113)


def test_golden_ratio_all_ones():
    exp = continued_fraction(golden_ratio(), depth=10)
    assert exp.partial_quotients == [1] * 10
    assert exp.convergents[5] == Fraction(13, 8)


def test_sqrt2_eventually_twos():
    exp = continued_fraction(sqrt2(), depth=8)
    assert exp.partial_quotients == [1] + [2] * 7


def test_rational_terminates():
    exp = continued_fraction(Fraction(22, 7))
    assert exp.terminated
    assert exp.partial_quotients == [3, 7]
    assert exp.convergents[-1] == Fraction(22, 7)


def test_negative_value_floor_convention():
    exp = continued_fraction(Fraction(-7, 2))
    assert exp.partial_quotients[0] == -4
    assert exp.convergents[-1] == Fraction(-7, 2)


def test_float_input_stops_at_trust_horizon():
    exp = continued_fraction(0.5 + 2.0 ** -40, depth=64)
    assert len(exp.partial_quotients) < 64
    assert exp.rational_cutoff or exp.exhausted or exp.terminated


def test_depth_validation():
    with pytest.raises(ValueError):
        continued_fraction(pi(), depth=0)
    with pytest.raises(ValueError):
        continued_fraction(float("nan"))


def test_timepoint_input_accepted():
    exp = continued_fraction(TimePoint.rational(1, 3))
    assert exp.convergents[-1] == Fraction(1, 3)


@settings(max_examples=50, deadline=None)
@given(st.fractions(min_value=Fraction(0), max_value=Fraction(1)).filter(
    lambda f: f.denominator <= 10_000))
def test_convergents_approximate_quadratically(f):
    exp = continued_fraction(f, depth=64)
    assert exp.terminated
    for conv in exp.convergents[:-1]:
        assert abs(f - conv) <= Fraction(1, conv.denominator ** 2)


# -- Dirichlet approximation --------------------------------------------------

def test_dirichlet_sqrt2():
    best, err = dirichlet_approx(sqrt2(), 100)
    assert best == Fraction(99, 70)
    assert err == pytest.approx(-7.2152e-5, rel=1e-3)
    assert abs(err) <= 1.0 / (best.denominator * 100)


def test_dirichlet_box_bound_holds_generally():
    for Q in (1, 7, 50, 1000):
        best, err = dirichlet_approx(pi(), Q)
        assert best.denominator <= Q
        assert abs(err) <= 1.0 / (best.denominator * Q)


def test_dirichlet_validation():
    with pytest.raises(ValueError):
        dirichlet_approx(sqrt2(), 0)


# -- Gauss sums G(a, b; q) = q * quantize_coefficients(rel, a, q)[b] ----------

def gauss_sum(coeffs, a: int, q: int, b: int = 0) -> complex:
    return complex(q * quantize_coefficients(IntPolynomial(coeffs), a, q)[b])


def test_gauss_sum_quadratic_q4():
    assert gauss_sum((1, 0, 0), 1, 4) == pytest.approx(2 + 2j, abs=1e-12)


def test_gauss_sum_quadratic_q3():
    assert gauss_sum((1, 0, 0), 1, 3) == pytest.approx(1j * math.sqrt(3), abs=1e-12)


def test_gauss_sum_magnitude_sqrt_q():
    # |sum| = sqrt(q) for odd prime q and the quadratic phase
    for q in (3, 5, 7, 11, 13):
        assert abs(gauss_sum((1, 0, 0), 1, q)) == pytest.approx(math.sqrt(q), abs=1e-10)


@pytest.mark.parametrize("coeffs", [(1, 0, 0), (1, 0, 0, 0), (-3, 2, 1), (1, -1, 0, 2, 7)])
@pytest.mark.parametrize("a, q", [(1, 1), (1, 97), (-5, 128), (7, 1000)])
def test_gauss_sum_matches_cosine_loop(coeffs, a, q):
    rel = IntPolynomial(coeffs)
    for b in sorted({0, 1 % q, q - 1}):
        want = 0j
        for j in range(q):
            r = (a * rel.omega_int(j) + b * j) % q
            want += complex(math.cos(2 * math.pi * r / q), math.sin(2 * math.pi * r / q))
        got = gauss_sum(coeffs, a, q, b)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_gauss_sum_validation():
    with pytest.raises(ValueError):
        quantize_coefficients(IntPolynomial((1, 0, 0)), 2, 4)
    with pytest.raises(ValueError):
        quantize_coefficients(IntPolynomial((1, 0, 0)), 1, 0)


# -- curvature constant -------------------------------------------------------

def test_tuned_time_value():
    t = solve_time_for_ctr(sqrt2(), 3)
    assert float(t) == pytest.approx(0.3236611811382156, abs=1e-15)


def test_ctr_constant_inverts_solver_exactly():
    for r in (2, 3, 4, 5):
        t = solve_time_for_ctr(sqrt2(), r)
        back = ctr_constant(t, r)
        assert abs(float(back - sqrt2())) < 1e-40


def test_ctr_formula_at_rational_time():
    # c_{t,r} = t^(1-r) (r-1)^(r-1) r^(-r); at t = 1, r = 3: 4/27
    assert float(ctr_constant(1, 3)) == pytest.approx(4.0 / 27.0, abs=1e-15)


def test_ctr_validation():
    with pytest.raises(ValueError):
        solve_time_for_ctr(sqrt2(), 1)
    with pytest.raises(ValueError):
        solve_time_for_ctr(-1.0, 3)
    with pytest.raises(ValueError):
        ctr_constant(0, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=1, max_value=512),
       st.integers(min_value=1, max_value=64))
def test_solver_inverts_everywhere(r, num, den):
    c = Fraction(num, den)
    t = solve_time_for_ctr(c, r)
    assert abs(float(ctr_constant(t, r)) - float(c)) < 1e-12 * float(c)
