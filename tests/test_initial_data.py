"""Step-function data: exact Fourier coefficients, norms, and the parser."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot import StepFunction, parse_datum, parse_position


def _half_indicator() -> StepFunction:
    return StepFunction.indicator(Fraction(0), Fraction(1, 2))


# -- construction and structure ------------------------------------------------

def test_indicator_structure():
    g = _half_indicator()
    assert g.breakpoints == (Fraction(0), Fraction(1, 2))
    assert g.values == (1.0, 0.0)
    assert g.pieces == 2


def test_constant():
    g = StepFunction.constant(2j)
    assert g.pieces == 1
    assert g.mean() == 2j
    assert g.jumps() == [(Fraction(0), 0j)]


def test_validation():
    with pytest.raises(ValueError):
        StepFunction((), ())
    with pytest.raises(ValueError):
        StepFunction((Fraction(0), Fraction(0)), (1, 2))  # not increasing
    with pytest.raises(ValueError):
        StepFunction((Fraction(1, 2), Fraction(3, 2)), (1, 2))  # out of range
    with pytest.raises(ValueError):
        StepFunction.indicator(Fraction(1, 2), Fraction(1, 4))


def test_value_lookup_right_continuous():
    g = _half_indicator()
    assert g.value_at_turns(Fraction(0)) == 1.0
    assert g.value_at_turns(Fraction(1, 2)) == 0.0
    assert g.value_at_turns(Fraction(999, 1000)) == 0.0
    assert g.value_at_turns(Fraction(3, 2)) == 0.0  # wraps mod 1


def test_interval_lengths_sum_to_one():
    g = StepFunction((Fraction(0), Fraction(1, 5), Fraction(2, 3)), (1, 2, 3))
    assert sum(g.interval_lengths()) == 1


def test_jumps():
    g = _half_indicator()
    assert g.jumps() == [(Fraction(0), 1 + 0j), (Fraction(1, 2), -1 + 0j)]


def translate(g: StepFunction, shift: Fraction) -> StepFunction:
    """g(x - 2*pi*shift) as a new StepFunction (shift in turns)."""
    moved = sorted(((b + shift) % 1, v) for b, v in zip(g.breakpoints, g.values))
    return StepFunction([b for b, _ in moved], [v for _, v in moved])


def test_translate_matches_pointwise():
    g = StepFunction((Fraction(0), Fraction(1, 3)), (1.0, 5.0))
    shifted = translate(g, Fraction(1, 4))
    for tau in (Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(7, 12), Fraction(9, 10)):
        assert shifted.value_at_turns(tau) == g.value_at_turns(tau - Fraction(1, 4))


# -- exact analysis -------------------------------------------------------------

def l2_mean(g: StepFunction) -> float:
    """(1/2*pi) * integral of |g|^2 over the torus, exactly by pieces."""
    return float(sum(abs(v) ** 2 * l for v, l in zip(g.values, g.interval_lengths())))


def test_mean_and_l2():
    g = _half_indicator()
    assert g.mean() == 0.5
    assert l2_mean(g) == 0.5


def test_fourier_coefficients_closed_form():
    # indicator of half the period: ghat(n) = 0 for even n != 0, -i/(pi n) odd
    g = _half_indicator()
    assert g.fourier_coefficient(0) == 0.5
    assert g.fourier_coefficient(1) == pytest.approx(-1j / math.pi, abs=1e-15)
    assert g.fourier_coefficient(2) == pytest.approx(0.0, abs=1e-15)
    assert g.fourier_coefficient(-3) == pytest.approx(1j / (3 * math.pi), abs=1e-15)


def test_coefficients_array_matches_scalar():
    g = StepFunction((Fraction(0), Fraction(1, 3), Fraction(3, 4)), (1.0, 2j, -0.5))
    arr = g.coefficients_array(16)
    for n in range(-16, 17):
        assert arr[n + 16] == pytest.approx(g.fourier_coefficient(n), abs=1e-14)


def test_coefficients_array_takes_exact_phases_at_large_denominators():
    # a residue mod q >= 2^53 divided as doubles misplaces the phase by an ulp, which
    # moves the smallest coefficients of this datum by 1.5e-3 relative
    q = (1 << 53) + 5
    g = StepFunction((Fraction(0), Fraction(2 ** 51 + 3, q), Fraction(2 ** 52 - 1, q),
                      Fraction(5, 7), Fraction(12345, (1 << 61) + 9) + Fraction(6, 7)),
                     (0.3, 1.0 + 0.5j, -0.7, 0.2, 1j))
    M = 1024
    ref = np.array([g.fourier_coefficient(n) for n in range(-M, M + 1)])
    np.testing.assert_allclose(g.coefficients_array(M), ref, rtol=1e-14, atol=0)



def test_coefficients_array_bits_do_not_depend_on_M():
    # M = 2^15 forms its 2^16 + 1 phase products past numpy's temporary elision
    g = StepFunction((Fraction(0), Fraction(1, 3), Fraction(3, 4)), (1 + 0.5j, -0.5, 0.25j))
    big, small, M = g.coefficients_array(1 << 15), g.coefficients_array(1 << 11), 1 << 15
    assert big[M - (1 << 11):M + (1 << 11) + 1].tobytes() == small.tobytes()

def test_coefficient_quadrature_agreement():
    # closed form vs trapezoidal quadrature on a dense grid
    g = StepFunction((Fraction(0), Fraction(1, 3), Fraction(3, 4)), (1.0, 2j, -0.5))
    L = 1 << 16
    taus = np.arange(L) / L
    vals = np.array([complex(g.value_at_turns(Fraction(j, L))) for j in range(0, L, 64)])
    for n in (1, 2, 5):
        quad = np.mean(vals * np.exp(-2j * np.pi * n * taus[::64]))
        # the Riemann sum of a step function converges at rate O(1/#points)
        assert quad == pytest.approx(g.fourier_coefficient(n), abs=5e-3)


def test_parseval_partial_sums_increase_to_l2():
    g = _half_indicator()
    arr = g.coefficients_array(1 << 12)
    partial = float(np.sum(np.abs(arr) ** 2))
    assert partial <= l2_mean(g) + 1e-15
    # tail of the 1/n series: sum_{odd n > M} 2/(pi n)^2 ~ 1/(pi^2 M)
    assert l2_mean(g) - partial == pytest.approx(1.0 / (math.pi ** 2 * (1 << 12)), rel=1e-2)


# -- parser ----------------------------------------------------------------------

def test_parse_datum_default_values():
    g = parse_datum("step:0,pi")
    assert g == _half_indicator()


def test_parse_datum_pi_forms():
    g = parse_datum("step:0,pi/2,3pi/2")
    assert g.breakpoints == (Fraction(0), Fraction(1, 4), Fraction(3, 4))
    assert g.values == (1.0, 0.0, 1.0)


def test_parse_datum_explicit_values():
    g = parse_datum("step:0,pi:1/2,-1/2")
    assert g.values == (0.5, -0.5)
    g2 = parse_datum("step:0,pi:1,2j")
    assert g2.values == (1.0, 2j)


def test_parse_datum_sorts_breakpoints():
    g = parse_datum("step:pi,0")
    assert g.breakpoints == (Fraction(0), Fraction(1, 2))


def test_parse_datum_errors():
    with pytest.raises(ValueError):
        parse_datum("spline:0,1")
    with pytest.raises(ValueError):
        parse_datum("step:")
    with pytest.raises(ValueError):
        parse_datum("step:0,pie")


def test_parse_position():
    assert parse_position("pi/2") == Fraction(1, 4)
    assert parse_position("0") == Fraction(0)
    assert float(parse_position("3.141592653589793")) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=-40, max_value=40))
def test_translate_modulates_coefficients(den, n):
    # ghat of g(x - 2 pi s) equals e(-n s) ghat(n)
    g = StepFunction((Fraction(0), Fraction(2, 5)), (1.0, -1.0))
    s = Fraction(1, den)
    lhs = translate(g, s).fourier_coefficient(n)
    rhs = g.fourier_coefficient(n) * complex(math.cos(2 * math.pi * float(-n * s)),
                                             math.sin(2 * math.pi * float(-n * s)))
    assert lhs == pytest.approx(rhs, abs=1e-12)
