"""Block sums, norm sweeps, quadruple counting, and the dual-sum check."""
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot import (BlockSpec, IntPolynomial, SliceSpec, TimePoint,
                    airy_l4_identity_check, block_sum, bprocess_dual_compare,
                    fit_exponent, kl_theta, l4_quadruple_oracle,
                    parse_relation, seeded_theta, sup_norm_sweep,
                    theta_omega_frac_array)
from talbot._fftsum import grid_values
from talbot.dispersion import LINEAR
from talbot.evolution import line_spectrum
from talbot.fixedpoint import sqrt2

SCHRODINGER = "poly:-1,0,0"
AIRY = "poly:1,0,0,0"


# -- block sums -----------------------------------------------------------------

def test_block_sum_matches_direct_evaluation():
    spec = BlockSpec(parse_relation(SCHRODINGER), 8)
    theta, x = Fraction(1, 3), Fraction(1, 7)
    got = block_sum(spec, TimePoint(theta), x)
    want = sum(np.exp(2j * np.pi * (float((theta * -n * n) % 1) + float((x * n) % 1)))
               for n in range(8, 16))
    assert got == pytest.approx(want, abs=1e-12)


def test_block_sum_at_zero_time_is_block_length():
    spec = BlockSpec(parse_relation(SCHRODINGER), 32)
    assert block_sum(spec, TimePoint.rational(0, 1)) == pytest.approx(32, abs=1e-12)


@pytest.mark.parametrize("spec", [SCHRODINGER, "frac:3/2", "gravcap"])
def test_block_sum_is_its_terms_summed_to_rounding(spec):
    x = Fraction(3, 7)
    for N in (1 << k for k in range(6, 14)):
        block = BlockSpec(parse_relation(spec), N)
        ns = block.modes()
        t = seeded_theta(N)
        _, coeffs = line_spectrum(block.relation, SliceSpec.horizontal(t), ns, block.weights(ns))
        terms = coeffs * np.exp(2j * np.pi * theta_omega_frac_array(LINEAR, x, ns))
        got = block_sum(block, t, x)
        assert abs(got.real - math.fsum(terms.real)) <= 1e-15 * N
        assert abs(got.imag - math.fsum(terms.imag)) <= 1e-15 * N


def test_block_spec_validation():
    rel = parse_relation(SCHRODINGER)
    with pytest.raises(ValueError):
        BlockSpec(rel, 24)  # not a power of two
    with pytest.raises(ValueError):
        BlockSpec(rel, 8, sign="random")
    with pytest.raises(ValueError):
        BlockSpec(rel, 8, weight="gaussian")


def test_block_modes():
    spec = BlockSpec(parse_relation(SCHRODINGER), 4, sign="both")
    assert spec.modes().dtype == np.int64
    assert spec.modes().tolist() == [-7, -6, -5, -4] + [4, 5, 6, 7]


# -- exponent fits ----------------------------------------------------------------

def test_fit_exponent_recovers_power_law_exactly():
    scales = [16, 32, 64, 128, 256]
    fit = fit_exponent(scales, [3.0 * N ** 0.75 for N in scales])
    assert fit.slope == pytest.approx(0.75, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log2(3.0), abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_needs_enough_points():
    with pytest.raises(ValueError):
        fit_exponent([16, 32], [1.0, 2.0])


# -- L^p norms --------------------------------------------------------------------

def test_l2_norm_is_parseval_exact():
    # mean |S|^2 over the period = block length, whatever the time
    for t in (TimePoint.rational(1, 3), kl_theta("sqrt2")):
        row, = sup_norm_sweep(SCHRODINGER, t, [64]).rows
        assert row.l2 == pytest.approx(8.0, abs=1e-10)


def test_sup_norm_bounds():
    row, = sup_norm_sweep(AIRY, kl_theta("sqrt2"), [32]).rows
    assert row.l2 <= row.l4 <= row.sup_abs <= 32.0 + 1e-9


# -- sweeps -----------------------------------------------------------------------

def test_sweep_at_zero_time_has_unit_slope():
    sweep = sup_norm_sweep(SCHRODINGER, TimePoint.rational(0, 1),
                           [1 << j for j in range(6, 11)])
    assert [row.sup_abs for row in sweep.rows] == pytest.approx(
        [64, 128, 256, 512, 1024], abs=1e-6)
    assert sweep.sup_fit().slope == pytest.approx(1.0, abs=1e-9)


def test_sweep_rows_and_csv_deterministic():
    scales = [64, 128, 256]
    a = sup_norm_sweep(AIRY, kl_theta("sqrt2"), scales)
    b = sup_norm_sweep(AIRY, kl_theta("sqrt2"), scales)
    assert a.rows == b.rows
    assert a.scales() == scales


def test_oblique_sweep_accepts_slice_descriptor():
    at = SliceSpec.oblique(seeded_theta(3), 1, 1)
    sweep = sup_norm_sweep(SCHRODINGER, at, [64, 128, 256])
    assert len(sweep.rows) == 3
    assert all(row.sup_abs >= math.sqrt(row.N) - 1e-9 for row in sweep.rows)


@pytest.mark.parametrize("at, label", [
    (kl_theta("sqrt2"), "kl:sqrt2"),
    (Fraction(1, 3), "rat:1/3"),
    (0.25, "theta~0.25"),
])
def test_sweep_of_a_horizontal_slice_equals_the_sweep_at_its_time(at, label):
    plain = sup_norm_sweep(AIRY, at, [16, 32, 64])
    sliced = sup_norm_sweep(AIRY, SliceSpec.horizontal(at), [16, 32, 64])
    assert sliced.rows == plain.rows
    assert sliced.at == plain.at == label


def test_oblique_sweep_label():
    sweep = sup_norm_sweep(SCHRODINGER, SliceSpec.oblique(seeded_theta(3), 2, 3), [16])
    assert sweep.at == "oblique(k=2, ell=3, c=rand:3)"


def test_sweep_rejects_a_vertical_slice():
    vertical = SliceSpec.vertical(Fraction(0), Fraction(0), Fraction(1, 2))
    with pytest.raises(ValueError, match="vertical"):
        sup_norm_sweep(AIRY, vertical, [16])


def test_refinement_only_increases_the_supremum():
    # each row's sup against the maximum of the grid it is refined from
    relation = parse_relation(AIRY)
    sweep = sup_norm_sweep(relation, kl_theta("sqrt2"), [128, 256, 512])
    for row in sweep.rows:
        ns = BlockSpec(relation, row.N).modes()
        freqs, coeffs = line_spectrum(relation, SliceSpec.horizontal(kl_theta("sqrt2")),
                                      ns, np.ones(row.N))
        grid_sup = float(np.max(np.abs(grid_values(freqs, coeffs, row.grid))))
        assert row.sup_abs >= grid_sup


# -- quadruple counting -------------------------------------------------------------

def test_quadruple_counts_frozen():
    assert l4_quadruple_oracle(IntPolynomial((1, 1, 0)), 16).count == 536
    assert l4_quadruple_oracle(IntPolynomial((-1, 0, 3, 0)), 16).count == 496
    assert l4_quadruple_oracle(IntPolynomial((1, 0, 0)), 16).count == 500
    assert l4_quadruple_oracle(IntPolynomial((1, 0, 0, 0)), 16).count == 496


def test_cubic_counts_are_diagonal_only():
    # h(n) = n^3 admits no nontrivial quadruples in a positive block:
    # count = |{n1,n3} x {n2,n4} diagonal| = 2K^2 - K
    for K in (8, 16, 32):
        res = l4_quadruple_oracle(IntPolynomial((1, 0, 0, 0)), K)
        assert res.count == 2 * K * K - K
        assert res.nontrivial == 0


def test_quadruple_count_lower_bound_diagonal():
    res = l4_quadruple_oracle(IntPolynomial((1, 1, 0)), 32)
    assert res.count >= 2 * 32 * 32 - 32
    assert res.nontrivial == 228


def _brute_force_nontrivial(h, K: int) -> list[tuple[int, int, int, int]]:
    """Every (n1, n2, n3, n4) in [K, 2K)^4 with h(n1) + h(n3) = h(n2) + h(n4)
    and {n1, n3} != {n2, n4} as multisets, by a plain quadruple loop."""
    return [(n1, n2, n3, n4)
            for n1, n2, n3, n4 in itertools.product(range(K, 2 * K), repeat=4)
            if h(n1) + h(n3) == h(n2) + h(n4) and sorted((n1, n3)) != sorted((n2, n4))]


@pytest.mark.parametrize("spec", ["poly:1,1,0", "poly:-1,0,3,0", "poly:-1,0,0", "poly:1,0,0,0"])
@pytest.mark.parametrize("K", [8, 16])
def test_nontrivial_count_matches_brute_force(spec, K):
    rel = parse_relation(spec)
    res = l4_quadruple_oracle(rel, K)
    assert res.nontrivial == len(_brute_force_nontrivial(rel.omega_int, K))


def test_quadruple_validation():
    with pytest.raises(ValueError):
        l4_quadruple_oracle("frac:1/2", 16)  # not integer-valued
    with pytest.raises(ValueError):
        l4_quadruple_oracle(IntPolynomial((1, 1, 0)), 24)
    with pytest.raises(ValueError, match="too large"):
        l4_quadruple_oracle(IntPolynomial((1,) + (0,) * 9), 128)  # 255^9 > 2^62


def test_resonances_are_genuine():
    # h(n) = n^2 + n has 4h(n) + 1 = (2n + 1)^2, so each nontrivial quadruple
    # is a second way to write a sum of two odd squares
    res = l4_quadruple_oracle(IntPolynomial((1, 1, 0)), 16)
    found = _brute_force_nontrivial(IntPolynomial((1, 1, 0)).omega_int, 16)
    assert res.nontrivial == len(found) == 40
    for n1, n2, n3, n4 in found:
        assert (2 * n1 + 1) ** 2 + (2 * n3 + 1) ** 2 == (2 * n2 + 1) ** 2 + (2 * n4 + 1) ** 2


# -- cubic L^4 identity ---------------------------------------------------------------

def test_airy_identity_exact_at_reference_time():
    for N in (32, 64):
        chk = airy_l4_identity_check(kl_theta("sqrt2"), N)
        assert chk.relative_error < 1e-12
        assert chk.quadrature > 0


def test_airy_identity_at_rational_time():
    chk = airy_l4_identity_check(TimePoint.rational(1, 3), 16)
    assert chk.relative_error < 1e-12


def test_airy_identity_validation():
    with pytest.raises(ValueError):
        airy_l4_identity_check(kl_theta("sqrt2"), 256)  # too large
    with pytest.raises(ValueError):
        airy_l4_identity_check(kl_theta("sqrt2"), 24)  # not a power of two


# -- stationary-phase dual sum ---------------------------------------------------------

def test_dual_sum_matches_direct_sum():
    from talbot import solve_time_for_ctr
    t = solve_time_for_ctr(sqrt2(), 3)
    for N in (1 << 10, 1 << 12):
        cmp_ = bprocess_dual_compare(3, t, math.pi / 7, N)
        assert cmp_.discrepancy <= 0.5 * cmp_.budget_scale
        assert abs(cmp_.direct) > 0
        assert cmp_.dual_terms > 0


def test_dual_term_count_scales_like_sqrt_n():
    # f'(2N) - f'(N) = t*alpha*((2N)^(1/2) - N^(1/2)) = O(sqrt(N)) for alpha=3/2
    cmp_ = bprocess_dual_compare(3, 1.0, math.pi, 1 << 12)
    predicted = 1.5 * (math.sqrt(2 << 12) - math.sqrt(1 << 12))
    assert abs(cmp_.dual_terms - predicted) <= 4


def test_dual_sum_validation():
    with pytest.raises(ValueError):
        bprocess_dual_compare(2, 1.0, 0.0, 1 << 10)
    with pytest.raises(ValueError):
        bprocess_dual_compare(3, 1.0, 0.0, 1000)  # not dyadic
    with pytest.raises(ValueError):
        bprocess_dual_compare(3, 0.0, 0.0, 1 << 10)  # needs t > 0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=64).map(lambda k: 1 << (k % 5 + 3)),
       st.integers(min_value=0, max_value=11), st.integers(min_value=1, max_value=12))
def test_parseval_property(N, a, q):
    # the L^2 quadrature equals sqrt(N) regardless of the rational time
    row, = sup_norm_sweep(SCHRODINGER, TimePoint.rational(a, q), [N]).rows
    assert row.l2 == pytest.approx(math.sqrt(N), rel=1e-10)
    assert row.l2 <= row.l4 <= row.sup_abs <= N + 1e-9
