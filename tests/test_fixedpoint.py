"""Exact integer roots: the float-seeded ``iroot`` against plain Newton."""
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talbot.diophantine import solve_time_for_ctr
from talbot.fixedpoint import iroot, sqrt2


def _newton_iroot(x: int, k: int) -> int:
    """The oracle: integer Newton from the guess 2^ceil(bits/k), which lies
    above the root, then a downward correction."""
    if k == 1 or x in (0, 1):
        return x
    if k == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // k)
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > x:
        r -= 1
    return r


def _near_powers(k: int, rng: random.Random) -> list[int]:
    bases = list(range(0, 66)) + [rng.getrandbits(b) | 1 for b in range(2, 800, 9)]
    return [x for m in bases for x in (m**k - 1, m**k, m**k + 1) if x >= 0]


@pytest.mark.parametrize("k", range(1, 8))
def test_iroot_matches_newton_oracle_at_perfect_powers(k):
    for x in _near_powers(k, random.Random(k)):
        assert iroot(x, k) == _newton_iroot(x, k), (x, k)


@pytest.mark.parametrize("k", range(1, 8))
def test_iroot_matches_newton_oracle_on_random_widths(k):
    rng = random.Random(100 + k)
    for bits in range(1, 4100, 13):
        x = rng.getrandbits(bits)
        assert iroot(x, k) == _newton_iroot(x, k), (bits, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 4000) - 1), st.integers(min_value=1, max_value=7))
def test_iroot_is_the_floor_root(x, k):
    r = iroot(x, k)
    assert r == _newton_iroot(x, k)
    assert r**k <= x < (r + 1) ** k


def test_iroot_float_seed_at_double_range_edges():
    # widths where x >> s sits just below and above the seed's 1000-bit cut,
    # and a k so large that the shifted x is 0
    for bits in (999, 1000, 1001, 1023, 1024, 1025, 2048):
        for x in ((1 << bits) - 1, 1 << bits, (1 << bits) + 1):
            for k in (3, 5, 7, 1500):
                assert iroot(x, k) == _newton_iroot(x, k), (bits, k)


def test_iroot_validation():
    with pytest.raises(ValueError):
        iroot(-1, 3)
    with pytest.raises(ValueError):
        iroot(8, 0)


#: solve_time_for_ctr(sqrt2(), r).m at the plain-Newton iroot, r = 3..7
_CTR_MANTISSAS = {
    3: 0x52db758bf92ea720a7abb71b72eea34ea5b08f682b8184e1,
    4: 0x6bc1a096af087f0874aad0bb07dcff6d506c203d409c78e2,
    5: 0x7d974f3ffd0a0a2f9ac485ddab2e0bb59f82c69a9166af69,
    6: 0x8b1976bf8066931960d66888308a067897e32e67854d55dc,
    7: 0x95bf30f84f858878f4e54f2ead147a8750f8fdf8627efb18,
}


def test_solve_time_for_ctr_is_unchanged():
    for r, mantissa in _CTR_MANTISSAS.items():
        assert solve_time_for_ctr(sqrt2(), r).m == mantissa
    assert solve_time_for_ctr(Fraction(355, 113), 5).m == 0x66df66b604d91bb7127a94dfca9eb47c04a87903c3efc2a4
