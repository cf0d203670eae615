"""The exact root window, the finite K bound, and the inequality chain."""

import random
from fractions import Fraction
from math import isqrt

import pytest

import powerbalance.bounds as bounds
from powerbalance.bounds import (
    check_appendix_identity,
    check_sandwich,
    compute_bounds,
    corollary_K_bound,
    integers_in_window,
    weak_K_bound,
)


def _a_and_b(ell, k):
    # the window is (ell*K + a - b/K, ell*K + a), so a and b read back
    # exactly, as numerators over the window's denominator
    K = k * (k + 1)
    lower, upper, den = compute_bounds(ell, k)
    return upper - ell * K * den, (upper - lower) * K, den


def _equal(p, q, value):
    # p/q == value, by integer cross-multiplication
    value = Fraction(value)
    return p * value.denominator == value.numerator * q


def test_window_exact_values():
    assert compute_bounds(8, 1) == (1210140, 1211904, 73728)
    lower, upper, den = compute_bounds(8, 1)
    assert _equal(lower, den, 16 + Fraction(847, 2048))
    assert _equal(upper, den, 16 + Fraction(7, 16))
    a, b, den = _a_and_b(8, 1)
    assert _equal(a, den, Fraction(7, 16)) and _equal(b, den, Fraction(49, 1024))


@pytest.mark.parametrize("ell", [1, 2])
def test_window_degenerates_for_small_ell(ell):
    for k in (1, 3, 9):
        assert _a_and_b(ell, k)[:2] == (0, 0)
        lower, upper, den = compute_bounds(ell, k)
        assert lower == upper == ell * k * (k + 1) * den


def test_b_is_two_a_squared_over_ell():
    for ell in range(1, 101):
        a, b, den = _a_and_b(ell, 2)
        assert ell * b * den == 2 * a**2


def test_a_sits_between_twelfths():
    for ell in range(3, 61):
        a, _, den = _a_and_b(ell, 1)
        assert (ell - 3) * den <= 12 * a < (ell - 2) * den


def test_K_bound_examples():
    assert corollary_K_bound(8) == Fraction(1764, 768) == Fraction(147, 64)
    assert corollary_K_bound(3) == Fraction(4, 108) == Fraction(1, 27) < 2
    assert corollary_K_bound(7) == Fraction(900, 588) < 2


def test_K_bound_sharp_below_weak():
    for ell in range(3, 101):
        assert corollary_K_bound(ell) < weak_K_bound(ell)
    with pytest.raises(ValueError):
        corollary_K_bound(2)
    with pytest.raises(ValueError):
        weak_K_bound(2)


def test_integer_window_examples():
    assert integers_in_window(compute_bounds(8, 1)) == []
    assert integers_in_window(compute_bounds(1, 3)) == [12]
    assert integers_in_window(compute_bounds(2, 2)) == [12]


def _assert_windows_are_defining_formula(ell, ks):
    # a and b reduced from their definitions; each end compared with
    # ell*K + a and ell*K + a - b/K by integer cross-multiplication
    a = Fraction((ell - 1) * (ell - 2), 12 * ell)
    b = 2 * a * a / ell
    na, da, nb, db = a.numerator, a.denominator, b.numerator, b.denominator
    for k in ks:
        K = k * (k + 1)
        lower, upper, den = compute_bounds(ell, k)
        top = ell * K * da + na
        assert upper * da == top * den, (ell, k)
        bottom = top * db * K - nb * da
        assert lower * da * db * K == bottom * den, (ell, k)


def test_window_matches_defining_formula():
    # every k up to two past the sharp cap
    for ell in range(1, 3001):
        A = (ell - 1) * (ell - 2)
        k_max = 1
        while 12 * ell**2 * (k_max - 1) * k_max <= A * A:
            k_max += 1
        _assert_windows_are_defining_formula(ell, range(1, k_max + 1))
    # large ell at k = 1, 2 and the last k under the sharp cap
    for ell in (9999, 10000, 99999, 100000):
        A = (ell - 1) * (ell - 2)
        last = isqrt(A * A // (12 * ell**2))
        while 12 * ell**2 * last * (last + 1) > A * A:
            last -= 1
        assert 12 * ell**2 * (last + 1) * (last + 2) > A * A
        _assert_windows_are_defining_formula(ell, (1, 2, last))
    with pytest.raises(ValueError):
        compute_bounds(0, 1)
    with pytest.raises(ValueError):
        compute_bounds(3, 0)


def test_window_floor_needs_no_tightening():
    # floor(ell*K + a) == ell*K + floor((ell-3)/12): the integer tightening
    # behind the K bound removes no integer from any window
    for ell in range(3, 10**4 + 1):
        for k in (1, 2):
            K = k * (k + 1)
            _, upper, den = compute_bounds(ell, k)
            assert upper // den == ell * K + (ell - 3) // 12, (ell, k)
    for ell in (1, 2):
        for k in (1, 3, 9):
            assert integers_in_window(compute_bounds(ell, k)) == [ell * k * (k + 1)]


def test_chain_agreement_fixed_points():
    assert check_appendix_identity(3, 2)
    assert check_appendix_identity(8, 2)
    assert check_appendix_identity(Fraction(5, 2), Fraction(7, 3))


def test_chain_agreement_sampled():
    rng = random.Random(107)
    for _ in range(120):
        den = rng.randint(1, 1000)
        ell = Fraction(rng.randint(2 * den + 1, 100 * den), den)
        den = rng.randint(1, 1000)
        K = Fraction(rng.randint(2 * den, 10**4 * den), den)
        assert check_appendix_identity(ell, K), (ell, K)


def test_chain_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        check_appendix_identity(2, 5)
    with pytest.raises(ValueError):
        check_appendix_identity(3, 0)


def test_sandwich_examples():
    assert check_sandwich(3, 1)
    assert check_sandwich(1, 5)
    assert check_sandwich(10, 2)


def test_sandwich_traps_the_root():
    for ell in range(3, 26):
        for k in range(1, 13):
            assert check_sandwich(ell, k), (ell, k)


@pytest.mark.parametrize("above", [True, False])
def test_sandwich_rejects_a_shifted_window(monkeypatch, above):
    # the window moved wholly one unit past its upper (lower) end no longer
    # holds the root, so f(lower) > 0 (f(upper) < 0) there
    real = bounds.compute_bounds

    def shifted(ell, k):
        lower, upper, den = real(ell, k)
        step = upper - lower + den
        if not above:
            step = -step
        return lower + step, upper + step, den

    monkeypatch.setattr(bounds, "compute_bounds", shifted)
    for ell, k in [(1, 3), (2, 2), (3, 1), (8, 2), (10, 5), (60, 40)]:
        assert not check_sandwich(ell, k), (ell, k)


def test_sandwich_requires_single_sign_change(monkeypatch):
    # (w-1)(w-2), and (w-1)(w-2)(w-3), whose f(0) < 0 passes the other check
    for wiggly in (((2, 1), (1, -3), (0, 2)), ((3, 1), (2, -6), (1, 11), (0, -6))):
        monkeypatch.setattr(bounds, "build_f", lambda ell, k: wiggly)
        with pytest.raises(ValueError):
            check_sandwich(3, 1)


def test_sandwich_requires_f_negative_at_zero(monkeypatch):
    # one sign change, but f(0) = 4 > 0: the root is not where the lemma needs it
    monkeypatch.setattr(bounds, "build_f", lambda ell, k: ((2, -1), (0, 4)))
    with pytest.raises(ValueError):
        check_sandwich(3, 1)
