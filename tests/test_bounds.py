"""The exact root window, the finite K bound, and the inequality chain."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import powerbalance.bounds as bounds
from powerbalance.bounds import (
    check_appendix_identity,
    check_sandwich,
    compute_bounds,
    corollary_K_bound,
    integer_window_top,
    integers_in_window,
    weak_K_bound,
)
from powerbalance.equation import FPolynomial


def test_window_exact_values():
    bd = compute_bounds(8, 1)
    assert bd.a == Fraction(7, 16)
    assert bd.b == Fraction(49, 1024)
    assert bd.lower == 16 + Fraction(847, 2048)
    assert bd.upper == 16 + Fraction(7, 16)


@pytest.mark.parametrize("ell", [1, 2])
def test_window_degenerates_for_small_ell(ell):
    for k in (1, 3, 9):
        bd = compute_bounds(ell, k)
        assert bd.a == 0 and bd.b == 0
        assert bd.lower == bd.upper == ell * k * (k + 1)


def test_b_is_two_a_squared_over_ell():
    for ell in range(1, 101):
        bd = compute_bounds(ell, 2)
        assert bd.b == 2 * bd.a**2 / ell


def test_a_sits_between_twelfths():
    for ell in range(3, 61):
        a = compute_bounds(ell, 1).a
        assert Fraction(ell - 3, 12) <= a < Fraction(ell - 2, 12)


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


def test_integer_window_tightening_applies_only_beyond_two():
    bd = compute_bounds(8, 1)
    assert integer_window_top(bd) == 16 + Fraction(5, 12) < bd.upper
    bd = compute_bounds(1, 3)
    assert integer_window_top(bd) == bd.upper == 12


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
        bd = real(ell, k)
        step = bd.upper - bd.lower + 1
        if not above:
            step = -step
        return replace(bd, lower=bd.lower + step, upper=bd.upper + step)

    monkeypatch.setattr(bounds, "compute_bounds", shifted)
    for ell, k in [(1, 3), (2, 2), (3, 1), (8, 2), (10, 5), (60, 40)]:
        assert not check_sandwich(ell, k), (ell, k)


def test_sandwich_requires_single_sign_change(monkeypatch):
    # (w-1)(w-2), and (w-1)(w-2)(w-3), whose f(0) < 0 passes the other check
    for wiggly in (((2, 1), (1, -3), (0, 2)), ((3, 1), (2, -6), (1, 11), (0, -6))):
        monkeypatch.setattr(bounds, "build_f", lambda ell, k: FPolynomial(wiggly))
        with pytest.raises(ValueError):
            check_sandwich(3, 1)


def test_sandwich_requires_f_negative_at_zero(monkeypatch):
    # one sign change, but f(0) = 4 > 0: the root is not where the lemma needs it
    monkeypatch.setattr(bounds, "build_f", lambda ell, k: FPolynomial(((2, -1), (0, 4))))
    with pytest.raises(ValueError):
        check_sandwich(3, 1)
