"""Polynomial assembly, direct verification and the solution families."""

import random
from fractions import Fraction
from math import ceil, floor

import pytest

from powerbalance.bounds import check_sandwich, compute_bounds, integers_in_window
from powerbalance.equation import (
    FPolynomial,
    balance_difference,
    build_f,
    eval_f,
    sign_changes,
    solution_family,
    verify_instance,
)


def test_ell_and_k_validation():
    for fn in (build_f, compute_bounds, check_sandwich):
        with pytest.raises(ValueError):
            fn(0, 1)
        with pytest.raises(ValueError):
            fn(3, 0)


def test_build_f_cubic_example():
    poly = build_f(3, 1)
    assert poly.coefficients == ((3, 1), (2, -6), (0, -2))


@pytest.mark.parametrize("k", [1, 2, 5, 17])
def test_build_f_linear_families(k):
    K = k * (k + 1)
    assert build_f(1, k).coefficients == ((1, 1), (0, -K))
    assert build_f(2, k).coefficients == ((1, 1), (0, -2 * K))


def test_build_f_shape():
    for ell in range(1, 31):
        for k in range(1, 31):
            poly = build_f(ell, k)
            exps = [e for e, _ in poly.coefficients]
            assert exps == sorted(exps, reverse=True)
            assert poly.coefficients[0] == (ell - (ell % 2 == 0), 1)
            assert all(c < 0 for _, c in poly.coefficients[1:])
            assert sign_changes(poly) == 1


def test_eval_f_examples():
    poly = build_f(3, 1)
    # independent route: w^3 minus the fold-of-differences form
    w = 3
    folded = sum((w + i) ** 3 - (w - i) ** 3 for i in range(1, 2))
    assert folded == 56
    assert eval_f(poly, 3) == 27 - 56 == -29
    assert eval_f(poly, 6) == -2
    assert eval_f(poly, 7) == 47
    assert eval_f(build_f(1, 1), 2) == 0


def test_eval_f_preserves_numeric_kind():
    poly = build_f(3, 1)
    assert isinstance(eval_f(poly, 3), int)
    value = eval_f(poly, Fraction(7, 2))
    assert isinstance(value, Fraction)
    assert value == Fraction(343, 8) - 6 * Fraction(49, 4) - 2


def test_eval_f_matches_difference_fold():
    # the assembled polynomial must agree with the raw rewrite of the
    # equation: w^ell - sum_i ((w+i)^ell - (w-i)^ell), divided by w when
    # ell is even
    rng = random.Random(106)
    for ell in range(1, 13):
        for k in range(1, 13):
            poly = build_f(ell, k)
            for _ in range(20):
                w = rng.randint(1, 10**6)
                folded = w**ell - sum(
                    (w + i) ** ell - (w - i) ** ell for i in range(1, k + 1)
                )
                if ell % 2 == 0:
                    assert folded % w == 0
                    folded //= w
                assert eval_f(poly, w) == folded, (ell, k, w)


def test_direct_summation_matches_f_on_window_integers():
    # the decider's sign route: LHS - RHS at n = w - k equals f(k, w) for
    # odd ell and w * f(k, w) for even ell, so for w > 0 the signs agree.
    # Checked at every window integer of the grid, and at the integers just
    # below and above each window, where f is negative resp. positive.
    in_window = 0
    for ell in range(3, 61):
        for k in range(1, 41):
            lower, upper = compute_bounds(ell, k)
            ws = integers_in_window((lower, upper))
            below, above = ceil(lower) - 1, floor(upper) + 1
            poly = build_f(ell, k)
            for w in [below, *ws, above]:
                value = eval_f(poly, w)
                diff = balance_difference(w - k, k, ell)
                assert diff == (value if ell % 2 == 1 else w * value), (ell, k, w)
                assert (diff > 0) - (diff < 0) == (value > 0) - (value < 0) != 0
            assert eval_f(poly, below) < 0 < eval_f(poly, above), (ell, k)
            in_window += len(ws)
    assert in_window == 39  # the grid holds 39 window integers


def test_verify_instance_examples():
    assert verify_instance(3, 1, 2)  # 3^2 + 4^2 = 5^2
    assert verify_instance(9, 3, 1)  # 9+10+11+12 = 13+14+15
    assert not verify_instance(1, 1, 3)  # 1 + 8 != 27


def test_verify_instance_validation():
    with pytest.raises(ValueError):
        verify_instance(0, 1, 1)
    with pytest.raises(ValueError):
        verify_instance(1, 1, 0)


def test_roots_of_f_are_equation_solutions():
    # substitution consistency: (n, k) solves the equation exactly when
    # w = n + k is a root of f
    for ell in (1, 2):
        for k in range(1, 41):
            n, w = solution_family(ell, k)
            assert verify_instance(n, k, ell)
            assert eval_f(build_f(ell, k), w) == 0
    assert eval_f(build_f(3, 1), 1 + 1) != 0


def test_sign_changes_rejects_zero_polynomial():
    zero = FPolynomial(((2, 0), (0, 0)))
    with pytest.raises(ValueError):
        sign_changes(zero)


def test_solution_family_examples():
    assert solution_family(1, 2) == (4, 6)  # 4+5+6 = 7+8
    assert solution_family(2, 3) == (21, 24)  # 21^2+..+24^2 = 25^2+26^2+27^2
    assert solution_family(2, 1) == (3, 4)  # 3^2+4^2 = 5^2


def test_solution_family_rejects_large_ell():
    with pytest.raises(ValueError):
        solution_family(3, 1)
    with pytest.raises(ValueError):
        solution_family(1, 0)
