"""Brute-force search and positive-root counting."""

import pytest

from powerbalance.equation import build_f
from powerbalance.oracle import count_positive_roots, oracle_search


def _naive_search(ell, n_max, k_max):
    # deliberately dumb reference: recompute both sides from scratch
    found = []
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            left = sum((n + j) ** ell for j in range(k + 1))
            right = sum((n + j) ** ell for j in range(k + 1, 2 * k + 1))
            if left == right:
                found.append((n, k))
    return sorted(found)


def test_search_linear_family():
    assert oracle_search(1, 200, 10) == [(k * k, k) for k in range(1, 11)]


def test_search_square_family():
    expected = sorted((k * (2 * k + 1), k) for k in range(1, 11))
    assert oracle_search(2, 300, 10) == expected


def test_search_cubes_come_up_empty():
    assert oracle_search(3, 60, 60) == []


def test_incremental_updates_match_naive_recomputation():
    for ell in range(1, 5):
        assert oracle_search(ell, 40, 5) == _naive_search(ell, 40, 5), ell


def test_search_validation():
    with pytest.raises(ValueError):
        oracle_search(0, 10, 10)
    with pytest.raises(ValueError):
        oracle_search(1, 0, 10)


def test_root_count_examples():
    assert count_positive_roots(build_f(3, 1)) == 1
    assert count_positive_roots(build_f(1, 4)) == 1
    assert count_positive_roots(build_f(6, 2)) == 1


def test_root_count_grid():
    for ell in range(1, 9):
        for k in range(1, 9):
            assert count_positive_roots(build_f(ell, k)) == 1, (ell, k)


def test_root_count_sees_exact_grid_zero():
    # f = w - 21 with resolution chosen so 21 lands exactly on the grid
    from powerbalance.equation import FPolynomial

    poly = FPolynomial(((1, 1), (0, -21)))
    assert count_positive_roots(poly, resolution=44) == 1
