"""Brute-force search and positive-root counting."""

import tracemalloc

import pytest

from powerbalance.equation import build_f
from powerbalance.oracle import count_positive_roots, has_simple_roots, oracle_search


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


def test_search_memory_does_not_grow_with_n_max():
    # only the 2 k_max + 1 powers of the current n are held, not all n_max of them
    tracemalloc.start()
    try:
        assert oracle_search(50, 100000, 3) == []
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


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


def _from_factors(*factors):
    """(exponent, coefficient) pairs of the product of integer factors, each by descending power."""
    product = [1]
    for factor in factors:
        out = [0] * (len(product) + len(factor) - 1)
        for i, a in enumerate(product):
            for j, b in enumerate(factor):
                out[i + j] += a * b
        product = out
    degree = len(product) - 1
    return tuple((degree - i, c) for i, c in enumerate(product))


def test_root_count_sees_integer_root():
    # the grid scan needed a resolution putting 21 on a grid point
    assert count_positive_roots(_from_factors([1, -21])) == 1
    assert count_positive_roots(_from_factors([1, -21], [1, 5])) == 1
    assert count_positive_roots(_from_factors([1, -21], [1, -22], [1, 0, 3])) == 2


def test_root_count_sees_double_root():
    double = _from_factors([1, -2], [1, -2], [1, 1])
    assert count_positive_roots(double) == 1
    assert not has_simple_roots(double)
    assert count_positive_roots(_from_factors([1, -2], [1, -2], [1, -5])) == 2
    assert has_simple_roots(_from_factors([1, -2], [1, 1]))


def test_root_count_separates_roots_closer_than_any_grid_cell():
    # roots 1000.001 and 1000.002; the 1,024-cell scan over (0, 2(1 + max|c|)]
    # had cells of about 2e9
    close = _from_factors([1000, -1000001], [1000, -1000002])
    assert count_positive_roots(close) == 2
    assert has_simple_roots(close)
    # and a pair 1/(2 * 10^6) apart inside an irreducible quadratic:
    # 10^12 w^2 - 2 * 10^12 w + (10^12 - 1) has roots 1 +- 10^-6
    assert count_positive_roots(_from_factors([10**12, -2 * 10**12, 10**12 - 1])) == 2


def test_root_count_ignores_nonpositive_roots():
    assert count_positive_roots(_from_factors([1, 1], [1, 0, 1])) == 0
    assert count_positive_roots(_from_factors([1, 1], [1, 2], [1, 3])) == 0
    assert count_positive_roots(_from_factors([1, 0], [1, -3])) == 1  # w = 0 is no root
    assert count_positive_roots(_from_factors([7])) == 0
    with pytest.raises(ValueError):
        count_positive_roots(((2, 0), (0, 0)))


def test_f_has_only_simple_roots():
    for ell in range(1, 9):
        for k in range(1, 9):
            assert has_simple_roots(build_f(ell, k)), (ell, k)
