"""Brute-force ground truth, kept deliberately separate from the decision
procedure.

oracle_search scans an (n, k) box and reports every point where the two
sides of the balanced equation agree, using nothing but exact integer
sums -- slid incrementally along n and k so the box costs O(n_max * k_max)
additions instead of a triple loop of powers.

count_positive_roots counts positive real roots of f directly by an exact
grid scan past the Cauchy bound, one root per sign flip.  It evaluates the
polynomial with its own Horner loop rather than any of the equation
module's machinery.
"""

from fractions import Fraction

from .equation import FPolynomial

DEFAULT_GRID_CELLS = 1024


def oracle_search(ell: int, n_max: int, k_max: int) -> list[tuple[int, int]]:
    """All (n, k) with n <= n_max, k <= k_max solving the equation, ascending.

    Maintains both sides incrementally: stepping k -> k+1 moves one term
    across and appends two; stepping n restarts the k run.
    """
    if ell < 1 or n_max < 1 or k_max < 1:
        raise ValueError("ell, n_max and k_max must all be >= 1")
    top = n_max + 2 * k_max
    power = [0] * (top + 1)
    for x in range(1, top + 1):
        power[x] = x**ell
    found = []
    for n in range(1, n_max + 1):
        left = power[n] + power[n + 1]
        right = power[n + 2]
        if left == right:
            found.append((n, 1))
        for k in range(2, k_max + 1):
            left += power[n + k]
            right += power[n + 2 * k - 1] + power[n + 2 * k] - power[n + k]
            if left == right:
                found.append((n, k))
    return sorted(found)


def _horner(coefficients, x):
    acc = 0
    prev = None
    for exp, c in coefficients:
        if prev is None:
            acc = c
        else:
            acc = acc * x ** (prev - exp) + c
        prev = exp
    if prev:
        acc = acc * x**prev
    return acc


def count_positive_roots(poly: FPolynomial, resolution: int = DEFAULT_GRID_CELLS) -> int:
    """Number of positive real roots of f, located by grid scan.

    The grid spans (0, 2*(1 + max |coefficient|)], which lies beyond every
    root by the Cauchy bound.  All evaluation is exact rational; each grid
    point where f vanishes or changes sign counts one root, so roots sharing
    a grid cell would be conflated, which is harmless here since the
    coefficient shape admits at most one.
    """
    coeffs = poly.coefficients
    bound = 2 * (1 + max(abs(c) for _, c in coeffs))
    step = Fraction(bound, resolution)
    count = 0
    prev_v = _horner(coeffs, Fraction(0))  # a zero here is w = 0, not a positive root
    for i in range(1, resolution + 1):
        v = _horner(coeffs, i * step)
        if v == 0 or (prev_v != 0 and (prev_v < 0) != (v < 0)):
            count += 1
        prev_v = v
    return count
