"""Exact power sums S_m(k) = 1^m + 2^m + ... + k^m, by independent methods.

Three routes to the same integers:

* ``powersum_direct`` -- term-by-term summation, the reference method;
* ``powersum_closed`` -- Faulhaber polynomial with exact rational Bernoulli
  coefficients, verified integral before returning;
* ``powersum_batch``  -- all S_m(k) for m up to a bound in one incremental
  pass, the engine the decision procedure uses (stepping i^m -> i^(m+2)
  avoids recomputing every power from scratch).

Two classical congruence/valuation facts about these sums are exposed as
checkable predicates: Carlitz-von Staudt (k(k+1)/2 divides S_m(k) for odd m)
and MacMillan-Sondow (nu_2(2*S_m(k)) = 2*nu_2(k(k+1)) - 1 for odd m >= 3).
"""

from fractions import Fraction
from math import comb

from .arith import nu


def _check_k_m(k: int, m: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")


# Grow-only Bernoulli cache (B1 = +1/2 convention).  Readers take a local
# reference; writers publish a fresh, longer list by rebinding the global,
# which is atomic in CPython.  A racing duplicate computation is harmless.
_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(1, 2)]


def bernoulli_numbers(n: int) -> list[Fraction]:
    """Bernoulli numbers B_0 .. B_n (B_1 = +1/2), memoized.

    Computed by the Akiyama-Tanigawa recurrence over exact rationals; one
    O(n^2) pass yields the whole prefix.
    """
    global _BERNOULLI
    table = _BERNOULLI
    if n < len(table):
        return table[: n + 1]
    row: list[Fraction] = []
    fresh = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        fresh.append(row[0])
    _BERNOULLI = fresh
    return fresh[: n + 1]


def powersum_direct(k: int, m: int) -> int:
    """S_m(k) by direct summation, for k >= 1 and m >= 0."""
    _check_k_m(k, m)
    return sum(i**m for i in range(1, k + 1))


def powersum_closed(k: int, m: int) -> int:
    """S_m(k), for k >= 1 and m >= 0, from the degree-(m+1) Faulhaber polynomial.

    The rational evaluation must come out integral; a non-integral value
    would mean a bug in the Bernoulli table and is raised, never truncated.
    """
    _check_k_m(k, m)
    bern = bernoulli_numbers(m)
    total = Fraction(0)
    for j in range(m + 1):
        if bern[j]:
            total += comb(m + 1, j) * bern[j] * k ** (m + 1 - j)
    total /= m + 1
    if total.denominator != 1:
        raise RuntimeError(
            f"Faulhaber evaluation of S_{m}({k}) is not integral: {total}"
        )
    return total.numerator


def powersum_batch(k: int, m_max: int, odd_only: bool = False) -> dict[int, int]:
    """All S_m(k) for 0 <= m <= m_max (odd m only if odd_only), incrementally.

    One multiplication per (i, m) step instead of a fresh i**m per sum;
    this is what makes exponent sweeps affordable.
    """
    _check_k_m(k, m_max)
    out: dict[int, int] = {}
    if odd_only:
        powers = list(range(1, k + 1))
        steps = [i * i for i in range(1, k + 1)]
        m = 1
    else:
        powers = [1] * k
        steps = list(range(1, k + 1))
        m = 0
    stride = 2 if odd_only else 1
    while m <= m_max:
        out[m] = sum(powers)
        for i in range(k):
            powers[i] *= steps[i]
        m += stride
    return out


def check_carlitz_von_staudt(k: int, m: int) -> bool:
    """Does k(k+1)/2 divide S_m(k)?  (Carlitz-von Staudt: yes for odd m.)"""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 1, got {m}")
    return powersum_direct(k, m) % (k * (k + 1) // 2) == 0


def check_macmillan_sondow(k: int, m: int) -> bool:
    """Does nu_2(2*S_m(k)) equal 2*nu_2(k(k+1)) - 1?

    The MacMillan-Sondow valuation theorem asserts this for all odd m >= 3,
    independent of m.  (m = 1 is excluded: there nu_2(2*S_1(k)) is
    nu_2(k(k+1)) itself, which the main argument tracks separately.)
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    s = powersum_direct(k, m)
    return nu(2, 2 * s) == 2 * nu(2, k * (k + 1)) - 1
