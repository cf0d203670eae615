"""Exact arithmetic foundations: 2-adic valuations, radicals, trial-division
factorization.

Integers are plain Python ints (arbitrary precision); exact rationals are
``fractions.Fraction`` (always reduced, positive denominator).  Nothing in
this package ever rounds.
"""

from math import isqrt, prod

# Default trial-division cutoff for odd_prime_factors().
FACTOR_LIMIT = 10**7


def nu(x: int) -> int:
    """Largest t such that 2**t divides x (the 2-adic valuation of x).

    x must be nonzero: nu(0) is undefined and raises.  The answer is read
    off the lowest set bit of x, in one pass over its digits.
    """
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    return (x & -x).bit_length() - 1


def nu2_binomial(n: int, m: int) -> int:
    """nu_2(C(n, m)) for 0 <= m <= n, by Kummer's theorem.

    The exponent of 2 in C(n, m) is the number of carries when adding m and
    n - m in binary, which is popcount(m) + popcount(n - m) - popcount(n).
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got n = {n}, m = {m}")
    return m.bit_count() + (n - m).bit_count() - n.bit_count()


def rad(x: int) -> int:
    """Product of the distinct primes dividing x; rad(1) == 1.

    Factors by trial division, so x must be of desk scale.
    """
    if x <= 0:
        raise ValueError(f"rad is defined for positive integers, got {x}")
    # with limit isqrt(x) the odd factorization is complete
    return (2 - x % 2) * prod(odd_prime_factors(x, isqrt(x))[0])


def odd_prime_factors(x: int, limit: int = FACTOR_LIMIT) -> tuple[list[int], int]:
    """Factor the odd part of x by trial division with primes <= limit.

    Returns (primes, remainder) where primes lists the distinct odd primes
    found, in ascending order, and remainder is the unfactored part (1 when
    the factorization is complete).  Multiplicities are not reported.
    Incompleteness is reported through the remainder, never as an error.
    Powers of 2 are stripped and not reported.
    """
    if x < 1:
        raise ValueError(f"expected a positive integer, got {x}")
    while x % 2 == 0:
        x //= 2
    primes = []
    d = 3
    while d <= limit and d * d <= x:
        if x % d == 0:
            while x % d == 0:
                x //= d
            primes.append(d)
        d += 2
    if x > 1:
        if isqrt(x) < d:
            # no factor below sqrt(x): the remainder is prime
            primes.append(x)
            x = 1
    return primes, x
