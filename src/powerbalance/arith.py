"""Exact arithmetic foundations: p-adic valuations, radicals, trial-division
factorization.

Integers are plain Python ints (arbitrary precision); exact rationals are
``fractions.Fraction`` (always reduced, positive denominator).  Nothing in
this package ever rounds.
"""

from math import isqrt

# Primality of the `p` argument of nu() is verified by trial division for
# p below this bound; larger p are taken on faith from the caller.
PRIMALITY_CHECK_BOUND = 10**6

# Default trial-division cutoff for odd_prime_factors().
FACTOR_LIMIT = 10**7


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk scale only)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def nu(p: int, x: int) -> int:
    """Largest t such that p**t divides x (the p-adic valuation of x).

    p must be prime (checked by trial division for p <= PRIMALITY_CHECK_BOUND)
    and x nonzero: nu(p, 0) is undefined and raises.  For p = 2 the answer
    is read off the lowest set bit of x, in one pass over its digits.
    """
    if x == 0:
        raise ValueError("valuation of 0 is undefined")
    if p == 2:
        return (x & -x).bit_length() - 1
    if p < 2:
        raise ValueError(f"p must be a prime, got {p}")
    if p <= PRIMALITY_CHECK_BOUND and not is_prime(p):
        raise ValueError(f"p must be a prime, got composite {p}")
    x = abs(x)
    t = 0
    while x % p == 0:
        x //= p
        t += 1
    return t


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
    r = 1
    if x % 2 == 0:
        r = 2
        while x % 2 == 0:
            x //= 2
    d = 3
    while d * d <= x:
        if x % d == 0:
            r *= d
            while x % d == 0:
                x //= d
        d += 2
    if x > 1:
        r *= x
    return r


def odd_prime_factors(x: int, limit: int = FACTOR_LIMIT) -> tuple[list[tuple[int, int]], int]:
    """Factor the odd part of x by trial division with primes <= limit.

    Returns (factors, remainder) where factors is a list of
    (prime, multiplicity) pairs in ascending order and remainder is the
    unfactored part (1 when the factorization is complete).  Incompleteness
    is reported through the remainder, never as an error.  Powers of 2 are
    stripped and not reported.
    """
    if x < 1:
        raise ValueError(f"expected a positive integer, got {x}")
    while x % 2 == 0:
        x //= 2
    factors = []
    d = 3
    while d <= limit and d * d <= x:
        if x % d == 0:
            mult = 0
            while x % d == 0:
                x //= d
                mult += 1
            factors.append((d, mult))
        d += 2
    if x > 1:
        if isqrt(x) < d:
            # no factor below sqrt(x): the remainder is prime
            factors.append((x, 1))
            x = 1
    return factors, x
