"""Valuations, radicals and trial-division factorization."""

import random
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powerbalance.arith import nu, nu2_binomial, odd_prime_factors, rad


def _valuation_by_division(p, x):
    # reference oracle: strip factors of p one at a time
    x = abs(x)
    t = 0
    while x % p == 0:
        x //= p
        t += 1
    return t


def _factor_by_trial_division(x):
    out = {}
    d = 2
    while d * d <= x:
        while x % d == 0:
            out[d] = out.get(d, 0) + 1
            x //= d
        d += 1
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def test_nu_examples():
    assert nu(40) == 3  # 40 = 2^3 * 5
    assert _valuation_by_division(2, 12) == 2
    assert nu(12) == 2
    assert nu(7) == 0
    assert nu(-24) == 3


def test_nu_rejects_zero():
    with pytest.raises(ValueError):
        nu(0)


def test_nu_matches_division_oracle():
    rng = random.Random(101)
    for _ in range(300):
        x = rng.randint(1, 10**9)
        assert nu(x) == _valuation_by_division(2, x)


def test_nu_is_additive_on_products():
    rng = random.Random(102)
    for _ in range(300):
        x = rng.randint(1, 10**6)
        y = rng.randint(1, 10**6)
        assert nu(x * y) == nu(x) + nu(y)


@given(
    st.integers(min_value=-(2**3000), max_value=2**3000).map(lambda u: 2 * u + 1),
    st.integers(min_value=0, max_value=5000),
)
def test_nu_two_matches_division_loop(odd, t):
    # every nonzero int, negative ones included, is odd * 2^t
    x = odd << t
    assert nu(x) == t == _valuation_by_division(2, x)


def test_kummer_matches_binomial_valuation():
    for n in range(301):
        for m in range(n + 1):
            assert nu2_binomial(n, m) == nu(comb(n, m)), (n, m)
    with pytest.raises(ValueError):
        nu2_binomial(3, 4)
    with pytest.raises(ValueError):
        nu2_binomial(3, -1)


def test_rad_examples():
    assert rad(1) == 1
    assert _factor_by_trial_division(12) == {2: 2, 3: 1}
    assert rad(12) == 6
    assert rad(8) == 2


def test_rad_rejects_nonpositive():
    with pytest.raises(ValueError):
        rad(0)
    with pytest.raises(ValueError):
        rad(-4)


def test_rad_divides_and_is_squarefree():
    for x in range(1, 2000):
        r = rad(x)
        assert x % r == 0
        assert all(m == 1 for m in _factor_by_trial_division(r).values())


def test_rad_is_the_product_of_the_distinct_primes():
    for x in range(1, 20001):
        assert rad(x) == prod(_factor_by_trial_division(x)), x


def test_odd_prime_factors_examples():
    assert odd_prime_factors(17, 10**6) == ([17], 1)
    assert odd_prime_factors(45, 10**6) == ([3, 5], 1)
    assert odd_prime_factors(1, 10**6) == ([], 1)


def test_odd_prime_factors_strips_twos_and_reconstructs():
    rng = random.Random(103)
    for _ in range(200):
        x = rng.randint(1, 10**6)
        primes, remainder = odd_prime_factors(x)
        assert remainder == 1
        assert primes == sorted(set(primes))
        rebuilt = remainder
        for p in primes:
            assert p % 2 == 1 and _factor_by_trial_division(p) == {p: 1}
            rebuilt *= p ** _valuation_by_division(p, x)
        assert rebuilt * 2 ** _valuation_by_division(2, x) == x


def test_odd_prime_factors_reports_unfactored_remainder():
    # 73 * 89 = 6497: both primes exceed the limit, nothing is found
    primes, remainder = odd_prime_factors(73 * 89, limit=50)
    assert primes == [] and remainder == 73 * 89
    # a found factor is still reported alongside the remainder
    primes, remainder = odd_prime_factors(3 * 73 * 89, limit=50)
    assert primes == [3] and remainder == 73 * 89
    # incompleteness is never an error
    assert odd_prime_factors(10**7 + 19, limit=100)[0] == []


def test_odd_prime_factors_rejects_nonpositive():
    with pytest.raises(ValueError):
        odd_prime_factors(0)


class _PairRational:
    """Integer-pair model of exact rationals, for cross-checking Fraction."""

    def __init__(self, num, den=1):
        if den < 0:
            num, den = -num, -den
        from math import gcd

        g = gcd(num, den)
        self.num, self.den = num // g, den // g

    def add(self, other):
        return _PairRational(self.num * other.den + other.num * self.den, self.den * other.den)

    def mul(self, other):
        return _PairRational(self.num * other.num, self.den * other.den)

    def same(self, frac: Fraction) -> bool:
        return self.num == frac.numerator and self.den == frac.denominator


def test_fraction_arithmetic_matches_pair_model():
    rng = random.Random(104)
    for _ in range(300):
        ns = [rng.randint(-50, 50) for _ in range(3)]
        ds = [rng.randint(1, 50) for _ in range(3)]
        fa, fb, fc = (Fraction(n, d) for n, d in zip(ns, ds))
        pa, pb, pc = (_PairRational(n, d) for n, d in zip(ns, ds))
        assert pa.add(pb).same(fa + fb)
        assert pa.mul(pb).same(fa * fb)
        # field laws on the Fraction side, exact
        assert (fa + fb) + fc == fa + (fb + fc)
        assert (fa * fb) * fc == fa * (fb * fc)
        assert fa * (fb + fc) == fa * fb + fa * fc
        assert fa + fb == fb + fa and fa * fb == fb * fa


def test_fraction_is_normalized():
    q = Fraction(-6, -4)
    assert q.numerator == 3 and q.denominator == 2
    assert Fraction(2, -4).denominator > 0
