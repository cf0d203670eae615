"""Power sums: the two engines agree, and the classical facts hold."""

import random
from fractions import Fraction

import pytest

import powerbalance.powersum as ps
from powerbalance.powersum import (
    bernoulli_numbers,
    check_carlitz_von_staudt,
    check_macmillan_sondow,
    powersum_batch,
    powersum_closed,
    powersum_direct,
)

# B_0 .. B_12 with the B_1 = +1/2 convention
KNOWN_BERNOULLI = [
    Fraction(1),
    Fraction(1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
]


def test_bernoulli_prefix():
    assert bernoulli_numbers(12) == KNOWN_BERNOULLI


def test_bernoulli_cache_grows_consistently():
    small = bernoulli_numbers(10)
    large = bernoulli_numbers(60)
    assert large[:11] == small
    assert bernoulli_numbers(60) == large


def test_bernoulli_cache_concurrent_readers(monkeypatch):
    # the cache is a grow-only table published by atomic rebinding; racing
    # growers may duplicate work but every reader must see a coherent prefix
    from concurrent.futures import ThreadPoolExecutor

    monkeypatch.setattr(ps, "_BERNOULLI", [Fraction(1), Fraction(1, 2)])
    sizes = [35, 50, 20, 65, 40, 72, 10, 58] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(bernoulli_numbers, sizes))
    for n, got in zip(sizes, results):
        assert got == KNOWN_BERNOULLI[: min(n, 12) + 1] + got[13:]
        assert got == bernoulli_numbers(n)


def test_query_validation():
    for fn in (powersum_direct, powersum_closed):
        with pytest.raises(ValueError):
            fn(0, 3)
        with pytest.raises(ValueError):
            fn(2, -1)


def test_direct_examples():
    assert powersum_direct(1, 7) == 1
    assert powersum_direct(3, 3) == 1 + 8 + 27 == 36
    assert powersum_direct(4, 5) == 1 + 32 + 243 + 1024 == 1300


def test_closed_examples():
    assert powersum_closed(10, 1) == 55
    assert powersum_closed(3, 3) == 36
    assert powersum_closed(100, 9) == powersum_direct(100, 9)


def test_closed_equals_direct_on_grid():
    for k in range(1, 61):
        for m in range(0, 41):
            assert powersum_closed(k, m) == powersum_direct(k, m), (k, m)


def test_closed_equals_summation_full_range():
    # same oracle equivalence pushed to k <= 500, each S_m(k) summed as
    # S_m(k-1) + k^m
    sums = [0] * 41
    for k in range(1, 501):
        for m in range(0, 41):
            sums[m] += k**m
            assert powersum_closed(k, m) == sums[m], (k, m)


def test_closed_raises_on_corrupt_bernoulli(monkeypatch):
    bad = KNOWN_BERNOULLI[:]
    bad[2] += Fraction(1, 7)
    monkeypatch.setattr(ps, "bernoulli_numbers", lambda n: bad[: n + 1])
    # an empty memo makes the closed form rebuild its coefficients from the
    # corrupted table instead of reusing ones built from the true numbers
    monkeypatch.setattr(ps, "_FAULHABER", {})
    with pytest.raises(RuntimeError, match="not integral"):
        powersum_closed(5, 2)


def test_closed_raises_on_corrupt_memo(monkeypatch):
    monkeypatch.setattr(ps, "_FAULHABER", {})
    assert powersum_closed(7, 5) == powersum_direct(7, 5)
    denom, coeffs = ps._FAULHABER[5]
    assert denom == 12  # S_5(k) = (2k^6 + 6k^5 + 5k^4 - k^2) / 12
    # one more in the coefficient of k: the numerator grows by k, which
    # D_5 does not divide at these k
    ps._FAULHABER[5] = (denom, coeffs[:-1] + (coeffs[-1] + 1,))
    for k in (1, 2, 7, 100):
        with pytest.raises(RuntimeError, match="not integral"):
            powersum_closed(k, 5)


def test_batch_matches_direct():
    rng = random.Random(105)
    for _ in range(40):
        k = rng.randint(1, 200)
        m_max = rng.randint(0, 45)
        odd = powersum_batch(k, m_max)
        assert sorted(odd) == list(range(1, m_max + 1, 2))
        for m, value in odd.items():
            assert value == powersum_direct(k, m)


def test_batch_advances_from_a_previous_batch():
    rng = random.Random(106)
    for _ in range(40):
        k = rng.randint(1, 200)
        k0 = rng.randint(0, k)
        m_max = rng.randint(0, 45)
        base = powersum_batch(k0, m_max) if k0 else dict.fromkeys(range(1, m_max + 1, 2), 0)
        assert powersum_batch(k, m_max, start=(k0, base)) == powersum_batch(k, m_max), (k0, k)


def test_batch_validation():
    with pytest.raises(ValueError):
        powersum_batch(0, 5)
    with pytest.raises(ValueError):
        powersum_batch(3, -1)
    with pytest.raises(ValueError):
        powersum_batch(3, 5, start=(4, powersum_batch(4, 5)))
    with pytest.raises(ValueError):
        powersum_batch(3, 5, start=(-1, {}))


def test_strictly_increasing_in_k_and_m():
    for k in range(2, 30):
        for m in range(1, 12):
            here = powersum_direct(k, m)
            assert here > powersum_direct(k - 1, m)
            assert powersum_direct(k, m + 1) > here


def test_carlitz_von_staudt_examples():
    assert check_carlitz_von_staudt(4, 5)  # 1300 divisible by 10
    assert check_carlitz_von_staudt(1, 3)
    assert check_carlitz_von_staudt(3, 3)  # 36 divisible by 6


def test_carlitz_von_staudt_range():
    for k in range(1, 61):
        for m in range(1, 40, 2):
            assert check_carlitz_von_staudt(k, m), (k, m)


def test_carlitz_von_staudt_rejects_even_m():
    with pytest.raises(ValueError):
        check_carlitz_von_staudt(3, 4)


def test_macmillan_sondow_examples():
    # k=3: 2*S_3(3) = 72 = 2^3 * 9 and f = nu_2(12) = 2, so 2f-1 = 3
    assert check_macmillan_sondow(3, 3)
    assert check_macmillan_sondow(1, 3)  # 2*S_3(1) = 2, f = 1
    assert check_macmillan_sondow(7, 5)


def test_macmillan_sondow_range():
    for k in range(1, 61):
        for m in range(3, 40, 2):
            assert check_macmillan_sondow(k, m), (k, m)


def test_macmillan_sondow_rejects_bad_m():
    with pytest.raises(ValueError):
        check_macmillan_sondow(3, 1)
    with pytest.raises(ValueError):
        check_macmillan_sondow(3, 4)
