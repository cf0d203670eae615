"""Polynomial assembly, the two sign routes, direct verification and the solution families."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powerbalance import equation
from powerbalance.bounds import (
    check_sandwich,
    compute_bounds,
    corollary_K_bound,
    integers_in_window,
)
from powerbalance.equation import (
    _power_bounds,
    balance_difference,
    balance_sign,
    build_f,
    eval_f,
    interval_sign,
    sign_changes,
    solution_family,
    verify_instance,
)
from powerbalance.powersum import powersum_closed


def test_ell_and_k_validation():
    for fn in (build_f, compute_bounds, check_sandwich):
        with pytest.raises(ValueError):
            fn(0, 1)
        with pytest.raises(ValueError):
            fn(3, 0)


def test_build_f_cubic_example():
    assert build_f(3, 1) == ((3, 1), (2, -6), (0, -2))


@pytest.mark.parametrize("k", [1, 2, 5, 17])
def test_build_f_linear_families(k):
    K = k * (k + 1)
    assert build_f(1, k) == ((1, 1), (0, -K))
    assert build_f(2, k) == ((1, 1), (0, -2 * K))


def test_build_f_shape():
    for ell in range(1, 31):
        for k in range(1, 31):
            poly = build_f(ell, k)
            exps = [e for e, _ in poly]
            assert exps == sorted(exps, reverse=True)
            assert poly[0] == (ell - (ell % 2 == 0), 1)
            assert all(c < 0 for _, c in poly[1:])
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
    # LHS - RHS at n = w - k equals f(k, w) for odd ell and w * f(k, w) for
    # even ell, so for w > 0 the signs agree.
    # Checked at every window integer of the grid, and at the integers just
    # below and above each window, where f is negative resp. positive.
    in_window = 0
    for ell in range(3, 61):
        for k in range(1, 41):
            lower, upper, den = compute_bounds(ell, k)
            ws = integers_in_window((lower, upper, den))
            below, above = -(-lower // den) - 1, upper // den + 1
            poly = build_f(ell, k)
            for w in [below, *ws, above]:
                value = eval_f(poly, w)
                diff = balance_difference(w - k, k, ell)
                assert diff == (value if ell % 2 == 1 else w * value), (ell, k, w)
                assert (diff > 0) - (diff < 0) == (value > 0) - (value < 0) != 0
            assert eval_f(poly, below) < 0 < eval_f(poly, above), (ell, k)
            in_window += len(ws)
    assert in_window == 39  # the grid holds 39 window integers


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _direct_sign(ell, k, w):
    return _sign(balance_difference(w - k, k, ell))


class _ClosedSums(dict):
    """S_m(k) from powersum_closed, computed on first read; seen lists every m read."""

    def __init__(self, k):
        super().__init__()
        self.k = k
        self.seen = []

    def __getitem__(self, m):
        self.seen.append(m)
        return super().__getitem__(m)

    def __missing__(self, m):
        value = self[m] = powersum_closed(self.k, m)
        return value


def test_balance_sign_matches_direct_summation_on_every_window(monkeypatch):
    # every window integer of ell <= 400 under the sharp cap, and for each
    # nonempty window floor(lower), ceil(upper) and one past each; for
    # ell <= 100 those four points at every k, empty windows included.
    # interval_sign, the route paranoid mode checks against, at each as well,
    # and at each its first width settles the sign: it never doubles
    widths = []
    real = equation._power_bounds

    def recording(xs, ell, bits):
        widths.append(bits)
        return real(xs, ell, bits)

    monkeypatch.setattr(equation, "_power_bounds", recording)
    in_window = 0
    for ell in range(3, 401):
        cap = corollary_K_bound(ell)
        k = 1
        while k * (k + 1) <= cap:
            lower, upper, den = compute_bounds(ell, k)
            ws = integers_in_window((lower, upper, den))
            sums = _ClosedSums(k)
            points = list(ws)
            if ws or ell <= 100:
                low, high = lower // den, -(-upper // den)
                points += [low - 1, low, high, high + 1]
            for w in points:
                direct = _direct_sign(ell, k, w)
                assert balance_sign(ell, k, w, sums) == direct, (ell, k, w)
                assert interval_sign(w - k, k, ell) == direct, (ell, k, w)
            in_window += len(ws)
            k += 1
    assert in_window == 2743
    assert max(widths) == equation._INTERVAL_BITS


def test_balance_sign_is_exactly_zero_at_the_family_roots():
    for ell in (1, 2):
        for k in range(1, 21):
            _, w = solution_family(ell, k)
            sums = _ClosedSums(k)
            assert balance_sign(ell, k, w, sums) == 0, (ell, k)
            assert balance_sign(ell, k, w - 1, sums) == -1, (ell, k)
            assert balance_sign(ell, k, w + 1, sums) == 1, (ell, k)


@pytest.mark.parametrize(
    "ell, k, w, sign",
    [
        (27, 1, 55, -1),  # the integer below the window of ell = 27, k = 1
        (27, 1, 57, 1),  # the integer above it
        (27, 1, 56, 1),  # the window integer
        # small w against large k: rho = 81 * 400 / (20 * 441) >= 1, but
        # G_1 = w - ell k(k+1) is already negative, so the first step decides
        (9, 20, 21, -1),
    ],
)
def test_balance_sign_decides_early(ell, k, w, sign):
    sums = _ClosedSums(k)
    assert balance_sign(ell, k, w, sums) == sign == _direct_sign(ell, k, w)
    assert sums.seen == [1, 3]


def test_balance_sign_can_need_a_later_term():
    # at (39, 9, 3513) the first step is inconclusive and S_5 settles it
    sums = _ClosedSums(9)
    assert balance_sign(39, 9, 3513, sums) == -1 == _direct_sign(39, 9, 3513)
    assert sums.seen == [1, 3, 5]


def test_balance_sign_runs_to_the_last_term_at_a_root():
    # With the true power sums the loop reaches its last odd m, for ell >= 3,
    # only at an exact zero.  A table with S_3(1) = 64 gives
    # D(w) = w^3 - 6 w^2 - 128 = (w - 8)(w^2 + 2w + 16): G_3 = D(8) = 0 must
    # come out of the final, exact step, and the neighbours stay early.
    assert [balance_sign(3, 1, w, {1: 1, 3: 64}) for w in (7, 8, 9)] == [-1, 0, 1]


def test_balance_sign_reads_only_small_power_sums_at_large_ell():
    ell = 99999
    signs = set()
    seen = []
    for k in (1, 3, 10, 12, 22, 39):
        sums = _ClosedSums(k)
        for w in integers_in_window(compute_bounds(ell, k))[:3]:
            signs.add(balance_sign(ell, k, w, sums))
        seen += sums.seen
    assert signs == {-1, 1}
    assert max(seen) <= 7


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_balance_sign_matches_direct_summation_off_the_windows(data):
    ell = data.draw(st.integers(1, 80), label="ell")
    k = data.draw(st.integers(1, 40), label="k")
    w = data.draw(st.integers(k + 1, 4 * ell * k * (k + 1)), label="w")
    assert balance_sign(ell, k, w, _ClosedSums(k)) == _direct_sign(ell, k, w)


def test_balance_sign_rejects_nonpositive_arguments():
    for args in ((0, 1, 1), (3, 0, 1), (3, 1, 0)):
        with pytest.raises(ValueError):
            balance_sign(*args, _ClosedSums(1))


def _interval_points():
    """Window integers of ell 3..60, their outer neighbours, and the ell = 1, 2 roots."""
    points = []
    for ell in range(3, 61):
        cap = corollary_K_bound(ell)
        k = 1
        while k * (k + 1) <= cap:
            lower, upper, den = compute_bounds(ell, k)
            ws = integers_in_window((lower, upper, den)) or [lower // den]
            points += [(w - k, k, ell) for w in (ws[0] - 1, *ws, ws[-1] + 1)]
            k += 1
    for ell in (1, 2):
        for k in range(1, 21):
            n, _ = solution_family(ell, k)
            points += [(m, k, ell) for m in (n - 1, n, n + 1) if m >= 1]
    return points


def test_interval_sign_is_exactly_zero_at_the_family_roots():
    for ell in (1, 2):
        for k in range(2, 41):  # from k = 2, so that n - 1 >= 1 for both families
            n, _ = solution_family(ell, k)
            assert interval_sign(n, k, ell) == 0, (ell, k)
            assert interval_sign(n - 1, k, ell) == -1, (ell, k)
            assert interval_sign(n + 1, k, ell) == 1, (ell, k)


@pytest.mark.parametrize("bits", [1, 3, 8])
def test_interval_sign_agrees_when_it_starts_at_a_few_bits(monkeypatch, bits):
    # the brackets overlap at first, so interval_sign must double its width,
    # and at the roots it must go on to exact sums to return 0
    widths = []
    real = equation._power_bounds

    def recording(xs, ell, b):
        widths.append(b)
        return real(xs, ell, b)

    monkeypatch.setattr(equation, "_INTERVAL_BITS", bits)
    monkeypatch.setattr(equation, "_power_bounds", recording)
    for n, k, ell in _interval_points():
        assert interval_sign(n, k, ell) == _sign(balance_difference(n, k, ell)), (n, k, ell)
    assert min(widths) == bits < max(widths)


def test_power_bounds_bracket_the_power():
    for bits in (1, 2, 3, 5, 8):
        for ell in range(1, 40):
            for xs in (range(0, 60), range(7, 12), range(1000, 1003)):
                lows, gap, e = _power_bounds(xs, ell, bits)
                powers = [x**ell for x in xs]
                assert len(lows) == len(powers), (xs, ell, bits)
                for lo, power in zip(lows, powers):
                    assert 0 <= lo << e <= power <= (lo + gap) << e, (xs, ell, bits)
                assert (e == 0) == (gap == 0), (xs, ell, bits)
                if e == 0:
                    assert lows == powers, (xs, ell, bits)
                else:
                    assert max(lows) < 2**bits, (xs, ell, bits)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_interval_sign_matches_direct_summation_off_the_windows(data):
    ell = data.draw(st.integers(1, 300), label="ell")
    k = data.draw(st.integers(1, 40), label="k")
    n = data.draw(st.integers(1, 10**6), label="n")
    assert interval_sign(n, k, ell) == _sign(balance_difference(n, k, ell))


def test_interval_sign_rejects_nonpositive_arguments():
    for args in ((0, 1, 1), (1, 0, 1), (1, 1, 0), (-3, 2, 3)):
        with pytest.raises(ValueError):
            interval_sign(*args)


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
    with pytest.raises(ValueError):
        sign_changes(((2, 0), (0, 0)))


def test_solution_family_examples():
    assert solution_family(1, 2) == (4, 6)  # 4+5+6 = 7+8
    assert solution_family(2, 3) == (21, 24)  # 21^2+..+24^2 = 25^2+26^2+27^2
    assert solution_family(2, 1) == (3, 4)  # 3^2+4^2 = 5^2


def test_solution_family_rejects_large_ell():
    with pytest.raises(ValueError):
        solution_family(3, 1)
    with pytest.raises(ValueError):
        solution_family(1, 0)
