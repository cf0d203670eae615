"""The 2-adic candidate filters and the collapse replay."""

from functools import partial

import pytest

import powerbalance.decider as decider
from powerbalance import filters
from powerbalance.arith import nu, nu2_binomial, odd_prime_factors, rad
from powerbalance.bounds import compute_bounds, integers_in_window
from powerbalance.equation import build_f, eval_f
from powerbalance.filters import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    FilterReport,
    check_modular_collapse,
    filter_3f_plus_3,
    filter_g_ge_e_plus_1,
    filter_radical,
    filter_w_plus_1_primes,
    sum_valuations,
)
from powerbalance.powersum import powersum_batch


def test_radical_filter():
    assert filter_radical(1, 16).outcome == PASS  # rad(2) = 2 divides 16
    assert filter_radical(2, 9).outcome == FAIL  # rad(6) = 6 does not divide 9
    assert filter_radical(1, 2).outcome == PASS
    # rad(k) = 2 divides 4, but the prime 3 | k + 1 does not
    assert filter_radical(2, 4).outcome == FAIL


def test_radical_memo_is_rad_of_k_times_k_plus_1():
    for k in range(1, 1201):
        assert filters._radical(k) == rad(k * (k + 1)), k


def test_kummer_row_is_the_binomial_valuation_plus_popcount_of_ell():
    for ell in range(1, 400):
        row = filters._kummer_row(ell)
        assert row == tuple(nu2_binomial(ell, m) + ell.bit_count() for m in range(1, ell + 1, 2)), ell


def test_filter_report_is_a_named_tuple():
    # immutability and the missing __dict__ are checked for every record type in test_decider
    report = filter_radical(2, 9)
    assert report == ("radical", FAIL, "rad(6) = 6 does not divide w = 9")
    passed = report._replace(outcome=PASS)
    assert type(passed) is FilterReport and not passed.failed and report.failed


def test_center_valuation_filter():
    assert filter_g_ge_e_plus_1(8, 16).outcome == PASS  # g = 4 >= e+1 = 4
    assert filter_g_ge_e_plus_1(4, 4).outcome == FAIL  # g = 2 < e+1 = 3
    assert filter_g_ge_e_plus_1(3, 2).outcome == PASS  # e = 0


def test_w_plus_1_prime_filter():
    assert filter_w_plus_1_primes(8, 16).outcome == PASS  # 17 = 1 mod 16
    assert filter_w_plus_1_primes(4, 4).outcome == FAIL  # 5 mod 8 = 5
    with pytest.raises(ValueError):
        filter_w_plus_1_primes(2, 2)  # genuine solutions exist at ell = 2
    with pytest.raises(ValueError):
        filter_w_plus_1_primes(5, 10)  # vacuous for odd ell


def test_w_plus_1_prime_filter_inconclusive_routes_forward(monkeypatch):
    # 73 * 89 - 1: both primes are 1 mod 8 but exceed a tiny limit
    monkeypatch.setattr(filters, "odd_prime_factors", partial(odd_prime_factors, limit=50))
    report = filter_w_plus_1_primes(4, 73 * 89 - 1)
    assert report.outcome == INCONCLUSIVE
    # a bad small factor still fails outright despite the unfactored tail
    report = filter_w_plus_1_primes(4, 3 * 73 * 89 - 1)
    assert report.outcome == FAIL


def test_exponent_budget_filter():
    assert filter_3f_plus_3(8, 1).outcome == PASS  # f = 1, 6 <= 8
    assert filter_3f_plus_3(6, 3).outcome == FAIL  # f = nu_2(12) = 2, 9 > 6
    for ell in (3, 4, 5):
        for k in range(1, 51):
            assert filter_3f_plus_3(ell, k).outcome == FAIL, (ell, k)
    with pytest.raises(ValueError):
        filter_3f_plus_3(2, 1)


def _row(k, ell):
    return sum_valuations(k, powersum_batch(k, ell))


def test_collapse_examples():
    for ell, k, w in ((8, 1, 16), (5, 1, 10), (9, 2, 54)):
        report = check_modular_collapse(ell, k, nu(w), _row(k, ell))
        assert report.outcome == PASS, (ell, k, w)
        assert report == _reference_collapse(ell, k, nu(w), powersum_batch(k, ell)), (ell, k, w)


def test_collapse_preconditions():
    with pytest.raises(ValueError, match="g = nu_2"):
        check_modular_collapse(8, 1, nu(15), _row(1, 8))  # odd w has g = 0
    with pytest.raises(ValueError, match="ell >= 5"):
        check_modular_collapse(4, 1, nu(16), _row(1, 4))  # ell too small
    with pytest.raises(TypeError):
        check_modular_collapse(8, 1, nu(16))  # the row is not optional


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_collapse_rejects_a_zero_power_sum(m):
    # a zero sum has no 2-adic valuation; read off its lowest set bit it
    # would pass as -1 and turn into a FAIL report, not an error.  The
    # replay reads its valuations from sum_valuations, which raises first
    sums = powersum_batch(7, 7)
    sums[m] = 0
    with pytest.raises(ValueError, match=f"at m = {m} "):
        sum_valuations(7, sums)


def test_sum_valuations_read_sums_past_the_low_word_exactly():
    # 3 * 2^64 and 2^130 have all 64 low bits zero and take the exact route;
    # the others are read from their low word
    sums = {1: 3 * 2**64, 3: 2**130, 5: 12, 7: 5 * 2**63, 9: 2**64 + 2**3}
    assert sum_valuations(1, sums) == [64, 130, 2, 63, 3]
    assert sum_valuations(1, sums) == [nu(s) for s in sums.values()]


def test_sum_valuations_with_one_sum_past_the_low_word():
    sums = {1: 6, 3: 7 * 2**70, 5: 2**64 + 1, 7: 2**700 + 2**63}
    assert sum_valuations(1, sums) == [1, 70, 0, 63]


def test_sum_valuations_match_nu_on_true_and_shifted_batches():
    for k in (1, 2, 7, 63, 64, 1000):
        sums = powersum_batch(k, 41)
        assert sum_valuations(k, sums) == [nu(s) for s in sums.values()], k
        shifted = {m: s << (60 + m) for m, s in sums.items()}
        assert sum_valuations(k, shifted) == [nu(s) for s in shifted.values()], k


@pytest.mark.parametrize("position", range(6))
def test_sum_valuations_name_the_m_of_a_zero_sum(position):
    # the entries before the zero include two that take the exact route
    sums = dict(zip(range(1, 12, 2), [3 * 2**64, 2**130, 12, 2**64 + 5, 7, 2**200]))
    m = 2 * position + 1
    sums[m] = 0
    with pytest.raises(ValueError, match=f"S_{m}\\(9\\) = 0 at m = {m} "):
        sum_valuations(9, sums)


def test_collapse_rejects_a_short_valuation_row():
    # a row one short would drop the top term from the replay unseen
    for ell, k, w in ((7, 7, 14), (8, 1, 16), (9, 2, 54)):
        g = nu(w)
        report = check_modular_collapse(ell, k, g, _row(k, ell))
        assert report == _reference_collapse(ell, k, g, powersum_batch(k, ell))
        # a longer row's tail is not read
        assert check_modular_collapse(ell, k, g, _row(k, ell + 4)) == report
        with pytest.raises(ValueError, match="power-sum valuations"):
            check_modular_collapse(ell, k, g, _row(k, ell - 2))


def _window_candidates(ell_range, k_max):
    for ell in ell_range:
        for k in range(1, k_max + 1):
            for w in integers_in_window(compute_bounds(ell, k)):
                yield ell, k, w


def test_collapse_holds_on_window_candidates():
    # every admissible window integer must witness the contradiction
    checked = 0
    for ell, k, w in _window_candidates(range(5, 41), 20):
        if filter_radical(k, w).failed:  # which every odd w does
            continue
        assert check_modular_collapse(ell, k, nu(w), _row(k, ell)).outcome == PASS, (ell, k, w)
        checked += 1
    assert checked >= 1  # the scan is not vacuous over this range


def test_center_valuation_failures_are_never_roots():
    for ell, k, w in _window_candidates(range(4, 41, 2), 20):
        if filter_radical(k, w).failed:
            continue
        if filter_g_ge_e_plus_1(ell, w).outcome == FAIL:
            assert eval_f(build_f(ell, k), w) != 0, (ell, k, w)


def _reference_collapse(ell, k, g, sums):
    """The replay with one nu2_binomial and one nu call per odd m."""
    even = ell % 2 == 0
    e = nu(ell)
    f = nu(k * (k + 1))
    s_exp = (2 * f - 1) + 2 * g + (e if even else 0)
    shift = 1 if even else 0
    top_m = ell - 1 if even else ell

    def term_val(m):
        return 1 + nu2_binomial(ell, m) + (ell - m - shift) * g + nu(sums[m])

    name = "modular_collapse"
    for m in range(3, top_m, 2):
        v = term_val(m)
        if v < s_exp:
            return FilterReport(
                name, FAIL, f"middle term m = {m} has nu_2 = {v} < nu_2(s) = {s_exp}"
            )
    m1_expected = e + (ell - 2) * g + f if even else (ell - 1) * g + f
    m1 = term_val(1)
    if m1 != m1_expected:
        return FilterReport(
            name, FAIL, f"m = 1 term has nu_2 = {m1}, expected exactly {m1_expected}"
        )
    if m1 < s_exp:
        return FilterReport(
            name, FAIL, f"m = 1 term has nu_2 = {m1} < nu_2(s) = {s_exp}, no collapse"
        )
    top_expected = (e if even else 0) + 2 * f - 1
    top = term_val(top_m)
    if top != top_expected:
        return FilterReport(
            name, FAIL, f"last term has nu_2 = {top}, expected exactly {top_expected}"
        )
    lhs = (ell - 1) * g if even else ell * g
    if lhs == top_expected:
        return FilterReport(
            name,
            FAIL,
            f"forced equality holds: nu_2(top power) = {lhs} = {top_expected}; no contradiction",
        )
    return FilterReport(
        name,
        PASS,
        f"contradiction witnessed: nu_2(top power) = {lhs} != {top_expected} "
        f"with e = {e}, f = {f}, g = {g}",
    )


def test_collapse_matches_reference_on_every_sweep_replay(monkeypatch):
    batches = {}
    real = decider.check_modular_collapse

    def compare(ell, k, g, valuations):
        # the shared row equals the valuations of a batch built afresh
        sums = batches[ell, k] = powersum_batch(k, ell)
        assert valuations == [nu(s) for s in sums.values()], (ell, k)
        return real(ell, k, g, valuations)

    monkeypatch.setattr(decider, "check_modular_collapse", compare)
    replays = []
    for cert in decider.sweep(3, 1000):
        for rec in cert.candidates:
            for ev in rec.per_candidate:
                reports = {r.name: r for r in ev.filters}
                # the radical filter is the replay's one gate: a candidate
                # carries a replay exactly when it is evaluated and passes it
                replayed = "modular_collapse" in reports
                gated = ev.f_sign is not None and reports["radical"].outcome == PASS
                assert replayed == gated, (cert.ell, rec.k, ev.w)
                if replayed:
                    # the report equals the reference replay at g = nu_2(w)
                    expected = _reference_collapse(cert.ell, rec.k, nu(ev.w), batches[cert.ell, rec.k])
                    assert reports["modular_collapse"] == expected, (cert.ell, rec.k, ev.w)
                    replays.append(expected.outcome)
    assert len(replays) == 1249
    assert set(replays) == {PASS}


def test_collapse_flags_an_odd_middle_power_sum():
    # k = 7, w = 14: f = nu_2(56) = 3 > g + 1 = 2, so an odd S_3 drops the
    # m = 3 term below nu_2(s); every true S_m has nu_2 = 2f - 2 = 4
    sums = powersum_batch(7, 7)
    assert check_modular_collapse(7, 7, nu(14), sum_valuations(7, sums)).outcome == PASS
    sums[3] = 1
    report = check_modular_collapse(7, 7, nu(14), sum_valuations(7, sums))
    assert report == FilterReport(
        "modular_collapse", FAIL, "middle term m = 3 has nu_2 = 5 < nu_2(s) = 7"
    )
    assert report == _reference_collapse(7, 7, nu(14), sums)


def _collapse_exit(report):
    """Which of the replay's six exits produced the report."""
    if report.outcome == PASS:
        return "pass"
    if report.detail.startswith("m = 1 term"):
        return "m1 below s" if report.detail.endswith("no collapse") else "m1 exact"
    return report.detail.split()[0]  # "middle", "last" or "forced"


def test_collapse_matches_reference_on_every_exit_at_both_parities():
    # true batches and batches with S_1, S_3 or the last sum corrupted drive
    # the replay through each of its exits, at odd and at even ell
    corruptions = [lambda s: 2 * s, lambda s: s + 1]
    seen = {0: set(), 1: set()}
    for ell in range(5, 17):
        for k in [*range(1, 17), 31, 32, 63, 64]:
            true_sums = powersum_batch(k, ell)
            variants = [true_sums]
            for m in (1, 3, max(true_sums)):
                for corrupt in corruptions:
                    variants.append({**true_sums, m: corrupt(true_sums[m])})
            rows = [sum_valuations(k, sums) for sums in variants]
            for row, sums in zip(rows, variants):
                assert row == [nu(s) for s in sums.values()], (ell, k, sums)
            # the g of w = r, 2r, ..., 8r, for r = rad(k(k+1)) squarefree and even
            r = rad(k * (k + 1))
            for g in sorted({nu(w) for w in range(r, 9 * r, r)}):
                for row, sums in zip(rows, variants):
                    report = check_modular_collapse(ell, k, g, row)
                    assert report == _reference_collapse(ell, k, g, sums), (ell, k, g, sums)
                    seen[ell % 2].add(_collapse_exit(report))
    every_exit = {"pass", "middle", "m1 exact", "m1 below s", "last", "forced"}
    assert seen == {0: every_exit, 1: every_exit}
