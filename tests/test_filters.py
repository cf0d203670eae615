"""The 2-adic candidate filters and the collapse replay."""

import tracemalloc
from functools import partial
from math import comb

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
)
from powerbalance.powersum import powersum_batch, powersum_closed


def test_radical_filter():
    assert filter_radical(1, 16).outcome == PASS  # rad(2) = 2 divides 16
    assert filter_radical(2, 9).outcome == FAIL  # rad(6) = 6 does not divide 9
    assert filter_radical(1, 2).outcome == PASS
    # rad(k) = 2 divides 4, but the prime 3 | k + 1 does not
    assert filter_radical(2, 4).outcome == FAIL


def test_radical_memo_is_rad_of_k_times_k_plus_1():
    for k in range(1, 1201):
        assert filters._radical(k) == rad(k * (k + 1)), k


def test_kummer_facts_behind_the_scalar_replay():
    # the replay builds no row over odd m because nu_2(C(ell, m)) is
    # e = nu_2(ell) at m = 1 and at top_m, and at least e at every odd m
    for ell in range(1, 400):
        e, top_m = nu(ell), ell - 1 + ell % 2
        row = [nu(comb(ell, m)) for m in range(1, top_m + 1, 2)]
        assert row[0] == row[-1] == e and min(row) == e, ell


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


def test_collapse_examples():
    for ell, k, w in ((8, 1, 16), (5, 1, 10), (9, 2, 54)):
        report = check_modular_collapse(ell, k, nu(w))
        assert report.outcome == PASS, (ell, k, w)
        assert report == _reference_collapse(ell, k, nu(w), powersum_batch(k, ell)), (ell, k, w)


def test_collapse_preconditions():
    with pytest.raises(ValueError, match="g = nu_2"):
        check_modular_collapse(8, 1, nu(15))  # odd w has g = 0
    with pytest.raises(ValueError, match="ell >= 5"):
        check_modular_collapse(4, 1, nu(16))  # ell too small


def _lemma_row(k, count):
    """MacMillan-Sondow's nu_2(S_m(k)) for the first count odd m: f - 1, then 2f - 2."""
    f = nu(k * (k + 1))
    return [f - 1] + [2 * f - 2] * (count - 1)


def _valuation_error(k, m):
    return f"power-sum batch failed 2-adic valuation: k={k}, m={m}$"


@pytest.mark.parametrize("m", [1, 3, 5, 7])
def test_collapse_rejects_a_zero_power_sum(m):
    # a zero sum has no 2-adic valuation; every batch is checked against the
    # lemma before any sign or replay of its k, and the check names the m
    sums = powersum_batch(7, 7)
    sums[m] = 0
    with pytest.raises(RuntimeError, match=_valuation_error(7, m)):
        decider._check_valuations(7, sums)


# The power-sum valuation tests below check decider._check_valuations, which
# holds every batch to MacMillan-Sondow before any sign or replay reads it.


def _faulhaber_batch(k, m_max=41):
    return {m: powersum_closed(k, m) for m in range(1, m_max + 1, 2)}


# k with nu_2(k(k+1)) = 34, 40 and 64: 2f - 2 lies past bit 64
_HUGE_KS = (2**34, 2**40 - 1, 2**64)


def test_sum_valuations_read_sums_past_the_low_word_exactly():
    # true batches whose valuations lie past the low 64-bit word pass, and
    # each sum is read at its own bit v, not at a word boundary
    for k in _HUGE_KS:
        sums = _faulhaber_batch(k)
        row = _lemma_row(k, len(sums))
        assert row[1] > 64 and [nu(s) for s in sums.values()] == row, k
        decider._check_valuations(k, sums)
        # a bit above v leaves nu_2 as it is; at v or just below, it moves
        for m, v in zip(sums, row):
            decider._check_valuations(k, {**sums, m: sums[m] + 2 ** (v + 1)})
            for moved in (sums[m] + 2**v, sums[m] + 2 ** (v - 1)):
                with pytest.raises(RuntimeError, match=_valuation_error(k, m)):
                    decider._check_valuations(k, {**sums, m: moved})


def test_sum_valuations_with_one_sum_past_the_low_word():
    # at f = 33, nu_2(S_1(k)) = 32 lies inside the low 64-bit word and every
    # other nu_2(S_m(k)) = 64 just past it; each is read exactly
    k = 2**33 - 1
    sums = _faulhaber_batch(k, 7)
    assert [nu(s) for s in sums.values()] == [32, 64, 64, 64]
    decider._check_valuations(k, sums)
    for m, s in sums.items():
        for bad in (s >> 1, s << 1, s + 2 ** nu(s)):
            with pytest.raises(RuntimeError, match=_valuation_error(k, m)):
                decider._check_valuations(k, {**sums, m: bad})


def test_sum_valuations_match_nu_on_true_and_shifted_batches():
    # a batch passes exactly when every nu_2(S_m(k)) is the lemma's value
    for k in (1, 2, 3, 7, 63, 64, 1000):
        sums = powersum_batch(k, 41)
        assert [nu(s) for s in sums.values()] == _lemma_row(k, len(sums)), k
        decider._check_valuations(k, sums)
        for m in sums:
            shifted = {**sums, m: sums[m] << (60 + m)}
            with pytest.raises(RuntimeError, match=_valuation_error(k, m)):
                decider._check_valuations(k, shifted)


@pytest.mark.parametrize("position", range(6))
def test_sum_valuations_name_the_m_of_a_zero_sum(position):
    # a zero, doubled or incremented sum is named by its m wherever it lies,
    # at f = 1 (every true sum odd), f = 3 (nu_2 = 2, then 4) and f = 40
    m = 2 * position + 1
    for k in (9, 7, 2**40 - 1):
        sums = _faulhaber_batch(k, 11)
        for bad in (0, 2 * sums[m], sums[m] + 1):
            with pytest.raises(RuntimeError, match=_valuation_error(k, m)):
                decider._check_valuations(k, {**sums, m: bad})


def _window_candidates(ell_range, k_max):
    for ell in ell_range:
        for k in range(1, k_max + 1):
            for w in integers_in_window(compute_bounds(ell, k)):
                yield ell, k, w


def test_collapse_holds_on_window_candidates():
    # every admissible window integer must witness the contradiction; from
    # ell = 75 on the range holds candidates with f = nu_2(k(k+1)) >= 2, such
    # as (75, 3, 906), and from 147 on ones with g = nu_2(w) >= 2 as well,
    # such as (147, 8, 10596) and (243, 4, 4880)
    kinds = set()
    for ell, k, w in _window_candidates(range(5, 251), 20):
        if filter_radical(k, w).failed:  # which every odd w does
            continue
        assert check_modular_collapse(ell, k, nu(w)).outcome == PASS, (ell, k, w)
        kinds.add((min(nu(k * (k + 1)), 2), min(nu(w), 2)))
    assert kinds == {(1, 1), (1, 2), (2, 1), (2, 2)}, kinds


def test_center_valuation_failures_are_never_roots():
    for ell, k, w in _window_candidates(range(4, 41, 2), 20):
        if filter_radical(k, w).failed:
            continue
        if filter_g_ge_e_plus_1(ell, w).outcome == FAIL:
            assert eval_f(build_f(ell, k), w) != 0, (ell, k, w)


def _reference_collapse(ell, k, g, sums):
    """The replay with one nu2_binomial and one nu call per odd m, on a batch's sums."""
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

    def compare(ell, k, g):
        batches[ell, k] = powersum_batch(k, ell)
        return real(ell, k, g)

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
                    # the report equals the reference replay at g = nu_2(w),
                    # on the valuations of a batch built afresh
                    expected = _reference_collapse(cert.ell, rec.k, nu(ev.w), batches[cert.ell, rec.k])
                    assert reports["modular_collapse"] == expected, (cert.ell, rec.k, ev.w)
                    replays.append(expected.outcome)
    assert len(replays) == 1249
    assert set(replays) == {PASS}


def test_an_odd_s3_is_rejected_before_any_replay(monkeypatch):
    # k = 7: every true S_m(7) has nu_2 = 2f - 2 = 4, so an odd S_3 is named
    sums = powersum_batch(7, 7)
    sums[3] = 1
    with pytest.raises(RuntimeError, match=_valuation_error(7, 3)):
        decider._check_valuations(7, sums)
    # decide(75) replays k = 1, 2, 3 and 8; S_3(k) is odd at k = 1, 2 and
    # even at k = 3, where the made-odd S_3 stops both modes before any sign
    # or replay of that k reads the batch
    real_batch = decider.powersum_batch
    real_sign, real_replay = decider.balance_sign, decider.check_modular_collapse
    reached = []

    def odd_s3(k, m_max, start=None):
        sums = real_batch(k, m_max, start=start)
        return {**sums, 3: sums[3] | 1}

    def sign(ell, k, w, sums):
        reached.append(k)
        return real_sign(ell, k, w, sums)

    def replay(ell, k, g):
        reached.append(k)
        return real_replay(ell, k, g)

    monkeypatch.setattr(decider, "powersum_batch", odd_s3)
    monkeypatch.setattr(decider, "balance_sign", sign)
    monkeypatch.setattr(decider, "check_modular_collapse", replay)
    for mode, failed in ((decider.FAST, "2-adic valuation"), (decider.PARANOID, "divisibility")):
        reached.clear()
        with pytest.raises(RuntimeError, match=f"failed {failed}: k=3, m=3$"):
            decider.decide(75, mode=mode)
        assert 3 not in reached and {1, 2} <= set(reached), mode


def _collapse_exit(report):
    """Which of the replay's three exits produced the report."""
    if report.outcome == PASS:
        return "pass"
    return "m1 below s" if report.detail.endswith("no collapse") else report.detail.split()[0]


def _radical_gs(k):
    """g = nu_2(w) of w = r, 2r, ..., 8r, for r = rad(k(k+1)) squarefree and even."""
    r = rad(k * (k + 1))
    return sorted({nu(w) for w in range(r, 9 * r, r)})


def test_collapse_matches_reference_on_every_exit_at_both_parities():
    # on true batches the replay reaches the pass, "m1 below s" and "forced"
    # exits at odd and at even ell, every report equal to the reference
    # replay on the batch's own valuations: at every k <= 300 for small ell,
    # at k <= 20 for ell where a row over odd m would be longest, and at
    # f = nu_2(k(k+1)) past 30 on Faulhaber's sums
    seen = {0: set(), 1: set()}
    for ells, k_max in ((range(5, 41), 300), ((999, 1000, 3001, 3002), 20)):
        for ell in ells:
            sums = None
            for k in range(1, k_max + 1):
                sums = powersum_batch(k, ell, start=None if sums is None else (k - 1, sums))
                for g in _radical_gs(k):
                    report = check_modular_collapse(ell, k, g)
                    assert report == _reference_collapse(ell, k, g, sums), (ell, k, g)
                    seen[ell % 2].add(_collapse_exit(report))
    for k in (2**31 - 1, *_HUGE_KS):
        sums = _faulhaber_batch(k)
        for ell in range(5, 42):
            for g in range(1, 9):
                report = check_modular_collapse(ell, k, g)
                assert report == _reference_collapse(ell, k, g, sums), (ell, k, g)
                seen[ell % 2].add(_collapse_exit(report))
    reachable = {"pass", "m1 below s", "forced"}
    assert seen == {0: reachable, 1: reachable}


def test_collapse_replay_memory_is_bounded_in_ell():
    # the replay is O(1) in ell: a row over the odd m <= 10^6 + 1 would hold
    # 500,001 entries, tens of MB
    tracemalloc.start()
    try:
        report = check_modular_collapse(10**6 + 1, 3, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.outcome == PASS
    assert peak < 4096, peak


def test_corrupted_batches_are_rejected_in_both_modes():
    # S_1, S_3 or the last sum doubled or incremented: fast mode's check
    # names the m, and so does paranoid mode's cross-check, which tests
    # divisibility by k(k+1)/2 first, so an incremented sum fails that at k > 1
    for ell in range(5, 17):
        for k in [*range(1, 17), 31, 32, 63, 64]:
            true_sums = powersum_batch(k, ell)
            for m in (1, 3, max(true_sums)):
                for bad, paranoid in ((2 * true_sums[m], "2-adic valuation"),
                                      (true_sums[m] + 1, "divisibility" if k > 1 else "2-adic valuation")):
                    sums = {**true_sums, m: bad}
                    with pytest.raises(RuntimeError, match=_valuation_error(k, m)):
                        decider._check_valuations(k, sums)
                    with pytest.raises(RuntimeError, match=f"failed {paranoid}: k={k}, m={m}$"):
                        decider._crosscheck_powersums(k, sums)


def test_collapse_report_depends_on_f_not_k():
    # the replay reads k only through f = nu_2(k(k+1)), so two k with equal f
    # give equal reports for every (ell, g)
    for ell in range(5, 41):
        for g in range(1, 6):
            by_f = {}
            for k in range(1, 130):
                report = check_modular_collapse(ell, k, g)
                assert by_f.setdefault(nu(k * (k + 1)), report) == report, (ell, g, k)
