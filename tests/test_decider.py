"""The per-exponent decision procedure and its certificates."""

import hashlib
import json

import pytest

import powerbalance
from powerbalance import decider
from powerbalance.decider import (
    EXCLUDED_BY_EVALUATION,
    EXCLUDED_BY_FILTER,
    FAMILY,
    FAST,
    NO_SOLUTION,
    PARANOID,
    certificate_json,
    certificate_to_dict,
    decide,
    sweep,
)
from powerbalance.equation import verify_instance
from powerbalance.oracle import oracle_search
from powerbalance.powersum import powersum_direct


def test_decide_three_has_no_candidates():
    cert = decide(3)
    assert cert.verdict == NO_SOLUTION
    assert cert.candidates == ()


def test_decide_eight_has_one_empty_window():
    cert = decide(8)
    assert cert.verdict == NO_SOLUTION
    assert len(cert.candidates) == 1
    rec = cert.candidates[0]
    assert rec.k == 1 and rec.integer_candidates == ()


def test_decide_two_reports_family():
    cert = decide(2)
    assert cert.verdict == FAMILY
    assert cert.family["w"] == "2k(k+1)"
    assert cert.family["n"] == "k(2k+1)"
    for n, k in cert.family["samples"]:
        assert verify_instance(n, k, 2)


def test_decide_one_reports_family():
    cert = decide(1)
    assert cert.family["w"] == "k(k+1)" and cert.family["n"] == "k^2"
    for n, k in cert.family["samples"]:
        assert verify_instance(n, k, 1)


# certificate_json(decide(ell), include_timing=False) for ell = 1 and 2, pinned
# byte for byte: the samples come from equation.solution_family
FAMILY_CERTIFICATES = {
    1: '{"candidates":[],"ell":1,"family":{"n":"k^2","samples":[["1","1"],["4","2"],'
       '["9","3"],["16","4"],["25","5"]],"w":"k(k+1)"},"mode":"fast","schema":"1",'
       '"solutions":[],"verdict":"FAMILY"}',
    2: '{"candidates":[],"ell":2,"family":{"n":"k(2k+1)","samples":[["3","1"],["10","2"],'
       '["21","3"],["36","4"],["55","5"]],"w":"2k(k+1)"},"mode":"fast","schema":"1",'
       '"solutions":[],"verdict":"FAMILY"}',
}


@pytest.mark.parametrize("ell", [1, 2])
def test_family_certificate_bytes_are_unchanged(ell):
    assert certificate_json(decide(ell), include_timing=False) == FAMILY_CERTIFICATES[ell]


# SHA-256 of certificate_json(decide(ell, mode), include_timing=False), pinned
# from output that listed window integers under the (ell-3)/12 tightening: the
# plain ceil(lower)..floor(upper) listing must reproduce it byte for byte
CERTIFICATE_DIGESTS = {
    (8, FAST): "b0c158a479852bc47b87f84ed3e38cca5f27e5241d998850b3dd05342830ab44",
    (15, FAST): "28bdfaef8953421859a6d5a61b92eac008aa1a06066c05e1e593169cd6461041",
    (64, FAST): "2533b7439a52a863d89396fbc2993a78ec6a5968b2f55c014947706da58ebdb9",
    (999, FAST): "d082b19674ce041a168a27a7a3e678a6cbdd658e0d65a69b97e7ef8f5b7b967c",
    (27, PARANOID): "88320a64d6ba1c902442a00475b61da97496f0a783c7277bf9950b57d28fc84a",
}


@pytest.mark.parametrize("ell, mode", sorted(CERTIFICATE_DIGESTS))
def test_certificate_bytes_are_pinned(ell, mode):
    text = certificate_json(decide(ell, mode), include_timing=False)
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_DIGESTS[ell, mode]


def test_public_api():
    expected = [
        "Certificate", "FPolynomial", "FilterReport",
        "bernoulli_numbers", "build_f", "certificate_json", "check_appendix_identity",
        "check_carlitz_von_staudt", "check_macmillan_sondow", "check_modular_collapse",
        "check_sandwich", "compute_bounds", "corollary_K_bound", "count_positive_roots",
        "decide", "eval_f", "filter_3f_plus_3", "filter_g_ge_e_plus_1", "filter_radical",
        "filter_w_plus_1_primes", "integers_in_window", "nu", "odd_prime_factors",
        "oracle_search", "powersum_batch", "powersum_closed", "powersum_direct", "rad",
        "sign_changes", "solution_family", "sweep", "verify_instance", "weak_K_bound",
    ]
    assert sorted(powerbalance.__all__) == expected
    for name in expected:
        assert getattr(powerbalance, name) is not None, name


def test_decide_validation():
    with pytest.raises(ValueError):
        decide(0)
    with pytest.raises(ValueError):
        decide(5, mode="sloppy")


def test_decide_is_deterministic():
    for ell in (8, 27, 54, 123):
        first = certificate_json(decide(ell), include_timing=False)
        second = certificate_json(decide(ell), include_timing=False)
        assert first == second


def test_modes_agree_and_paranoid_evaluates_everything():
    for ell in range(3, 56):
        fast = decide(ell, mode=FAST)
        paranoid = decide(ell, mode=PARANOID)
        assert fast.verdict == paranoid.verdict == NO_SOLUTION
        for frec, prec in zip(fast.candidates, paranoid.candidates):
            assert frec.k == prec.k
            assert frec.integer_candidates == prec.integer_candidates
            for fev, pev in zip(frec.per_candidate, prec.per_candidate):
                assert pev.f_sign is not None
                assert pev.status == EXCLUDED_BY_EVALUATION
                if fev.status == EXCLUDED_BY_FILTER:
                    assert fev.f_sign is None
                    assert pev.f_sign != 0
                else:
                    assert fev.f_sign == pev.f_sign != 0


def test_statuses_support_the_verdict():
    cert = decide(27)  # has survivors that need exact evaluation
    evaluated = 0
    for rec in cert.candidates:
        for ev in rec.per_candidate:
            assert ev.status in (EXCLUDED_BY_FILTER, EXCLUDED_BY_EVALUATION)
            if ev.status == EXCLUDED_BY_EVALUATION:
                evaluated += 1
                assert ev.f_sign in (-1, 1)
    assert evaluated >= 1


def test_sweep_families_then_no_solutions():
    certs = list(sweep(1, 2))
    assert [c.verdict for c in certs] == [FAMILY, FAMILY]
    certs = list(sweep(3, 30))
    assert [c.ell for c in certs] == list(range(3, 31))
    assert all(c.verdict == NO_SOLUTION for c in certs)
    assert all(c.verdict == NO_SOLUTION for c in sweep(5, 5))


def test_sweep_validation():
    with pytest.raises(ValueError):
        list(sweep(5, 3))
    with pytest.raises(ValueError):
        list(sweep(0, 3))


def test_sweep_worker_count_does_not_change_output():
    serial = [certificate_json(c, include_timing=False) for c in sweep(3, 40)]
    parallel = [certificate_json(c, include_timing=False) for c in sweep(3, 40, workers=2)]
    assert serial == parallel


def _spy_on_batches(monkeypatch):
    """Record (k0, k, sums) for every batch decide computes; k0 = 0 is a rebuild."""
    calls = []
    real_batch = decider.powersum_batch

    def spy(k, m_max, start=None):
        sums = real_batch(k, m_max, start=start)
        calls.append((0 if start is None else start[0], k, sums))
        return sums

    monkeypatch.setattr(decider, "powersum_batch", spy)
    return calls


def _replayed_ks(cert):
    return [
        rec.k
        for rec in cert.candidates
        if any(r.name == "modular_collapse" for ev in rec.per_candidate for r in ev.filters)
    ]


def test_fast_mode_never_builds_the_polynomial(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("fast mode must not build or evaluate f")

    monkeypatch.setattr(decider, "build_f", forbidden)
    monkeypatch.setattr(decider, "eval_f", forbidden)
    calls = _spy_on_batches(monkeypatch)
    for ell in (5, 27, 54, 75, 1000):
        calls.clear()
        cert = decide(ell, mode=FAST)
        assert cert.verdict == NO_SOLUTION
        replayed = _replayed_ks(cert)
        # batch work only for a k whose candidates need the replay, once per
        # such k, in ascending order, each batch running on from the last
        assert [k for _, k, _ in calls] == replayed, ell
        assert [k0 for k0, _, _ in calls] == [0, *replayed][:-1], ell


@pytest.mark.parametrize(
    "ell, mode",
    [
        (27, PARANOID), (75, PARANOID), (255, PARANOID), (291, PARANOID),
        (1000, FAST),
        (363, FAST),  # replays k = 1..5, 8, 9, 15, 24, 80: the batch jumps gaps
    ],
)
def test_running_batch_equals_direct_sums(monkeypatch, ell, mode):
    calls = _spy_on_batches(monkeypatch)
    cert = decide(ell, mode=mode)
    if mode == FAST:
        used = _replayed_ks(cert)
    else:
        used = [rec.k for rec in cert.candidates if rec.integer_candidates]
    assert calls and [k for _, k, _ in calls] == used
    for _, k, sums in calls:
        assert sums == {m: powersum_direct(k, m) for m in range(1, ell + 1, 2)}, (ell, k)


def _corrupt_first_batch_past_one(monkeypatch, corrupt):
    """Make decide see one corrupted S_3(k) in its first batch with k >= 2."""
    real_batch = decider.powersum_batch

    def corrupted(k, m_max, start=None):
        sums = real_batch(k, m_max, start=start)
        if k >= 2:
            sums = dict(sums)
            sums[3] = corrupt(k, sums[3])
        return sums

    monkeypatch.setattr(decider, "powersum_batch", corrupted)


@pytest.mark.parametrize(
    "corrupt, message",
    [
        # k(k+1)/2 >= 3 no longer divides the sum
        (lambda k, s: s + 1, "failed divisibility"),
        # still divisible, but nu_2(2s) is one too high
        (lambda k, s: 2 * s, "failed 2-adic valuation"),
        # divisible, with the right valuation, and wrong: nu_2(K^2) = 2 nu_2(K)
        # lies above nu_2(s) = 2 nu_2(K) - 2
        (lambda k, s: s + (k * (k + 1)) ** 2, "disagrees with closed form"),
    ],
)
def test_paranoid_mode_crosschecks_every_batch(monkeypatch, corrupt, message):
    _corrupt_first_batch_past_one(monkeypatch, corrupt)
    assert decide(27, mode=FAST).verdict == NO_SOLUTION
    with pytest.raises(RuntimeError, match=message):
        decide(27, mode=PARANOID)


def test_paranoid_mode_rejects_disagreeing_sign_routes(monkeypatch):
    real_eval = decider.eval_f
    monkeypatch.setattr(decider, "eval_f", lambda poly, w: -real_eval(poly, w))
    with pytest.raises(RuntimeError, match="sign routes disagree"):
        decide(27, mode=PARANOID)


def test_pool_size_is_capped_by_cores_and_tasks(monkeypatch):
    monkeypatch.setattr(decider.os, "cpu_count", lambda: 4)
    assert decider._pool_size(5000, 998) == 4
    assert decider._pool_size(8, 3) == 3
    assert decider._pool_size(2, 998) == 2
    assert decider._pool_size(1, 998) == 1
    monkeypatch.setattr(decider.os, "cpu_count", lambda: None)
    assert decider._pool_size(5000, 998) == 1


def test_sweep_of_one_exponent_starts_no_pool(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a single exponent needs no worker process")

    monkeypatch.setattr(decider, "ProcessPoolExecutor", forbidden)
    assert [c.verdict for c in sweep(5, 5, workers=5000)] == [NO_SOLUTION]


def test_verdicts_match_brute_force():
    for ell in range(1, 7):
        found = oracle_search(ell, 60, 6)
        cert = decide(ell)
        if cert.verdict == NO_SOLUTION:
            assert found == []
        else:
            assert cert.verdict == FAMILY and found != []


def _walk(node, seen):
    if isinstance(node, dict):
        for v in node.values():
            _walk(v, seen)
    elif isinstance(node, list):
        for v in node:
            _walk(v, seen)
    else:
        seen.add(type(node))


def test_certificate_serialization_is_float_free():
    for ell in (2, 8, 27, 75):
        data = json.loads(certificate_json(decide(ell)))
        assert data["schema"] == "1"
        assert data["ell"] == ell
        types = set()
        _walk(data, types)
        assert float not in types
        for rec in data["candidates"]:
            assert isinstance(rec["k"], str)
            lo, hi = rec["window"]
            assert all(part.lstrip("-").isdigit() for part in lo.split("/"))
            assert all(part.lstrip("-").isdigit() for part in hi.split("/"))
            for ws in rec["ws"]:
                assert isinstance(ws["w"], str)
                assert set(ws["filters"]) <= {
                    "radical",
                    "g_ge_e_plus_1",
                    "3f_plus_3",
                    "w_plus_1_primes",
                    "modular_collapse",
                }


def test_certificate_timing_can_be_excluded():
    cert = decide(8)
    with_timing = certificate_to_dict(cert)
    without = certificate_to_dict(cert, include_timing=False)
    assert "elapsed_ms" in with_timing and "elapsed_ms" not in without
