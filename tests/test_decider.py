"""The per-exponent decision procedure and its certificates."""

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


def test_public_api():
    expected = [
        "BoundData", "Certificate", "FPolynomial", "FilterReport",
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


def test_fast_mode_never_builds_the_polynomial(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("fast mode must not build or evaluate f")

    batches = []
    real_batch = decider.powersum_batch

    def counted_batch(k, m_max, odd_only=False):
        batches.append(k)
        return real_batch(k, m_max, odd_only=odd_only)

    monkeypatch.setattr(decider, "build_f", forbidden)
    monkeypatch.setattr(decider, "eval_f", forbidden)
    monkeypatch.setattr(decider, "powersum_batch", counted_batch)
    for ell in (5, 27, 54, 75, 1000):
        batches.clear()
        cert = decide(ell, mode=FAST)
        assert cert.verdict == NO_SOLUTION
        replayed = [
            rec.k
            for rec in cert.candidates
            if any(r.name == "modular_collapse" for ev in rec.per_candidate for r in ev.filters)
        ]
        # one batch per k, and only for a k whose candidates need the replay
        assert batches == replayed, ell


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
