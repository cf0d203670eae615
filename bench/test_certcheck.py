"""The independent checker accepts real certificates and rejects each mutation.

Run with ``PYTHONPATH=src python3 -m pytest bench/test_certcheck.py``.
"""

import copy
import json

import pytest

import certcheck
from certcheck import CertificateError, check_certificate
from powerbalance import certificate_json, decide

FAST_ELLS = (3, 4, 8, 15, 16, 27, 40, 51, 64)
PARANOID_ELLS = (15, 27, 40)


def _cert(ell, mode="fast"):
    return json.loads(certificate_json(decide(ell, mode), include_timing=False))


@pytest.fixture(scope="module")
def certs():
    return [_cert(ell) for ell in FAST_ELLS] + [_cert(ell, "paranoid") for ell in PARANOID_ELLS]


def _find(certs, predicate):
    """First (certificate copy, k index, w index) whose candidate satisfies predicate."""
    for cert in certs:
        for i, rec in enumerate(cert["candidates"]):
            for j, entry in enumerate(rec["ws"]):
                if predicate(cert, entry):
                    return copy.deepcopy(cert), i, j
    raise AssertionError("no candidate with the wanted property")


def _outcome(entry, name):
    return entry["filters"].get(name, {}).get("outcome")


def test_accepts_real_certificates(certs):
    evaluated = integers = 0
    for cert in certs:
        summary = check_certificate(cert)
        assert summary["k"] == len(cert["candidates"])
        evaluated += summary["evaluated"]
        integers += summary["integers"]
    assert evaluated > 0 and integers > evaluated


def test_accepts_canonical_text_with_timing():
    check_certificate(certificate_json(decide(27)))


def test_k_cap_matches_the_sharp_bound():
    for ell in range(3, 200):
        k = certcheck.k_max(ell)
        cap = (ell - 1) ** 2 * (ell - 2) ** 2
        assert 12 * ell**2 * k * (k + 1) <= cap < 12 * ell**2 * (k + 1) * (k + 2)


def test_sign_matches_the_polynomial_route():
    cert = decide(27, "paranoid")
    for rec in cert.candidates:
        for ev in rec.per_candidate:
            assert certcheck.sign_lhs_minus_rhs(27, rec.k, ev.w) == ev.f_sign


def _rejects(cert, match):
    with pytest.raises(CertificateError, match=match):
        check_certificate(cert)


def test_rejects_unknown_schema(certs):
    cert = copy.deepcopy(certs[0])
    cert["schema"] = "2"
    _rejects(cert, "unknown certificate schema")


def test_rejects_text_that_is_not_json():
    with pytest.raises(CertificateError, match="not JSON"):
        check_certificate('{"schema": "1",')


def test_rejects_flipped_f_sign(certs):
    cert, i, j = _find(certs, lambda c, e: e["f_sign"] is not None)
    entry = cert["candidates"][i]["ws"][j]
    entry["f_sign"] = -entry["f_sign"]
    _rejects(cert, "f_sign")


def test_rejects_dropped_w(certs):
    cert, i, j = _find(certs, lambda c, e: True)
    del cert["candidates"][i]["ws"][j]
    _rejects(cert, "not the window integers")


def test_rejects_added_w(certs):
    cert, i, j = _find(certs, lambda c, e: True)
    ws = cert["candidates"][i]["ws"]
    extra = copy.deepcopy(ws[-1])
    extra["w"] = str(int(extra["w"]) + 1)
    ws.append(extra)
    _rejects(cert, "not the window integers")


def test_rejects_added_w_in_an_empty_window(certs):
    cert = copy.deepcopy(next(c for c in certs if c["ell"] == 8))
    rec = cert["candidates"][0]
    assert rec["ws"] == []
    rec["ws"].append({"w": "16", "filters": {}, "f_sign": 1, "status": "EXCLUDED_BY_EVALUATION"})
    _rejects(cert, "not the window integers")


def test_rejects_widened_window(certs):
    cert, i, _ = _find(certs, lambda c, e: True)
    lower = cert["candidates"][i]["window"][0]
    p, _, q = lower.partition("/")
    cert["candidates"][i]["window"][0] = f"{int(p) - 1}/{q}"
    _rejects(cert, "window lower")


def test_rejects_dropped_k_under_the_cap(certs):
    cert = copy.deepcopy(next(c for c in certs if len(c["candidates"]) >= 3))
    del cert["candidates"][1]
    _rejects(cert, "values of k listed")


def test_rejects_k_beyond_the_cap(certs):
    cert = copy.deepcopy(next(c for c in certs if c["candidates"]))
    extra = copy.deepcopy(cert["candidates"][-1])
    extra["k"] = str(len(cert["candidates"]) + 1)
    cert["candidates"].append(extra)
    _rejects(cert, "values of k listed")


@pytest.mark.parametrize("verdict", ["SOLUTIONS", "FAMILY"])
def test_rejects_changed_verdict(certs, verdict):
    cert = copy.deepcopy(certs[3])
    cert["verdict"] = verdict
    _rejects(cert, "no solutions")


def test_rejects_a_claimed_solution(certs):
    cert, i, j = _find(certs, lambda c, e: e["f_sign"] is not None)
    entry = cert["candidates"][i]["ws"][j]
    entry["f_sign"] = 0
    _rejects(cert, "f_sign 0")


@pytest.mark.parametrize("name", ["radical", "g_ge_e_plus_1", "3f_plus_3"])
def test_rejects_fail_whose_witness_does_not_hold(certs, name):
    cert, i, j = _find(certs, lambda c, e: _outcome(e, name) == "PASS" and e["f_sign"] is not None)
    entry = cert["candidates"][i]["ws"][j]
    entry["filters"][name]["outcome"] = "FAIL"
    if cert["mode"] == "fast":
        entry["f_sign"] = None
        entry["status"] = "EXCLUDED_BY_FILTER"
    _rejects(cert, "FAIL")


def test_rejects_w_plus_1_fail_with_a_false_witness(certs):
    cert, i, j = _find(certs, lambda c, e: _outcome(e, "w_plus_1_primes") == "FAIL")
    report = cert["candidates"][i]["ws"][j]["filters"]["w_plus_1_primes"]
    p = int(report["detail"].split()[1])
    report["detail"] = report["detail"].replace(f"prime {p} ", f"prime {p + 2} ", 1)
    _rejects(cert, "witness")


def test_rejects_w_plus_1_fail_whose_witness_is_1_mod_the_modulus():
    # ell = 114, k = 1: w + 1 = 238 = 2 * 7 * 17, and 17 = 1 (mod 4)
    cert = _cert(114)
    report = cert["candidates"][0]["ws"][0]["filters"]["w_plus_1_primes"]
    assert report["outcome"] == "FAIL" and report["detail"].startswith("prime 7 | w+1 = 238 ")
    report["detail"] = "prime 17 | w+1 = 238 has 17 % 4 = 1 != 1"
    _rejects(cert, "witness")


def test_rejects_unevaluated_candidate_without_a_fail(certs):
    cert, i, j = _find(certs, lambda c, e: c["mode"] == "fast" and e["f_sign"] is not None)
    entry = cert["candidates"][i]["ws"][j]
    entry["f_sign"] = None
    entry["status"] = "EXCLUDED_BY_FILTER"
    _rejects(cert, "no filter FAILed")


def test_rejects_paranoid_certificate_with_unevaluated_candidate(certs):
    cert, i, j = _find(certs, lambda c, e: c["mode"] == "paranoid")
    cert["candidates"][i]["ws"][j]["f_sign"] = None
    _rejects(cert, "paranoid")

