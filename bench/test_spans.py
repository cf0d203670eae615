"""The span tracer restores the program, and its self times add up.

Run with ``PYTHONPATH=src python3 -m pytest bench/test_spans.py``.
"""

import json

import powerbalance.decider as decider
import powerbalance.filters as filters
from powerbalance import certificate_json, decide
from spans import CALL_SITES, Tracer, measure_span_cost, take_out_span_cost, traced


def test_traced_restores_every_call_site():
    originals = {name: getattr(decider, name) for name in CALL_SITES["decider"]}
    with traced(Tracer()):
        assert decider.compute_bounds is not originals["compute_bounds"]
        assert filters.nu.__wrapped__ is not None
    assert {name: getattr(decider, name) for name in CALL_SITES["decider"]} == originals
    assert not hasattr(filters.nu, "__wrapped__")


def test_traced_decide_counts_windows_and_candidates():
    tracer = Tracer()
    with traced(tracer):
        cert = tracer.span("root", lambda: decider.decide(40))
    totals = tracer.fold()
    assert totals["root"][0] == 1
    assert totals["decider.decide"][0] == 1
    assert totals["bounds.compute_bounds"][0] == len(cert.candidates)
    assert tracer.windows == len(cert.candidates)
    assert tracer.integer_candidates == sum(len(r.integer_candidates) for r in cert.candidates)


def test_fold_subtracts_children_exactly():
    tracer = Tracer()
    tracer._name.extend([tracer._id("a"), tracer._id("b"), tracer._id("b")])
    tracer._parent.extend([-1, 0, 0])
    tracer._start.extend([0, 10, 50])
    tracer._end.extend([100, 30, 60])
    totals = tracer.fold()
    assert totals == {"a": (1, 70, 2), "b": (2, 30, 0)}
    assert tracer.spans_total == 3
    assert take_out_span_cost(totals, caller_ns=2, own_ns=1) == {
        "a": (1, 70 - 2 * 2 - 1),
        "b": (2, 30 - 2 * 1),
        "trace.cost": (3, 2 * 2 + 3 * 1),
    }


def test_certificate_counts_match_the_certificate():
    tracer = Tracer()
    cert = decide(64)
    tracer.count_certificate(cert)
    entries = [e for rec in json.loads(certificate_json(cert))["candidates"] for e in rec["ws"]]
    assert tracer.counts["evaluations"] == sum(e["f_sign"] is not None for e in entries)
    assert tracer.counts["g_fail"] == sum(
        e["filters"]["g_ge_e_plus_1"]["outcome"] == "FAIL" for e in entries)
    assert tracer.counts["g_fail"] > 0


def test_span_cost_is_measured():
    caller_ns, own_ns = measure_span_cost(calls=2_000, repeats=3)
    assert caller_ns > 0 and own_ns > 0
