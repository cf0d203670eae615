"""The per-exponent decision procedure and its certificates."""

import concurrent.futures
import hashlib
import json
import os
import pickle
import random
import subprocess
import sys
from concurrent.futures import Future
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

import powerbalance
from powerbalance import decider, equation, filters, powersum
from powerbalance.bounds import compute_bounds, k_max, largest_k, nonempty_K_bound
from powerbalance.decider import (
    EXCLUDED_BY_EVALUATION,
    EXCLUDED_BY_FILTER,
    FAMILY,
    FAST,
    NO_SOLUTION,
    PARANOID,
    SOLUTIONS,
    CandidateEvaluation,
    CandidateRecord,
    Certificate,
    certificate_json,
    decide,
    sweep,
)
from powerbalance.equation import verify_instance
from powerbalance.filters import FAIL, PASS, FilterReport
from powerbalance.oracle import oracle_search
from powerbalance.powersum import powersum_closed, powersum_direct


def test_decide_three_has_no_candidates():
    cert = decide(3)
    assert cert.verdict == NO_SOLUTION
    assert cert.candidates == ()


def test_decide_eight_has_one_empty_window():
    # the window of k = 1 lies under the sharp cap and holds no integer: it is
    # no record, but the text still lists it
    cert = decide(8)
    assert cert.verdict == NO_SOLUTION
    assert cert.candidates == ()
    data = json.loads(certificate_json(cert, include_timing=False))
    assert [(rec["k"], rec["ws"]) for rec in data["candidates"]] == [("1", [])]


def test_candidate_k_are_exactly_those_under_the_sharp_cap():
    # the text lists k = 1 to the largest k with 12 ell^2 k(k+1) <= A^2,
    # A = (ell-1)(ell-2); the records stop at k*, the largest k with
    # 6 ell^2 (r ell + 2) k(k+1) <= A^2, r = (ell-3) mod 12, and each holds
    # an integer
    ells = {3, 4, 5, 14, 15, 27, 2999, 3000, *random.Random(11).sample(range(3, 3001), 40)}
    for ell in sorted(ells):
        A2 = ((ell - 1) * (ell - 2)) ** 2
        cap = star = 0
        while 12 * ell**2 * (cap + 1) * (cap + 2) <= A2:
            cap += 1
        while 6 * ell**2 * ((ell - 3) % 12 * ell + 2) * (star + 1) * (star + 2) <= A2:
            star += 1
        cert = decide(ell)
        data = json.loads(certificate_json(cert, include_timing=False))
        assert [rec["k"] for rec in data["candidates"]] == [str(k) for k in range(1, cap + 1)], ell
        assert [rec.k for rec in cert.candidates] == list(range(1, star + 1)), ell
        assert all(rec.per_candidate for rec in cert.candidates), ell
        assert all(rec["ws"] == [] for rec in data["candidates"][star:]), ell


def test_no_window_past_the_cap_is_nonempty():
    # the records of decide hold integers and every window past them, up
    # to the weak cap, is empty, so the paranoid check passes
    for ell in [*range(3, 401), 999, 1000, 1503, 2999, 3000]:
        decider._check_nonempty_bound(ell, decide(ell).candidates)


def test_scan_beyond_the_cap_raises_on_a_nonempty_window():
    # records that stop one k short leave a nonempty window to the scan,
    # and an empty record fails the check below K*
    records = decide(27).candidates
    assert [rec.k for rec in records] == list(range(1, 7))
    with pytest.raises(RuntimeError, match="window k=6 holds .* beyond K"):
        decider._check_nonempty_bound(27, records[:-1])
    empty = CandidateRecord(7, ())
    with pytest.raises(RuntimeError, match="window k=7 holds no integer at ell=27, below K"):
        decider._check_nonempty_bound(27, (*records, empty))


@pytest.mark.parametrize("ell", [27, 64, 1000])  # k* = k_max = 6; k* = 2; k* = 12
@pytest.mark.parametrize("step", [1, -1])
def test_paranoid_mode_rejects_K_star_one_step_off(monkeypatch, ell, step):
    # K* moved to the next K = k(k+1) up or down shifts k* by one: paranoid
    # mode then meets an empty record or a nonempty window past the records
    k_star = largest_k(nonempty_K_bound(ell))
    off = k_star + step
    monkeypatch.setattr(decider, "nonempty_K_bound", lambda e: off * (off + 1))
    assert len(decide(ell, mode=FAST).candidates) == off
    message = "holds no integer" if step > 0 else "beyond K"
    with pytest.raises(RuntimeError, match=f"K-bound consistency violated: .*{message}"):
        decide(ell, mode=PARANOID)


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


# SHA-256 of the certificate texts of a sweep, timing excluded, joined with
# nothing: the paranoid 3..300 and fast large-ell benchmark workloads
STREAM_DIGESTS = {
    PARANOID: "565de24372a23d736c07d3a66215f751f1961dc0b5c2e3533b3afeb405fe92b9",
    FAST: "df0d107514a41d64a0f4c50b75945acde93bdfeab9ade6f33fa425724742db9b",
}


@pytest.mark.parametrize("mode", [PARANOID, FAST])
def test_certificate_streams_are_pinned(mode):
    certs = sweep(3, 300, mode=PARANOID) if mode == PARANOID else map(decide, LARGE_ELL_DRAW)
    text = "".join(certificate_json(c, include_timing=False) for c in certs)
    assert hashlib.sha256(text.encode()).hexdigest() == STREAM_DIGESTS[mode]


def test_public_api():
    expected = [
        "Certificate", "certificate_json", "decide", "solution_family", "sweep",
        "verify_instance",
    ]
    assert sorted(powerbalance.__all__) == expected
    for name in expected:
        assert getattr(powerbalance, name) is not None, name


def test_certificate_stores_only_what_decide_observed():
    stored = {cls.__name__: list(cls._fields)
              for cls in (Certificate, CandidateRecord, CandidateEvaluation, FilterReport)}
    assert stored == {
        "Certificate": ["ell", "candidates", "mode", "elapsed_ms"],
        "CandidateRecord": ["k", "per_candidate"],
        "CandidateEvaluation": ["w", "filters", "f_sign"],
        "FilterReport": ["name", "outcome", "detail"],
    }
    cert = decide(27)
    for rec in cert.candidates:
        assert rec.integer_candidates == tuple(decider.integers_in_window(compute_bounds(27, rec.k)))


def _one_record_of_each_type():
    """A certificate of decide(27) with one of its records, evaluations and filter reports."""
    cert = decide(27)
    rec = next(rec for rec in cert.candidates if rec.per_candidate)
    ev = rec.per_candidate[0]
    return cert, rec, ev, ev.filters[0]


def test_records_refuse_assignment():
    # a frozen dataclass raised FrozenInstanceError, a subclass of AttributeError
    records = _one_record_of_each_type()
    assert [type(r) for r in records] == [Certificate, CandidateRecord, CandidateEvaluation,
                                          FilterReport]
    for record in records:
        for field in type(record)._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.unstored = None


def test_records_have_no_instance_dict():
    for record in _one_record_of_each_type():
        assert not hasattr(record, "__dict__"), type(record).__name__


@pytest.mark.parametrize("ell, mode", [(120, FAST), (100, PARANOID)])
def test_certificates_survive_pickling(ell, mode):
    # the worker pool sends every certificate back to the parent by pickle
    cert = decide(ell, mode)
    assert any(rec.per_candidate for rec in cert.candidates)
    back = pickle.loads(pickle.dumps(cert))
    assert type(back) is Certificate
    assert back == cert
    assert type(back.candidates[0]) is CandidateRecord
    assert certificate_json(back) == certificate_json(cert)


def test_window_ends_render_as_reduced_fractions():
    # both ends of every window of ell 1..400, up to two k past the sharp
    # cap; ell = 1, 2 have integer ends, which render without "/1"
    rendered = 0
    for ell in range(1, 401):
        A2 = ((ell - 1) * (ell - 2)) ** 2
        k = 1
        while 12 * ell**2 * (k - 2) * (k - 1) <= A2:
            lower, upper, den = compute_bounds(ell, k)
            for end in (lower, upper):
                assert decider._ratio_str(end, den) == str(Fraction(end, den)), (ell, k, end)
                rendered += 1
            k += 1
    assert rendered > 40000


def test_fast_decide_builds_no_fraction_per_window(monkeypatch):
    # every window of decide(999) is an integer triple when decided and is
    # rendered from integer constants, and k* and the sharp cap are integer
    # bounds, so deciding and rendering build no
    # Fraction at all.  A cleared Faulhaber memo would build Bernoulli
    # Fractions if fast mode reached the closed form.
    powersum._faulhaber.cache_clear()
    built = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    text = certificate_json(decide(999), include_timing=False)
    assert not built, len(built)
    assert len(json.loads(text)["candidates"]) == 287


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
    # checked at the call, before anything is iterated
    with pytest.raises(ValueError):
        sweep(5, 3)
    with pytest.raises(ValueError):
        sweep(0, 3)


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
        raise AssertionError("decide must not build or evaluate f")

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
    # paranoid mode reads its second sign off the definition, not off f
    for ell in (5, 27, 54, 75, 255):
        assert decide(ell, mode=PARANOID).verdict == NO_SOLUTION


def test_paranoid_mode_checks_every_candidate_against_the_definition_once(monkeypatch):
    calls = []
    real = decider.interval_sign

    def spy(n, k, ell):
        calls.append((n, k, ell))
        return real(n, k, ell)

    monkeypatch.setattr(decider, "interval_sign", spy)
    for ell in (27, 75, 255):
        cert = decide(ell, mode=FAST)
        assert cert.verdict == NO_SOLUTION
        assert calls == [], ell
        cert = decide(ell, mode=PARANOID)
        expected = [(ev.w - rec.k, rec.k, ell) for rec in cert.candidates for ev in rec.per_candidate]
        assert expected and calls == expected, ell
        calls.clear()


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
    # paranoid batches hold the odd m up to the Faulhaber check's top, fast
    # ones the odd m up to the small batch's, none of which the sign outgrows
    top = decider._CLOSED_CHECK_M_MAX if mode == PARANOID else decider._FAST_BATCH_M_MAX
    m_max = min(ell, top)
    for _, k, sums in calls:
        assert list(sums) == list(range(1, m_max + 1, 2)), (ell, k)
        assert sums == {m: powersum_direct(k, m) for m in sums}, (ell, k)


def test_fast_batch_grows_on_demand_and_checks_what_it_grows(monkeypatch):
    # a small batch of S_1 alone makes every sign grow its k's batch to
    # every odd m <= ell; the certificates stay byte for byte the pinned ones
    monkeypatch.setattr(decider, "_FAST_BATCH_M_MAX", 1)
    checked = []
    real_check = decider._check_valuations

    def check(k, sums):
        real_check(k, sums)
        checked.append((k, len(sums)))

    monkeypatch.setattr(decider, "_check_valuations", check)
    calls = _spy_on_batches(monkeypatch)
    for ell in (64, 999):
        calls.clear()
        checked.clear()
        cert = decide(ell, mode=FAST)
        text = certificate_json(cert, include_timing=False)
        assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_DIGESTS[ell, FAST]
        replayed = _replayed_ks(cert)
        small = [(k0, k) for k0, k, sums in calls if len(sums) == 1]
        grown = [(k0, k, sums) for k0, k, sums in calls if len(sums) > 1]
        # the small batches run on from one another; each k grows once, afresh
        assert small == list(zip([0, *replayed], replayed)), ell
        assert [(k0, k) for k0, k, _ in grown] == [(0, k) for k in replayed], ell
        for _, k, sums in grown:
            assert sums == {m: powersum_direct(k, m) for m in range(1, ell + 1, 2)}, (ell, k)
        # every batch, small or grown, passed the valuation check once
        assert checked == [(k, len(sums)) for _, k, sums in calls], ell
    assert grown  # decide(64) evaluates no candidate, decide(999) several


def test_paranoid_batch_grows_on_demand_and_crosschecks_what_it_grows(monkeypatch):
    # a small batch of S_1 alone makes every sign grow its k's batch to
    # every odd m <= ell; the certificates stay byte for byte those of the
    # unpatched decision, which warms each k's Faulhaber row first, so the
    # grown batches are compared with full rows and no short row is memoized
    ells = (27, 255)
    expected = [certificate_json(decide(ell, mode=PARANOID), include_timing=False)
                for ell in ells]
    assert hashlib.sha256(expected[0].encode()).hexdigest() == CERTIFICATE_DIGESTS[27, PARANOID]
    monkeypatch.setattr(decider, "_CLOSED_CHECK_M_MAX", 1)
    crosschecked = []
    real_cross = decider._crosscheck_powersums

    def cross(k, sums):
        real_cross(k, sums)
        crosschecked.append((k, len(sums)))

    monkeypatch.setattr(decider, "_crosscheck_powersums", cross)
    calls = _spy_on_batches(monkeypatch)
    misses = decider._closed_row.cache_info().misses
    for ell, text in zip(ells, expected):
        calls.clear()
        crosschecked.clear()
        cert = decide(ell, mode=PARANOID)
        assert certificate_json(cert, include_timing=False) == text, ell
        used = [rec.k for rec in cert.candidates if rec.integer_candidates]
        small = [(k0, k) for k0, k, sums in calls if len(sums) == 1]
        grown = [(k0, k, sums) for k0, k, sums in calls if len(sums) > 1]
        # the small batches run on from one another; each k grows once, afresh
        assert small == list(zip([0, *used], used)), ell
        assert [(k0, k) for k0, k, _ in grown] == [(0, k) for k in used], ell
        for _, k, sums in grown:
            assert sums == {m: powersum_direct(k, m) for m in range(1, ell + 1, 2)}, (ell, k)
        # every batch, small or grown, passed _crosscheck_powersums once
        assert crosschecked == [(k, len(sums)) for _, k, sums in calls], ell
    assert grown
    assert decider._closed_row.cache_info().misses == misses


def _corrupt_grown_batches(monkeypatch, corrupt):
    """Make decide see S_3(k) as corrupt(k, S_3(k)) in every batch past S_1."""
    real_batch = powersum.powersum_batch

    def corrupted(k, m_max, start=None):
        sums = real_batch(k, m_max, start=start)
        if m_max > 1:
            sums[3] = corrupt(k, sums[3])
        return sums

    monkeypatch.setattr(decider, "powersum_batch", corrupted)


def test_a_corrupted_grown_batch_is_rejected_before_the_sign_reads_it(monkeypatch):
    monkeypatch.setattr(decider, "_FAST_BATCH_M_MAX", 1)
    _corrupt_grown_batches(monkeypatch, lambda k, s: 2 * s)
    # decide(75) first evaluates at k = 1, and every sign there reads S_3
    with pytest.raises(RuntimeError, match="failed 2-adic valuation: k=1, m=3$"):
        decide(75, mode=FAST)
    # paranoid decide(27) evaluates at k = 1 and 2.  k(k+1)/2 = 1 divides
    # anything, so the corruption starts at k = 2, where 3 does not divide
    # S_3 + 1: Carlitz-von Staudt rejects it before MacMillan-Sondow would
    monkeypatch.setattr(decider, "_CLOSED_CHECK_M_MAX", 1)
    _corrupt_grown_batches(monkeypatch, lambda k, s: s + (k >= 2))
    decider._closed_row.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="failed divisibility: k=2, m=3$"):
            decide(27, mode=PARANOID)
    finally:
        # rows built under the patched top hold S_1 alone
        decider._closed_row.cache_clear()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="VmHWM is Linux's")
def test_fast_decide_at_large_ell_keeps_a_small_peak_rss():
    # a fresh interpreter, so that the peak is this decision's alone.  Its
    # ru_maxrss would not do: Linux carries the peak of the image a process
    # was exec'ed from, here the test run's own, across execve.  VmHWM is
    # the peak of the current image.  With full batches of every odd
    # m <= ell this decision peaks at about 190 MiB; with the small batch at
    # about 24 MiB, most of it the interpreter
    env = {**os.environ, "PYTHONPATH": str(Path(powerbalance.__file__).resolve().parents[1])}
    code = ("import powerbalance\n"
            "assert powerbalance.decide(30003).verdict == 'NO_SOLUTION'\n"
            "print(next(line.split()[1] for line in open('/proc/self/status')\n"
            "           if line.startswith('VmHWM:')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 64 * 1024, f"peak RSS {int(proc.stdout) // 1024} MiB"


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
    # fast mode checks every batch's 2-adic valuations too: decide(149)
    # builds batches at k = 1 and 2 only, and only Faulhaber catches the
    # corruption that keeps the valuations
    if message == "disagrees with closed form":
        assert decide(149, mode=FAST).verdict == NO_SOLUTION
    else:
        with pytest.raises(RuntimeError, match="failed 2-adic valuation: k=2, m=3$"):
            decide(149, mode=FAST)
    with pytest.raises(RuntimeError, match=message):
        decide(27, mode=PARANOID)


def test_every_batch_is_checked_before_any_sign_reads_it(monkeypatch):
    # fast mode checks a batch with _check_valuations, paranoid mode with
    # _crosscheck_powersums, which runs _check_valuations too; either way
    # the object checked is the very object the sign then reads
    checked, crosschecked = [], []
    real_check, real_cross = decider._check_valuations, decider._crosscheck_powersums
    real_sign = decider.balance_sign

    def check(k, sums):
        checked.append((k, sums))
        return real_check(k, sums)

    def cross(k, sums):
        crosschecked.append((k, sums))
        return real_cross(k, sums)

    def sign(ell, k, w, sums):
        assert checked[-1][0] == k and checked[-1][1] is sums, (ell, k, w)
        if mode == PARANOID:
            assert crosschecked[-1][0] == k and crosschecked[-1][1] is sums, (ell, k, w)
        return real_sign(ell, k, w, sums)

    monkeypatch.setattr(decider, "_check_valuations", check)
    monkeypatch.setattr(decider, "_crosscheck_powersums", cross)
    monkeypatch.setattr(decider, "balance_sign", sign)
    calls = _spy_on_batches(monkeypatch)
    for mode in (FAST, PARANOID):
        checked.clear()
        crosschecked.clear()
        calls.clear()
        assert decide(75, mode=mode).verdict == NO_SOLUTION
        assert [k for k, _ in checked] == [k for _, k, _ in calls] != [], mode
        assert [k for k, _ in crosschecked] == ([k for k, _ in checked] if mode == PARANOID
                                                else []), mode


def test_fast_decide_never_reaches_faulhaber(monkeypatch):
    ells = (27, 54, 75, 363, 1000)
    expected = [certificate_json(decide(ell), include_timing=False) for ell in ells]

    def forbidden(m):
        raise AssertionError("fast mode must read power sums from the batch alone")

    monkeypatch.setattr(powersum, "_faulhaber", forbidden)
    for ell, text in zip(ells, expected):
        cert = decide(ell, mode=FAST)
        assert cert.verdict == NO_SOLUTION
        assert certificate_json(cert, include_timing=False) == text, ell
    # an earlier paranoid decision may have left k's Faulhaber row in the memo
    decider._closed_row.cache_clear()
    with pytest.raises(AssertionError, match="batch alone"):
        decide(27, mode=PARANOID)


def test_closed_row_is_faulhaber_at_every_checked_m():
    for k in range(1, 101):
        row = decider._closed_row(k)
        assert row == tuple(powersum_closed(k, m) for m in range(1, 42, 2)), k
        assert len(row) == decider._CLOSED_CHECK_M_MAX // 2 + 1


def test_warm_closed_row_memo_still_rejects_a_corrupted_batch(monkeypatch):
    # the memo holds Faulhaber values only, so a batch corrupted after the
    # rows were computed is compared with the true closed form
    assert decide(27, mode=PARANOID).verdict == NO_SOLUTION
    warm = decider._closed_row.cache_info()
    assert warm.currsize > 0
    _corrupt_first_batch_past_one(monkeypatch, lambda k, s: s + (k * (k + 1)) ** 2)
    with pytest.raises(RuntimeError, match="disagrees with closed form: k=2, m=3"):
        decide(27, mode=PARANOID)
    assert decider._closed_row.cache_info().hits > warm.hits


def test_per_k_memos_are_bounded():
    maxsize = decider._closed_row.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1024
    # the radical memo keeps every k under the sharp cap up to ell = 10^4,
    # so an ascending sweep that far factors each k(k+1) once
    maxsize = filters._radical.cache_info().maxsize
    assert maxsize is not None and k_max(10**4) <= maxsize <= 4096


def test_paranoid_signs_read_only_faulhaber_checked_sums(monkeypatch):
    # _crosscheck_powersums compares S_m(k) with Faulhaber for m up to
    # _CLOSED_CHECK_M_MAX before any sign of k reads the batch, so every sum
    # the series sign reads has been checked by that second route
    seen = set()
    real = decider.balance_sign

    class Recording(dict):
        def __getitem__(self, m):
            seen.add(m)
            return super().__getitem__(m)

    monkeypatch.setattr(decider, "balance_sign",
                        lambda ell, k, w, sums: real(ell, k, w, Recording(sums)))
    for cert in sweep(3, 300, mode=PARANOID):
        assert cert.verdict == NO_SOLUTION
    assert 1 in seen
    assert max(seen) <= decider._CLOSED_CHECK_M_MAX, sorted(seen)


def test_paranoid_batches_at_large_ell_hold_only_faulhaber_checked_sums(monkeypatch):
    # at ell = 1503 a full batch would hold 752 sums; the paranoid batch
    # holds the 21 odd m <= _CLOSED_CHECK_M_MAX, never grows, and every sum a
    # sign reads was compared with Faulhaber (after Carlitz-von Staudt and
    # MacMillan-Sondow) in the batch the sign reads
    faulhaber_checked = {}
    reads = []
    real_cross, real_sign = decider._crosscheck_powersums, decider.balance_sign

    def cross(k, sums):
        real_cross(k, sums)
        faulhaber_checked[k] = (sums, set(islice(sums, len(decider._closed_row(k)))))

    class Reads:
        def __init__(self, k, sums):
            self.k, self.sums = k, sums

        def __getitem__(self, m):
            reads.append((self.k, m))
            return self.sums[m]

    def sign(ell, k, w, sums):
        assert faulhaber_checked[k][0] is sums, (ell, k, w)
        return real_sign(ell, k, w, Reads(k, sums))

    monkeypatch.setattr(decider, "_crosscheck_powersums", cross)
    monkeypatch.setattr(decider, "balance_sign", sign)
    calls = _spy_on_batches(monkeypatch)
    assert decide(1503, mode=PARANOID).verdict == NO_SOLUTION
    assert calls and max(len(sums) for _, _, sums in calls) == 21
    assert [k for _, k, _ in calls] == list(faulhaber_checked)
    assert reads and all(m in faulhaber_checked[k][1] for k, m in reads), sorted(set(reads))


def test_paranoid_mode_rejects_disagreeing_sign_routes(monkeypatch):
    real = decider.interval_sign
    monkeypatch.setattr(decider, "interval_sign", lambda n, k, ell: -real(n, k, ell))
    assert decide(27, mode=FAST).verdict == NO_SOLUTION
    with pytest.raises(RuntimeError, match="sign routes disagree: ell=27, k=1, w=56"):
        decide(27, mode=PARANOID)


def test_decide_never_sums_the_powers_exactly(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the decision path must not sum ell-th powers exactly")

    assert not hasattr(decider, "balance_difference")
    monkeypatch.setattr(equation, "balance_difference", forbidden)
    for mode in (FAST, PARANOID):
        assert decide(75, mode=mode).verdict == NO_SOLUTION


def test_paranoid_mode_rejects_a_definition_sign_wrong_at_one_candidate(monkeypatch):
    # ell = 255 has 73 window integers; the definition route is made to
    # disagree at the last of them only, a filter-excluded one, so the check
    # must run at every candidate, excluded or not, and name the one it failed
    cert = decide(255, mode=FAST)
    last = cert.candidates[-1]
    k, w = last.k, last.per_candidate[-1].w
    assert last.per_candidate[-1].f_sign is None
    real = decider.interval_sign

    def wrong_once(n, kk, ell):
        sign = real(n, kk, ell)
        return 0 if (kk, n + kk) == (k, w) else sign

    monkeypatch.setattr(decider, "interval_sign", wrong_once)
    assert decide(255, mode=FAST).verdict == NO_SOLUTION
    with pytest.raises(RuntimeError, match=f"sign routes disagree: ell=255, k={k}, w={w}: "
                                           f"the series gives -?1, the definition gives 0"):
        decide(255, mode=PARANOID)


def _zero_balance_at(monkeypatch, k, w):
    """Make the series sign report a root at (k, w) and nowhere else."""
    real = decider.balance_sign

    def patched(ell, kk, ww, sums):
        return 0 if (kk, ww) == (k, w) else real(ell, kk, ww, sums)

    monkeypatch.setattr(decider, "balance_sign", patched)


def test_a_zero_sign_at_a_survivor_is_a_solution(monkeypatch):
    # (k, w) = (1, 56) is the only candidate of ell = 27 that every filter passes
    _zero_balance_at(monkeypatch, 1, 56)
    cert = decide(27, mode=FAST)
    assert cert.verdict == SOLUTIONS
    assert cert.solutions == ((55, 1),)
    data = json.loads(certificate_json(cert, include_timing=False))
    assert data["verdict"] == SOLUTIONS
    assert data["solutions"] == [["55", "1"]]
    [ws] = data["candidates"][0]["ws"]
    assert ws["w"] == "56" and ws["f_sign"] == 0 and ws["status"] == "SOLUTION"


def test_paranoid_mode_rejects_a_root_the_filters_excluded(monkeypatch):
    # the radical filter excludes (k, w) = (2, 164) at ell = 27
    _zero_balance_at(monkeypatch, 2, 164)
    assert decide(27, mode=FAST).verdict == NO_SOLUTION
    with pytest.raises(RuntimeError, match="filter soundness violated"):
        decide(27, mode=PARANOID)


def test_settle_sign_rejects_a_root_with_nonpositive_n(monkeypatch):
    monkeypatch.setattr(decider, "balance_sign", lambda ell, k, w, sums: 0)
    for k, w in ((3, 3), (3, 2)):
        with pytest.raises(RuntimeError, match="root with nonpositive n"):
            decider._settle_sign(27, k, w, excluded=False, sums={}, mode=FAST)
        # before the definition route, which would reject n <= 0 itself
        with pytest.raises(RuntimeError, match="root with nonpositive n"):
            decider._settle_sign(27, k, w, excluded=False, sums={}, mode=PARANOID)


def test_pool_size_is_capped_by_cores_and_tasks(monkeypatch):
    # where the platform has no CPU affinity, every CPU counts
    monkeypatch.delattr(decider.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(decider.os, "cpu_count", lambda: 4)
    assert decider._pool_size(5000, 998) == 4
    assert decider._pool_size(8, 3) == 3
    assert decider._pool_size(2, 998) == 2
    assert decider._pool_size(1, 998) == 1
    monkeypatch.setattr(decider.os, "cpu_count", lambda: None)
    assert decider._pool_size(5000, 998) == 1


def test_pool_size_counts_only_the_cpus_this_process_may_use(monkeypatch):
    # under taskset or a cpuset the affinity mask, not the host, sets the cap
    monkeypatch.setattr(decider.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(decider.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert decider._pool_size(64, 998) == 1
    monkeypatch.setattr(decider.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert decider._pool_size(64, 998) == 3
    assert decider._pool_size(2, 998) == 2


def test_sweep_of_one_exponent_starts_no_pool(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a single exponent needs no worker process")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    assert [c.verdict for c in sweep(5, 5, workers=5000)] == [NO_SOLUTION]


def test_deciding_in_process_never_loads_the_pool_machinery():
    # a fresh interpreter, since this one may have run a parallel sweep already
    env = {**os.environ, "PYTHONPATH": str(Path(powerbalance.__file__).resolve().parents[1])}
    code = ("import sys, powerbalance\n"
            "assert powerbalance.decide(5).verdict == 'NO_SOLUTION'\n"
            "print('concurrent.futures.process' in sys.modules, 'dataclasses' in sys.modules,\n"
            "      'json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False False\n"


class _SpyPool:
    """A stand-in for ProcessPoolExecutor that runs each task at submit and
    records the most futures ever submitted and not yet read."""

    made = []

    def __init__(self, max_workers):
        self.workers, self.submitted, self.unread, self.most = max_workers, 0, set(), 0
        self.cancel_futures = None
        self.made.append(self)

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        self.submitted += 1
        self.unread.add(future)
        self.most = max(self.most, len(self.unread))
        read = future.result

        def result(timeout=None):
            self.unread.discard(future)
            return read(timeout)

        future.result = result
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        self.cancel_futures = cancel_futures


def test_parallel_sweep_keeps_a_bounded_window_of_tasks_in_flight(monkeypatch):
    monkeypatch.setattr(_SpyPool, "made", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SpyPool)
    monkeypatch.setattr(decider, "_pool_size", lambda workers, tasks: min(workers, tasks))
    window = decider._TASKS_AHEAD_PER_WORKER * 3
    certs = list(sweep(3, 80, workers=3))
    [pool] = _SpyPool.made
    assert [c.ell for c in certs] == list(range(3, 81))
    assert pool.workers == 3 and pool.submitted == 78
    assert pool.most == window < 78 and not pool.unread
    assert pool.cancel_futures is True
    # a stream closed early has submitted only the window beyond what it yielded
    stream = sweep(3, 80, workers=3)
    assert [next(stream).ell for _ in range(5)] == [3, 4, 5, 6, 7]
    stream.close()
    pool = _SpyPool.made[1]
    assert pool.submitted == 5 + window and pool.most == window
    assert pool.cancel_futures is True


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_rejects_an_unknown_mode_at_the_call(monkeypatch, workers):
    def forbidden(*args, **kwargs):
        raise AssertionError("an invalid mode must be rejected before any pool starts")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", forbidden)
    with pytest.raises(ValueError, match="mode must be"):
        sweep(3, 5, mode="quick", workers=workers)


@pytest.mark.parametrize("workers", [0, -1])
def test_sweep_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        sweep(3, 9, workers=workers)


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
    with_timing = json.loads(certificate_json(cert))
    without = json.loads(certificate_json(cert, include_timing=False))
    assert "elapsed_ms" in with_timing and "elapsed_ms" not in without


def _empty_windows(ell):
    """Every window up to the sharp cap, from the definitions of a and b, with an empty "ws"."""
    a = Fraction((ell - 1) * (ell - 2), 12 * ell)
    b = 2 * a * a / ell
    k = 1
    while k * (k + 1) <= 12 * a * a:  # 12 a^2 = A^2 / (12 ell^2), the sharp cap
        K = k * (k + 1)
        yield {"k": str(k), "window": [str(ell * K + a - b / K), str(ell * K + a)], "ws": []}
        k += 1


def _record_tree(ell, rec):
    """One record as a tree, its window the reduced ends of compute_bounds(ell, rec.k)."""
    lower, upper, den = compute_bounds(ell, rec.k)
    return {
        "k": str(rec.k),
        "window": [str(Fraction(lower, den)), str(Fraction(upper, den))],
        "ws": [
            {
                "w": str(ev.w),
                "filters": {
                    r.name: {"outcome": r.outcome, "detail": r.detail}
                    for r in ev.filters
                },
                "f_sign": ev.f_sign,
                "status": ev.status,
            }
            for ev in rec.per_candidate
        ],
    }


def _reference_tree(cert, include_timing):
    """The certificate as a tree of dicts, lists and strings, built field by field:
    certificate_json must render it as json.dumps does.  Every window up to
    the sharp cap is listed: a record's under its own k, each other one empty."""
    records = {rec.k: _record_tree(cert.ell, rec) for rec in cert.candidates}
    candidates = [records.pop(int(window["k"]), window) for window in _empty_windows(cert.ell)]
    assert not records, (cert.ell, sorted(records))
    out = {
        "schema": "1",
        "ell": cert.ell,
        "mode": cert.mode,
        "verdict": cert.verdict,
        "solutions": [[str(n), str(k)] for n, k in cert.solutions],
        "candidates": candidates,
    }
    family = cert.family
    if family is not None:
        out["family"] = {**family, "samples": [[str(n), str(k)] for n, k in family["samples"]]}
    if include_timing:
        out["elapsed_ms"] = cert.elapsed_ms
    return out


def _assert_renders_as_the_reference(cert):
    for timing in (True, False):
        tree = _reference_tree(cert, timing)
        expected = json.dumps(tree, sort_keys=True, separators=(",", ":"))
        assert certificate_json(cert, timing) == expected, (cert.ell, timing)
        assert json.loads(certificate_json(cert, timing)) == tree, (cert.ell, timing)
    # a dict keeps one entry per name, the text one per report
    for rec in cert.candidates:
        for ev in rec.per_candidate:
            names = [r.name for r in ev.filters]
            assert len(set(names)) == len(names), (cert.ell, rec.k, ev.w)


# the large-ell benchmark workload's fixed draw, one exponent of each residue
# mod 12 from 1001..3000
LARGE_ELL_DRAW = (1074, 1107, 1209, 1229, 1475, 1609, 1874, 2083, 2176, 2218, 2372, 2664)


def test_certificate_json_renders_the_reference_tree():
    certs = [*sweep(1, 400), *sweep(3, 120, mode=PARANOID), *map(decide, LARGE_ELL_DRAW)]
    for cert in certs:
        _assert_renders_as_the_reference(cert)
    assert sum(len(ev.filters) for c in certs for rec in c.candidates for ev in rec.per_candidate) > 10000


def test_empty_windows_render_as_their_fractions():
    # every window of ell 3..400 under the sharp cap, those of k = 1..k*
    # and the empty ones past k*, rendered from per-ell constants: both
    # ends must read as the reduced fractions of the definitions of a and b
    rendered = empty = 0
    for ell in range(3, 401):
        texts = decider._windows_json(ell, ())
        expected = [json.dumps(tree, sort_keys=True, separators=(",", ":"))
                    for tree in _empty_windows(ell)]
        assert texts == expected, ell
        rendered += len(texts)
        empty += len(texts) - largest_k(nonempty_K_bound(ell))
    assert rendered > 20000 and empty > 15000, (rendered, empty)


def test_certificate_json_escapes_strings_as_json_dumps_does():
    odd = 'a "quoted" \\ back\nslash, \u00e9 \u2211 \x00'
    evaluations = (
        CandidateEvaluation(12, (FilterReport("radical", FAIL, odd),
                                 FilterReport("3f_plus_3", PASS, "plain")), None),
        CandidateEvaluation(14, (FilterReport('na"me \u00e9', PASS, odd),), 0),
        CandidateEvaluation(16, (), -1),
    )
    # ell = 27 has windows up to k = 6, so both records are rendered
    cert = Certificate(27, (CandidateRecord(2, evaluations), CandidateRecord(3, ())), FAST, 12)
    assert cert.verdict == SOLUTIONS
    _assert_renders_as_the_reference(cert)
    text = certificate_json(cert)
    assert text.isascii() and "\n" not in text
    ws = json.loads(text)["candidates"][1]["ws"]
    assert ws[0]["filters"]["radical"]["detail"] == odd
    assert ws[1]["filters"]['na"me \u00e9']["detail"] == odd


def test_certificate_json_rejects_a_record_without_a_window():
    # a record is written under the window of its own k, so one past the
    # sharp cap, or any at ell = 7, which has no window, cannot be written
    rec = decide(27).candidates[0]
    for ell, k in ((27, 7), (7, 1)):
        cert = Certificate(ell, (rec._replace(k=k),), FAST, 0)
        with pytest.raises(ValueError, match=rf"ell={ell}: records of k=\[{k}\] have no window"):
            certificate_json(cert)
