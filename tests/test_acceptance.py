"""Acceptance suite: one test per criterion, each printing a PASS line.

The two full-range sweeps (exponents 3..1000, fast and paranoid) dominate
the runtime; they are computed once in module-scoped fixtures and shared.
README.md states how long they and the whole suite take.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import random
import time
from fractions import Fraction

import pytest

from powerbalance.arith import nu
from powerbalance.bounds import check_appendix_identity, check_sandwich
from powerbalance.decider import (
    EXCLUDED_BY_EVALUATION,
    FAMILY,
    NO_SOLUTION,
    PARANOID,
    certificate_json,
    decide,
    sweep,
)
from powerbalance.equation import (
    build_f,
    sign_changes,
    solution_family,
    verify_instance,
)
from powerbalance.oracle import count_positive_roots, has_simple_roots, oracle_search
from powerbalance.powersum import (
    check_carlitz_von_staudt,
    check_macmillan_sondow,
    powersum_batch,
)

SWEEP_MIN, SWEEP_MAX = 3, 1000
SWEEP_TIME_BUDGET_SECONDS = 600


def report(criterion: int, text: str) -> None:
    print(f"CRITERION {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def fast_sweep():
    t0 = time.perf_counter()
    certs = list(sweep(SWEEP_MIN, SWEEP_MAX, workers=1))
    return certs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def paranoid_sweep():
    return list(sweep(SWEEP_MIN, SWEEP_MAX, mode=PARANOID, workers=1))


def test_criterion_1_no_solutions_at_desk_scale(fast_sweep):
    certs, elapsed = fast_sweep
    assert [c.ell for c in certs] == list(range(SWEEP_MIN, SWEEP_MAX + 1))
    assert all(c.verdict == NO_SOLUTION for c in certs)
    assert all(c.solutions == () for c in certs)
    assert elapsed < SWEEP_TIME_BUDGET_SECONDS
    report(
        1,
        f"sweep {SWEEP_MIN}..{SWEEP_MAX} all NO_SOLUTION, "
        f"{elapsed:.1f}s single-threaded (budget {SWEEP_TIME_BUDGET_SECONDS}s)",
    )


def test_criterion_2_solution_families():
    assert decide(1).verdict == FAMILY and decide(2).verdict == FAMILY
    for k in range(1, 101):
        n, w = solution_family(1, k)
        assert w == k * (k + 1) and n == k * k
        assert verify_instance(n, k, 1)
        n, w = solution_family(2, k)
        assert w == 2 * k * (k + 1) and n == k * (2 * k + 1)
        assert verify_instance(n, k, 2)
    report(2, "families for ell=1,2 verified exactly for all k <= 100")


def test_criterion_3_small_exponent_search():
    assert oracle_search(3, 200, 200) == []
    assert oracle_search(4, 200, 200) == []
    squares = [(k * k, k) for k in range(1, 201) if k * k <= 200]
    assert oracle_search(1, 200, 200) == squares
    rectangles = sorted(
        (k * (2 * k + 1), k) for k in range(1, 201) if k * (2 * k + 1) <= 200
    )
    assert oracle_search(2, 200, 200) == rectangles
    report(3, "n,k <= 200 box: empty for ell=3,4; exactly the families for ell=1,2")


def _power_sum_identity_scan():
    """Yield (k, f, m, S_m(k)) for k <= 500 and odd m <= 39."""
    for k in range(1, 501):
        sums = powersum_batch(k, 39)
        f = nu(k * (k + 1))
        for m, s in sums.items():
            yield k, f, m, s


def test_criterion_4_power_sum_valuations():
    checked = 0
    for k, f, m, s in _power_sum_identity_scan():
        if m >= 3:
            assert nu(2 * s) == 2 * f - 1, (k, m)
            checked += 1
    # the dedicated checker computes its sums independently; sample it
    rng = random.Random(108)
    for _ in range(50):
        assert check_macmillan_sondow(rng.randint(1, 500), rng.randrange(3, 40, 2))
    report(4, f"nu_2(2 S_m(k)) = 2f-1 at all {checked} points (k <= 500, odd m in [3,39])")


def test_criterion_5_power_sum_divisibility():
    checked = 0
    for k, _, m, s in _power_sum_identity_scan():
        assert s % (k * (k + 1) // 2) == 0, (k, m)
        checked += 1
    rng = random.Random(109)
    for _ in range(50):
        assert check_carlitz_von_staudt(rng.randint(1, 500), rng.randrange(1, 40, 2))
    report(5, f"k(k+1)/2 divides S_m(k) at all {checked} points (k <= 500, odd m in [1,39])")


def test_criterion_6_single_positive_root():
    for ell in range(1, 21):
        for k in range(1, 21):
            poly = build_f(ell, k)
            assert sign_changes(poly) == 1, (ell, k)
            assert count_positive_roots(poly) == 1, (ell, k)
            assert has_simple_roots(poly), (ell, k)
    report(6, "sign_changes = 1 and exactly one simple positive root for all ell,k <= 20")


def test_criterion_7_window_traps_root():
    for ell in range(3, 61):
        for k in range(1, 41):
            assert check_sandwich(ell, k), (ell, k)
    for ell in range(3, 8):
        assert decide(ell).candidates == ()
    report(7, "root inside the exact window for ell in [3,60], k in [1,40]; "
              "no candidate k at all for ell in [3,7]")


def test_criterion_8_inequality_chain():
    points = [(Fraction(3), Fraction(2)), (Fraction(8), Fraction(2))]
    rng = random.Random(110)
    for _ in range(500):
        den = rng.randint(1, 1000)
        ell = Fraction(rng.randint(2 * den + 1, 100 * den), den)
        den = rng.randint(1, 1000)
        K = Fraction(rng.randint(2 * den, 10**4 * den), den)
        points.append((ell, K))
    for ell, K in points:
        assert check_appendix_identity(ell, K), (ell, K)
    report(8, f"all {len(points)} exact-rational points agree on every chain line")


def test_criterion_9_filters_never_exclude_a_root(paranoid_sweep):
    candidates = 0
    filter_failed = 0
    for cert in paranoid_sweep:
        assert cert.verdict == NO_SOLUTION
        for rec in cert.candidates:
            for ev in rec.per_candidate:
                candidates += 1
                assert ev.status == EXCLUDED_BY_EVALUATION
                assert ev.f_sign in (-1, 1), (cert.ell, rec.k, ev.w)
                if any(r.outcome == "FAIL" and r.name != "modular_collapse" for r in ev.filters):
                    filter_failed += 1
                    assert ev.f_sign != 0
                for r in ev.filters:
                    if r.name == "modular_collapse":
                        assert r.outcome == "PASS", (cert.ell, rec.k, ev.w, r.detail)
    assert candidates > 0 and filter_failed > 0
    report(
        9,
        f"paranoid sweep: {candidates} candidates all exactly nonzero, "
        f"including {filter_failed} that filters had excluded",
    )


def test_criterion_10_deterministic_across_workers(fast_sweep):
    serial, _ = fast_sweep
    parallel = list(sweep(SWEEP_MIN, SWEEP_MAX, workers=8))
    serial_stream = "\n".join(certificate_json(c, include_timing=False) for c in serial)
    parallel_stream = "\n".join(certificate_json(c, include_timing=False) for c in parallel)
    assert serial_stream == parallel_stream
    # and equal to the stream pinned when every window under the cap was a record
    digest = hashlib.sha256(serial_stream.replace("\n", "").encode()).hexdigest()
    assert digest == "9775e9d6fabeabe591a7ec7a268e4346baa389dda7642495604bdd51230f61fb"
    report(10, "certificate streams byte-identical with 1 and 8 workers and to the pinned "
               "digest (timing excluded)")
