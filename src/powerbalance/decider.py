"""The finite decision procedure, one exponent at a time.

For ell in (1, 2) the answer is the classical closed-form family.  For
ell >= 3 the procedure is:

  1. enumerate k with k(k+1) <= (ell-1)^2 (ell-2)^2 / (12 ell^2);
  2. for each k, list the integers inside the exact root window;
  3. run the 2-adic filters on each integer candidate;
  4. settle the sign of f(k, w) for every survivor exactly, as the sign of
     LHS - RHS summed directly at n = w - k, and replay the 2-adic collapse
     (with Kummer valuations) on it.

The verdict never rests on a filter alone: a filter may only short-circuit
the (more expensive) exact evaluation in fast mode, and paranoid mode
evaluates every candidate anyway, confirming that nothing a filter excluded
was a root.  Paranoid mode also checks every sign a second, independent
way, by evaluating the polynomial f, and raises if the two disagree.  The
outcome is a Certificate -- a machine-readable record of every window,
filter outcome and evaluation sign -- serializable to JSON with all exact
values rendered as decimal or "p/q" strings, never floats.
"""

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .arith import nu
from .bounds import compute_bounds, corollary_K_bound, integers_in_window, weak_K_bound
from .equation import balance_difference, build_f, eval_f, solution_family
from .filters import (
    FilterReport,
    check_modular_collapse,
    filter_3f_plus_3,
    filter_g_ge_e_plus_1,
    filter_radical,
    filter_w_plus_1_primes,
)
from .powersum import powersum_batch, powersum_closed

FAST = "fast"
PARANOID = "paranoid"

NO_SOLUTION = "NO_SOLUTION"
SOLUTIONS = "SOLUTIONS"
FAMILY = "FAMILY"

EXCLUDED_BY_FILTER = "EXCLUDED_BY_FILTER"
EXCLUDED_BY_EVALUATION = "EXCLUDED_BY_EVALUATION"
SOLUTION = "SOLUTION"

# Closed-form cross-check ceiling for paranoid mode: every batched power sum
# with m at most this is re-derived through the Faulhaber polynomial.
_CLOSED_CHECK_M_MAX = 41

_FAMILY_SAMPLE_COUNT = 5


@dataclass(frozen=True)
class CandidateEvaluation:
    """One integer candidate w: its filter reports, f sign, and fate."""

    w: int
    filters: tuple[FilterReport, ...]
    f_sign: int | None
    status: str


@dataclass(frozen=True)
class CandidateRecord:
    """Everything the procedure did for one k."""

    k: int
    window: tuple[Fraction, Fraction]
    integer_candidates: tuple[int, ...]
    per_candidate: tuple[CandidateEvaluation, ...]


@dataclass(frozen=True)
class Certificate:
    """Auditable record of the decision for one ell."""

    ell: int
    verdict: str
    candidates: tuple[CandidateRecord, ...]
    mode: str
    elapsed_ms: int
    solutions: tuple[tuple[int, int], ...] = ()
    family: dict | None = None


def _family_certificate(ell: int, mode: str, t0: float) -> Certificate:
    w_formula = "k(k+1)" if ell == 1 else "2k(k+1)"
    n_formula = "k^2" if ell == 1 else "k(2k+1)"
    samples = []
    for k in range(1, _FAMILY_SAMPLE_COUNT + 1):
        n, _ = solution_family(ell, k)
        samples.append((n, k))
    return Certificate(
        ell=ell,
        verdict=FAMILY,
        candidates=(),
        mode=mode,
        elapsed_ms=_elapsed_ms(t0),
        family={"w": w_formula, "n": n_formula, "samples": samples},
    )


def _elapsed_ms(t0: float) -> int:
    return int(round((time.perf_counter() - t0) * 1000))


def _run_filters(ell: int, k: int, w: int) -> list[FilterReport]:
    reports = [
        filter_radical(k, w),
        filter_g_ge_e_plus_1(ell, w),
        filter_3f_plus_3(ell, k),
    ]
    if ell % 2 == 0 and ell >= 4:
        reports.append(filter_w_plus_1_primes(ell, w))
    return reports


def _crosscheck_powersums(ell: int, k: int, sums: dict[int, int]) -> None:
    """Paranoid validation of a batch of power sums against independent facts.

    Carlitz-von Staudt divisibility and the MacMillan-Sondow valuation are
    checked for every sum in the batch; the Faulhaber closed form is
    compared outright for the small exponents where it is affordable.
    """
    K = k * (k + 1)
    f = nu(2, K)
    for m, s in sums.items():
        if s % (K // 2) != 0:
            raise RuntimeError(f"power-sum batch failed divisibility: k={k}, m={m}")
        if m >= 3 and nu(2, 2 * s) != 2 * f - 1:
            raise RuntimeError(f"power-sum batch failed 2-adic valuation: k={k}, m={m}")
        if m <= _CLOSED_CHECK_M_MAX and s != powersum_closed(k, m):
            raise RuntimeError(f"power-sum batch disagrees with closed form: k={k}, m={m}")


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _settle_sign(ell: int, k: int, w: int, excluded: bool) -> tuple[int, str]:
    """Sign of f(k, w) and the candidate's fate, by direct summation.

    For w > 0, f(k, w) has the sign of LHS - RHS at n = w - k.
    """
    sign = _sign(balance_difference(w - k, k, ell))
    if sign != 0:
        return sign, EXCLUDED_BY_EVALUATION
    if excluded:
        raise RuntimeError(
            f"filter soundness violated: ell={ell}, k={k}, w={w} was "
            f"filter-excluded but f(k, w) = 0"
        )
    if w <= k:
        raise RuntimeError(f"root with nonpositive n: ell={ell}, k={k}, w={w}")
    return sign, SOLUTION


def decide(ell: int, mode: str = FAST) -> Certificate:
    """Decide the equation for one exponent and certify the outcome."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if mode not in (FAST, PARANOID):
        raise ValueError(f"mode must be '{FAST}' or '{PARANOID}', got {mode!r}")
    t0 = time.perf_counter()
    if ell <= 2:
        return _family_certificate(ell, mode, t0)

    sharp = corollary_K_bound(ell)
    records = []
    solutions = []
    batch = None
    k = 1
    while k * (k + 1) <= sharp:
        window = compute_bounds(ell, k)
        ws = integers_in_window(window)
        poly = None
        sums = None
        evaluations = []
        for w in ws:
            reports = _run_filters(ell, k, w)
            excluded = any(r.failed for r in reports)
            if excluded and mode == FAST:
                sign, status = None, EXCLUDED_BY_FILTER
            else:
                sign, status = _settle_sign(ell, k, w, excluded)
                # Every k that gets here needs the batch: paranoid mode builds
                # f from it, and a fast-mode candidate that passed every filter
                # is even and radical-admissible with ell >= 6, so it gets the
                # collapse replay.  The batch runs on from the last k that
                # needed one, so it costs (k - k0) * ell/2 steps, not k * ell/2.
                if sums is None:
                    sums = powersum_batch(k, ell, start=batch)
                    batch = (k, sums)
                    if mode == PARANOID:
                        _crosscheck_powersums(ell, k, sums)
                if mode == PARANOID:
                    if poly is None:
                        poly = build_f(ell, k, sums)
                    f_sign = _sign(eval_f(poly, w))
                    if f_sign != sign:
                        raise RuntimeError(
                            f"sign routes disagree: ell={ell}, k={k}, w={w}: direct "
                            f"summation gives {sign}, f(k, w) gives {f_sign}"
                        )
                # reports[0] is the radical filter, which the replay needs passed
                if ell >= 5 and w % 2 == 0 and not reports[0].failed:
                    reports.append(check_modular_collapse(ell, k, w, precomputed_sums=sums))
            if status == SOLUTION:
                solutions.append((w - k, k))
            evaluations.append(CandidateEvaluation(w, tuple(reports), sign, status))
        records.append(CandidateRecord(k, window, tuple(ws), tuple(evaluations)))
        k += 1

    if mode == PARANOID:
        _consistency_scan_beyond_bound(ell, k, sharp)

    return Certificate(
        ell=ell,
        verdict=SOLUTIONS if solutions else NO_SOLUTION,
        candidates=tuple(records),
        mode=mode,
        elapsed_ms=_elapsed_ms(t0),
        solutions=tuple(sorted(solutions)),
    )


def _consistency_scan_beyond_bound(ell: int, k_start: int, sharp: Fraction) -> None:
    """Evaluate window integers for k past the sharp K bound (paranoid only).

    The sharp bound is derived, not assumed: windows for larger k may still
    contain integers, but none may be a root.  Scanning up to the weaker
    (ell-2)^2/12 bound confirms the derivation did not discard a solution.
    """
    weak = weak_K_bound(ell)
    k = k_start
    while k * (k + 1) <= weak:
        ws = integers_in_window(compute_bounds(ell, k))
        if ws:
            poly = build_f(ell, k)
            for w in ws:
                if eval_f(poly, w) == 0:
                    raise RuntimeError(
                        f"K-bound consistency violated: root at ell={ell}, "
                        f"k={k}, w={w} beyond the sharp bound {sharp}"
                    )
        k += 1


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes to start: never more than the cores or the tasks."""
    return min(workers, os.cpu_count() or 1, tasks)


def sweep(ell_min: int, ell_max: int, mode: str = FAST, workers: int = 1):
    """Decide every ell in [ell_min, ell_max]; certificates in ell order.

    Exponents are independent, so they may be farmed out to worker
    processes, at most one per core and per exponent; results are collected
    back in input order, making the output deterministic regardless of
    worker count.
    """
    if not 1 <= ell_min <= ell_max:
        raise ValueError(f"need 1 <= ell_min <= ell_max, got {ell_min}..{ell_max}")
    ells = range(ell_min, ell_max + 1)
    task = partial(decide, mode=mode)
    workers = _pool_size(workers, len(ells))
    if workers <= 1:
        yield from map(task, ells)
        return
    chunk = max(1, len(ells) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(task, ells, chunksize=chunk)


def _fraction_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def certificate_to_dict(cert: Certificate, include_timing: bool = True) -> dict:
    """Plain-dict form of a certificate; exact values become strings."""
    out = {
        "schema": "1",
        "ell": cert.ell,
        "mode": cert.mode,
        "verdict": cert.verdict,
        "solutions": [[str(n), str(k)] for n, k in cert.solutions],
        "candidates": [
            {
                "k": str(rec.k),
                "window": [_fraction_str(rec.window[0]), _fraction_str(rec.window[1])],
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
            for rec in cert.candidates
        ],
    }
    if cert.family is not None:
        out["family"] = {
            "w": cert.family["w"],
            "n": cert.family["n"],
            "samples": [[str(n), str(k)] for n, k in cert.family["samples"]],
        }
    if include_timing:
        out["elapsed_ms"] = cert.elapsed_ms
    return out


def certificate_json(cert: Certificate, include_timing: bool = True) -> str:
    """Canonical one-line JSON rendering (sorted keys, no floats anywhere)."""
    return json.dumps(
        certificate_to_dict(cert, include_timing=include_timing),
        sort_keys=True,
        separators=(",", ":"),
    )
