"""The finite decision procedure, one exponent at a time.

For ell in (1, 2) the answer is the classical closed-form family.  For
ell >= 3 the procedure is:

  1. enumerate k = 1..k*, the k whose windows hold an integer: those with
     k(k+1) <= K* = A^2 / (6 ell^2 (r ell + 2)), A = (ell-1)(ell-2) and
     r = (ell-3) mod 12 (bounds.nonempty_K_bound, read off by
     bounds.largest_k).  K* never exceeds the sharp cap
     A^2 / (12 ell^2), and every window past k* is empty;
  2. for each k, list the integers inside the exact root window;
  3. run the 2-adic filters on each integer candidate;
  4. settle the sign of f(k, w) for every survivor exactly, as the sign of
     LHS - RHS at n = w - k read off a truncated binomial series with a
     proven tail bound (equation.balance_sign), and replay the 2-adic
     collapse (with Kummer valuations) on it.

The verdict never rests on a filter alone: a filter may only short-circuit
the exact evaluation in fast mode, which reads every power sum from one
route, the running powersum_batch.  Each batch's row of 2-adic valuations
(filters.sum_valuations) is built once and read by every collapse replay
of that k.  The radical filter is the replay's one gate: every evaluated
candidate that passes it is replayed, on g = nu_2(w) rather than w.
Paranoid mode compares independent routes and raises on any
disagreement.  It evaluates every candidate, so no filter excluded a root.
It checks each batch, before any sign reads it, against Carlitz-von Staudt
for every m, against MacMillan-Sondow for every m on the shared valuation
row, and against Faulhaber (powersum_closed) for m <= _CLOSED_CHECK_M_MAX,
well above the m <= 7 the series sign reads at window integers.  Each k's
Faulhaber row is evaluated once per process, behind a memo of at most
_CLOSED_ROW_MEMO = 1024 rows (_closed_row), and compared with every batch
of that k; the memo holds closed-form values only, never a batch's.  It
requires each series sign to equal equation.interval_sign, the sign of
LHS - RHS proven from the definition by integer bounds.  And it checks
that the windows of k = 1..k* each hold an integer and that every window
past k*, up to the weak K bound, holds none.  The outcome is a
Certificate -- a machine-readable record of every window that holds an
integer, every filter outcome and evaluation sign -- serializable to JSON
with all exact values rendered as decimal or "p/q" strings, never floats.
It stores ell, the per-k records of k = 1..k*, the mode and the elapsed
time; the verdict, solutions and ell = 1, 2 family are derived from them.
Each window is stored as the integer triple that bounds.compute_bounds
returns, and reduced only when it is rendered.  Certificate (ell,
candidates, mode, elapsed_ms) and its records, CandidateRecord (k, window,
per_candidate) and CandidateEvaluation (w, filters, f_sign), are immutable
named tuples, like filters.FilterReport.

certificate_json writes the canonical text directly, one f-string per
window and per candidate.  The text lists every window under the sharp
cap: the records, then each window from k* + 1 to bounds.k_max(ell), taken
from compute_bounds and written with an empty "ws", no record built.  Keys
are in sorted order and every string is escaped by
_json.encode_basestring_ascii, the C escaper json.dumps uses, imported from
where json.encoder takes it so that deciding never loads the json package:
the text is byte for byte json.dumps(tree, sort_keys=True, separators=(",",
":")) of the certificate's tree, which is never built.
"""

import os
import time
from _json import encode_basestring_ascii as _esc
from collections import deque, namedtuple
from functools import lru_cache, partial
from itertools import islice, repeat
from math import gcd
from operator import attrgetter, mod, ne

from .arith import nu
from .bounds import compute_bounds, integers_in_window, k_max, largest_k, nonempty_K_bound, weak_K_bound
# corollary_K_bound is unused here, but bench/spans.py patches the name in this module
from .bounds import corollary_K_bound  # noqa: F401
# build_f and eval_f are unused here, but bench/spans.py patches both names in this module
from .equation import balance_sign, build_f, eval_f, interval_sign, solution_family  # noqa: F401
from .filters import (
    FilterReport,
    check_modular_collapse,
    filter_3f_plus_3,
    filter_g_ge_e_plus_1,
    filter_radical,
    filter_w_plus_1_primes,
    sum_valuations,
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

# Faulhaber rows _closed_row keeps: every k of a sweep up to ell = 3500 (k
# below ell / sqrt(12)), at about 1.4 KB a row at k = 1000, so 1.5 MB at most.
_CLOSED_ROW_MEMO = 1024

_FAMILY_SAMPLE_COUNT = 5

# A parallel sweep keeps this many exponents per worker submitted ahead of the
# one it yields next: enough to keep every worker busy, and its memory bounded
# whatever the range.
_TASKS_AHEAD_PER_WORKER = 4

_by_name = attrgetter("name")


class CandidateEvaluation(namedtuple("CandidateEvaluation", "w filters f_sign")):
    """One integer candidate w: its filter reports, f sign (None when unsettled), and fate."""

    __slots__ = ()

    @property
    def status(self) -> str:
        if self.f_sign is None:
            return EXCLUDED_BY_FILTER
        return SOLUTION if self.f_sign == 0 else EXCLUDED_BY_EVALUATION


class CandidateRecord(namedtuple("CandidateRecord", "k window per_candidate")):
    """Everything the procedure did for one k: its window and every integer in it.

    window is (lower, upper, den) from compute_bounds, the ends lower/den and
    upper/den unreduced; per_candidate holds one CandidateEvaluation per integer.
    """

    __slots__ = ()

    @property
    def integer_candidates(self) -> tuple[int, ...]:
        return tuple(ev.w for ev in self.per_candidate)


class Certificate(namedtuple("Certificate", "ell candidates mode elapsed_ms")):
    """Auditable record of the decision for one ell.

    Stores ell, the per-k records, the mode and the elapsed time; derives
    the solutions, the verdict and the ell = 1, 2 family from those.
    """

    __slots__ = ()

    @property
    def solutions(self) -> tuple[tuple[int, int], ...]:
        """Sorted (n, k) = (w - k, k) of every candidate with f(k, w) = 0."""
        return tuple(sorted((ev.w - rec.k, rec.k) for rec in self.candidates
                            for ev in rec.per_candidate if ev.f_sign == 0))

    @property
    def verdict(self) -> str:
        return _verdict(self.ell, self.solutions)

    @property
    def family(self) -> dict | None:
        """The closed-form ell = 1, 2 family, with samples from solution_family."""
        if self.ell > 2:
            return None
        one = self.ell == 1
        samples = [(solution_family(self.ell, k)[0], k) for k in range(1, _FAMILY_SAMPLE_COUNT + 1)]
        return {"w": "k(k+1)" if one else "2k(k+1)", "n": "k^2" if one else "k(2k+1)",
                "samples": samples}


def _verdict(ell: int, solutions: tuple[tuple[int, int], ...]) -> str:
    if ell <= 2:
        return FAMILY
    return SOLUTIONS if solutions else NO_SOLUTION


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


@lru_cache(maxsize=_CLOSED_ROW_MEMO)
def _closed_row(k: int) -> tuple[int, ...]:
    """powersum_closed(k, m) for every odd m <= _CLOSED_CHECK_M_MAX, once per k per process."""
    return tuple(powersum_closed(k, m) for m in range(1, _CLOSED_CHECK_M_MAX + 1, 2))


def _crosscheck_powersums(k: int, sums: dict[int, int]) -> list[int]:
    """Paranoid validation of a batch of power sums against independent facts.

    Carlitz-von Staudt divisibility is checked for every sum in the batch,
    and the MacMillan-Sondow valuation nu_2(S_m(k)) = 2 nu_2(k(k+1)) - 2 for
    every m >= 3 on the batch's valuation row, which is returned for the
    replays to share; the Faulhaber closed form is compared outright for
    the small exponents where it is affordable, from k's memoized row.
    """
    K = k * (k + 1)
    half = K // 2
    if any(map(mod, sums.values(), repeat(half))):
        m = next(m for m, s in sums.items() if s % half)
        raise RuntimeError(f"power-sum batch failed divisibility: k={k}, m={m}")
    row = sum_valuations(k, sums)
    expected = 2 * nu(K) - 2
    if any(map(ne, islice(row, 1, None), repeat(expected))):
        m = next(m for m, v in zip(sums, row) if m >= 3 and v != expected)
        raise RuntimeError(f"power-sum batch failed 2-adic valuation: k={k}, m={m}")
    closed = _closed_row(k)
    if any(map(ne, sums.values(), closed)):
        m = next(m for m, s, c in zip(sums, sums.values(), closed) if s != c)
        raise RuntimeError(f"power-sum batch disagrees with closed form: k={k}, m={m}")
    return row


def _settle_sign(ell: int, k: int, w: int, excluded: bool, sums: dict[int, int], mode: str) -> int:
    """Sign of f(k, w), that of LHS - RHS at n = w - k, from balance_sign on sums."""
    sign = balance_sign(ell, k, w, sums)
    if sign == 0 and excluded:
        raise RuntimeError(
            f"filter soundness violated: ell={ell}, k={k}, w={w} was "
            f"filter-excluded but f(k, w) = 0"
        )
    if sign == 0 and w <= k:
        raise RuntimeError(f"root with nonpositive n: ell={ell}, k={k}, w={w}")
    if mode == PARANOID and (defined := interval_sign(w - k, k, ell)) != sign:
        raise RuntimeError(
            f"sign routes disagree: ell={ell}, k={k}, w={w}: the series "
            f"gives {sign}, the definition gives {defined}"
        )
    return sign


def _check_mode(mode: str) -> None:
    if mode not in (FAST, PARANOID):
        raise ValueError(f"mode must be '{FAST}' or '{PARANOID}', got {mode!r}")


def decide(ell: int, mode: str = FAST) -> Certificate:
    """Decide the equation for one exponent and certify the outcome."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    _check_mode(mode)
    t0 = time.perf_counter()
    if ell <= 2:
        return Certificate(ell, (), mode, _elapsed_ms(t0))

    k_star = largest_k(nonempty_K_bound(ell))
    records = []
    batch = None
    for k in range(1, k_star + 1):
        window = compute_bounds(ell, k)
        ws = integers_in_window(window)
        sums = valuations = None
        evaluations = []
        for w in ws:
            reports = _run_filters(ell, k, w)
            excluded = any(r.failed for r in reports)
            sign = None
            if mode == PARANOID or not excluded:
                # the sign and the replay read the batch; it runs on from the
                # last k that needed one, so it costs (k - k0) * ell/2 steps.
                # Every replay of this k shares one row of its valuations.
                if sums is None:
                    sums = powersum_batch(k, ell, start=batch)
                    batch = (k, sums)
                    if mode == PARANOID:
                        valuations = _crosscheck_powersums(k, sums)
                    else:
                        valuations = sum_valuations(k, sums)
                sign = _settle_sign(ell, k, w, excluded, sums, mode)
                # reports[0] is the radical filter; passing it makes g >= 1,
                # since 2 | k(k+1), which is all the replay needs.  The sharp
                # cap admits no k below ell = 8, so ell >= 5 holds here
                if not reports[0].failed:
                    reports.append(check_modular_collapse(ell, k, nu(w), valuations))
            evaluations.append(CandidateEvaluation(w, tuple(reports), sign))
        records.append(CandidateRecord(k, window, tuple(evaluations)))

    if mode == PARANOID:
        _check_nonempty_bound(ell, records)

    return Certificate(ell, tuple(records), mode, _elapsed_ms(t0))


def _check_nonempty_bound(ell: int, records: list[CandidateRecord]) -> None:
    """Check that the windows of k = 1..k* are exactly those that hold integers (paranoid only).

    records are decide's, for k = 1..k*.  Each must list an integer, and
    every window past k*, up to the weaker (ell-2)^2/12 bound and so past
    the sharp cap too, must list none.  K* is derived, not assumed: listing
    each window's integers confirms the derivation neither kept an empty
    window nor dropped a candidate, let alone a solution.
    """
    for rec in records:
        if not rec.per_candidate:
            raise RuntimeError(
                f"K-bound consistency violated: window k={rec.k} holds no integer "
                f"at ell={ell}, below K*"
            )
    weak = weak_K_bound(ell)
    for k in range(len(records) + 1, largest_k(weak.numerator // weak.denominator) + 1):
        ws = integers_in_window(compute_bounds(ell, k))
        if ws:
            raise RuntimeError(
                f"K-bound consistency violated: window k={k} holds {ws} "
                f"at ell={ell}, beyond K*"
            )


def _pool_size(workers: int, tasks: int) -> int:
    """Worker processes to start: never more than the tasks or the cores this process may use."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(workers, cores or 1, tasks)


def sweep(ell_min: int, ell_max: int, mode: str = FAST, workers: int = 1):
    """Decide every ell in [ell_min, ell_max]; an iterator of certificates in ell order.

    The range, the mode and the worker count are checked at the call, before
    any exponent is decided.  Exponents are independent, so they may be farmed
    out to worker processes, at most one per core and per exponent; results
    are collected back in input order, making the output deterministic
    regardless of worker count.
    """
    if not 1 <= ell_min <= ell_max:
        raise ValueError(f"need 1 <= ell_min <= ell_max, got {ell_min}..{ell_max}")
    _check_mode(mode)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    ells = range(ell_min, ell_max + 1)
    task = partial(decide, mode=mode)
    workers = _pool_size(workers, len(ells))
    if workers <= 1:
        return map(task, ells)
    return _pool_map(task, ells, workers)


def _pool_map(task, ells: range, workers: int):
    """One task per exponent, with at most _TASKS_AHEAD_PER_WORKER * workers of them
    submitted and unread; when the stream ends or is closed, queued exponents are dropped."""
    # imported here, so that deciding exponents in this process never loads the pool machinery
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        todo = iter(ells)
        ahead = _TASKS_AHEAD_PER_WORKER * workers
        pending = deque(pool.submit(task, ell) for ell in islice(todo, ahead))
        while pending:
            result = pending.popleft().result()
            for ell in islice(todo, 1):
                pending.append(pool.submit(task, ell))
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def _ratio_str(p: int, q: int) -> str:
    """str(Fraction(p, q)) for q > 0 from one gcd: "p/q" in lowest terms, or p/q when q | p."""
    g = gcd(p, q)
    if g == q:
        return str(p // q)
    return f"{p // g}/{q // g}"


def _filter_json(r: FilterReport) -> str:
    return f'{_esc(r.name)}:{{"detail":{_esc(r.detail)},"outcome":{_esc(r.outcome)}}}'


def _evaluation_json(ev: CandidateEvaluation) -> str:
    filters = ",".join(map(_filter_json, sorted(ev.filters, key=_by_name)))
    sign = "null" if ev.f_sign is None else ev.f_sign
    return f'{{"f_sign":{sign},"filters":{{{filters}}},"status":{_esc(ev.status)},"w":"{ev.w}"}}'


def _window_json(k: int, window: tuple[int, int, int]) -> str:
    lower, upper, den = window
    return f'"k":"{k}","window":["{_ratio_str(lower, den)}","{_ratio_str(upper, den)}"]'


def _record_json(rec: CandidateRecord) -> str:
    ws = ",".join(map(_evaluation_json, rec.per_candidate))
    return f'{{{_window_json(rec.k, rec.window)},"ws":[{ws}]}}'


def _empty_windows_json(ell: int, k_first: int) -> list[str]:
    """The windows of k_first..k_max(ell), each rendered as a record with no integers."""
    return [f'{{{_window_json(k, compute_bounds(ell, k))},"ws":[]}}'
            for k in range(k_first, k_max(ell) + 1)]


def certificate_json(cert: Certificate, include_timing: bool = True) -> str:
    """Canonical one-line JSON rendering (sorted keys, no floats anywhere).

    The text is written directly, keys in sorted order, with every string
    escaped as json.dumps escapes it, so it equals
    json.dumps(..., sort_keys=True, separators=(",", ":")) of the same tree.
    """
    records = [*map(_record_json, cert.candidates),
               *_empty_windows_json(cert.ell, len(cert.candidates) + 1)]
    parts = [f'"candidates":[{",".join(records)}]']
    if include_timing:
        parts.append(f'"elapsed_ms":{cert.elapsed_ms}')
    parts.append(f'"ell":{cert.ell}')
    family = cert.family
    if family is not None:
        samples = ",".join(f'["{n}","{k}"]' for n, k in family["samples"])
        parts.append(f'"family":{{"n":{_esc(family["n"])},"samples":[{samples}],'
                     f'"w":{_esc(family["w"])}}}')
    solutions = cert.solutions
    rendered = ",".join(f'["{n}","{k}"]' for n, k in solutions)
    parts += [f'"mode":{_esc(cert.mode)}', '"schema":"1"', f'"solutions":[{rendered}]',
              f'"verdict":{_esc(_verdict(cert.ell, solutions))}']
    return "{" + ",".join(parts) + "}"

