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
     collapse on it: two comparisons of scalars in (ell, f, g), since
     Kummer's theorem settles every binomial valuation the replay needs.

The verdict never rests on a filter alone: a filter may only short-circuit
the exact evaluation in fast mode, which reads every power sum from one
route, powersum_batch.  The sign reads m <= 7 at every window integer of
ell = 3..3000, so each mode runs its batch over the odd m up to a small top
only, _FAST_BATCH_M_MAX in fast mode and _CLOSED_CHECK_M_MAX in paranoid
mode, and hands the sign a _SmallBatch: a mapping that yields any odd
m <= ell it is asked for, building the full batch of that k on the first
read past what it holds.  The next k's batch runs on from the small one.
Every batch, small or grown, is checked by the mode's own check as soon as
it is built, before any sign reads it.  Fast mode's, _check_valuations,
holds it against the MacMillan-Sondow lemma at every m it holds:
nu_2(S_1(k)) = f - 1 and nu_2(S_m(k)) = 2f - 2 at every odd m >= 3,
f = nu_2(k(k+1)), reading each sum's low bits only.
The collapse replay takes its valuations from that lemma, so it reads no
batch.  The radical filter is the replay's one gate: every evaluated
candidate that passes it is replayed, on g = nu_2(w) rather than w.
Paranoid mode compares independent routes and raises on any
disagreement.  It evaluates every candidate, so no filter excluded a root.
Its check, _crosscheck_powersums, holds a batch against Carlitz-von Staudt
at every m it holds, then against MacMillan-Sondow at every m, then against
Faulhaber (powersum_closed) for m <= _CLOSED_CHECK_M_MAX.  Its small batch
holds exactly the odd m <= min(ell, _CLOSED_CHECK_M_MAX), so each of its
sums passes all three routes; a grown batch passes the first two at every
odd m <= ell and Faulhaber up to _CLOSED_CHECK_M_MAX, well above the m <= 7
the series sign reads at window integers.  Each k's
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
No window is stored: it is a function of (ell, k) alone.  Certificate
(ell, candidates, mode, elapsed_ms) and its records, CandidateRecord (k,
per_candidate) and CandidateEvaluation (w, filters, f_sign), are immutable
named tuples, like filters.FilterReport.

certificate_json writes the canonical text directly, one f-string per
window and per candidate.  The text lists every window under the sharp
cap, k = 1..bounds.k_max(ell), each written by _windows_json from
per-ell constants, with the integers of the record of the same k, or an
empty "ws" past k*, where there is no record.  Keys
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
from itertools import compress, islice, repeat
from math import gcd
from operator import and_, attrgetter, mod, ne

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

# Largest m of fast mode's batch.  The series sign reads m <= 7 at every
# window integer of ell = 3..3000 and of every 997th ell up to 100003, so
# this leaves room, and a batch grows to every odd m <= ell only past it.
_FAST_BATCH_M_MAX = 15

# Closed-form cross-check ceiling for paranoid mode: every batched power sum
# with m at most this is re-derived through the Faulhaber polynomial.  It is
# also the top of paranoid mode's batch, which grows past it only on demand.
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


class CandidateRecord(namedtuple("CandidateRecord", "k per_candidate")):
    """Everything the procedure did for one k: one CandidateEvaluation per integer of its window."""

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


def _check_valuations(k: int, sums: dict[int, int]) -> None:
    """Raise unless every sum of a batch has the 2-adic valuation MacMillan-Sondow gives.

    With f = nu_2(k(k+1)) that is nu_2(S_1(k)) = f - 1 and nu_2(S_m(k)) = 2f - 2
    at every odd m >= 3.  A sum s has nu_2(s) = v exactly when
    s & (2b - 1) == b, b = 2^v, so only its low v + 1 bits are read, however
    long it is, and a sum of 0 fails too.  The error names the first bad m.
    """
    f = nu(k * (k + 1))
    b1, b = 1 << (f - 1), 1 << (2 * f - 2)
    if sums[1] & (2 * b1 - 1) != b1:
        m = 1
    else:
        lows = map(and_, islice(sums.values(), 1, None), repeat(2 * b - 1))
        m = next(compress(islice(sums, 1, None), map(ne, lows, repeat(b))), None)
    if m is not None:
        raise RuntimeError(f"power-sum batch failed 2-adic valuation: k={k}, m={m}")


class _SmallBatch(dict):
    """A mode's batch: S_m(k) for the odd m up to the mode's top, grown on demand.

    It holds the small batch, which is what the next k's batch runs on
    from, and check, the mode's check of a batch: _check_valuations in
    fast mode, _crosscheck_powersums in paranoid mode.  The first read of
    any other m builds powersum_batch(k, ell), runs check on all of it,
    and serves that m and every later one from it, so a sum is never read
    unchecked.
    """

    __slots__ = ("_ell", "_k", "_check", "_full")

    def __init__(self, ell: int, k: int, sums: dict[int, int], check):
        super().__init__(sums)
        self._ell, self._k, self._check, self._full = ell, k, check, None

    def __missing__(self, m: int) -> int:
        if self._full is None:
            full = powersum_batch(self._k, self._ell)
            self._check(self._k, full)
            self._full = full
        return self._full[m]


def _crosscheck_powersums(k: int, sums: dict[int, int]) -> None:
    """Paranoid validation of a batch of power sums against independent facts.

    Carlitz-von Staudt divisibility is checked for every sum in the batch,
    then the MacMillan-Sondow valuations of every sum (_check_valuations),
    then the Faulhaber closed form for m <= _CLOSED_CHECK_M_MAX, where it is
    affordable, from k's memoized row.
    """
    half = k * (k + 1) // 2
    if any(map(mod, sums.values(), repeat(half))):
        m = next(m for m, s in sums.items() if s % half)
        raise RuntimeError(f"power-sum batch failed divisibility: k={k}, m={m}")
    _check_valuations(k, sums)
    closed = _closed_row(k)
    if any(map(ne, sums.values(), closed)):
        m = next(m for m, s, c in zip(sums, sums.values(), closed) if s != c)
        raise RuntimeError(f"power-sum batch disagrees with closed form: k={k}, m={m}")


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
    if mode == PARANOID:
        m_max, check = min(ell, _CLOSED_CHECK_M_MAX), _crosscheck_powersums
    else:
        m_max, check = min(ell, _FAST_BATCH_M_MAX), _check_valuations
    records = []
    batch = None
    for k in range(1, k_star + 1):
        ws = integers_in_window(compute_bounds(ell, k))
        sums = None
        evaluations = []
        for w in ws:
            reports = _run_filters(ell, k, w)
            excluded = any(r.failed for r in reports)
            sign = None
            if mode == PARANOID or not excluded:
                # the sign reads the batch; it runs on from the last k that
                # needed one, so it costs (k - k0) * m_max/2 steps, and is
                # checked before the sign reads it
                if sums is None:
                    sums = powersum_batch(k, m_max, start=batch)
                    batch = (k, sums)
                    sums = _SmallBatch(ell, k, sums, check)
                    check(k, sums)
                sign = _settle_sign(ell, k, w, excluded, sums, mode)
                # reports[0] is the radical filter; passing it makes g >= 1,
                # since 2 | k(k+1), which is all the replay needs.  The sharp
                # cap admits no k below ell = 8, so ell >= 5 holds here
                if not reports[0].failed:
                    reports.append(check_modular_collapse(ell, k, nu(w)))
            evaluations.append(CandidateEvaluation(w, tuple(reports), sign))
        records.append(CandidateRecord(k, tuple(evaluations)))

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


def _windows_json(ell: int, records: tuple[CandidateRecord, ...]) -> list[str]:
    """The text of every window of k = 1..k_max(ell), each with the integers of its record.

    A window's text is that of its ends, compute_bounds(ell, k) reduced,
    written from per-ell constants.  With A = (ell-1)(ell-2) the upper end
    is (12 ell^2 K + A) / (12 ell), which reduces by g = gcd(A, 12 ell) at
    every K, so only the lower end, upper - A^2 / (72 ell^3 K), takes a gcd
    per window.  There are windows only for ell >= 8, where gcd(ell, A) <= 2
    keeps 12 ell / g above 1, so the upper end is never an integer.  Each
    record's "ws" is written under the window of its own k; a record with
    no such window raises.
    """
    A = (ell - 1) * (ell - 2)
    g = gcd(A, 12 * ell)
    step, shift, q = 12 * ell * ell // g, A // g, 12 * ell // g
    scale, A2, den_step = 6 * ell * ell * g, A * A, 72 * ell**3
    ws = {rec.k: ",".join(map(_evaluation_json, rec.per_candidate)) for rec in records}
    windows = []
    for k in range(1, k_max(ell) + 1):
        K = k * (k + 1)
        u = step * K + shift
        lower = _ratio_str(scale * K * u - A2, den_step * K)
        windows.append(f'{{"k":"{k}","window":["{lower}","{u}/{q}"],"ws":[{ws.pop(k, "")}]}}')
    if ws:
        raise ValueError(f"ell={ell}: records of k={sorted(ws)} have no window under the sharp cap")
    return windows


def certificate_json(cert: Certificate, include_timing: bool = True) -> str:
    """Canonical one-line JSON rendering (sorted keys, no floats anywhere).

    The text is written directly, keys in sorted order, with every string
    escaped as json.dumps escapes it, so it equals
    json.dumps(..., sort_keys=True, separators=(",", ":")) of the same tree.
    """
    parts = [f'"candidates":[{",".join(_windows_json(cert.ell, cert.candidates))}]']
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

