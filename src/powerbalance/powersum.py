"""Exact power sums S_m(k) = 1^m + 2^m + ... + k^m, by independent methods.

Three routes to the same integers:

* ``powersum_direct`` -- term-by-term summation, the reference method;
* ``powersum_closed`` -- the Faulhaber polynomial, built once per m from the
  exact rational Bernoulli numbers and kept as integer coefficients over one
  common denominator D_m; each evaluation is Horner's rule on integers and
  one division by D_m, whose remainder must be zero.  It is the second
  route that paranoid mode and the lemma checks compare the batch with;
* ``powersum_batch``  -- all S_m(k) for odd m up to a bound in one
  incremental pass, the only route fast mode uses.  Both modes run it to
  the same small bound, 15, and hand the sign a mapping that yields any
  odd m <= ell it is asked for, building and checking the full batch only
  on such a read.  Each new i steps its
  row i, i^3, i^5, ... by one multiplication by i^2 at a time, lazily
  (itertools.accumulate), and the rows are summed with the base row one m
  at a time, so no list of powers is held per i.  Given a batch already
  held for some k0 <= k, it adds only the terms i^m with k0 < i <= k, so
  a caller walking k upward pays O(m_max) per step.

Two classical facts about these sums, Carlitz-von Staudt and
MacMillan-Sondow, are checked on a whole batch by carlitz_von_staudt_fault
and macmillan_sondow_fault, the routines both the decider and
``powerbalance lemmas`` run.
"""

from fractions import Fraction
from functools import cache
from itertools import accumulate, compress, islice, repeat
from math import comb, lcm
from operator import add, and_, mod, mul, ne

from .arith import nu


def _check_k_m(k: int, m: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")


def bernoulli_numbers(n: int) -> list[Fraction]:
    """Bernoulli numbers B_0 .. B_n (B_1 = +1/2).

    Computed by the Akiyama-Tanigawa recurrence over exact rationals; one
    O(n^2) pass yields the whole prefix.  Not memoized: its caller
    _faulhaber keeps what it derives.
    """
    row: list[Fraction] = []
    fresh = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        fresh.append(row[0])
    return fresh


def powersum_direct(k: int, m: int) -> int:
    """S_m(k) by direct summation, for k >= 1 and m >= 0."""
    _check_k_m(k, m)
    return sum(i**m for i in range(1, k + 1))


@cache
def _faulhaber(m: int) -> tuple[int, tuple[int, ...]]:
    """The integer form (D_m, c) of Faulhaber's formula, memoized per m.

    S_m(k) = sum_j C(m+1, j) B_j k^(m+1-j) / (m+1) = (c[0] k^(m+1) + ...
    + c[m] k) / D_m, where c lists integer coefficients by descending power
    of k and D_m is the least common denominator of the rational ones.
    """
    bern = bernoulli_numbers(m)
    rational = [comb(m + 1, j) * bern[j] / (m + 1) for j in range(m + 1)]
    denom = lcm(*(q.denominator for q in rational))
    return denom, tuple(q.numerator * (denom // q.denominator) for q in rational)


def powersum_closed(k: int, m: int) -> int:
    """S_m(k), for k >= 1 and m >= 0, from the degree-(m+1) Faulhaber polynomial.

    The integer numerator must be divisible by D_m; a nonzero remainder
    would mean a bug in the Bernoulli table or the memo and is raised,
    never truncated.
    """
    _check_k_m(k, m)
    denom, coeffs = _faulhaber(m)
    acc = 0
    for c in coeffs:
        acc = (acc + c) * k
    total, rem = divmod(acc, denom)
    if rem:
        raise RuntimeError(
            f"Faulhaber evaluation of S_{m}({k}) is not integral: {acc}/{denom}"
        )
    return total


def powersum_batch(
    k: int, m_max: int, start: tuple[int, dict[int, int]] | None = None
) -> dict[int, int]:
    """S_m(k) for every odd m with 1 <= m <= m_max, incrementally.

    One multiplication per (i, m) step instead of a fresh i**m per sum;
    this is what makes exponent sweeps affordable.  start, if given, is a
    pair (k0, powersum_batch(k0, m_max)) with 0 <= k0 <= k, and only the
    terms i^m with k0 < i <= k are added to it; the default is k0 = 0.
    """
    _check_k_m(k, m_max)
    k0, base = start if start is not None else (0, None)
    if not 0 <= k0 <= k:
        raise ValueError(f"start must lie in 0..{k}, got {k0}")
    odd_ms = range(1, m_max + 1, 2)
    if base is not None and len(base) != len(odd_ms):
        raise ValueError(f"start must hold {len(odd_ms)} sums, got {len(base)}")
    rows = [accumulate(repeat(i * i, len(odd_ms) - 1), mul, initial=i)
            for i in range(k0 + 1, k + 1)]
    if base is not None:
        rows.append(base.values())
    sums = map(add, *rows) if len(rows) == 2 else map(sum, zip(*rows))
    return dict(zip(odd_ms, sums))


def carlitz_von_staudt_fault(k: int, sums: dict[int, int]) -> int | None:
    """The first m whose S_m(k) in sums k(k+1)/2 does not divide, or None.

    Carlitz-von Staudt: k(k+1)/2 divides S_m(k) at every odd m.
    """
    half = k * (k + 1) // 2
    if any(map(mod, sums.values(), repeat(half))):
        return next(m for m, s in sums.items() if s % half)
    return None


def macmillan_sondow_fault(k: int, sums: dict[int, int]) -> int | None:
    """The first m whose S_m(k) in sums, odd m = 1, 3, ... in order, breaks MacMillan-Sondow, or None.

    With f = nu_2(k(k+1)) the lemma gives nu_2(S_1(k)) = f - 1 and
    nu_2(S_m(k)) = 2f - 2 at every odd m >= 3.  A sum s has nu_2(s) = v
    exactly when s & (2b - 1) == b, b = 2^v, so only its low v + 1 bits are
    read, however long it is, and a sum of 0 fails too.
    """
    f = nu(k * (k + 1))
    b1, b = 1 << (f - 1), 1 << (2 * f - 2)
    if sums[1] & (2 * b1 - 1) != b1:
        return 1
    lows = map(and_, islice(sums.values(), 1, None), repeat(2 * b - 1))
    return next(compress(islice(sums, 1, None), map(ne, lows, repeat(b))), None)
