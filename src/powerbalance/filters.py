"""Necessary conditions on candidate solutions (k, w) for exponent ell.

Everything revolves around the three 2-adic valuations

    e = nu_2(ell),   f = nu_2(k(k+1)),   g = nu_2(w).

A filter returns a FilterReport, the immutable named tuple (name, outcome,
detail), whose outcome is FAIL when the candidate provably cannot solve
the equation, PASS when the filter does not exclude it, and INCONCLUSIVE
when the filter could not decide (an incomplete factorization).  Filters are accelerators only: the decision procedure
never trusts a FAIL without the option of exact evaluation, and paranoid
mode settles every filtered candidate's sign too (see decider).

check_modular_collapse is different in kind: it replays, on one concrete
candidate, the 2-adic congruence argument that rules out solutions for
ell >= 5.  There PASS means "the contradiction is witnessed on this
candidate" and FAIL would mean the argument's valuation bookkeeping broke
down -- a bug flag, not an exclusion verdict.  It takes (ell, k, g) and
the row of 2-adic valuations of the power sums (sum_valuations, built
once per batch by the caller and shared by every replay of that k), never
w itself.  Callers gate it on the radical filter alone, whose PASS makes
g >= 1.  That filter factors k(k+1) once per k per process, through a
memo of at most _RADICAL_MEMO = 1024 radicals.
The replay adds three rows over odd m, element by element: that valuation
row, the Kummer row popcount(m) + popcount(ell-m) of the binomial
coefficients (kept per ell), and the part that is linear in m.  The part
that depends only on ell and g is added once.  It never forms C(ell, m).
"""

from collections import namedtuple
from functools import lru_cache
from itertools import repeat
from operator import add, and_, neg, sub

from .arith import nu, odd_prime_factors, rad
# powersum_batch is unused here, but bench/spans.py patches the name in this module
from .powersum import powersum_batch  # noqa: F401

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

# Radicals _radical keeps: every k of a sweep up to ell = 3500 (k below
# ell / sqrt(12)).
_RADICAL_MEMO = 1024


class FilterReport(namedtuple("FilterReport", "name outcome detail")):
    """One filter's name, its outcome (PASS, FAIL or INCONCLUSIVE) and why."""

    __slots__ = ()

    @property
    def failed(self) -> bool:
        return self.outcome == FAIL


@lru_cache(maxsize=_RADICAL_MEMO)
def _radical(k: int) -> int:
    """rad(k(k+1)), factored once per k per process."""
    return rad(k * (k + 1))


def filter_radical(k: int, w: int) -> FilterReport:
    """Every prime dividing k(k+1) must divide w (so w must be even)."""
    r = _radical(k)
    if w % r != 0:
        return FilterReport("radical", FAIL, f"rad({k * (k + 1)}) = {r} does not divide w = {w}")
    return FilterReport("radical", PASS, f"rad({k * (k + 1)}) = {r} divides w = {w}")


def filter_g_ge_e_plus_1(ell: int, w: int) -> FilterReport:
    """nu_2(w) must exceed nu_2(ell): g >= e + 1."""
    e = nu(ell)
    g = nu(w)
    if g < e + 1:
        return FilterReport("g_ge_e_plus_1", FAIL, f"g = {g} < e + 1 = {e + 1}")
    return FilterReport("g_ge_e_plus_1", PASS, f"g = {g} >= e + 1 = {e + 1}")


def filter_w_plus_1_primes(ell: int, w: int) -> FilterReport:
    """Every odd prime p dividing w+1 must satisfy p == 1 (mod 2^(e+1)).

    Only meaningful for even ell >= 4 (e >= 1); for odd ell the condition
    degenerates to p odd, and ell = 2 has genuine solutions, so both are
    rejected.  An incomplete factorization of w+1 yields INCONCLUSIVE --
    the caller must then fall back to exact evaluation.
    """
    if ell % 2 == 1 or ell < 4:
        raise ValueError(f"this filter applies to even ell >= 4, got {ell}")
    if w < 1:
        raise ValueError(f"w must be >= 1, got {w}")
    modulus = 2 ** (nu(ell) + 1)
    primes, remainder = odd_prime_factors(w + 1)
    for p in primes:
        if p % modulus != 1:
            return FilterReport(
                "w_plus_1_primes", FAIL, f"prime {p} | w+1 = {w + 1} has {p} % {modulus} = {p % modulus} != 1"
            )
    if remainder != 1:
        return FilterReport(
            "w_plus_1_primes", INCONCLUSIVE, f"unfactored remainder {remainder} of w+1 = {w + 1}"
        )
    return FilterReport(
        "w_plus_1_primes", PASS, f"all odd primes of w+1 = {w + 1} are 1 mod {modulus}"
    )


def filter_3f_plus_3(ell: int, k: int) -> FilterReport:
    """Solutions require 3*f + 3 <= ell; with f >= 1 this kills ell <= 5."""
    if ell < 3:
        raise ValueError(f"this filter applies for ell >= 3, got {ell}")
    f = nu(k * (k + 1))
    if 3 * f + 3 > ell:
        return FilterReport("3f_plus_3", FAIL, f"3f + 3 = {3 * f + 3} > ell = {ell}")
    return FilterReport("3f_plus_3", PASS, f"3f + 3 = {3 * f + 3} <= ell = {ell}")


# The low word of a power sum: its lowest set bit lies here unless the sum
# is 0 or divisible by 2^64.
_LOW_WORD = (1 << 64) - 1


def _zero_power_sum(k: int, m: int):
    raise ValueError(f"power sum S_{m}({k}) = 0 at m = {m} has no 2-adic valuation")


def sum_valuations(k: int, sums: dict[int, int]) -> list[int]:
    """nu_2(S_m(k)) for m = 1, 3, ..., in the order of sums, a powersum_batch result.

    Each valuation is read from the sum's low 64 bits, which takes constant
    time for a positive sum, however long it is; only a sum whose low 64
    bits are all zero is read whole.  A sum of 0 has no 2-adic valuation
    and raises ValueError naming its m.
    """
    lows = list(map(and_, sums.values(), repeat(_LOW_WORD)))
    # the lowest set bit of each low word, whose bit length less 1 is the
    # valuation, and -1 when the word is 0
    row = list(map(sub, map(int.bit_length, map(and_, lows, map(neg, lows))), repeat(1)))
    if -1 in row:
        for i, (m, s) in enumerate(sums.items()):
            if row[i] < 0:
                row[i] = nu(s) if s else _zero_power_sum(k, m)
    return row


@lru_cache(maxsize=16)
def _kummer_row(ell: int) -> tuple[int, ...]:
    """popcount(m) + popcount(ell - m) for every odd m from 1 up to ell."""
    return tuple(map(add, map(int.bit_count, range(1, ell + 1, 2)),
                     map(int.bit_count, range(ell - 1, -1, -2))))


def check_modular_collapse(ell: int, k: int, g: int, valuations: list[int]) -> FilterReport:
    """Replay the 2-adic collapse of the equation on one candidate.

    g = nu_2(w) >= 1 and valuations = sum_valuations(k, powersum_batch(k, ell)),
    or a longer row; one shorter than (top_m + 1) / 2 raises ValueError.  The
    report is a function of (ell, k, g) and that row alone.

    Write the equation as top_power(w) = sum of terms over odd m <= top_m.
    Even ell works with the equation divided by w, so with shift = 1 for
    even ell and 0 for odd ell, top_m = ell - shift.  One formula serves both
    parities, since e = nu_2(ell) is 0 for odd ell.  Let
    s = 2^((2f-1) + 2g + e).  The checks, all on exact integers:

      (i)   every middle term, 3 <= m < top_m, has nu_2 >= nu_2(s);
      (ii)  the m = 1 term has nu_2 exactly e + (top_m - 1)g + f, and at
            least nu_2(s);
      (iii) the last term, m = top_m, has nu_2 exactly e + 2f - 1.

    When they hold, a solution would force top_m * g = e + 2f - 1.  PASS
    reports that the forced equality is false, i.e. the candidate is
    contradicted.  Any other outcome is FAIL and signals a bookkeeping bug,
    never an accepted candidate.
    """
    if ell < 5:
        raise ValueError(f"the collapse argument needs ell >= 5, got {ell}")
    if g < 1:
        raise ValueError(f"g = nu_2(w) must be >= 1, got {g}")
    e = nu(ell)
    f = nu(k * (k + 1))
    s_exp = 2 * f - 1 + 2 * g + e
    shift = 1 - ell % 2  # even ell works with the w-divided equation
    top_m = ell - shift
    count = (top_m + 1) // 2
    if len(valuations) < count:
        raise ValueError(f"need {count} power-sum valuations, got {len(valuations)}")

    # nu_2 of the term 2 * C(ell, m) * w^(ell-m-shift) * S_m(k) for m = 1, 3,
    # ..., top_m, from Kummer's theorem for the binomial and the power sum's
    # valuation; the part common to every m is added once
    base = 1 - ell.bit_count() + (ell - shift) * g
    term_val = list(map(add, map(add, valuations, _kummer_row(ell)),
                        range(base - g, base - g - 2 * g * count, -2 * g)))

    name = "modular_collapse"
    middle = term_val[1:-1]
    if min(middle) < s_exp:
        for m, v in zip(range(3, top_m, 2), middle):
            if v < s_exp:
                return FilterReport(
                    name, FAIL, f"middle term m = {m} has nu_2 = {v} < nu_2(s) = {s_exp}"
                )
    m1_expected = e + (top_m - 1) * g + f
    m1 = term_val[0]
    if m1 != m1_expected:
        return FilterReport(
            name, FAIL, f"m = 1 term has nu_2 = {m1}, expected exactly {m1_expected}"
        )
    if m1 < s_exp:
        return FilterReport(
            name, FAIL, f"m = 1 term has nu_2 = {m1} < nu_2(s) = {s_exp}, no collapse"
        )
    top_expected = e + 2 * f - 1
    top = term_val[-1]
    if top != top_expected:
        return FilterReport(
            name, FAIL, f"last term has nu_2 = {top}, expected exactly {top_expected}"
        )
    lhs = top_m * g
    if lhs == top_expected:
        return FilterReport(
            name,
            FAIL,
            f"forced equality holds: nu_2(top power) = {lhs} = {top_expected}; no contradiction",
        )
    return FilterReport(
        name,
        PASS,
        f"contradiction witnessed: nu_2(top power) = {lhs} != {top_expected} "
        f"with e = {e}, f = {f}, g = {g}",
    )
