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
down -- a bug flag, not an exclusion verdict.  It takes (ell, k, g), never
w itself and never a power sum: the valuations of the power sums come from
the MacMillan-Sondow lemma, nu_2(S_m(k)) = 2f - 2 for odd m >= 3 and f - 1
at m = 1, which decider checks on every batch it builds.  Callers gate it
on the radical filter alone, whose PASS makes g >= 1.  That filter factors
k and k+1, each by trial division to its own square root, once per k per
process, through a memo of at most _RADICAL_MEMO = 3000 radicals.
The replay is two comparisons of scalars in (ell, f, g): Kummer's theorem
fixes the valuation of the m = 1 and the last term and bounds every term
between them, so no row over odd m is built and C(ell, m) is never formed.
cli's modular-collapse lemma checks those Kummer facts at every ell it runs.
"""

from collections import namedtuple
from functools import lru_cache

from .arith import nu, odd_prime_factors, rad
# powersum_batch is unused here, but bench/spans.py patches the name in this module
from .powersum import powersum_batch  # noqa: F401

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

# Radicals _radical keeps: every k of a sweep up to ell = 10^4 (k below
# ell / sqrt(12), at most bounds.k_max(10^4) = 2885), small ints all.
_RADICAL_MEMO = 3000


class FilterReport(namedtuple("FilterReport", "name outcome detail")):
    """One filter's name, its outcome (PASS, FAIL or INCONCLUSIVE) and why."""

    __slots__ = ()

    @property
    def failed(self) -> bool:
        return self.outcome == FAIL


@lru_cache(maxsize=_RADICAL_MEMO)
def _radical(k: int) -> int:
    """rad(k(k+1)) = rad(k) rad(k+1), as k and k+1 are coprime, once per k per process."""
    return rad(k) * rad(k + 1)


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


def check_modular_collapse(ell: int, k: int, g: int) -> FilterReport:
    """Replay the 2-adic collapse of the equation on one candidate.

    g = nu_2(w) >= 1.  The report is a function of (ell, k, g) alone: the
    power sums enter through the MacMillan-Sondow lemma, with
    f = nu_2(k(k+1)), as nu_2(S_1(k)) = f - 1 and nu_2(S_m(k)) = 2f - 2 at
    every odd m >= 3.

    Write the equation as top_power(w) = sum over odd m <= top_m of the
    terms 2 C(ell, m) w^(top_m - m) S_m(k).  Even ell works with the
    equation divided by w, so top_m = ell - 1 for even ell and ell for odd
    ell.  One formula serves both parities, since e = nu_2(ell) is 0 for odd
    ell.  Let s = 2^((2f-1) + 2g + e).  Kummer's theorem gives
    nu_2(C(ell, 1)) = nu_2(C(ell, top_m)) = e, and
    nu_2(C(ell, m)) = e + nu_2(C(ell-1, m-1)) >= e at every odd m, so:

      (i)   every middle term, 3 <= m < top_m, has nu_2 >= nu_2(s);
      (ii)  the m = 1 term has nu_2 exactly e + (top_m - 1)g + f;
      (iii) the last term, m = top_m, has nu_2 exactly e + 2f - 1.

    That is why no row over m is built: only (ii) can fall below nu_2(s),
    and then there is no collapse.  Otherwise a solution would force
    top_m * g = e + 2f - 1.  PASS reports that the forced equality is
    false, i.e. the candidate is contradicted.  Any other outcome is FAIL
    and signals a bookkeeping bug, never an accepted candidate.
    """
    if ell < 5:
        raise ValueError(f"the collapse argument needs ell >= 5, got {ell}")
    if g < 1:
        raise ValueError(f"g = nu_2(w) must be >= 1, got {g}")
    e = nu(ell)
    f = nu(k * (k + 1))
    s_exp = 2 * f - 1 + 2 * g + e
    top_m = ell - 1 + ell % 2  # even ell works with the w-divided equation

    name = "modular_collapse"
    m1 = e + (top_m - 1) * g + f
    if m1 < s_exp:
        return FilterReport(
            name, FAIL, f"m = 1 term has nu_2 = {m1} < nu_2(s) = {s_exp}, no collapse"
        )
    top = e + 2 * f - 1
    lhs = top_m * g
    if lhs == top:
        return FilterReport(
            name,
            FAIL,
            f"forced equality holds: nu_2(top power) = {lhs} = {top}; no contradiction",
        )
    return FilterReport(
        name,
        PASS,
        f"contradiction witnessed: nu_2(top power) = {lhs} != {top} "
        f"with e = {e}, f = {f}, g = {g}",
    )
