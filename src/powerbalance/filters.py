"""Necessary conditions on candidate solutions (k, w) for exponent ell.

Everything revolves around the three 2-adic valuations

    e = nu_2(ell),   f = nu_2(k(k+1)),   g = nu_2(w).

A filter returns a FilterReport whose outcome is FAIL when the candidate
provably cannot solve the equation, PASS when the filter does not exclude
it, and INCONCLUSIVE when the filter could not decide (an incomplete
factorization).  Filters are accelerators only: the decision procedure
never trusts a FAIL without the option of exact evaluation, and paranoid
mode settles every filtered candidate's sign too, by direct summation of
the equation checked against f(k, w), to confirm it is nonzero.

check_modular_collapse is different in kind: it replays, on one concrete
candidate, the 2-adic congruence argument that rules out solutions for
ell >= 5.  There PASS means "the contradiction is witnessed on this
candidate" and FAIL would mean the argument's valuation bookkeeping broke
down -- a bug flag, not an exclusion verdict.  The replay takes nu_2 of each
binomial coefficient from Kummer's theorem and nu_2 of each power sum from
its lowest set bit, so it never forms C(ell, m).
"""

from dataclasses import dataclass

from .arith import FACTOR_LIMIT, nu, nu2_binomial, odd_prime_factors, rad
from .powersum import powersum_batch

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class FilterReport:
    name: str
    outcome: str
    detail: str

    @property
    def failed(self) -> bool:
        return self.outcome == FAIL


def filter_radical(k: int, w: int) -> FilterReport:
    """Every prime dividing k(k+1) must divide w (so w must be even)."""
    r = rad(k * (k + 1))
    if w % r != 0:
        return FilterReport("radical", FAIL, f"rad({k * (k + 1)}) = {r} does not divide w = {w}")
    return FilterReport("radical", PASS, f"rad({k * (k + 1)}) = {r} divides w = {w}")


def filter_g_ge_e_plus_1(ell: int, w: int) -> FilterReport:
    """nu_2(w) must exceed nu_2(ell): g >= e + 1."""
    e = nu(2, ell)
    g = nu(2, w)
    if g < e + 1:
        return FilterReport("g_ge_e_plus_1", FAIL, f"g = {g} < e + 1 = {e + 1}")
    return FilterReport("g_ge_e_plus_1", PASS, f"g = {g} >= e + 1 = {e + 1}")


def filter_w_plus_1_primes(ell: int, w: int, factor_limit: int = FACTOR_LIMIT) -> FilterReport:
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
    modulus = 2 ** (nu(2, ell) + 1)
    factors, remainder = odd_prime_factors(w + 1, factor_limit)
    for p, _ in factors:
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
    f = nu(2, k * (k + 1))
    if 3 * f + 3 > ell:
        return FilterReport("3f_plus_3", FAIL, f"3f + 3 = {3 * f + 3} > ell = {ell}")
    return FilterReport("3f_plus_3", PASS, f"3f + 3 = {3 * f + 3} <= ell = {ell}")


def check_modular_collapse(
    ell: int, k: int, w: int, precomputed_sums: dict[int, int] | None = None
) -> FilterReport:
    """Replay the 2-adic collapse of the equation on one candidate.

    Write the equation as top_power(w) = sum of terms over odd m, and let
    s = 2^((2f-1) + 2g + e) for even ell, s = 2^((2f-1) + 2g) for odd ell.
    The checks, all on exact integers:

      (i)   every middle term (3 <= m <= ell-3 even case, <= ell-2 odd
            case) has nu_2 >= nu_2(s);
      (ii)  the m = 1 term has nu_2 exactly e + (ell-2)g + f (even case)
            resp. (ell-1)g + f (odd case), and at least nu_2(s);
      (iii) the last term has nu_2 exactly e + 2f - 1 resp. 2f - 1.

    When they hold, a solution would force (ell-1)g = e + 2f - 1 (even)
    resp. ell*g = 2f - 1 (odd).  PASS reports that the forced equality is
    false, i.e. the candidate is contradicted.  Any other outcome is FAIL
    and signals a bookkeeping bug, never an accepted candidate.
    """
    if ell < 5:
        raise ValueError(f"the collapse argument needs ell >= 5, got {ell}")
    if w % 2 != 0:
        raise ValueError(f"w must be even, got {w}")
    if filter_radical(k, w).failed:
        raise ValueError(f"rad(k(k+1)) must divide w, got k = {k}, w = {w}")
    even = ell % 2 == 0
    e = nu(2, ell)
    f = nu(2, k * (k + 1))
    g = nu(2, w)
    s_exp = (2 * f - 1) + 2 * g + (e if even else 0)
    sums = precomputed_sums if precomputed_sums is not None else powersum_batch(k, ell)
    shift = 1 if even else 0  # even case works with the w-divided equation
    top_m = ell - 1 if even else ell

    def term_val(m):
        # nu_2 of 2 * C(ell, m) * w^(ell-m-shift) * S_m(k)
        return 1 + nu2_binomial(ell, m) + (ell - m - shift) * g + nu(2, sums[m])

    name = "modular_collapse"
    for m in range(3, top_m, 2):
        v = term_val(m)
        if v < s_exp:
            return FilterReport(
                name, FAIL, f"middle term m = {m} has nu_2 = {v} < nu_2(s) = {s_exp}"
            )
    m1_expected = e + (ell - 2) * g + f if even else (ell - 1) * g + f
    m1 = term_val(1)
    if m1 != m1_expected:
        return FilterReport(
            name, FAIL, f"m = 1 term has nu_2 = {m1},  expected exactly {m1_expected}"
        )
    if m1 < s_exp:
        return FilterReport(
            name, FAIL, f"m = 1 term has nu_2 = {m1} < nu_2(s) = {s_exp}, no collapse"
        )
    top_expected = (e if even else 0) + 2 * f - 1
    top = term_val(top_m)
    if top != top_expected:
        return FilterReport(
            name, FAIL, f"last term has nu_2 = {top}, expected exactly {top_expected}"
        )
    lhs = (ell - 1) * g if even else ell * g
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
