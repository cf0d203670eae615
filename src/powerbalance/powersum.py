"""Exact power sums S_m(k) = 1^m + 2^m + ... + k^m, by independent methods.

Three routes to the same integers:

* ``powersum_direct`` -- term-by-term summation, the reference method;
* ``powersum_closed`` -- the Faulhaber polynomial, built once per m from the
  exact rational Bernoulli numbers and kept as integer coefficients over one
  common denominator D_m; each evaluation is Horner's rule on integers and
  one division by D_m, whose remainder must be zero;
* ``powersum_batch``  -- all S_m(k) for odd m up to a bound in one
  incremental pass, the engine the decision procedure uses (stepping
  i^m -> i^(m+2) avoids recomputing every power anew).  Given a
  batch already held for some k0 <= k, it adds only the terms i^m with
  k0 < i <= k, so a caller walking k upward pays O(m_max) per step.

Two classical congruence/valuation facts about these sums are exposed as
checkable predicates: Carlitz-von Staudt (k(k+1)/2 divides S_m(k) for odd m)
and MacMillan-Sondow (nu_2(2*S_m(k)) = 2*nu_2(k(k+1)) - 1 for odd m >= 3).
"""

from fractions import Fraction
from math import comb, lcm

from .arith import nu


def _check_k_m(k: int, m: int) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")


# Grow-only Bernoulli cache (B1 = +1/2 convention).  Readers take a local
# reference; writers publish a fresh, longer list by rebinding the global,
# which is atomic in CPython.  A racing duplicate computation is harmless.
_BERNOULLI: list[Fraction] = [Fraction(1), Fraction(1, 2)]


def bernoulli_numbers(n: int) -> list[Fraction]:
    """Bernoulli numbers B_0 .. B_n (B_1 = +1/2), memoized.

    Computed by the Akiyama-Tanigawa recurrence over exact rationals; one
    O(n^2) pass yields the whole prefix.
    """
    global _BERNOULLI
    table = _BERNOULLI
    if n < len(table):
        return table[: n + 1]
    row: list[Fraction] = []
    fresh = []
    for m in range(n + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        fresh.append(row[0])
    _BERNOULLI = fresh
    return fresh[: n + 1]


def powersum_direct(k: int, m: int) -> int:
    """S_m(k) by direct summation, for k >= 1 and m >= 0."""
    _check_k_m(k, m)
    return sum(i**m for i in range(1, k + 1))


# Faulhaber memo: m -> (D_m, c), where c lists integer coefficients by
# descending power of k and S_m(k) = (c[0] k^(m+1) + ... + c[m] k) / D_m.
# Racing threads may build an entry twice; both store the same value.
_FAULHABER: dict[int, tuple[int, tuple[int, ...]]] = {}


def _faulhaber(m: int) -> tuple[int, tuple[int, ...]]:
    """The memoized integer form (D_m, coefficients) of Faulhaber's formula.

    S_m(k) = sum_j C(m+1, j) B_j k^(m+1-j) / (m+1); D_m is the least common
    denominator of those rational coefficients.
    """
    entry = _FAULHABER.get(m)
    if entry is None:
        bern = bernoulli_numbers(m)
        rational = [comb(m + 1, j) * bern[j] / (m + 1) for j in range(m + 1)]
        denom = lcm(*(q.denominator for q in rational))
        coeffs = tuple(q.numerator * (denom // q.denominator) for q in rational)
        entry = _FAULHABER[m] = (denom, coeffs)
    return entry


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
    out: dict[int, int] = {}
    powers = list(range(k0 + 1, k + 1))
    steps = [i * i for i in powers]
    for m in range(1, m_max + 1, 2):
        out[m] = sum(powers) if base is None else base[m] + sum(powers)
        for i, step in enumerate(steps):
            powers[i] *= step
    return out


def check_carlitz_von_staudt(k: int, m: int) -> bool:
    """Does k(k+1)/2 divide S_m(k)?  (Carlitz-von Staudt: yes for odd m.)"""
    if m < 1 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 1, got {m}")
    return powersum_direct(k, m) % (k * (k + 1) // 2) == 0


def check_macmillan_sondow(k: int, m: int) -> bool:
    """Does nu_2(2*S_m(k)) equal 2*nu_2(k(k+1)) - 1?

    The MacMillan-Sondow valuation theorem asserts this for all odd m >= 3,
    independent of m.  (m = 1 is excluded: there nu_2(2*S_1(k)) is
    nu_2(k(k+1)) itself, which the main argument tracks separately.)
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"m must be odd and >= 3, got {m}")
    s = powersum_direct(k, m)
    return nu(2, 2 * s) == 2 * nu(2, k * (k + 1)) - 1
