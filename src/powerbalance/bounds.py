"""Exact rational window that traps the positive root w(k), and the finite
search bound on k that follows from it.

With K = k(k+1), a = (ell-1)(ell-2)/(12*ell) and b = 2*a^2/ell, the unique
positive root w(k) of f satisfies

    ell*K + a - b/K  <=  w(k)  <=  ell*K + a.

Since a solution w must be an integer and (ell-3)/12 <= a < (ell-2)/12 for
ell >= 3, the ceiling tightens to w <= ell*K + (ell-3)/12, which in turn
caps K at (ell-1)^2 (ell-2)^2 / (12*ell^2): only finitely many k remain for
each ell.  The integer list needs none of that tightening: writing
ell - 3 = 12q + r with 0 <= r <= 11 gives a = q + r/12 + 1/(6*ell) with a
fractional part below 1, so floor(ell*K + a) is already ell*K + q.  For
ell in (1, 2), a = b = 0 and the window is the single point ell*K.

The same algebra says exactly which windows hold an integer.  Since
floor(upper) = ell*K + q, the window of k holds one exactly when its lower
end is at most ell*K + q, that is when b/K >= a - q.  With A = (ell-1)(ell-2),
A - 12 q ell = r ell + 2, so a - q = (r ell + 2) / (12 ell) > 0, and
b = A^2 / (72 ell^3); the condition is therefore

    6 ell^2 (r ell + 2) K <= A^2,   i.e.   K <= K* = A^2 / (6 ell^2 (r ell + 2)).

As r ell + 2 >= 2, K* never exceeds the sharp cap A^2 / (12 ell^2), and the
two coincide when r = 0.  So the windows that hold integers are exactly
those of k = 1..k*, k* the largest k with k(k+1) <= floor(K*)
(nonempty_K_bound), and every window from k* + 1 on is empty.

Both ends of a window share the denominator
den = 72 ell^3 K, straight from the definitions of a and b:

    upper = (72 ell^4 K^2 + 6 ell^2 A K) / den,
    lower = (72 ell^4 K^2 + 6 ell^2 A K - A^2) / den,

and a window is the integer triple (lower, upper, den) of the two
numerators and that denominator, never reduced.  Its integers run from
ceil(lower/den) to floor(upper/den) by integer division.  No rounding
anywhere.

check_sandwich confirms the window lemma for one (ell, k) from two exact
signs: f has a single positive root because its coefficients change sign
once and f(0) < 0, so the root lies in the window exactly when f is
nonpositive at the lower end and nonnegative at the upper end.
"""

from fractions import Fraction
from math import isqrt

from .equation import build_f, eval_f, sign_changes


def compute_bounds(ell: int, k: int) -> tuple[int, int, int]:
    """The root window (ell*K + a - b/K, ell*K + a) as (lower, upper, den).

    The ends are lower/den and upper/den with den = 72 ell^3 K, for ell >= 1
    and k >= 1.
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    K = k * (k + 1)
    A = (ell - 1) * (ell - 2)
    ell2 = ell * ell
    t = 6 * ell2 * K
    upper = t * (12 * ell2 * K + A)
    return upper - A * A, upper, 12 * ell * t


def corollary_K_bound(ell: int) -> Fraction:
    """Largest K = k(k+1) a solution could have: (ell-1)^2 (ell-2)^2 / (12 ell^2).

    This is the sharp form; the weaker (ell-2)^2 / 12 is exposed separately
    as weak_K_bound.  Candidate k are those with k(k+1) <= this value.
    """
    if ell < 3:
        raise ValueError(f"the K bound applies for ell >= 3, got {ell}")
    return Fraction((ell - 1) ** 2 * (ell - 2) ** 2, 12 * ell**2)


def weak_K_bound(ell: int) -> Fraction:
    """The rounder published form (ell-2)^2 / 12; strictly above the sharp bound."""
    if ell < 3:
        raise ValueError(f"the K bound applies for ell >= 3, got {ell}")
    return Fraction((ell - 2) ** 2, 12)


def largest_k(C: int) -> int:
    """Largest k >= 0 with k(k+1) <= C, for an integer C >= 0.

    k(k+1) <= C exactly when (2k+1)^2 <= 4C + 1, so k is read off one isqrt.
    """
    return (isqrt(4 * C + 1) - 1) // 2


def k_max(ell: int) -> int:
    """Last k under the sharp K cap: the largest k with 12 ell^2 k(k+1) <= A^2.

    A = (ell-1)(ell-2); this is 0 when no k qualifies, as for ell <= 7.
    """
    A = (ell - 1) * (ell - 2)
    return largest_k(A * A // (12 * ell * ell))


def nonempty_K_bound(ell: int) -> int:
    """floor(K*) = floor(A^2 / (6 ell^2 (r ell + 2))), r = (ell-3) mod 12.

    For ell >= 3 the window of k holds an integer exactly when k(k+1) is at
    most this (see the module docstring), so largest_k of it is k*.
    """
    A = (ell - 1) * (ell - 2)
    r = (ell - 3) % 12
    return A * A // (6 * ell * ell * (r * ell + 2))


def integers_in_window(window: tuple[int, int, int]) -> list[int]:
    """All integers w with lower/den <= w <= upper/den, ascending."""
    lower, upper, den = window
    return list(range(-(-lower // den), upper // den + 1))


def check_appendix_identity(ell, K) -> bool:
    """Pointwise agreement of the inequality chain behind the lower bound.

    The derivation rewrites (1 - 2a/(ell K))^3 < 8 (1 - a/(ell K)) step by
    step into (ell K + a - b/K)^3 < ell K (ell K + a - b/K)^2 + ell^2 a K^2.
    Each line is evaluated here as an exact predicate at the given rational
    point (a, b derived from ell); True means all lines agree, so in
    particular the first and last are equivalent at this point.

    Accepts any rational ell > 2 and K > 0, where every denominator in the
    chain is nonzero.
    """
    ell = Fraction(ell)
    K = Fraction(K)
    if ell <= 2:
        raise ValueError(f"ell must exceed 2, got {ell}")
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    a = (ell - 1) * (ell - 2) / (12 * ell)
    b = 2 * a * a / ell
    u = a / (ell * K)
    t = a - b / K
    w0 = ell * K + t
    lines = [
        (1 - 2 * u) ** 3 < 8 * (1 - u),
        a * (1 - 2 * u) ** 3 - 8 * a * (1 - u) < 0,
        (1 - 2 * u) ** 2 * (2 * ell * K + a * (1 - 2 * u)) < 2 * ell * K,
        t**2 * (2 * ell * K + t) < b * ell**2 * K,
        t * (2 * ell * K * t + t**2) < b * ell**2 * K,
        t * (ell**2 * K**2 + 2 * ell * K * t + t**2) < ell**2 * a * K**2,
        t * w0**2 < ell**2 * a * K**2,
        w0**3 < ell * K * w0**2 + ell**2 * a * K**2,
    ]
    return all(line == lines[0] for line in lines[1:])


def check_sandwich(ell: int, k: int) -> bool:
    """Does the unique positive root of f lie inside [lower, upper]?

    f has one coefficient sign change and f(0) < 0, so its single positive
    root r has f < 0 on (0, r) and f > 0 beyond it.  The lower end is
    positive (ell*K >= 2*ell while b/K < ell/144), so lower <= r <= upper
    holds exactly when f(lower) <= 0 <= f(upper).  Raises ValueError if
    either property of f fails, since the two signs then prove nothing.
    """
    lower, upper, den = compute_bounds(ell, k)
    poly = build_f(ell, k)
    if sign_changes(poly) != 1:
        raise ValueError("the window lemma needs exactly one coefficient sign change")
    if eval_f(poly, 0) >= 0:
        raise ValueError("the window lemma needs f(0) < 0")
    return eval_f(poly, Fraction(lower, den)) <= 0 <= eval_f(poly, Fraction(upper, den))
