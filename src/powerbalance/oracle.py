"""Brute-force ground truth, kept deliberately separate from the decision
procedure.

oracle_search scans an (n, k) box and reports every point where the two
sides of the balanced equation agree, using nothing but exact integer
sums -- slid incrementally along n and k so the box costs O(n_max * k_max)
additions instead of a triple loop of powers.

count_positive_roots counts the distinct positive real roots of f exactly,
by Sturm's theorem: the Sturm chain f, f', -rem(f, f'), ... is built with
integer pseudo-remainders (content removed at each step, signs kept), and
the count is its sign variations just right of 0 minus those at infinity.
The last member of the chain is gcd(f, f') up to a constant, so
has_simple_roots reads off from the same chain whether every root is
simple.  Together they prove "exactly one simple positive root" without
the Descartes sign pattern the decision procedure relies on.
"""

from math import gcd


def oracle_search(ell: int, n_max: int, k_max: int) -> list[tuple[int, int]]:
    """All (n, k) with n <= n_max, k <= k_max solving the equation, ascending.

    Maintains both sides incrementally: stepping k -> k+1 moves one term
    across and appends two; stepping n restarts the k run.
    """
    if ell < 1 or n_max < 1 or k_max < 1:
        raise ValueError("ell, n_max and k_max must all be >= 1")
    top = n_max + 2 * k_max
    power = [0] * (top + 1)
    for x in range(1, top + 1):
        power[x] = x**ell
    found = []
    for n in range(1, n_max + 1):
        left = power[n] + power[n + 1]
        right = power[n + 2]
        if left == right:
            found.append((n, 1))
        for k in range(2, k_max + 1):
            left += power[n + k]
            right += power[n + 2 * k - 1] + power[n + 2 * k] - power[n + k]
            if left == right:
                found.append((n, k))
    return sorted(found)


def _dense(poly: tuple[tuple[int, int], ...]) -> list[int]:
    """Coefficients of poly by descending power, zeros filled in."""
    terms = [(exp, c) for exp, c in poly if c]
    if not terms:
        raise ValueError("the zero polynomial has no finite root count")
    degree = max(exp for exp, _ in terms)
    dense = [0] * (degree + 1)
    for exp, c in terms:
        dense[degree - exp] += c
    return dense


def _primitive(p: list[int]) -> list[int]:
    """p with leading zeros dropped and divided by its (positive) content."""
    while p and p[0] == 0:
        p = p[1:]
    content = gcd(*p) or 1
    return [c // content for c in p]


def _positive_remainder(a: list[int], b: list[int]) -> list[int]:
    """A positive integer multiple of the remainder of a modulo b.

    Fraction-free pseudo-division: each step scales the running remainder
    by |lc(b)| before cancelling its leading term, so the signs, which are
    all Sturm's theorem reads, are those of the true remainder.
    """
    lead = b[0]
    scale, sign = abs(lead), 1 if lead > 0 else -1
    r = a
    while len(r) >= len(b):
        c = r[0] * sign
        r = [scale * x - c * y for x, y in zip(r, b)] + [scale * x for x in r[len(b):]]
        r = _primitive(r[1:])
    return r


def _sturm_chain(poly: tuple[tuple[int, int], ...]) -> list[list[int]]:
    """f, f', then each negated remainder, every member primitive; the last
    member is gcd(f, f') up to a constant factor."""
    chain = [_primitive(_dense(poly))]
    degree = len(chain[0]) - 1
    derivative = [c * (degree - i) for i, c in enumerate(chain[0][:-1])]
    if derivative:
        chain.append(_primitive(derivative))
    while len(chain[-1]) > 1:
        rem = _positive_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _variations(values: list[int]) -> int:
    """Sign changes along a list of nonzero integers."""
    return sum(1 for s, t in zip(values, values[1:]) if (s > 0) != (t > 0))


def count_positive_roots(poly: tuple[tuple[int, int], ...]) -> int:
    """Number of distinct positive real roots of f, exactly, by Sturm's theorem.

    Just right of 0 each chain member has the sign of its lowest nonzero
    coefficient, and at infinity that of its leading one; the drop in sign
    variations between the two is the number of distinct roots in (0, inf).
    A root at w = 0 is not counted.
    """
    chain = _sturm_chain(poly)
    near_zero = [next(c for c in reversed(p) if c) for p in chain]
    at_infinity = [p[0] for p in chain]
    return _variations(near_zero) - _variations(at_infinity)


def has_simple_roots(poly: tuple[tuple[int, int], ...]) -> bool:
    """Is every complex root of f simple, i.e. is gcd(f, f') a constant?"""
    return len(_sturm_chain(poly)[-1]) == 1
