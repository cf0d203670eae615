"""The balanced power-sum equation and its polynomial form.

The equation asks for k+1 consecutive ell-th powers summing to the next k:

    n^ell + (n+1)^ell + ... + (n+k)^ell  =  (n+k+1)^ell + ... + (n+2k)^ell.

Substituting the center w = n+k and moving everything to one side turns it
into a one-variable polynomial condition f(k, w) = 0:

    f(k, w) = w^ell   - 2 * sum_{m odd} C(ell, m) w^(ell-m)   S_m(k)   (ell odd)
    f(k, w) = w^(ell-1) - 2 * sum_{m odd} C(ell, m) w^(ell-m-1) S_m(k)   (ell even)

where S_m(k) is the m-th power sum; for even ell the shared factor w has
been divided out.  The coefficient sequence has exactly one sign change, so
by Descartes' rule of signs there is at most one positive root per (ell, k);
as f(0) < 0 and the leading coefficient is positive, there is exactly one,
with f negative below it and positive above.  The exact sign of f at any
w > 0 therefore says on which side of the root w lies, which is all the
window lemma (bounds.check_sandwich) needs.  For ell = 1 and ell = 2 that
root is w = k(k+1) resp. w = 2k(k+1), giving the classical solution
families; this module generates and verifies them.

The decision procedure never needs the coefficients.  For w > 0, f(k, w)
has the sign of D(w) = LHS - RHS at n = w - k (f equals it for odd ell, and
w * f does for even ell), and

    D(w) = w^ell - 2 * sum_{m odd} C(ell, m) w^(ell-m) S_m(k).

balance_sign reads that sign off the first few terms.  For odd M,
D / w^(ell-M) = G_M - T_M, where G_M is the integer w^M minus the terms with
m <= M and T_M is the tail of the terms with m > M, each positive.  The
tail is at least its first term t = 2 C(ell, M+2) S_{M+2}(k) / w^2, and
each later term is at most rho = ell^2 k^2 / ((M+3) (M+4) w^2) times the
one before, so T_M <= t / (1 - rho) when rho < 1.  G_M < t makes the sign
-1, G_M (1 - rho) > t makes it +1, and otherwise M grows by 2; at the last
odd m the tail is empty and G_M is exact, zero included.  At window
integers M stays small, so only a few S_m(k), from the caller's mapping,
are read and no ell-th power is formed.

build_f and eval_f serve the root-counting oracle, the window lemmas and the
tests; balance_difference and interval_sign read D off the definition itself.
"""

from .powersum import powersum_batch

# Mantissa width, in bits, at which interval_sign first brackets each power.
_INTERVAL_BITS = 128


def build_f(ell: int, k: int) -> tuple[tuple[int, int], ...]:
    """The exact coefficients of f(k, w) for ell >= 1 and k >= 1.

    f is returned as (exponent, coefficient) pairs by descending exponent.
    The leading coefficient is +1 and all the others are negative, so the
    sign sequence changes exactly once.

    The odd binomials C(ell, m) are walked up the row by the exact recurrence
    C(ell, m+2) = C(ell, m) (ell-m) (ell-m-1) / ((m+1) (m+2)).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sums = powersum_batch(k, ell)
    shift = 0 if ell % 2 == 1 else 1
    coeffs = [(ell - shift, 1)]
    binom = ell
    for m in range(1, ell + 1, 2):
        coeffs.append((ell - m - shift, -2 * binom * sums[m]))
        binom = binom * (ell - m) * (ell - m - 1) // ((m + 1) * (m + 2))
    return tuple(coeffs)


def eval_f(poly: tuple[tuple[int, int], ...], w):
    """Evaluate f at w, exactly.  int in, int out; Fraction in, Fraction out."""
    acc = 0
    prev_exp = None
    for exp, c in poly:
        if prev_exp is None:
            acc = c
        else:
            acc = acc * w ** (prev_exp - exp) + c
        prev_exp = exp
    if prev_exp:
        acc = acc * w**prev_exp
    return acc


def balance_difference(n: int, k: int, ell: int) -> int:
    """LHS - RHS of the balanced equation at (n, k, ell), by exact summation.

    LHS = n^ell + ... + (n+k)^ell and RHS = (n+k+1)^ell + ... + (n+2k)^ell.
    """
    left = sum((n + j) ** ell for j in range(k + 1))
    right = sum((n + j) ** ell for j in range(k + 1, 2 * k + 1))
    return left - right


def _power_bounds(xs: range, ell: int, bits: int) -> tuple[list[int], int, int]:
    """Floors lo, one gap and one e with lo[i] * 2^e <= xs[i]^ell <= (lo[i] + gap) * 2^e.

    xs ascends from 0 or above.  Square and multiply raises all powers at
    once by the bits of ell, and after each step the invariant above holds
    for the exponent t reached so far.  Every step is monotone, so lo stays
    nondecreasing and top = lo[-1] is its largest floor.  The gap follows
    by scalar arithmetic alone:

      square:            lo[i] -> lo[i]^2,   e -> 2e,  gap -> 2 top gap + gap^2
      multiply by x:     lo[i] -> lo[i] x_i,           gap -> gap * xs[-1]
      shift right by d:  lo[i] -> lo[i] >> d, e -> e + d,
                         gap -> 1 + ceil(gap / 2^d), as lo[i] >> d loses less than 1

    A shift follows any step that leaves top wider than bits bits, and cuts
    it to bits bits.  gap stays 0 until the first shift, so e = 0 means lo
    holds the exact powers.
    """
    lows = [1] * len(xs)
    gap = e = 0
    top_x = xs[-1]
    for bit in bin(ell)[2:]:
        top = lows[-1]
        lows = [v * v for v in lows]
        gap, e = 2 * top * gap + gap * gap, 2 * e
        if bit == "1":
            lows = [v * x for v, x in zip(lows, xs)]
            gap *= top_x
        drop = lows[-1].bit_length() - bits
        if drop > 0:
            lows = [v >> drop for v in lows]
            gap, e = 1 + (-(-gap >> drop)), e + drop
    return lows, gap, e


def interval_sign(n: int, k: int, ell: int) -> int:
    """The sign of LHS - RHS at (n, k, ell), for n, k, ell >= 1, proven from the definition.

    With _power_bounds of all 2k+1 powers and diff = sum of the left side's
    floors minus the right side's, (LHS - RHS) / 2^e lies between
    diff - k gap and diff + (k+1) gap; bits double while that range holds 0.
    """
    if n < 1 or k < 1 or ell < 1:
        raise ValueError(f"n, k and ell must all be >= 1, got {n}, {k}, {ell}")
    bits = _INTERVAL_BITS
    while True:
        lows, gap, e = _power_bounds(range(n, n + 2 * k + 1), ell, bits)
        diff = sum(lows[:k + 1]) - sum(lows[k + 1:])
        low, high = diff - k * gap, diff + (k + 1) * gap
        if low > 0 or high < 0 or e == 0:  # e = 0: gap = 0, low = high = diff
            return (low > 0) - (high < 0)
        bits *= 2


def balance_sign(ell: int, k: int, w: int, sums: dict[int, int]) -> int:
    """The sign of LHS - RHS at n = w - k, for ell, k, w >= 1, without ell-th powers.

    Truncates the expansion of D(w) after odd M and bounds the tail (see the
    module docstring), by integer cross-multiplication only.  sums maps odd
    m to S_m(k): a mapping that yields any odd m <= ell it is asked for,
    and C(ell, m) is walked up the row as in build_f.
    """
    if ell < 1 or k < 1 or w < 1:
        raise ValueError(f"ell, k and w must all be >= 1, got {ell}, {k}, {w}")
    last = ell if ell % 2 == 1 else ell - 1
    w2 = w * w
    lk2 = (ell * k) ** 2
    binom = ell
    g = w - 2 * binom * sums[1]  # G_1
    m = 1
    while m < last:
        binom = binom * (ell - m) * (ell - m - 1) // ((m + 1) * (m + 2))  # C(ell, m+2)
        head = 2 * binom * sums[m + 2]  # t * w^2
        g_next = g * w2 - head  # G_(m+2)
        if g_next < 0:  # G_m < t <= T_m
            return -1
        # G_m (1 - rho) > t, i.e. G_m w^2 - t w^2 > G_m w^2 rho; rho >= 1 never passes
        if g_next * (m + 3) * (m + 4) > g * lk2:
            return 1
        g = g_next
        m += 2
    return (g > 0) - (g < 0)


def verify_instance(n: int, k: int, ell: int) -> bool:
    """Check the balanced equation itself at (n, k, ell) by exact summation."""
    if n < 1 or k < 1 or ell < 1:
        raise ValueError("n, k and ell must all be >= 1")
    return balance_difference(n, k, ell) == 0


def sign_changes(poly: tuple[tuple[int, int], ...]) -> int:
    """Sign changes in the nonzero coefficients, by descending exponent."""
    signs = [1 if c > 0 else -1 for _, c in poly if c != 0]
    if not signs:
        raise ValueError("zero polynomial has no sign sequence")
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def solution_family(ell: int, k: int) -> tuple[int, int]:
    """The closed-form solution (n, w) for ell = 1 or 2.

    ell = 1: w = k(k+1), n = k^2;  ell = 2: w = 2k(k+1), n = k(2k+1).
    """
    if ell not in (1, 2):
        raise ValueError(f"closed-form families exist only for ell in (1, 2), got {ell}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    w = ell * k * (k + 1)
    return w - k, w
