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

The decision procedure never needs the coefficients: for w > 0, f(k, w) has
the sign of LHS - RHS at n = w - k (f equals it for odd ell, and w * f does
for even ell), and balance_difference computes that by direct summation.
build_f and eval_f remain as the independent second route that paranoid
mode, the root-counting oracle and the window lemmas use.
"""

from dataclasses import dataclass

from .powersum import powersum_batch


@dataclass(frozen=True)
class FPolynomial:
    """f(k, w) as a sparse coefficient list, descending exponents.

    Leading coefficient is +1; all the others are negative, so the sign
    sequence changes exactly once.
    """

    coefficients: tuple[tuple[int, int], ...]


def build_f(ell: int, k: int, sums: dict[int, int] | None = None) -> FPolynomial:
    """Assemble the exact coefficients of f(k, w) for ell >= 1 and k >= 1.

    sums, if given, must be powersum_batch(k, ell); passing a batch the
    caller already holds saves computing it again.  The odd binomials
    C(ell, m) are walked up the row by the exact recurrence
    C(ell, m+2) = C(ell, m) (ell-m) (ell-m-1) / ((m+1) (m+2)).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if sums is None:
        sums = powersum_batch(k, ell)
    shift = 0 if ell % 2 == 1 else 1
    coeffs = [(ell - shift, 1)]
    binom = ell
    for m in range(1, ell + 1, 2):
        coeffs.append((ell - m - shift, -2 * binom * sums[m]))
        binom = binom * (ell - m) * (ell - m - 1) // ((m + 1) * (m + 2))
    return FPolynomial(tuple(coeffs))


def eval_f(poly: FPolynomial, w):
    """Evaluate f at w, exactly.  int in, int out; Fraction in, Fraction out."""
    acc = 0
    prev_exp = None
    for exp, c in poly.coefficients:
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


def verify_instance(n: int, k: int, ell: int) -> bool:
    """Check the balanced equation itself at (n, k, ell) by exact summation."""
    if n < 1 or k < 1 or ell < 1:
        raise ValueError("n, k and ell must all be >= 1")
    return balance_difference(n, k, ell) == 0


def sign_changes(poly: FPolynomial) -> int:
    """Sign changes in the nonzero coefficients, by descending exponent."""
    signs = [1 if c > 0 else -1 for _, c in poly.coefficients if c != 0]
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
