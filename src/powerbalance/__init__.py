"""Exact verifier and decision procedure for the balanced power-sum equation

    n^ell + (n+1)^ell + ... + (n+k)^ell = (n+k+1)^ell + ... + (n+2k)^ell.

For ell = 1 and ell = 2 the solutions form the classical closed families
(n = k^2 and n = k(2k+1)); for every ell >= 3 the equation has no positive
integer solutions, and this package decides that finitely for any given
ell -- exact interval bounds, 2-adic filters, exact big-integer evaluation --
and emits machine-checkable certificates.  See OEIS A234319.

The top level holds what a caller needs to decide, sweep and check:
decide, sweep, Certificate, certificate_json, verify_instance and
solution_family.  Everything else stays in its module, e.g.
``from powerbalance.bounds import compute_bounds``.
"""

__version__ = "0.1.0"

from .decider import Certificate, certificate_json, decide, sweep
from .equation import solution_family, verify_instance

__all__ = [
    "Certificate",
    "certificate_json",
    "decide",
    "solution_family",
    "sweep",
    "verify_instance",
]
