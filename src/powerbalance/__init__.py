"""Exact verifier and decision procedure for the balanced power-sum equation

    n^ell + (n+1)^ell + ... + (n+k)^ell = (n+k+1)^ell + ... + (n+2k)^ell.

For ell = 1 and ell = 2 the solutions form the classical closed families
(n = k^2 and n = k(2k+1)); for every ell >= 3 the equation has no positive
integer solutions, and this package decides that finitely for any given
ell -- exact interval bounds, 2-adic filters, exact big-integer evaluation --
and emits machine-checkable certificates.  See OEIS A234319.
"""

__version__ = "0.1.0"

from .arith import nu, odd_prime_factors, rad
from .bounds import (
    check_appendix_identity,
    check_sandwich,
    compute_bounds,
    corollary_K_bound,
    integers_in_window,
    weak_K_bound,
)
from .decider import Certificate, certificate_json, decide, sweep
from .equation import (
    build_f,
    eval_f,
    sign_changes,
    solution_family,
    verify_instance,
)
from .filters import (
    FilterReport,
    check_modular_collapse,
    filter_3f_plus_3,
    filter_g_ge_e_plus_1,
    filter_radical,
    filter_w_plus_1_primes,
)
from .oracle import count_positive_roots, oracle_search
from .powersum import (
    bernoulli_numbers,
    check_carlitz_von_staudt,
    check_macmillan_sondow,
    powersum_batch,
    powersum_closed,
    powersum_direct,
)

__all__ = [
    "Certificate",
    "FilterReport",
    "bernoulli_numbers",
    "build_f",
    "certificate_json",
    "check_appendix_identity",
    "check_carlitz_von_staudt",
    "check_macmillan_sondow",
    "check_modular_collapse",
    "check_sandwich",
    "compute_bounds",
    "corollary_K_bound",
    "count_positive_roots",
    "decide",
    "eval_f",
    "filter_3f_plus_3",
    "filter_g_ge_e_plus_1",
    "filter_radical",
    "filter_w_plus_1_primes",
    "integers_in_window",
    "nu",
    "odd_prime_factors",
    "oracle_search",
    "powersum_batch",
    "powersum_closed",
    "powersum_direct",
    "rad",
    "sign_changes",
    "solution_family",
    "sweep",
    "verify_instance",
    "weak_K_bound",
]
