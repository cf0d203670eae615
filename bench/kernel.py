"""Fixed calibration kernel for drift correction.

The host this benchmark was built on changes speed by tens of percent
within a minute (neighbours on shared cores), and CPU time tracks wall
time, so neither clock alone separates the program from the host.  The
ratio of a call's time to the time of a fixed pure-Python kernel run just
beside it is far steadier.  The kernel does the kinds of work the decider
does -- ``Fraction`` arithmetic, interpreter bookkeeping and big-integer
binomials -- and imports nothing from ``powerbalance``, so no change to the
program can change it.

``KERNEL_REF_NS`` is a round figure near the kernel's median time on the
reference host (see README.md).  A time ``t`` measured while the kernel
took ``k`` ns is reported as ``t * KERNEL_REF_NS / k``: time at
reference-host speed.
"""

from fractions import Fraction
from math import comb
from time import perf_counter_ns

KERNEL_REF_NS = 2_000_000

# Result of one kernel call; a different value means the kernel did other
# work than the reference and its timings must not be used.
KERNEL_CHECKSUM = 1910406099574112526

_MODULUS = (1 << 61) - 1


def kernel() -> int:
    """The fixed work, three parts of about equal time.

    A Fraction series (gcd-bound, like the window arithmetic), a plain
    interpreter loop over small ints and a dict (like the decider's
    bookkeeping), and big binomial coefficients (like the collapse replay).
    On the reference host a blend of the three tracked every workload
    better than any one part alone.
    """
    acc = Fraction(0)
    for i in range(1, 170):
        acc += Fraction(i * i * i + 1, i * (i + 2) + 7)
    table = {}
    total = 0
    for i in range(4000):
        total += (i * 7) % 13
        table[i & 255] = total
    binomials = 0
    for m in range(1, 200, 2):
        binomials ^= comb(600, m)
    return (acc.numerator ^ acc.denominator ^ total ^ binomials) % _MODULUS


def kernel_ns() -> int:
    """Run the kernel once and return its wall time in nanoseconds."""
    t0 = perf_counter_ns()
    value = kernel()
    t1 = perf_counter_ns()
    if value != KERNEL_CHECKSUM:
        raise RuntimeError(f"calibration kernel returned {value}, expected {KERNEL_CHECKSUM}")
    return t1 - t0
