"""A fixed reference kernel that measures how fast this CPU runs right now.

The machine the benchmark was built on is shared: its CPU speed drifts by up
to 2x over seconds and minutes, and every timing of the program moves with
it.  The benchmark times this kernel after each request and scales the
request's time by ``REFERENCE_S`` over the mean of the kernel times just
before and just after it, which reports the request at the speed the kernel
has on a quiet machine.  The kernel is a plain interpreter loop over small
integers.  Of the kernels tried (rational matrix products, Fraction
allocation, a loop over small numpy arrays, small LAPACK calls, this loop),
it tracked the slowdowns of exact, float and n-body requests most closely.
"""

from __future__ import annotations

import time

# kernel time on a quiet 2-core x86-64 machine, Python 3.11.7
REFERENCE_S = 0.7e-3


def _kernel() -> int:
    s = 0
    for k in range(1, 10000):
        s += k * k % 7
    return s


def kernel_seconds() -> float:
    """The faster of two timed runs of the reference kernel."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
