"""Machine-speed calibration for wall times.

On a shared machine, other tenants can slow a process that runs Python
bytecode down by up to 2x, for anything from a second to over a minute,
while its CPU time keeps pace with its wall time.  A median of wall times
over a run of tens of seconds then varies with the neighbours' load more
than with the program.  So every timed operation is bracketed by a fixed
reference kernel, timed right before and right after it, and
``scale`` gives the factor that rescales the operation's time to the
machine speed at which the kernel takes ``REF_S`` seconds.

The kernel stands for code whose time goes to the interpreter and to small
numpy calls, which slows down under load about as much as the kernel does.
Native-bound operations (``workloads.AS_MEASURED``) slow down far less and
stay as measured.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on an undisturbed 2-core Intel Xeon (Haswell) box, so
# that normalised seconds read close to wall seconds there
REF_S = 0.0007
_RUNS = 3
_ARRAY = np.arange(32.0)


def _kernel():
    # dict and integer work for the interpreter, small-array calls for numpy:
    # the mix of the event loops and the decoder, whose slowdown under load
    # this kernel tracks better than a pure-Python loop does
    table = {}
    acc = 0
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
        acc += (i * 7) % 13
    a = _ARRAY
    for _ in range(100):
        a = a * 1.0000001 + 0.5
    return acc + len(table) + float(a[0])


def reference_s() -> float:
    """Fastest of a few timings of the reference kernel."""
    best = float("inf")
    for _ in range(_RUNS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(ref: float) -> float:
    """Factor from the wall time of an operation to its normalised time,
    given the kernel's time ``ref`` measured next to it."""
    return REF_S / ref
