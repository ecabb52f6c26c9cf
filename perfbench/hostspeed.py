"""Host-speed normalisation of the benchmark's times.

The benchmark runs on shared hosts whose speed drifts by tens of
percent within a minute: on a 2-vCPU x86-64 VM, a fixed pure-Python
loop took from 14 to 24 ms across 15-second windows of one 150-second
run, with CPU time equal to wall time (the slowdown is contention, not
steal).  So :data:`GAP` runs of :func:`piece`, a fixed 0.3 ms Python
loop, fill each gap between two ops, and each time an op yields is
scaled by the mean of ``REFERENCE_PIECE_S / median(pieces)`` over the
gaps just before and just after it: a time in milliseconds at the host
speed at which one piece takes ``REFERENCE_PIECE_S``.  A set-up is
scaled the same way.

The piece allocates nothing the cyclic collector tracks and touches no
program state, so a change to the program changes the op times and not
the factor.  The run reports the median factor as ``host_speed``, from
which the raw times can be recovered.
"""

from __future__ import annotations

import statistics
import time

#: One piece's time at the reference speed: its median on the 2-vCPU
#: x86-64 VM (CPython 3.11) the bounds in BENCHMARK.json were set on.
REFERENCE_PIECE_S = 0.0003
#: Pieces run in each gap between two ops (and before and after each
#: set-up).
GAP = 3


def piece() -> float:
    """Run the fixed loop once; return its wall time in seconds."""
    table = {}
    started = time.perf_counter()
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
    return time.perf_counter() - started


def factor(pieces: int = GAP) -> float:
    """Run *pieces* pieces; the factor their median gives."""
    return REFERENCE_PIECE_S / statistics.median(
        piece() for _ in range(pieces)
    )
