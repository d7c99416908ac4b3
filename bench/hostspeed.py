"""The host's current speed, from a fixed reference loop.

The CPU speed of a shared host drifts by a fifth or more in regimes that
last from seconds to minutes, and a run's timings drift with it.  The
benchmark therefore times a fixed pure-Python loop next to every job (and
around every set-up) and scales each measured time by
``REF_LOOP_S / loop time``: the time the work would have taken on a host
where the loop takes ``REF_LOOP_S``.  A change to the program moves the
scaled times as it moves the raw ones; a change of host speed moves both
the job and the loop and cancels.

    import hostspeed
    loop = hostspeed.ref_loop_s()
    scaled = measured_seconds * hostspeed.REF_LOOP_S / loop
"""

from __future__ import annotations

import time

REF_LOOP_N = 40_000      # iterations of one timing of the loop
REF_LOOP_REPEATS = 3     # timings per call; the least is kept
# the loop's time on the 2-vCPU x86-64 host the benchmark was tuned on, in
# its usual speed regime, so that scaled times read close to seconds there
REF_LOOP_S = 0.0063


def _loop(n: int) -> int:
    acc = 0
    seen = {}
    for i in range(n):
        acc += (i * i) % 7
        seen[i & 255] = acc
    return acc + len(seen)


def ref_loop_s() -> float:
    """Least wall seconds of REF_LOOP_REPEATS timings of the reference
    loop; the least is the one that no preemption lengthened."""
    best = float("inf")
    for _ in range(REF_LOOP_REPEATS):
        t0 = time.perf_counter()
        _loop(REF_LOOP_N)
        best = min(best, time.perf_counter() - t0)
    return best


def scale_factors(loops) -> list:
    """Scale factor for each interval between consecutive loop timings:
    REF_LOOP_S over the mean of the timings that bracket it."""
    return [2 * REF_LOOP_S / (a + b) for a, b in zip(loops, loops[1:])]
