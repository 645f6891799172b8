"""The speed reference: a fixed piece of pure-Python work that does not
touch the library, timed between ops to track how fast the host runs.

The host this benchmark was written on changes speed by up to 1.8 times
within tens of seconds, for every process alike (no steal time is
reported; process CPU time slows with wall time).  Run medians of raw
wall times then spread by 0.2 to 0.4 of their median from one run to
the next, beyond any bound worth checking.  So every timed op is followed,
outside the timed region, by a timed run of `reference`, and each op time is
rescaled to the speed at which the reference takes REFERENCE_S:
op seconds * REFERENCE_S / (median reference time around the op).  A
change to the library moves the rescaled times as it moves the raw ones,
since the reference runs none of its code; a slow phase of the host
moves both the op and the reference, and cancels.
"""

from __future__ import annotations

import statistics
import time

#: the reference's time on the host below in a middling phase, so rescaled
#: times read close to that phase's wall times (Python 3.11, 2.1 GHz Xeon)
REFERENCE_S = 0.00035


def reference() -> int:
    """Dict updates, list appends and a sort, as the library's own code
    does; it allocates only two containers, so it starts no collection of
    the library's garbage."""
    counts: dict[int, int] = {}
    keys = []
    for i in range(1500):
        k = (i * 7919) % 613
        counts[k] = counts.get(k, 0) + 1
        if i % 5 == 0:
            keys.append(k * 1500 + i)
    keys.sort()
    return len(counts) + len(keys)


def sample() -> float:
    """Seconds one run of the reference takes.  An untimed run goes first:
    the first run after an op pays to bring the reference's code and data
    back into the caches, which would tie its time to the op's footprint."""
    reference()
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


def rescale(times: list[float], refs: list[float], reach: int = 1) -> list[float]:
    """Rescale op times to the reference speed.  `refs[i]` was timed just
    after op i, so refs[i - 1] and refs[i] bracket it; the median of the
    references within `reach` of op i on each side gives its speed."""
    return [
        t * REFERENCE_S / statistics.median(refs[max(0, i - reach): i + reach + 1])
        for i, t in enumerate(times)
    ]
