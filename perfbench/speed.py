"""A fixed probe of the machine's current speed.  Imports nothing from exporamsey.

On a shared machine the speed at which Python runs drifts by tens of per
cent over seconds and minutes.  The benchmark runs this probe between jobs
and reports job times scaled to the probe's reference time:

    reference seconds = measured seconds * REFERENCE_S / probe seconds

where the probe time is the mean of the probes taken around the job.  The
probe mixes the kinds of work the program does: sorting objects, dict and
set traffic, small- and big-integer arithmetic, and string formatting.
"""

from __future__ import annotations

import random
import time

REFERENCE_S = 0.005  # the probe's time on the machine the bounds were set on

_rng = random.Random(20111107)
_PAIRS = [(_rng.getrandbits(64), _rng.getrandbits(16)) for _ in range(1500)]
_BIG = _rng.getrandbits(3000) | 1


def probe() -> float:
    """Seconds one fixed unit of work takes right now."""
    t0 = time.perf_counter()
    ordered = sorted(_PAIRS)
    table = {}
    for a, b in ordered:
        table[b] = table.get(b, 0) ^ (a * a % 1000003)
    seen = {f"{k}:{v}" for k, v in table.items()}
    x = _BIG
    for i in range(60):
        x = (x * x + i) % _BIG
    acc = 0
    for i in range(6000):
        acc += (i * i) ^ (i >> 3)
    if not seen or acc < 0 or x < 0:
        raise AssertionError("unreachable")
    return time.perf_counter() - t0
