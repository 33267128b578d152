"""Host speed probe: scales timings to the host's uncontended speed.

On a shared host the speed of this process drifts by tens of percent over
seconds to minutes as other tenants come and go, and it slows all
interpreter-bound work alike. A run therefore times a fixed pure-Python probe
(dict lookups and integer arithmetic, about 1 ms) between units of work,
one per 20 ms of run time, so about 5% of a run probes. A
unit's contention factor is the mean time of the probes just before and just
after it, over the run's reference probe time: its fastest probe, the host's
quiet speed, since contention only ever slows a probe down. Dividing a unit's
time by its factor gives its time at the quiet speed; the raw times are
reported alongside.
"""

from __future__ import annotations

import bisect
import time

clock = time.perf_counter

_KEYS = [f"w{i}" for i in range(2000)]
_TABLE = {k: i for i, k in enumerate(_KEYS)}


def _probe_work():
    # Lookups and integer arithmetic only: it allocates no container, so the
    # program's heap and the garbage collector do not change its speed.
    total = 0
    for r in range(6):
        for k in _KEYS:
            total += _TABLE.get(k, r) + len(k)
    return total


PROBE_EVERY = 0.02  # seconds of run time per probe


class HostSpeed:
    """Probe samples taken between units of work."""

    def __init__(self):
        self.starts = []
        self.seconds = []

    def probe(self):
        t0 = clock()
        _probe_work()
        self.starts.append(t0)
        self.seconds.append(clock() - t0)

    def maybe_probe(self):
        """Catch up to one probe per PROBE_EVERY seconds since the last probe."""
        idle = clock() - self.starts[-1] if self.starts else PROBE_EVERY
        for _ in range(int(idle / PROBE_EVERY)):
            self.probe()

    def reference(self):
        return min(self.seconds)

    def factors(self, intervals):
        """Contention factor of each (start, end) interval of the run."""
        ref = self.reference()
        out = []
        for start, end in intervals:
            before = bisect.bisect_right(self.starts, start) - 1
            after = bisect.bisect_left(self.starts, end)
            near = [self.seconds[i] for i in (before, after) if 0 <= i < len(self.starts)]
            out.append(sum(near) / len(near) / ref)
        return out
