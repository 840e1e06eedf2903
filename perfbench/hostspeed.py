"""How fast the host runs while the benchmark's work runs.

The benchmark's hosts are shared: other tenants slow a run down by up to
a factor of two, in spells from a fraction of a second to minutes, far
more than the bounds a change is judged by. A `Meter` times a fixed probe
before, after and ten times a second during a piece of work, from a timer
signal, and reports the work's own time (the probe's time taken out) and
the host's speed: the probe's time on the reference host over its median
time here. The probe uses nothing from the program, so no change to the
program can speed it up or slow it down.

The probe reads a table at pseudo-random places. The table is twice the
size of a core's L2 cache on the reference host and a small part of its
shared L3, so most reads go to L3: the level where other tenants' load
slows this process down most. On one seed-independent workload, scaling
by this probe cut the spread of ten runs from 16% to 4.5%; a probe whose
data stays in L1 and L2 cut it to 7%.
"""

import signal
import statistics
import time
from array import array

#: Seconds `sample` takes on the reference host: about its median over a
#: day of shared load on the 2-core Xeon VM (2 MiB of L2 per core, 105 MiB
#: of L3) the benchmark was defined on. Reported times are in that host's
#: seconds.
REFERENCE_S = 0.001
#: Seconds between samples while work runs.
INTERVAL_S = 0.1
#: Reads per sample.
READS = 3000

_TABLE = array("q", [0]) * (1 << 19)  # 4 MiB
_state = 1


def sample():
    """Seconds `READS` reads of the table take now."""
    global _state
    x = _state
    size = len(_TABLE)
    acc = 0
    t0 = time.perf_counter()
    for _ in range(READS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        acc += _TABLE[x % size]
    elapsed = time.perf_counter() - t0
    _state = x
    return elapsed


class Meter:
    """Times the block it guards and samples the host's speed meanwhile.

    After the block, ``seconds`` is the block's wall time less the time
    spent sampling (``spent``), and ``speed`` is `REFERENCE_S` over the
    median sample: below 1 on a host slower than the reference. The
    block's work must not use SIGALRM or the real-time interval timer.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.seconds = None
        self._start = None
        self._previous = None

    def _sample(self, *_signal):
        t0 = time.perf_counter()
        self.samples.append(sample())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._start = time.perf_counter()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        # A signal raised just before the timer stopped is handled here,
        # while this meter's handler is still in place.
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)
        self.seconds = time.perf_counter() - self._start - self.spent
        return False

    @property
    def speed(self):
        return REFERENCE_S / statistics.median(self.samples)
