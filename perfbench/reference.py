"""A fixed reference workload that measures how fast the machine is right now.

Shared hosts run the same work at very different speeds from one minute to
the next: on the 2-vCPU VM this benchmark was written on, identical
campaigns took from 0.19 to 0.40 s, and 20-second windows of identical work
spread by 16-23% (interquartile range over median).  The slowdowns hit
memory-heavy code hardest, so the reference mixes interpreter work, dict
churn, small numpy operations and random gathers over a 2 MiB array.  The
measuring interpreter runs it on its own thread between repetitions, so it
sees the core the workload just ran on, and scales wall time by
``REFERENCE_S / measured``: the work the program did is then counted in
seconds of a machine that runs the reference in ``REFERENCE_S``.  Its
arrays and interpreter state stay for the whole run and add a fixed
10-20 MB to ``peak_rss_mb`` (forked pool workers count their copy too).
"""

from __future__ import annotations

import time

#: Seconds the reference takes on the machine the benchmark was written on,
#: in its usual state.  Fixed: changing it rescales every reported time.
REFERENCE_S = 0.065

_GATHER = 1 << 18


class Reference:
    """The reference workload; its inputs are built once, outside timing."""

    def __init__(self) -> None:
        import numpy as np  # after the program's own import is timed

        self._np = np
        self._small = np.arange(4096, dtype=np.int64)
        self._big = np.arange(_GATHER, dtype=np.int64)
        # An odd multiplier permutes 0..2^k-1 with long, cache-hostile
        # strides (numpy.random would map megabytes of code into RSS).
        self._index = (self._big * 40503 % _GATHER).astype(np.int32)
        self._out = np.empty(_GATHER, dtype=np.int64)
        self._run()  # first touch of every page, outside any timing

    def _run(self) -> int:
        x = 0
        for i in range(30_000):
            x += i * i % 7
        for _ in range(150):
            b = (self._small * 3 + 1) % 5
            x += int(b[b > 1].sum())
        d = {}
        for i in range(30_000):
            d[f"k{i}"] = i
        for i in range(0, 30_000, 3):
            x += d[f"k{i}"]
        for _ in range(8):
            self._np.take(self._big, self._index, out=self._out)
            x += int(self._out[::4096].sum())
        return x

    def seconds(self) -> float:
        """Wall seconds of one reference run, now."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start
