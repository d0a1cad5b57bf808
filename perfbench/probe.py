"""Host-speed probe: a fixed piece of pure-Python work, timed between operations.

The benchmark's host is a share of a machine whose speed wanders by tens
of percent over seconds and minutes, so a raw time says as much about the
neighbours as about the program.  A :class:`Probe` times the same small
piece of interpreter work every :data:`PROBE_EVERY_S` of a timed phase,
in the benchmark process itself, between two operations of the workload.
Its median time against :data:`REFERENCE_S` is the host's slowdown over
the phase (the median leaves out a probe the scheduler cut into), and the
benchmark divides the phase's times by it, so they read as on the
reference host.  The probe's own time is taken out of the phase.

The work is the benchmark's own, never the simulator's, so a change to
the program cannot move the yardstick; its working set is small, so it
pays almost nothing for the caches the program leaves cold.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Wall seconds of one probe on the host the bounds were set on (a 2-vCPU
#: Intel Xeon VM, Python 3.11); a slowdown of 1 means that speed.
REFERENCE_S = 1.5e-3

#: Least wall time between two probes of one phase.
PROBE_EVERY_S = 0.1

_TABLE = list(range(256))
_ITERATIONS = 2_500
_CHUNKS = 3


def _chunk() -> int:
    """Table reads, dict writes and integer arithmetic, about 0.5 ms."""
    table = _TABLE
    seen: dict = {}
    acc = 0
    for i in range(_ITERATIONS):
        j = (i * 2654435761) & 0xFF
        acc = (acc + table[j] * 31) & 0xFFFFFFFF
        seen[acc & 127] = j
    return acc + len(seen)


class Probe:
    """The probes of one timed phase: their times and what they cost."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        #: When each probe ended (``perf_counter``).
        self.at: list[float] = []
        #: Wall and CPU seconds spent probing, warm-up included.
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._last = float("-inf")

    def run(self) -> None:
        """Probe now: one untimed warm-up chunk, then the timed chunks."""
        w0, c0 = time.perf_counter(), time.process_time()
        _chunk()
        w1, c1 = time.perf_counter(), time.process_time()
        for _ in range(_CHUNKS):
            _chunk()
        w2, c2 = time.perf_counter(), time.process_time()
        self.wall.append(w2 - w1)
        self.cpu.append(c2 - c1)
        self.spent_wall += w2 - w0
        self.spent_cpu += c2 - c0
        self.at.append(w2)
        self._last = w2

    def maybe(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` have passed since the last probe."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.run()

    def slowdown(self, until: float = float("inf")) -> float:
        """Median wall time of a probe against the reference host's.

        Only the probes that ended by *until* count, and always the first.
        """
        count = max(1, bisect.bisect_right(self.at, until))
        return statistics.median(self.wall[:count]) / REFERENCE_S

    def cpu_slowdown(self) -> float:
        """Median CPU time of a probe against the reference host's."""
        return statistics.median(self.cpu) / REFERENCE_S
