"""Host speed: how fast the CPU this process runs on is right now.

On a shared cloud guest the same CPU-bound work takes up to 1.7x longer
in some stretches of 5-30 s than in others (other guests on the same
physical cores), and even a 0.5 ms sample is slow all through a slow
stretch, so no median or low quantile of a run's own timings escapes
it.  A fixed interpreter loop slows by the same factor at the same time,
so the benchmark measures that loop *inside* each measured process,
interleaved with the program, and reports the program's times in
reference seconds: the time it would take where the loop runs in
``REFERENCE_S``.

    speed = HostSpeed()
    speed.start()
    mark = speed.mark()
    ...                                    # the measured work
    ref_s = speed.reference_s(elapsed_s, mark)
    speed.stop()

The sampler runs the loop once every ``INTERVAL_S`` of wall time on
``SIGALRM`` (between bytecodes of the main thread, so it never runs
inside the program's own code) and keeps each run's CPU time.  It also
reads the process's CPU clock on every tick, which may come more often
(``tick_s``), so that the program's CPU use over a short stretch of
wall time can be read back.  The CPU
time the samples take is subtracted from the measured interval.  The
loop's working set is a few hundred bytes, so the program cannot change
how fast it runs; only the host can.

The loop's CPU time does not see the other way a shared host slows a
program: the hypervisor running other guests on this guest's CPUs
(steal), for up to a third of the time in busy stretches.  CPU times
exclude it.  A wall time is first cut to the share of it that this
guest's CPUs ran, from the kernel's steal counter (``/proc/stat``) over
the same interval (``reference_wall_s``).
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, NamedTuple, Optional, Tuple

#: Wall time between samples, and the loop's length.  One sample costs
#: about 0.25 ms of CPU, about 1% of the measured interval.
INTERVAL_S = 0.025
ITERATIONS = 2000
#: The fixed reference: about what one sample takes on a quiet core of a
#: 2-vCPU x86-64 cloud guest under CPython 3.11, so that reference
#: seconds read close to that host's uncontended seconds.
REFERENCE_S = 2.5e-4


def calibration_loop() -> int:
    """The fixed work: integer arithmetic and dict stores, as in the
    simulator's own inner loops."""
    total = 0
    slots = {}
    for i in range(ITERATIONS):
        total += i * i
        slots[i & 255] = total
    return total


def sample() -> float:
    """CPU seconds one run of the loop takes."""
    begin = time.process_time()
    calibration_loop()
    return time.process_time() - begin


def cpu_ticks() -> Optional[List[int]]:
    """The host's aggregate CPU tick counters (Linux ``/proc/stat``)."""
    try:
        with open("/proc/stat") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before: Optional[List[int]],
                after: Optional[List[int]]) -> Optional[float]:
    """Share of CPU ticks stolen by the hypervisor between two samples."""
    if before is None or after is None or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total > 0 else None


class Mark(NamedTuple):
    index: int       # samples taken before the mark
    spent_s: float   # sampler CPU time before the mark
    ticks: Optional[List[int]]   # cpu_ticks() at the mark


class HostSpeed:
    """Samples the calibration loop on a wall-clock timer (see module
    docstring).  Not reentrant; one per process."""

    def __init__(self, tick_s: float = INTERVAL_S) -> None:
        self.tick_s = tick_s
        #: Ticks per loop sample.
        self.every = max(1, round(INTERVAL_S / tick_s))
        self.ticks = 0
        self.samples: List[float] = []
        self.spent_s = 0.0
        #: (time.monotonic(), the program's CPU seconds so far) at each
        #: tick: the program's CPU use over any stretch of wall time.
        self.cpu_at: List[Tuple[float, float]] = []

    def start(self) -> None:
        # Warm the loop's code and dict before the first timed sample.
        calibration_loop()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)

    def stop(self) -> None:
        # Timer first: SIGALRM's default action ends the process.
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum: int, frame: object) -> None:
        self.cpu_at.append((time.monotonic(),
                            time.process_time() - self.spent_s))
        self.ticks += 1
        if self.ticks % self.every:
            return
        took = sample()
        self.samples.append(took)
        self.spent_s += took

    def mark(self) -> Mark:
        return Mark(len(self.samples), self.spent_s, cpu_ticks())

    def spent_since(self, mark: Mark) -> float:
        """Sampler CPU time since ``mark``: part of any interval measured
        since then, and not the program's."""
        return self.spent_s - mark.spent_s

    def sample_s(self, mark: Mark) -> float:
        """Median sample since ``mark`` (one taken now when there is
        none)."""
        return statistics.median(self.samples[mark.index:] or [sample()])

    def reference_s(self, cpu_s: float, mark: Mark) -> float:
        """``cpu_s``, this process's CPU time since ``mark``, less the
        sampler's own time, in reference seconds."""
        own = cpu_s - self.spent_since(mark)
        return own * REFERENCE_S / self.sample_s(mark)

    def to_reference(self, mark: Mark) -> float:
        """Reference seconds per wall second since ``mark``: the share
        of it the hypervisor did not steal, at the sampled speed."""
        return ((1.0 - (steal_share(mark.ticks, cpu_ticks()) or 0.0))
                * REFERENCE_S / self.sample_s(mark))

    def reference_wall_s(self, wall_s: float, mark: Mark) -> float:
        """``wall_s``, measured since ``mark``, less the sampler's own
        time, in reference seconds."""
        return (wall_s - self.spent_since(mark)) * self.to_reference(mark)
