"""Host-speed calibration for the benchmark's wall-clock metrics.

On a few vCPUs of a shared host the speed of pure-Python code drifts by
up to a factor of two over seconds to minutes, because other tenants
share the physical cores.  A pass of the program slows with it, so raw
wall-clock figures from two runs minutes apart differ by more than any
change worth detecting.

:class:`HostSpeed` times a fixed pure-Python reference job (string
splitting, dict counting, sorting and small-object method calls, the
kind of work the program's Python layers do) in bursts of about 35 ms.
The benchmark runs a few bursts right before and right after each timed
sample (a pass or a set-up probe), and single bursts at hook points
inside a pass (:class:`InPass`).  The host factor of a sample is
``(median of its bursts / REFERENCE_S) ** ELASTICITY``, and the sample
is scaled by it to the figure it would have given on a host where the
job takes ``REFERENCE_S``.

On the reference machine, over eight minutes of passes per workload,
the log of a pass's time against the log of its bursts' median had a
slope of 0.83 and a correlation of 0.91 (udf-s10, 87 passes), and 0.82
and 0.84 (serve-4db, 75 passes): a pass slows about four fifths as much
as the job, which is what ``ELASTICITY`` says.  Scaling cut the quartile
spread of the median throughput of 30-second windows from 0.16 to 0.06
(udf-s10, 16 windows) and from 0.16 to 0.03 (serve-4db, 16 windows).
Bursts before and after a pass alone correlate at only about 0.6,
because the host's speed changes within a pass of several seconds.  The
job never calls the program and runs with the garbage collector off, so
a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import time

#: seconds one job takes on the reference machine (x86_64, 2 vCPUs,
#: Python 3.11), the median over about 3,000 bursts
REFERENCE_S = 0.035

#: the measured slope of log pass time on log burst time
ELASTICITY = 0.8

#: bursts run at each calibration point
BURSTS = 3

_WORDS = tuple(f"w{i % 211}x{i % 17}" for i in range(1500))


class _Cell:
    __slots__ = ("key", "count")

    def __init__(self, key: str) -> None:
        self.key = key
        self.count = 0

    def bump(self, by: int) -> None:
        self.count += by


def _job() -> int:
    cells: dict[str, _Cell] = {}
    checksum = 0
    for round_ in range(32):
        text = " ".join(_WORDS[round_:] + _WORDS[:round_])
        for position, word in enumerate(text.split()):
            cell = cells.get(word)
            if cell is None:
                cell = cells[word] = _Cell(word)
            cell.bump(position & 7)
        ranked = sorted(cells.values(), key=lambda c: (c.count, c.key))
        checksum += len(",".join(c.key for c in ranked[:50])) + ranked[-1].count
    return checksum


class HostSpeed:
    """Calibration bursts collected over one run."""

    def __init__(self) -> None:
        self.bursts: list[float] = []

    def calibrate(self, bursts: int = BURSTS) -> list[float]:
        """Run ``bursts`` timed reference jobs now; return their seconds."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            point = []
            for _ in range(bursts):
                start = time.perf_counter()
                _job()
                point.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.bursts.extend(point)
        return point

    @staticmethod
    def factor(*points: list[float]) -> float:
        """How much slower than the reference machine a sample ran, from
        the bursts around and inside it (1.0 = as fast)."""
        bursts = [b for point in points for b in point]
        return (statistics.median(bursts) / REFERENCE_S) ** ELASTICITY


class InPass:
    """Single bursts run at the benchmark's hook points inside one pass.

    Every ``every``-th :meth:`tick` runs one burst, at a point where the
    program's worker threads are idle; the seconds the bursts take are
    left out of the pass's wall time.  Without a :class:`HostSpeed`
    (traced runs) a tick does nothing.
    """

    def __init__(self, host: "HostSpeed | None", every: int) -> None:
        self.host = host
        self.every = every
        self.ticks = 0
        self.bursts: list[float] = []
        self.paused = 0.0

    def tick(self) -> None:
        if self.host is None:
            return
        self.ticks += 1
        if self.ticks % self.every:
            return
        mark = time.perf_counter()
        self.bursts.extend(self.host.calibrate(1))
        self.paused += time.perf_counter() - mark
