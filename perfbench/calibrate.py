"""Host-speed probe: a fixed reference loop timed during the operation.

A shared host can change speed by up to 2x, from one second to the next
and for tens of seconds at a time, so raw host seconds of the same work
differ from run to run by more than a program change should be judged
by.  While a
repeat's timed operation runs, :class:`SpeedProbe` interrupts it every
:data:`PERIOD_S` (``SIGALRM``) and times one chunk of a fixed pure-Python
reference loop, in the same process and on the same CPU, at that moment.
Each slice of the operation between two probes is rescaled by the speed
the probes around it saw::

    ref_s = sum(slice_s * NOMINAL_S / local_probe_s)

so ``ref_s`` is the operation's seconds at one fixed reference speed: the
host's speed at :data:`NOMINAL_S` per chunk.  The probe time itself is
left out of both ``host_s`` and ``ref_s``.  The loop touches no code
under ``src/``, so a change to the program cannot move it; a program
that does less work per slice shows as fewer reference seconds.

The loop does what the simulator's hot paths do: small objects with
attribute reads and writes, dict lookups and inserts, list indexing and
integer arithmetic.
"""

from __future__ import annotations

import gc
import signal
import time
from statistics import median
from typing import List, Tuple

#: Seconds of the operation between two probes.
PERIOD_S = 0.05
#: Median chunk time on the reference host (2-vCPU Intel Xeon at 2.1 GHz,
#: CPython 3.11), so reference seconds read as typical host seconds there.
NOMINAL_S = 0.00135
#: Probes on either side of a slice whose median gives its speed; the
#: median drops a probe that an interrupt or a page fault slowed.
WINDOW = 2


class _Line:
    __slots__ = ("tag", "age")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.age = 0


def chunk() -> int:
    """One fixed unit of reference work (returns a checksum)."""
    lines = [_Line(i) for i in range(256)]
    where = {}
    x = 12345
    hits = 0
    for step in range(2_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        tag = x >> 20
        slot = tag & 255
        line = lines[slot]
        if where.get(tag) == slot:
            hits += 1
            line.age = step
        else:
            where.pop(line.tag, None)
            line.tag = tag
            line.age = step
            where[tag] = slot
    return hits


class SpeedProbe:
    """Times :func:`chunk` every :data:`PERIOD_S` between start and stop."""

    def __init__(self) -> None:
        #: (operation seconds since the previous probe, probe seconds).
        self.slices: List[Tuple[float, float]] = []
        self._last = 0.0

    def _tick(self, _signum, _frame) -> None:
        # A collection the probe's allocations would trigger is the
        # program's work: defer it to the program's own time.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        chunk()
        end = time.perf_counter()
        if collecting:
            gc.enable()
        self.slices.append((start - self._last, end - start))
        self._last = end

    def start(self) -> None:
        self.slices = []
        signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> Tuple[float, float]:
        """Stop probing; returns (host seconds, reference seconds)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        tail = time.perf_counter() - self._last
        probes = [probe for _slice, probe in self.slices]
        host = tail + sum(slice_s for slice_s, _probe in self.slices)
        if not probes:
            return host, host
        ref = 0.0
        for i, (slice_s, _probe) in enumerate(self.slices):
            local = median(probes[max(0, i - WINDOW):i + WINDOW + 1])
            ref += slice_s * NOMINAL_S / local
        local = median(probes[-WINDOW - 1:])
        return host, ref + tail * NOMINAL_S / local
